//! dfbench: end-to-end and per-layer host-time benchmark of dfsim.
//!
//! ```text
//! dfbench --workload <fig8_qadp|fig8_qadp_p2|churn_ugal|all> [--seed N]
//!         [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that produces the per-layer metrics. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See README.md for the workloads and the metric table.

mod cache;
mod child;
mod measure;
mod probe;
mod report;
mod stats;
mod workloads;
mod world;

use std::path::PathBuf;

use workloads::Workload;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Working directory for cache entries and trace files, relative to the
/// directory the benchmark runs in; removed when the run ends.
const WORK_DIR: &str = ".dfbench_work";

fn usage() -> ! {
    eprintln!(
        "usage: dfbench --workload <fig8_qadp|fig8_qadp_p2|churn_ugal|all> [--seed N] \
         [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn bad_value<T, E>(_: E) -> T {
    usage()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: run the workload once at this many threads.
    child: Option<usize>,
    /// Batch mode: time set-up and cache hits, which must return the
    /// report with this digest.
    batch: Option<u64>,
    store_cache: Option<PathBuf>,
    trace_file: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30.0,
        trace: false,
        child: None,
        batch: None,
        store_cache: None,
        trace_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().unwrap_or_else(bad_value),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(bad_value),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--child" => a.child = Some(val.parse().unwrap_or_else(bad_value)),
            "--batch" => a.batch = Some(val.parse().unwrap_or_else(bad_value)),
            "--store-cache" => a.store_cache = Some(PathBuf::from(val)),
            "--trace-file" => a.trace_file = Some(PathBuf::from(val)),
            _ => usage(),
        }
    }
    a
}

/// The working directory of one benchmark process, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let dir = PathBuf::from(WORK_DIR);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the working directory can be created");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = parse_args();
    let workload = |name: &str| Workload::parse(name).unwrap_or_else(|| usage());
    if let Some(threads) = args.child {
        child::live(
            workload(&args.workload),
            args.seed,
            threads,
            args.store_cache,
            args.trace_file,
        );
        return;
    }
    if let Some(want) = args.batch {
        let dir = args.store_cache.unwrap_or_else(|| usage());
        child::batch(workload(&args.workload), args.seed, &dir, want);
        return;
    }
    let workloads = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![workload(&args.workload)]
    };
    let work = WorkDir::create();
    let (mut attempted, mut failed, mut entries) = (0, 0, Vec::new());
    for &w in &workloads {
        println!(
            "dfbench {} | seed {} | seconds {} | trace {}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        println!("{}", probe::host_line());
        let out = if args.trace {
            measure::traced(w, args.seed, &work.0)
        } else {
            measure::measured(w, args.seed, args.seconds, &work.0)
        };
        out.print();
        attempted += out.ops.attempted;
        failed += out.ops.failed;
        // `--workload all` names each metric `<workload>/<metric>`.
        let prefix = if workloads.len() > 1 { format!("{}/", w.name()) } else { String::new() };
        entries.extend(out.entries(&prefix));
    }
    drop(work);
    println!("{}", report::json_line(attempted, failed, &entries));
}
