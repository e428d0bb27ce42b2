//! Child processes. Every live run is made in a fresh process, so its CPU
//! time and peak memory are its own; the short set-up and cache-hit
//! operations are timed in fresh processes too, so one process's heap and
//! code layout does not set a run's figure.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use dfsim_core::cache::encode_report;
use dfsim_core::{EngineReport, RunReport, Simulation};

use crate::measure::{hit_samples, setup_samples, BATCH_S};
use crate::report::Ops;
use crate::stats::Summary;
use crate::workloads::Workload;
use crate::{cache, probe};

/// FNV-1a, 64 bits: the report digest.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Digest of the report with its host-dependent fields blanked: the wall
/// time and the engine block, whose counters describe per-shard queues
/// under partitioning. Equal digests mean equal simulated results.
fn canonical(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.wall_s = 0.0;
    r.engine = EngineReport::default();
    digest(&encode_report(&r))
}

/// Live mode: run the workload once at `threads` and print what the run
/// cost and what it simulated. With `store`, also write the report to the
/// result cache in that directory (outside the timed span).
pub fn live(
    w: Workload,
    seed: u64,
    threads: usize,
    store: Option<PathBuf>,
    trace: Option<PathBuf>,
) {
    let mut spec = w.spec_at(seed, threads);
    spec.trace = trace;
    let (cpu0, _) = probe::usage();
    let t = Instant::now();
    let handle = Simulation::from_spec(spec.clone()).and_then(|mut s| s.run());
    let wall = t.elapsed().as_secs_f64();
    let (cpu1, rss_mb) = probe::usage();
    let h = handle.unwrap_or_else(|e| {
        eprintln!("dfbench: {} run failed: {e}", w.name());
        std::process::exit(1)
    });
    let r = &h.report;
    let completed = r.completed
        && r.apps.len() == w.jobs()
        && (w.is_static() || (r.jobs.len() == w.jobs() && r.jobs.iter().all(|j| j.completed)));
    if let Some(dir) = store {
        let cspec = cache::cached_spec(&w.spec_at(seed, threads), &dir);
        cache::store(&cspec, r, h.qtable_snapshot.as_ref());
    }
    let wait_ms = if r.jobs.is_empty() {
        0.0
    } else {
        r.jobs.iter().map(|j| j.wait_ms).sum::<f64>() / r.jobs.len() as f64
    };
    println!(
        "RESULT wall={wall} cpu={} rss={rss_mb} events={} sim_ms={} wait_ms={wait_ms} \
         completed={} canon={} full={}",
        cpu1 - cpu0,
        r.events,
        r.sim_ms,
        u8::from(completed),
        canonical(r),
        digest(&encode_report(r)),
    );
}

/// Batch mode: time set-up and cache hits on the entry in `cache_dir`,
/// which must return the report whose digest is `want`.
pub fn batch(w: Workload, seed: u64, cache_dir: &Path, want: u64) {
    let spec = w.spec(seed);
    let setup: Vec<f64> = setup_samples(&spec, BATCH_S).iter().map(|p| p.total_s).collect();
    let mut ops = Ops::default();
    let hits = hit_samples(&cache::cached_spec(&spec, cache_dir), want, BATCH_S, &mut ops);
    println!(
        "RESULT setup={} hit={} attempted={} failed={}",
        Summary::of(&setup).median,
        Summary::of(&hits).median,
        ops.attempted,
        ops.failed
    );
}

/// What one live child reported.
#[derive(Clone, Copy)]
pub struct Live {
    pub wall: f64,
    pub cpu: f64,
    pub rss_mb: f64,
    pub events: u64,
    pub sim_ms: f64,
    /// Mean admission wait of the run's jobs (0 for static runs).
    pub wait_ms: f64,
    pub completed: bool,
    /// Digest of the report without its host-dependent fields.
    pub canon: u64,
    /// Digest of the whole report, as stored in the cache.
    pub full: u64,
}

/// What one batch child reported: the median set-up and cache-hit times
/// of its batches, and its cache-hit operation counts.
pub struct Batch {
    pub setup: f64,
    pub hit: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Run this executable with `args` and return the `key=value` fields of
/// the `RESULT` line it prints.
fn run(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("child process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line =
        text.lines().find_map(|l| l.strip_prefix("RESULT ")).ok_or("child printed no result")?;
    Ok(line
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn field<T: std::str::FromStr>(fields: &[(String, String)], key: &str) -> Result<T, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| format!("child result lacks a valid {key}"))
}

pub fn spawn_live(
    w: Workload,
    seed: u64,
    threads: usize,
    store: Option<&Path>,
    trace: Option<&Path>,
) -> Result<Live, String> {
    let mut args = vec!["--child".to_string(), threads.to_string()];
    args.extend(["--workload".to_string(), w.name().to_string()]);
    args.extend(["--seed".to_string(), seed.to_string()]);
    if let Some(dir) = store {
        args.extend(["--store-cache".to_string(), dir.display().to_string()]);
    }
    if let Some(path) = trace {
        args.extend(["--trace-file".to_string(), path.display().to_string()]);
    }
    let f = run(&args)?;
    Ok(Live {
        wall: field(&f, "wall")?,
        cpu: field(&f, "cpu")?,
        rss_mb: field(&f, "rss")?,
        events: field(&f, "events")?,
        sim_ms: field(&f, "sim_ms")?,
        wait_ms: field(&f, "wait_ms")?,
        completed: field::<u8>(&f, "completed")? == 1,
        canon: field(&f, "canon")?,
        full: field(&f, "full")?,
    })
}

pub fn spawn_batch(w: Workload, seed: u64, cache_dir: &Path, want: u64) -> Result<Batch, String> {
    let args = [
        "--batch".to_string(),
        want.to_string(),
        "--workload".to_string(),
        w.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--store-cache".to_string(),
        cache_dir.display().to_string(),
    ];
    let f = run(&args)?;
    Ok(Batch {
        setup: field(&f, "setup")?,
        hit: field(&f, "hit")?,
        attempted: field(&f, "attempted")?,
        failed: field(&f, "failed")?,
    })
}
