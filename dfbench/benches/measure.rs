//! The measured run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload.

use std::path::Path;
use std::time::Instant;

use dfsim_core::spec::ExperimentSpec;
use dfsim_core::summarize_trace;
use dfsim_metrics::trace::{encode_event, read_trace};
use dfsim_metrics::TraceEvent;
use dfsim_topology::Topology;

use crate::cache;
use crate::child::{spawn_batch, spawn_live, Batch, Live};
use crate::report::{Ops, Outcome, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::Workload;
use crate::world;

/// Fewest live runs per measured run, however long one takes.
const MIN_LIVE: usize = 3;
/// Seconds of set-up builds, and of cache hits, timed in each batch child.
pub const BATCH_S: f64 = 0.03;
/// Batch children after each live run take this share of the live run's
/// wall time.
const BATCH_SHARE: f64 = 0.5;
/// In-process batch of a per-layer step in the traced run, seconds.
const STEP_S: f64 = 0.3;

/// Per-call seconds of `op`, timed as an in-process batch: after one
/// untimed warm-up call, `op` runs in groups long enough for the clock
/// (about 20 µs each) until `budget_s` has passed, at least five groups.
fn batch(budget_s: f64, op: &mut dyn FnMut()) -> Vec<f64> {
    op();
    let t = Instant::now();
    op();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let group = ((20e-6 / one).ceil() as usize).max(1);
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..group {
            op();
        }
        per_call.push(t.elapsed().as_secs_f64() / group as f64);
    }
    per_call
}

fn median_of(budget_s: f64, op: &mut dyn FnMut()) -> f64 {
    Summary::of(&batch(budget_s, op)).median
}

/// Set-up timings of `spec` after one warm-up build: each sample builds
/// the world up to its first event and is dropped outside the timed span.
pub fn setup_samples(spec: &ExperimentSpec, budget_s: f64) -> Vec<world::Phases> {
    drop(world::build(spec, None, false));
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let built = world::build(spec, None, false);
        out.push(built.phases);
        drop(built);
    }
    out
}

/// Cache hits on `spec` until `budget_s` has passed (at least one),
/// without a warm-up: a fresh process's first hit is the one a command-line
/// user pays. Each hit is an operation that fails unless it returns the
/// stored report, whose digest is `want`, bit for bit. Returns per-hit
/// seconds.
pub fn hit_samples(spec: &ExperimentSpec, want: u64, budget_s: f64, ops: &mut Ops) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let (dt, ok) = cache::hit(spec, want);
        ops.record("cache hit", &[(!ok, "not served from the cache, or its report differs")]);
        out.push(dt);
    }
    out
}

/// Count one live run as an operation: it fails if it did not complete
/// every app or job, or if its report differs from `reference`'s.
fn check_live(ops: &mut Ops, what: &str, live: &Live, reference: Option<&Live>) {
    ops.record(
        what,
        &[
            (!live.completed, "the run did not complete every app or job"),
            (
                reference.is_some_and(|r| r.canon != live.canon),
                "its report differs from the reference report",
            ),
        ],
    );
}

/// The measured run: live runs until `seconds` have passed (at least
/// three), each followed by batch children timing set-up and cache hits.
pub fn measured(w: Workload, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cache_dir = work.join(format!("cache-{}", w.name()));
    let start = Instant::now();

    // The partitioned workload's report must equal the sequential one's.
    // The reference run counts against `seconds`, so that every
    // workload's run takes about as long.
    let reference = if w.threads() > 1 {
        match spawn_live(w, seed, 1, None, None) {
            Ok(r) => {
                check_live(&mut out.ops, "P=1 reference run", &r, None);
                Some(r)
            }
            Err(e) => {
                out.ops.fail("P=1 reference run", &e);
                None
            }
        }
    } else {
        None
    };

    let mut lives: Vec<Live> = Vec::new();
    let mut batches: Vec<Batch> = Vec::new();
    let mut stored: Option<u64> = None;
    for round in 1.. {
        let store = stored.is_none().then_some(cache_dir.as_path());
        match spawn_live(w, seed, w.threads(), store, None) {
            Ok(live) => {
                let want = reference.as_ref().or(lives.first());
                check_live(&mut out.ops, "live run", &live, want);
                if store.is_some() {
                    stored = Some(live.full);
                }
                lives.push(live);
            }
            Err(e) => out.ops.fail("live run", &e),
        }
        // Short operations are timed between the live runs, spread over
        // the whole run rather than bunched at its end.
        let batch_until = lives.last().map_or(0.0, |l| l.wall * BATCH_SHARE);
        let batch_start = Instant::now();
        while let Some(want) = stored {
            if batch_start.elapsed().as_secs_f64() >= batch_until {
                break;
            }
            match spawn_batch(w, seed, &cache_dir, want) {
                Ok(b) => {
                    out.ops.attempted += b.attempted;
                    out.ops.failed += b.failed;
                    if b.failed > 0 {
                        out.ops.notes.push(format!("cache hit: {} hits failed", b.failed));
                    }
                    batches.push(b);
                }
                Err(e) => out.ops.fail("set-up and cache-hit batch", &e),
            }
        }
        // Another round fits if the mean round so far does. Failing
        // children end the loop after a few rounds instead of spinning.
        let spent = start.elapsed().as_secs_f64();
        let full = lives.len() >= MIN_LIVE && spent + spent / round as f64 > seconds;
        if full || round >= 4 * MIN_LIVE {
            break;
        }
    }
    out.sim = lives.first().copied();
    if !lives.is_empty() {
        out.median("wall_s", &lives.iter().map(|l| l.wall).collect::<Vec<_>>());
        out.median("cpu_s", &lives.iter().map(|l| l.cpu).collect::<Vec<_>>());
        out.median("peak_rss_mb", &lives.iter().map(|l| l.rss_mb).collect::<Vec<_>>());
    }
    // On a shared host these short allocation- and syscall-heavy
    // operations run up to 60% slower in some stretches of tens of
    // milliseconds than in others, and the share of slow stretches drifts
    // over minutes, so a median over processes flips between the two
    // speeds. The fastest process's median is the steady figure of the
    // program's own cost.
    if !batches.is_empty() {
        out.minimum("setup_s", &batches.iter().map(|b| b.setup).collect::<Vec<_>>());
        out.minimum("cache_hit_s", &batches.iter().map(|b| b.hit).collect::<Vec<_>>());
    }
    out.finish(&END_TO_END);
    out
}

/// Seconds to re-encode every event of a trace file, in chunks so the
/// timed span holds the encoding only, not the file read and decode.
fn encode_seconds(path: &Path) -> Option<f64> {
    let mut chunk: Vec<TraceEvent> = Vec::with_capacity(1 << 16);
    let mut buf = Vec::with_capacity(1 << 22);
    let mut spent = 0.0;
    let mut flush = |chunk: &mut Vec<TraceEvent>, buf: &mut Vec<u8>| {
        let t = Instant::now();
        for ev in chunk.iter() {
            encode_event(buf, ev);
        }
        std::hint::black_box(&buf);
        spent += t.elapsed().as_secs_f64();
        chunk.clear();
        buf.clear();
    };
    read_trace(path, |ev| {
        chunk.push(*ev);
        if chunk.len() == chunk.capacity() {
            flush(&mut chunk, &mut buf);
        }
    })
    .ok()?;
    flush(&mut chunk, &mut buf);
    Some(spent)
}

/// The traced run: per-layer metrics, separate from the measured run.
pub fn traced(w: Workload, seed: u64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    trace_layers(&mut out, w, seed, work);
    out.finish(&PER_LAYER);
    out
}

fn trace_layers(out: &mut Outcome, w: Workload, seed: u64, work: &Path) {
    let spec = w.spec(seed);
    let cache_dir = work.join(format!("cache-{}", w.name()));
    let trace_path = work.join(format!("{}.trace", w.name()));

    // Untraced live runs of the cell at P=1 and P=2: the reference the
    // traced numbers are checked against, and the partition layer's cost.
    let (p1, p2) = match (
        spawn_live(w, seed, 1, Some(&cache_dir), None),
        spawn_live(w, seed, 2, None, None),
    ) {
        (Ok(p1), Ok(p2)) => (p1, p2),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                out.ops.fail("live run", &e);
            }
            return;
        }
    };
    check_live(&mut out.ops, "P=1 live run", &p1, None);
    check_live(&mut out.ops, "P=2 live run", &p2, Some(&p1));
    out.sim = Some(p1);
    out.value("des.ns_per_event", p1.wall * 1e9 / p1.events as f64);
    out.value("core.partition.extra_cpu_s", p2.cpu - p1.cpu);
    out.value("core.partition.speedup", p1.wall / p2.wall);

    if w.is_static() {
        // The P=1 replica of the cell's world loop; `fig8_qadp_p2` reports
        // it too, since the partitioned driver is crate-private.
        let r = world::replay_static(&w.spec_at(seed, 1), &trace_path);
        let same = r.completed && r.events == p1.events && r.sim_ms == p1.sim_ms;
        out.ops.record(
            "traced replica",
            &[(!same, "its event count or simulated end time differs from the live run")],
        );
        // A replica that differs measures another program: its layer
        // numbers are discarded.
        if same {
            out.value("des.events", r.events as f64);
            out.value("des.pushes", r.pushes as f64);
            out.value("des.peak_pending", r.peak_pending as f64);
            out.value("des.pop_ns", r.pop_ns);
            out.value("des.push_ns", r.push_ns);
            out.value("network.handle_calls", r.net_handle.calls as f64);
            out.value("network.handle_self_s", r.net_handle.self_s());
            out.value("network.allocs", r.net_handle.allocs as f64);
            out.value("mpi.handle_calls", r.mpi_handle.calls as f64);
            out.value("mpi.handle_self_s", r.mpi_handle.self_s());
            out.value("mpi.effect_calls", r.mpi_effect.calls as f64);
            out.value("mpi.effect_self_s", r.mpi_effect.self_s());
            out.value("mpi.allocs", (r.mpi_handle.allocs + r.mpi_effect.allocs) as f64);
            out.value("metrics.sink_events", r.sink_events as f64);
            out.value("metrics.trace_encode_s", r.sink_s);
            out.value("metrics.trace_bytes", r.trace_bytes as f64);
            out.value("trace_overhead", r.wall_s - p1.wall);
        }
    } else {
        // The churn loop is crate-private: its work is read back as counts
        // from the run's own trace file, and its handle-level spans are
        // not measured.
        match spawn_live(w, seed, 1, None, Some(&trace_path)) {
            Ok(t) => {
                check_live(&mut out.ops, "traced live run", &t, Some(&p1));
                match (summarize_trace(&trace_path), encode_seconds(&trace_path)) {
                    (Ok((contents, meta)), Some(encode_s)) => {
                        let bytes = std::fs::metadata(&trace_path).map_or(0, |m| m.len());
                        out.value("des.events", meta.events as f64);
                        out.value("des.pushes", meta.stats.events_scheduled as f64);
                        out.value("des.peak_pending", meta.stats.peak_pending as f64);
                        out.value("metrics.sink_events", contents.events as f64);
                        out.value("metrics.trace_encode_s", encode_s);
                        out.value("metrics.trace_bytes", bytes as f64);
                        out.value("trace_overhead", t.wall - p1.wall);
                    }
                    _ => out.ops.fail("trace read-back", "the trace file does not read back"),
                }
            }
            Err(e) => out.ops.fail("traced live run", &e),
        }
    }
    let _ = std::fs::remove_file(&trace_path);

    // Construction, one public call at a time.
    let setup = setup_samples(&spec, STEP_S);
    let med =
        |f: fn(&world::Phases) -> f64| Summary::of(&setup.iter().map(f).collect::<Vec<_>>()).median;
    let topo = median_of(0.1, &mut || {
        std::hint::black_box(Topology::new(spec.params).expect("valid params"));
    });
    out.value("topology.build_ms", topo * 1e3);
    out.value("network.build_ms", med(|p| p.network_s) * 1e3);
    if w.is_static() {
        out.value("mpi.start_ms", med(|p| p.mpi_start_s) * 1e3);
        out.value("apps.build_ms", med(|p| p.apps_s) * 1e3);
    } else {
        let apps = median_of(STEP_S, &mut || world::build_churn_apps(&spec));
        out.value("apps.build_ms", apps * 1e3);
    }

    // The cache-hit path, step by step, on the entry the P=1 run stored.
    let cspec = cache::cached_spec(&spec, &cache_dir);
    let (_, ok) = cache::hit(&cspec, p1.full);
    out.ops.record("cache hit", &[(!ok, "not served from the cache, or its report differs")]);
    let steps = cache::steps(&cspec, |op| median_of(STEP_S, op));
    out.value("network.snapshot_parse_ms", steps.snapshot_parse_ms);
    out.value("core.cache.key_us", steps.key_us);
    out.value("core.cache.load_ms", steps.load_ms);
    out.value("core.cache.decode_ms", steps.decode_ms);
    out.value("core.cache.encode_ms", steps.encode_ms);
    out.value("core.cache.entry_bytes", steps.entry_bytes as f64);
}
