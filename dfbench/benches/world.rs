//! Public-call construction of a workload's world, and the traced replica
//! of the static world loop.
//!
//! The construction repeats what `Simulation::run` does before its first
//! event (topology, placement, recorder, network, apps, MPI start); the
//! replica then drives the same event loop as `World::run`, with a span
//! around every call into a layer. Both use only the crates' public items,
//! so the benchmark measures the program from outside. The traced run
//! checks the replica's event count and simulated end time against a live
//! run, so a construction that drifts from the program's is caught, not
//! measured.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dfsim_core::placement::place;
use dfsim_core::runner::JobSpec;
use dfsim_core::spec::{ExperimentSpec, Workload as SpecWorkload};
use dfsim_core::{Simulation, WorldEvent, WorldQueue};
use dfsim_des::{EventQueue, QueueKind, Scheduler, SimRng, Time, MILLISECOND};
use dfsim_metrics::trace::TraceWriter;
use dfsim_metrics::{AppId, EventSink, Recorder, TraceEvent};
use dfsim_mpi::sim::MpiConfig;
use dfsim_mpi::{MpiEvent, MpiSim};
use dfsim_network::{NetEvent, NetworkSim};
use dfsim_topology::Topology;

use crate::probe;

/// Per-call times in whole nanoseconds, kept as a histogram so the
/// traced run can take the median of millions of calls in fixed memory.
pub struct NsHist {
    counts: Vec<u64>,
}

/// Calls of this many nanoseconds or more share the last bucket.
const HIST_NS: usize = 1 << 14;

impl NsHist {
    fn new() -> Self {
        NsHist { counts: vec![0; HIST_NS] }
    }

    fn add(&mut self, ns: u64) {
        let i = (ns as usize).min(HIST_NS - 1);
        self.counts[i] += 1;
    }

    /// Median call time, ns (0 when empty).
    pub fn median(&self) -> f64 {
        let n: u64 = self.counts.iter().sum();
        let mut seen = 0;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen * 2 >= n && c > 0 {
                return ns as f64;
            }
        }
        0.0
    }
}

/// The world queue behind a span: with timing on, every push is timed,
/// counted and its allocations attributed to `des`, so the caller can
/// subtract them from the layer that pushed.
pub struct TimedQueue {
    pub inner: WorldQueue<EventQueue<WorldEvent>>,
    timing: bool,
    pub push_ns: u64,
    pub push_allocs: u64,
    pub push_hist: NsHist,
}

impl TimedQueue {
    fn new(inner: WorldQueue<EventQueue<WorldEvent>>, timing: bool) -> Self {
        TimedQueue { inner, timing, push_ns: 0, push_allocs: 0, push_hist: NsHist::new() }
    }

    fn push<E>(&mut self, time: Time, ev: E)
    where
        WorldQueue<EventQueue<WorldEvent>>: Scheduler<E>,
    {
        if !self.timing {
            self.inner.at(time, ev);
            return;
        }
        let a0 = probe::allocs();
        let t0 = Instant::now();
        self.inner.at(time, ev);
        let ns = t0.elapsed().as_nanos() as u64;
        self.push_allocs += probe::allocs() - a0;
        self.push_ns += ns;
        self.push_hist.add(ns);
    }
}

impl Scheduler<NetEvent> for TimedQueue {
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn at(&mut self, time: Time, event: NetEvent) {
        self.push(time, event);
    }
}

impl Scheduler<MpiEvent> for TimedQueue {
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn at(&mut self, time: Time, event: MpiEvent) {
        self.push(time, event);
    }
}

/// Wall seconds of each construction step, measured around the public
/// call that performs it.
#[derive(Clone, Copy)]
pub struct Phases {
    /// Spec to first event: everything below plus spec validation,
    /// materialization, placement and the recorder.
    pub total_s: f64,
    pub network_s: f64,
    pub apps_s: f64,
    pub mpi_start_s: f64,
}

/// A constructed world, ready for its first event.
pub struct Built {
    pub net: NetworkSim,
    pub mpi: MpiSim,
    pub rec: Recorder,
    pub queue: TimedQueue,
    pub phases: Phases,
}

/// The static job list of a pairwise spec: target on its half-system
/// partition, idle padding to the half boundary, then the background
/// (the construction of paper section V that `Simulation` performs).
fn static_jobs(spec: &ExperimentSpec) -> Vec<JobSpec> {
    let SpecWorkload::Pairwise { target, background } = spec.workload else {
        panic!("the static replica covers pairwise workloads only");
    };
    let half = spec.params.num_nodes() / 2;
    let tsize = target.preferred_size(half);
    let mut jobs = vec![JobSpec::sized(target, tsize)];
    if tsize < half {
        jobs.push(JobSpec::idle(half - tsize));
    }
    if let Some(bg) = background {
        jobs.push(JobSpec::sized(bg, bg.preferred_size(half)));
    }
    jobs
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Build `spec`'s world up to its first event. Static workloads get their
/// apps built, registered and started; churn workloads start empty, since
/// their apps are built at admission inside the run. With `timing` on,
/// the queue times every push (the traced replica).
pub fn build(spec: &ExperimentSpec, sink: Option<Box<dyn EventSink>>, timing: bool) -> Built {
    let t_total = Instant::now();
    let mut sim = Simulation::from_spec(spec.clone()).expect("the workload spec is valid");
    sim.prepare().expect("the workload prepares");
    let cfg = spec.sim();
    assert_eq!(cfg.queue.kind(), QueueKind::Heap, "the replica drives the heap backend");

    let topo = Arc::new(Topology::new(cfg.params).expect("validated params"));

    let mut rec = Recorder::new(&topo, cfg.recorder);
    if let Some(sink) = sink {
        rec.set_sink(sink);
    }
    let t = Instant::now();
    let mut net =
        NetworkSim::new(Arc::clone(&topo), cfg.timing, cfg.routing.clone(), &SimRng::new(cfg.seed));
    let network_s = secs(t);

    let mut mpi = MpiSim::new(MpiConfig { eager_threshold: cfg.eager_threshold });
    let mut queue = TimedQueue::new(WorldQueue::for_backend(cfg.queue), timing);
    let (mut apps_s, mut mpi_start_s) = (0.0, 0.0);
    if matches!(spec.workload, SpecWorkload::Pairwise { .. }) {
        let jobs = static_jobs(spec);
        let sizes: Vec<u32> = jobs.iter().map(|j| j.size).collect();
        let partitions = place(&topo, spec.placement, &sizes, cfg.seed);
        let mut app = 0u16;
        for (job, nodes) in jobs.iter().zip(partitions) {
            if job.idle {
                continue;
            }
            let t = Instant::now();
            let inst = job.kind.build(job.size, cfg.scale, cfg.seed ^ (u64::from(app) << 32));
            apps_s += secs(t);
            mpi.add_app(AppId(app), nodes, inst.programs, inst.comms);
            app += 1;
        }
        let t = Instant::now();
        mpi.start(&mut queue, &mut net, &mut rec);
        mpi_start_s = secs(t);
    }
    let phases = Phases { total_s: secs(t_total), network_s, apps_s, mpi_start_s };
    Built { net, mpi, rec, queue, phases }
}

/// Build every app of a churn workload's arrival list, as the run does at
/// admission.
pub fn build_churn_apps(spec: &ExperimentSpec) {
    let SpecWorkload::Scenario(arrivals) = &spec.workload else {
        panic!("churn apps come from a scenario workload");
    };
    for (i, a) in arrivals.iter().enumerate() {
        std::hint::black_box(a.kind.build(a.size, spec.scale, spec.seed ^ ((i as u64) << 32)));
    }
}

/// The recorder's sink behind a span: counts the events and times each
/// hand-off to the trace encoder.
#[derive(Debug)]
struct TimedSink {
    inner: TraceWriter,
    events: Arc<AtomicU64>,
    ns: Arc<AtomicU64>,
}

impl EventSink for TimedSink {
    fn event(&mut self, ev: &TraceEvent) {
        let t0 = Instant::now();
        self.inner.record(ev);
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn finish(self: Box<Self>, meta: Option<&[u8]>) -> std::io::Result<()> {
        let t0 = Instant::now();
        let out = EventSink::finish(Box::new(self.inner), meta);
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// One layer's span totals: calls, self time and allocation calls.
#[derive(Default)]
pub struct Span {
    pub calls: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

impl Span {
    /// Time one call into the layer. The pushes and sink hand-offs made
    /// inside it are child spans, so they are taken out of its self time
    /// and allocation count.
    fn time(
        &mut self,
        queue: &mut TimedQueue,
        sink_ns: &AtomicU64,
        call: impl FnOnce(&mut TimedQueue),
    ) {
        let children =
            |q: &TimedQueue| (q.push_ns + sink_ns.load(Ordering::Relaxed), q.push_allocs);
        let (c0, ca0) = children(queue);
        let a0 = probe::allocs();
        let t0 = Instant::now();
        call(queue);
        let ns = t0.elapsed().as_nanos() as u64;
        let (c1, ca1) = children(queue);
        self.calls += 1;
        self.self_ns += ns.saturating_sub(c1 - c0);
        self.allocs += (probe::allocs() - a0).saturating_sub(ca1 - ca0);
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// What the traced replica measured, per layer.
pub struct Replica {
    pub events: u64,
    pub sim_ms: f64,
    pub completed: bool,
    pub wall_s: f64,
    pub pushes: u64,
    pub peak_pending: u64,
    pub pop_ns: f64,
    pub push_ns: f64,
    pub net_handle: Span,
    pub mpi_handle: Span,
    pub mpi_effect: Span,
    pub sink_events: u64,
    pub sink_s: f64,
    pub trace_bytes: u64,
}

/// Replay `spec`'s static world loop (the loop of `World::run`) under
/// spans, writing the recorder's event stream to `trace_path`.
pub fn replay_static(spec: &ExperimentSpec, trace_path: &std::path::Path) -> Replica {
    let cfg = spec.sim();
    let sink_events = Arc::new(AtomicU64::new(0));
    let sink_ns = Arc::new(AtomicU64::new(0));
    let writer = TraceWriter::create(trace_path).expect("the trace file is writable");
    let sink =
        TimedSink { inner: writer, events: Arc::clone(&sink_events), ns: Arc::clone(&sink_ns) };

    probe::count_allocs(true);
    let wall = Instant::now();
    let Built { mut net, mut mpi, mut rec, mut queue, .. } =
        build(spec, Some(Box::new(sink)), true);
    let mut effects = Vec::new();
    let mut pop_hist = NsHist::new();
    let (mut net_handle, mut mpi_handle, mut mpi_effect) =
        (Span::default(), Span::default(), Span::default());
    let mut processed = 0u64;
    let mut completed = mpi.all_finished();
    while !completed {
        let t0 = Instant::now();
        let popped = queue.inner.pop();
        pop_hist.add(t0.elapsed().as_nanos() as u64);
        let Some((t, ev)) = popped else { break };
        if cfg.horizon.is_some_and(|h| t > h) {
            break;
        }
        match ev {
            WorldEvent::Net(e) => {
                net_handle.time(&mut queue, &sink_ns, |q| net.handle(e, q, &mut rec, &mut effects));
                for eff in effects.drain(..) {
                    mpi_effect.time(&mut queue, &sink_ns, |q| {
                        mpi.on_net_effect(eff, q, &mut net, &mut rec)
                    });
                }
            }
            WorldEvent::Mpi(e) => {
                mpi_handle.time(&mut queue, &sink_ns, |q| mpi.handle(e, q, &mut net, &mut rec));
            }
            WorldEvent::Job(e) => panic!("job event {e:?} in a static world"),
        }
        processed += 1;
        if processed >= cfg.max_events {
            break;
        }
        completed = mpi.all_finished();
    }
    if let Some(sink) = rec.take_sink() {
        sink.finish(None).expect("the trace file is finished");
    }
    let wall_s = secs(wall);
    probe::count_allocs(false);

    let stats = queue.inner.stats();
    Replica {
        events: queue.inner.events_processed(),
        sim_ms: queue.inner.now() as f64 / MILLISECOND as f64,
        completed,
        wall_s,
        pushes: stats.events_scheduled,
        peak_pending: stats.peak_pending as u64,
        pop_ns: pop_hist.median(),
        push_ns: queue.push_hist.median(),
        net_handle,
        mpi_handle,
        mpi_effect,
        sink_events: sink_events.load(Ordering::Relaxed),
        sink_s: sink_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        trace_bytes: std::fs::metadata(trace_path).map(|m| m.len()).unwrap_or(0),
    }
}
