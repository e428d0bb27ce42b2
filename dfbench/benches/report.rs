//! The metric tables and the outcome of one workload's run: operation
//! counts, the simulated statistics and the metrics, printed as a table and
//! as the closing JSON line.

use crate::child::Live;
use crate::stats::{esc, num, Summary};

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("cache_hit_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("des.events", "count"),
    ("des.pushes", "count"),
    ("des.peak_pending", "count"),
    ("des.pop_ns", "ns"),
    ("des.push_ns", "ns"),
    ("des.ns_per_event", "ns"),
    ("topology.build_ms", "ms"),
    ("network.build_ms", "ms"),
    ("network.handle_calls", "count"),
    ("network.handle_self_s", "s"),
    ("network.allocs", "count"),
    ("network.snapshot_parse_ms", "ms"),
    ("mpi.start_ms", "ms"),
    ("mpi.handle_calls", "count"),
    ("mpi.handle_self_s", "s"),
    ("mpi.effect_calls", "count"),
    ("mpi.effect_self_s", "s"),
    ("mpi.allocs", "count"),
    ("apps.build_ms", "ms"),
    ("metrics.sink_events", "count"),
    ("metrics.trace_encode_s", "s"),
    ("metrics.trace_bytes", "bytes"),
    ("core.cache.key_us", "us"),
    ("core.cache.load_ms", "ms"),
    ("core.cache.decode_ms", "ms"),
    ("core.cache.encode_ms", "ms"),
    ("core.cache.entry_bytes", "bytes"),
    ("core.partition.extra_cpu_s", "s"),
    ("core.partition.speedup", "x"),
    ("trace_overhead", "s"),
];

/// Operations attempted and failed. A failure is counted, not aborted.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ops {
    /// Count one operation; it fails if any named condition holds.
    pub fn record(&mut self, what: &str, failures: &[(bool, &str)]) {
        self.attempted += 1;
        let why: Vec<&str> = failures.iter().filter(|f| f.0).map(|f| f.1).collect();
        if !why.is_empty() {
            self.failed += 1;
            self.notes.push(format!("{what}: {}", why.join("; ")));
        }
    }

    pub fn fail(&mut self, what: &str, why: &str) {
        self.record(what, &[(true, why)]);
    }
}

#[derive(Default)]
pub struct Outcome {
    pub ops: Ops,
    /// The live run whose simulated statistics are printed.
    pub sim: Option<Live>,
    /// Name, unit, reported value and the summary of the samples.
    metrics: Vec<(&'static str, &'static str, f64, Summary)>,
    /// Metrics this run did not measure, reported as 0.
    missing: Vec<&'static str>,
}

impl Outcome {
    /// Record a metric's samples and the value reported for them.
    fn record(&mut self, name: &'static str, samples: &[f64], value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("{name} is not in the metric tables"));
        self.metrics.push((name, unit, value, Summary::of(samples)));
    }

    /// A metric reported as the median of its samples.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        self.record(name, samples, Summary::of(samples).median);
    }

    /// A metric reported as the smallest of its samples.
    pub fn minimum(&mut self, name: &'static str, samples: &[f64]) {
        self.record(name, samples, samples.iter().copied().fold(f64::INFINITY, f64::min));
    }

    /// A metric with one value: a count or a derived figure.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.record(name, &[value], value);
    }

    /// Put the metrics in `table` order; a metric the run did not measure
    /// is reported as 0 and listed as missing.
    pub fn finish(&mut self, table: &[(&'static str, &'static str)]) {
        let mut ordered = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            match self.metrics.iter().find(|m| m.0 == name) {
                Some(m) => ordered.push(*m),
                None => {
                    self.missing.push(name);
                    ordered.push((name, unit, 0.0, Summary::of(&[0.0])));
                }
            }
        }
        self.metrics = ordered;
    }

    pub fn print(&self) {
        if let Some(l) = self.sim {
            println!(
                "sim: events {} | sim_ms {} | mean job wait {} ms | digest {:016x}",
                l.events, l.sim_ms, l.wait_ms, l.canon
            );
        }
        println!(
            "{:<28} {:<6} {:>14} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "unit", "value", "median", "q1", "q3", "spread", "n"
        );
        for (name, unit, value, s) in &self.metrics {
            println!(
                "{name:<28} {unit:<6} {:>14} {:>14} {:>14} {:>14} {:>7.2}% {:>6}",
                sig(*value),
                sig(s.median),
                sig(s.q1),
                sig(s.q3),
                100.0 * s.spread(),
                s.n
            );
        }
        if !self.missing.is_empty() {
            println!("not measured on this run (reported as 0): {}", self.missing.join(", "));
        }
        println!("ops: attempted {} | failed {}", self.ops.attempted, self.ops.failed);
        for n in &self.ops.notes {
            println!("failure: {n}");
        }
    }

    /// The JSON members of the metrics object, each name led by `prefix`.
    pub fn entries(&self, prefix: &str) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, unit, value, _)| {
                format!(
                    "\"{}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    esc(prefix),
                    esc(name),
                    num(*value),
                    esc(unit)
                )
            })
            .collect()
    }
}

/// `x` to six significant digits, for the table.
fn sig(x: f64) -> String {
    if x.fract() == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (5 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

/// The closing line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(attempted: u64, failed: u64, entries: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        entries.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables and BENCHMARK.json at the repository root name the same
    /// metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json is readable");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {name} in {unit}");
        }
        assert_eq!(compact.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
    }
}
