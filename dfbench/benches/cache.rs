//! The result-cache path: a warm entry, cache hits through `Simulation`,
//! and the cost of each step a hit takes.

use std::path::Path;
use std::time::Instant;

use dfsim_core::cache::{decode_report, encode_report, CacheMode};
use dfsim_core::spec::ExperimentSpec;
use dfsim_core::{cache_key, ResultCache, RunReport, Simulation};
use dfsim_network::QTableSnapshot;

use crate::child::digest;

/// `spec` with its result cache under `dir`.
pub fn cached_spec(spec: &ExperimentSpec, dir: &Path) -> ExperimentSpec {
    let mut spec = spec.clone();
    spec.cache = CacheMode::Dir(dir.to_path_buf());
    spec
}

/// Write the entry a cache hit on `spec` (cache on) will read.
pub fn store(spec: &ExperimentSpec, report: &RunReport, snapshot: Option<&QTableSnapshot>) {
    let cache = ResultCache::open(&spec.cache)
        .expect("the cache directory opens")
        .expect("the spec has its cache on");
    let key = cache_key(spec).expect("the spec has a cache key");
    cache.store(&key, report, snapshot).expect("the cache entry is written");
}

/// One `Simulation::run` served from the warm cache: its wall seconds and
/// whether it returned a cached report bit-identical to the stored one.
pub fn hit(spec: &ExperimentSpec, want: u64) -> (f64, bool) {
    let t = Instant::now();
    let handle = Simulation::from_spec(spec.clone()).and_then(|mut s| s.run());
    let dt = t.elapsed().as_secs_f64();
    let ok = match handle {
        Ok(h) => h.cached && digest(&encode_report(&h.report)) == want,
        Err(_) => false,
    };
    (dt, ok)
}

/// Per-call costs of the steps of one hit, each the median of a batch.
pub struct Steps {
    pub key_us: f64,
    pub load_ms: f64,
    pub decode_ms: f64,
    pub snapshot_parse_ms: f64,
    pub encode_ms: f64,
    pub entry_bytes: u64,
}

/// Split an entry file into its report blob and snapshot text: a header
/// line, a key line, a little-endian `u32` length and the blob, then a
/// flag byte and, when set, a length-prefixed snapshot text.
fn split_entry(bytes: &[u8]) -> (&[u8], Option<&str>) {
    let mut rest = bytes;
    for _ in 0..2 {
        let nl = rest.iter().position(|&b| b == b'\n').expect("an entry has two header lines");
        rest = &rest[nl + 1..];
    }
    let len = |b: &[u8]| u32::from_le_bytes(b[..4].try_into().expect("four bytes")) as usize;
    let n = len(rest);
    let blob = &rest[4..4 + n];
    rest = &rest[4 + n..];
    let text = (rest[0] != 0).then(|| {
        let m = len(&rest[1..]);
        std::str::from_utf8(&rest[5..5 + m]).expect("the snapshot text is UTF-8")
    });
    (blob, text)
}

/// Time each step a cache hit on `spec` takes, as batches.
pub fn steps(spec: &ExperimentSpec, batch: impl Fn(&mut dyn FnMut()) -> f64) -> Steps {
    let cache = ResultCache::open(&spec.cache).expect("the cache opens").expect("cache on");
    let key = cache_key(spec).expect("the spec has a cache key");
    let path = cache.entry_path(&key);
    let bytes = std::fs::read(&path).expect("the warm entry exists");
    let (blob, text) = split_entry(&bytes);
    let report = decode_report(blob).expect("the entry's report decodes");
    Steps {
        key_us: batch(&mut || {
            std::hint::black_box(cache_key(spec).expect("key"));
        }) * 1e6,
        load_ms: batch(&mut || {
            std::hint::black_box(std::fs::read(&path).expect("entry"));
        }) * 1e3,
        decode_ms: batch(&mut || {
            std::hint::black_box(decode_report(blob).expect("decode"));
        }) * 1e3,
        snapshot_parse_ms: text.map_or(0.0, |t| {
            batch(&mut || {
                std::hint::black_box(QTableSnapshot::from_text(t).expect("snapshot"));
            }) * 1e3
        }),
        encode_ms: batch(&mut || {
            std::hint::black_box(encode_report(&report));
        }) * 1e3,
        entry_bytes: bytes.len() as u64,
    }
}
