//! Pieces shared by the workloads: run settings, set-up timing, the
//! direct cache probe of the traced runs and the per-layer helpers.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use jsmt_cache::{Cache, CacheKey, CacheStats};
use jsmt_core::experiments::ExperimentCtx;

use crate::metrics::{median, ratio, Layers, Metric};
use crate::trace::Tracer;

/// Set-ups a timed run makes for its median `setup_s`.
pub const SETUPS: usize = 9;

/// Windows a timed pass is cut into for its median throughput.
pub const WINDOWS: u32 = 10;

/// Settings of one benchmark run.
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured pass.
    pub seconds: Duration,
    /// Tiny inputs, for the benchmark's own smoke tests.
    pub tiny: bool,
    /// Corrupt one expected value, to prove the output checks fire.
    pub wrong_expected: bool,
    /// Scratch directory of this process inside the checkout.
    pub work: PathBuf,
}

impl Cfg {
    /// A fresh, empty directory `name` under the work directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        dir
    }
}

/// What a workload hands back: unit counts and the metrics to print.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further lines for the table only.
    pub extra: Vec<Metric>,
}

/// Run `setup` `times` times and return the median wall time in seconds
/// and the last result.
pub fn timed_setups<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one set-up"))
}

/// The repository root of the checkout this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Direct lookups of the entries the engine stored, so a traced run can
/// time the cache layer on its own (`cache.request` replica spans).
pub struct CacheProbe {
    cache: Cache,
    fingerprint: u64,
    seed: u64,
}

impl CacheProbe {
    /// Open a probe on the cache at `dir`. Cell keys mirror
    /// `experiments::rescache`: a fingerprint over a cache epoch, the scale
    /// and the repeat count. The epoch is found by probing for the entry
    /// the engine is known to have stored under `known_label`; `None` when
    /// no epoch matches, in which case the replica is skipped.
    pub fn open(dir: &Path, ctx: &ExperimentCtx, known_label: &str) -> Option<CacheProbe> {
        let cache = Cache::open(dir).expect("open a probe on the result cache");
        let fingerprint = |epoch: u32| {
            let mut bytes = b"jsmt-cell".to_vec();
            bytes.extend_from_slice(&epoch.to_le_bytes());
            bytes.extend_from_slice(&ctx.scale.to_bits().to_le_bytes());
            bytes.extend_from_slice(&ctx.repeats.to_le_bytes());
            jsmt_snapshot::fnv64(&bytes)
        };
        let key = |fingerprint: u64, label: &str| CacheKey {
            fingerprint,
            workload: label.to_string(),
            seed: ctx.seed,
        };
        let fingerprint = (0..4096u32).map(fingerprint).find(|&fp| {
            let known = key(fp, known_label);
            cache.entry_path(&known).exists() && cache.lookup(&known).is_some()
        })?;
        Some(CacheProbe {
            cache,
            fingerprint,
            seed: ctx.seed,
        })
    }

    /// Look up `label` under a `cache.request` replica span of `parent`;
    /// whether the entry was there and sound.
    pub fn request(&self, tracer: &Tracer, unit: u64, parent: u64, label: &str) -> bool {
        let span = tracer.begin();
        let key = CacheKey {
            fingerprint: self.fingerprint,
            workload: label.to_string(),
            seed: self.seed,
        };
        let hit = self.cache.lookup(&key).is_some();
        tracer.end_replica(span, unit, parent, "cache.request");
        hit
    }
}

/// The `cache.*` counts of a pass.
pub fn cache_layers(l: &mut Layers, c: &CacheStats) {
    l.count("cache.lookups", c.lookups);
    l.count("cache.hits", c.hits);
    l.count("cache.misses", c.misses);
    l.count("cache.stores", c.stores);
    l.count("cache.store_errors", c.store_errors);
    l.count("cache.quarantined", c.quarantined);
    l.set(
        "cache.hit_ratio",
        ratio(c.hits as f64, c.lookups as f64),
        c.lookups,
    );
}

/// Self time per layer, span count and tracing overhead of a traced run
/// whose traced pass took `traced_wall` seconds and whose untraced pass
/// over the same units took `plain_wall`.
pub fn trace_layers(l: &mut Layers, tracer: &Tracer, traced_wall: f64, plain_wall: f64) {
    let by_layer = tracer.self_time_by_layer();
    for (layer, name) in [
        ("bench", "bench.self_s"),
        ("engine", "engine.self_s"),
        ("system", "system.self_s"),
        ("cache", "cache.self_s"),
        ("cpu", "cpu.self_s"),
    ] {
        l.set(name, by_layer.get(layer).copied().unwrap_or(0.0), 1);
    }
    l.count("trace.spans", tracer.len() as u64);
    l.set("trace.overhead_s", traced_wall - plain_wall, 1);
    l.set(
        "trace.overhead_share",
        ratio(traced_wall - plain_wall, plain_wall),
        1,
    );
}
