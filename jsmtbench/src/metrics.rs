//! Metric records, latency summaries and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Number of samples the value summarises (shown in the table).
    pub samples: u64,
    /// Free-form annotation for the table (percentile, scope, ...).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Every per-layer metric the traced run prints, with its unit. Layers a
/// workload does not exercise report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.jobs", "count"),
    ("engine.busy_s", "s"),
    ("engine.idle_share", "ratio"),
    ("engine.longest_job_s", "s"),
    ("engine.baseline_lookups", "count"),
    ("engine.baseline_misses", "count"),
    ("system.build_ms", "ms"),
    ("system.run_s", "s"),
    ("system.ns_per_sim_cycle", "ns"),
    ("system.trace_replay_share", "ratio"),
    ("system.traces_compiled", "count"),
    ("system.trace_mismatches", "count"),
    ("cpu.step_ns_per_cycle", "ns"),
    ("cpu.ff_cycle_share", "ratio"),
    ("cpu.replay_cycle_share", "ratio"),
    ("cpu.replay_hit_ratio", "ratio"),
    ("cpu.traces_compiled", "count"),
    ("cpu.trace_aborts", "count"),
    ("cpu.dram_bound.mcycles_per_s", "Mcycles/s"),
    ("cpu.tc_miss_bound.mcycles_per_s", "Mcycles/s"),
    ("cpu.balanced.mcycles_per_s", "Mcycles/s"),
    ("cpu.fp_dense.mcycles_per_s", "Mcycles/s"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.store_errors", "count"),
    ("cache.quarantined", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.request_us", "us"),
    ("bench.self_s", "s"),
    ("engine.self_s", "s"),
    ("system.self_s", "s"),
    ("cache.self_s", "s"),
    ("cpu.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("sim.cycles", "count"),
    ("sim.uops_retired", "count"),
    ("sim.ipc", "ratio"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("sim.combined_speedup_mean", "ratio"),
    ("mem.tc_mpki", "mpki"),
    ("mem.l1d_mpki", "mpki"),
    ("mem.l2_mpki", "mpki"),
    ("mem.itlb_mpki", "mpki"),
    ("mem.dtlb_mpki", "mpki"),
    ("mem.btb_miss_ratio", "ratio"),
    ("cpu.branch_mispredict_ratio", "ratio"),
    ("os.cycle_share", "ratio"),
    ("os.context_switches", "count"),
    ("jvm.gc_count", "count"),
    ("jvm.gc_cycle_share", "ratio"),
    ("jvm.compiles", "count"),
    ("jvm.allocations", "count"),
];

/// Per-layer values being filled in by a workload; anything left unset
/// prints as 0.
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64, u64)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.values.retain(|&(n, _, _)| n != name);
        self.values.push((name, value, samples));
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64, 1);
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self
                    .values
                    .iter()
                    .find(|&&(n, _, _)| n == name)
                    .map_or((0.0, 0), |&(_, v, s)| (v, s));
                Metric::new(name, value, unit, samples)
            })
            .collect()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency samples of a timed pass, summarised by Harrell–Davis quantile
/// estimates: a weighted mean of every order statistic, the weights being
/// the Beta((n+1)q, (n+1)(1-q)) probability of each rank's slice of [0, 1].
/// A single order statistic jumps when host noise reorders the units next
/// to the quantile, which on a grid of 81 cells moves the median by more
/// than the host's own drift; the weighted mean does not. Samples are
/// kept raw, 8 bytes each (a few thousand a run).
pub struct Samples {
    ns: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples { ns: Vec::new() }
    }

    pub fn record(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as f64);
    }

    pub fn len(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Harrell–Davis estimate of quantile `q`, in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(!self.ns.is_empty(), "quantile of no samples");
        let mut v = self.ns.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len() as f64;
        let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
        let mut below = 0.0;
        let mut sum = 0.0;
        for (i, x) in v.iter().enumerate() {
            let cdf = beta_inc(a, b, (i + 1) as f64 / n);
            sum += (cdf - below) * x;
            below = cdf;
        }
        sum
    }

    /// Samples strictly above quantile `q`'s rank.
    pub fn beyond(&self, q: f64) -> u64 {
        let n = self.len();
        let r = (q * (n - 1) as f64).floor() as u64;
        n - 1 - r
    }
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), on whichever side converges fast.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        for coef in [even, odd] {
            d = 1.0 / guard(1.0 + coef * d);
            c = guard(1.0 + coef / c);
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7; reflection below 1/2).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    use std::f64::consts::PI;
    if x < 0.5 {
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let s = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, c)| s + c / (x + i as f64 + 1.0));
    let t = x + 7.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// Throughput in consecutive windows of a run: `tick` marks, at the first
/// unit completed after each window boundary, how many units are done and
/// when; a window's rate divides the units between two marks by the
/// exact time between them.
pub struct Windows {
    width: Duration,
    next: Instant,
    marks: Vec<(u64, Instant)>,
}

impl Windows {
    pub fn new(start: Instant, width: Duration) -> Self {
        Windows {
            width,
            next: start + width,
            marks: vec![(0, start)],
        }
    }

    pub fn tick(&mut self, done: u64, now: Instant) {
        if now >= self.next {
            self.marks.push((done, now));
            self.next += self.width;
        }
    }

    fn rates(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) as f64 / (w[1].1 - w[0].1).as_secs_f64())
            .collect()
    }
}

/// `cells_per_s` of a timed pass: the median rate over the run's
/// windows, so that a burst of host load in a few windows does not move
/// it, and the number of windows. Falls back to `units / wall` when the
/// run is too short for a whole window.
pub fn windowed_rate(windows: &Windows, units: u64, wall: f64) -> (f64, u64) {
    let rates = windows.rates();
    if rates.is_empty() {
        return (units as f64 / wall, 1);
    }
    (median(&rates), rates.len() as u64)
}

/// The end-to-end latency metrics of one timed pass: median and the
/// workload's fixed tail percentile, with the sample count beyond it.
pub fn latency_metrics(h: &Samples, tail_q: f64) -> Vec<Metric> {
    let n = h.len();
    vec![
        Metric::new("cell_p50_ms", h.quantile_ns(0.5) / 1e6, "ms", n).note("Harrell-Davis median"),
        Metric::new("cell_tail_ms", h.quantile_ns(tail_q) / 1e6, "ms", n).note(format!(
            "Harrell-Davis p{} ({} samples beyond)",
            tail_q * 100.0,
            h.beyond(tail_q)
        )),
    ]
}

/// Host memory high-water mark of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Human-readable table, one metric a line.
pub fn table(workload: &str, seed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "{workload:<11} seed={seed:<6} {:<34} {:>18} {:<10} samples={:<8} {}",
            m.name,
            fmt_num(m.value),
            m.unit,
            m.samples,
            m.note
        );
    }
    out
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (never expected) print as 0.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantiles_track_exact_ones() {
        let mut h = Samples::new();
        for ms in (1..=100u64).rev() {
            h.record(Duration::from_millis(ms));
        }
        let p50 = h.quantile_ns(0.5) / 1e6;
        assert!((p50 - 50.5).abs() < 1e-6, "{p50}");
        let p90 = h.quantile_ns(0.9) / 1e6;
        assert!((p90 - 90.5).abs() < 0.3, "{p90}");
        assert_eq!(h.beyond(0.9), 10);
        assert_eq!(h.len(), 100);
        let mut one = Samples::new();
        one.record(Duration::from_millis(7));
        assert!((one.quantile_ns(0.875) / 1e6 - 7.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        assert!((beta_inc(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        // I_x(2, 3) = 6x^2 - 8x^3 + 3x^4.
        for x in [0.1, 0.5, 0.9] {
            let exact = 6.0 * x * x - 8.0 * x * x * x + 3.0 * x * x * x * x;
            assert!((beta_inc(2.0, 3.0, x) - exact).abs() < 1e-12, "{x}");
        }
        assert!((beta_inc(40.5, 40.5, 0.5) - 0.5).abs() < 1e-12);
        assert!((ln_gamma(0.375) - 0.863_073_982_270_647_5).abs() < 1e-12);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
