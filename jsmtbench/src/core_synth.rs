//! `core_synth`: one `SmtCore` with a single bound context, driven by
//! seeded synthetic µop streams and nothing above it (no OS, JVM, engine
//! or cache).
//!
//! A unit is a segment: the four stall profiles of the cycle-loop
//! throughput bench in turn (`dram_bound`, `tc_miss_bound`, `balanced`,
//! `fp_dense`), each for a fixed number of simulated cycles. Set-up
//! builds the core and one seeded stream per profile; the core and the
//! streams keep their state from segment to segment. The core is
//! driven the way the system layer drives it — compiled-trace replay
//! first, then the stall fast-forward, then one stepped cycle — with the
//! tiers at their shipped defaults. Every profile span is checked against
//! the retirement histogram: one bucket per cycle, and the buckets'
//! weighted sum equal to the retired µops.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use jsmt_cpu::synth::{SplitMix, SyntheticStream};
use jsmt_cpu::{CoreConfig, SmtCore};
use jsmt_isa::{Asid, Uop};
use jsmt_mem::MemConfig;
use jsmt_perfmon::{Event, LogicalCpu};

use crate::common::WINDOWS;
use crate::common::{timed_setups, Cfg, Report, SETUPS};
use crate::metrics::{
    latency_metrics, peak_rss_mb, ratio, windowed_rate, Layers, Metric, Samples, Windows,
};
use crate::sim::SimTotals;
use crate::trace::Tracer;

/// Tail percentile of the segment latency (hundreds of segments a run).
pub const TAIL_Q: f64 = 0.95;

/// A stall profile: a seeded stream builder.
type Profile = fn(u64) -> SyntheticStream;

const PROFILES: [(&str, Profile); 4] = [
    ("dram_bound", dram_bound),
    ("tc_miss_bound", tc_miss_bound),
    ("balanced", balanced),
    ("fp_dense", fp_dense),
];

/// Metric names of the per-profile simulation rates, in `PROFILES` order.
const PROFILE_RATES: [&str; 4] = [
    "cpu.dram_bound.mcycles_per_s",
    "cpu.tc_miss_bound.mcycles_per_s",
    "cpu.balanced.mcycles_per_s",
    "cpu.fp_dense.mcycles_per_s",
];

fn dram_bound(seed: u64) -> SyntheticStream {
    SyntheticStream::builder(seed)
        .code_footprint(2 * 1024)
        .data_footprint(16 * 1024 * 1024)
        .mem_fraction(0.45)
        .dep_chain(0.05)
        .branch_fraction(0.02)
        .build()
}

fn tc_miss_bound(seed: u64) -> SyntheticStream {
    SyntheticStream::builder(seed)
        .code_footprint(8 * 1024 * 1024)
        .data_footprint(32 * 1024)
        .mem_fraction(0.15)
        .dep_chain(0.2)
        .branch_fraction(0.05)
        .build()
}

fn balanced(seed: u64) -> SyntheticStream {
    SyntheticStream::builder(seed).build()
}

fn fp_dense(seed: u64) -> SyntheticStream {
    SyntheticStream::builder(seed)
        .code_footprint(2 * 1024)
        .data_footprint(64 * 1024)
        .mem_fraction(0.0)
        .branch_fraction(0.0)
        .dep_chain(0.0)
        .fp_fraction(0.7)
        .build()
}

fn profile_cycles(cfg: &Cfg) -> u64 {
    if cfg.tiny {
        20_000
    } else {
        200_000
    }
}

/// The core, the µop buffer feeding it, and one stream per profile.
struct Rig {
    core: SmtCore,
    pending: VecDeque<Uop>,
    streams: Vec<SyntheticStream>,
    cycles_per_profile: u64,
    /// Added to segment 0's first expected µop count (`--wrong-expected`).
    skew: u64,
}

impl Rig {
    fn new(cfg: &Cfg) -> Rig {
        let mut core = SmtCore::new(CoreConfig::p4(true), MemConfig::p4(true));
        core.bind(LogicalCpu::Lp0, Asid(1));
        let mut seeds = SplitMix::new(cfg.seed ^ 0x434f_5245_5359_4e54);
        Rig {
            core,
            pending: VecDeque::with_capacity(8192),
            streams: PROFILES
                .iter()
                .map(|(_, make)| make(seeds.next_u64()))
                .collect(),
            cycles_per_profile: profile_cycles(cfg),
            skew: u64::from(cfg.wrong_expected),
        }
    }
}

/// Count and host time of each kind of core call in a segment.
#[derive(Default)]
struct Calls {
    trace_step: (u64, Duration),
    fast_forward: (u64, Duration),
    cycle: (u64, Duration),
    replayed_cycles: u64,
    skipped_cycles: u64,
}

struct SegOut {
    lat: Duration,
    uops: u64,
    ok: bool,
    profile_time: [Duration; 4],
}

/// Time `f` into `slot` when tracing.
#[inline(always)]
fn clocked<const TRACED: bool, T>(slot: &mut (u64, Duration), f: impl FnOnce() -> T) -> T {
    if TRACED {
        let t = Instant::now();
        let out = f();
        slot.0 += 1;
        slot.1 += t.elapsed();
        out
    } else {
        f()
    }
}

/// Run one segment: every profile for `cycles_per_profile` cycles.
fn segment<const TRACED: bool>(d: &mut Rig, calls: &mut Calls, first: bool) -> SegOut {
    let (per_profile, skew) = (d.cycles_per_profile, d.skew);
    let t0 = Instant::now();
    let mut out = SegOut {
        lat: Duration::ZERO,
        uops: 0,
        ok: true,
        profile_time: [Duration::ZERO; 4],
    };
    for p in 0..PROFILES.len() {
        let tp = Instant::now();
        let Rig {
            core,
            pending,
            streams,
            ..
        } = d;
        let stream = &mut streams[p];
        pending.clear();
        let before = core.counters().clone();
        let start = core.cycles();
        let end = start + per_profile;
        while core.cycles() < end {
            while pending.len() < 4096 {
                stream.fill(pending, 48);
            }
            let left = end - core.cycles();
            let (cycles, consumed) =
                clocked::<TRACED, _>(&mut calls.trace_step, || core.trace_step(left, pending));
            if cycles > 0 {
                pending.drain(..consumed);
                calls.replayed_cycles += cycles;
                continue;
            }
            let skipped = clocked::<TRACED, _>(&mut calls.fast_forward, || core.fast_forward(left));
            if skipped > 0 {
                calls.skipped_cycles += skipped;
                continue;
            }
            clocked::<TRACED, _>(&mut calls.cycle, || {
                core.cycle(&mut |lcpu, buf, max| {
                    if lcpu != LogicalCpu::Lp0 {
                        return 0;
                    }
                    let take = max.min(pending.len());
                    for u in pending.drain(..take) {
                        buf.push_back(u);
                    }
                    take
                })
            });
        }
        let delta = core.counters().delta(&before);
        let hist = [
            Event::CyclesRetire0,
            Event::CyclesRetire1,
            Event::CyclesRetire2,
            Event::CyclesRetire3,
        ]
        .map(|e| delta.total(e));
        let uops = delta.total(Event::UopsRetired);
        let skew = if first && p == 0 { skew } else { 0 };
        out.ok &= core.cycles() - start == per_profile
            && hist.iter().sum::<u64>() == per_profile
            && hist[1] + 2 * hist[2] + 3 * hist[3] == uops + skew
            && uops > 0;
        out.uops += uops;
        out.profile_time[p] = tp.elapsed();
    }
    out.lat = t0.elapsed();
    out
}

/// Run a segment, turning a panic in the core into a failed unit.
fn guarded<const TRACED: bool>(d: &mut Rig, calls: &mut Calls, first: bool) -> Option<SegOut> {
    catch_unwind(AssertUnwindSafe(|| segment::<TRACED>(d, calls, first))).ok()
}

pub fn timed(cfg: &Cfg) -> Report {
    let (setup_s, mut d) = timed_setups(SETUPS, || Rig::new(cfg));
    let mut calls = Calls::default();
    let mut lats = Samples::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut windows = Windows::new(t0, cfg.seconds / WINDOWS);
    while attempted == 0 || t0.elapsed() < cfg.seconds {
        attempted += 1;
        match guarded::<false>(&mut d, &mut calls, attempted == 1) {
            Some(s) => {
                lats.record(s.lat);
                failed += u64::from(!s.ok);
                windows.tick(attempted, Instant::now());
            }
            None => {
                failed += 1;
                break;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cycles = d.core.cycles() as f64;
    let (rate, n_windows) = windowed_rate(&windows, attempted, wall);
    let mut metrics = vec![
        Metric::new("cells_per_s", rate, "1/s", attempted).note(format!(
            "segments of 4 stall profiles, 1 thread; median of {n_windows} windows"
        )),
    ];
    metrics.extend(latency_metrics(&lats, TAIL_Q));
    metrics.push(
        Metric::new("setup_s", setup_s, "s", SETUPS as u64)
            .note(format!("median of {SETUPS} set-ups")),
    );
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
    Report {
        attempted,
        failed,
        metrics,
        extra: vec![Metric::new(
            "sim_mcycles_per_s",
            cycles / 1e6 / wall,
            "Mcycles/s",
            attempted,
        )],
    }
}

/// The traced run: segments with per-call counts and times for half the
/// run time, then the same segments untraced on a fresh core. Retired µops
/// of every segment must agree between the two passes.
pub fn traced(cfg: &Cfg, trace_out: &Path) -> Report {
    let tracer = Tracer::new();
    let mut d = Rig::new(cfg);
    let mut calls = Calls::default();
    let mut sim = SimTotals::default();
    let mut traced_uops = Vec::new();
    let mut failed = 0u64;
    let t0 = Instant::now();
    while traced_uops.is_empty() || t0.elapsed() < cfg.seconds / 2 {
        let unit = traced_uops.len() as u64;
        let first = unit == 0;
        let before = first.then(|| d.core.counters().clone());
        let root = tracer.begin();
        let mut seg_calls = Calls::default();
        let out = guarded::<true>(&mut d, &mut seg_calls, first);
        for (name, (n, t)) in [
            ("cpu.trace_step", seg_calls.trace_step),
            ("cpu.fast_forward", seg_calls.fast_forward),
            ("cpu.cycle", seg_calls.cycle),
        ] {
            tracer.aggregate(unit, root.id, name, n, t);
        }
        tracer.end(root, unit, None, "cell");
        calls.merge(&seg_calls);
        let Some(out) = out else {
            failed += 1;
            break;
        };
        if let Some(before) = before {
            sim.add_bank(&d.core.counters().delta(&before), 4 * d.cycles_per_profile);
        }
        failed += u64::from(!out.ok);
        traced_uops.push(out.uops);
    }
    let traced_wall = t0.elapsed().as_secs_f64();
    let total_cycles = d.core.cycles();
    let ts = d.core.trace_stats();

    let mut plain = Rig::new(cfg);
    let mut plain_calls = Calls::default();
    let mut profile_time = [Duration::ZERO; 4];
    let t1 = Instant::now();
    for (i, &uops) in traced_uops.iter().enumerate() {
        match guarded::<false>(&mut plain, &mut plain_calls, i == 0) {
            Some(s) => {
                failed += u64::from(!s.ok || s.uops != uops);
                for (acc, t) in profile_time.iter_mut().zip(s.profile_time) {
                    *acc += t;
                }
            }
            None => {
                failed += 1;
                break;
            }
        }
    }
    let plain_wall = t1.elapsed().as_secs_f64();
    let _ = tracer.write_csv(trace_out);

    let n = traced_uops.len() as u64;
    let mut l = Layers::default();
    l.set(
        "cpu.step_ns_per_cycle",
        ratio(calls.cycle.1.as_secs_f64() * 1e9, calls.cycle.0 as f64),
        calls.cycle.0,
    );
    l.set(
        "cpu.ff_cycle_share",
        ratio(calls.skipped_cycles as f64, total_cycles as f64),
        n,
    );
    l.set(
        "cpu.replay_cycle_share",
        ratio(calls.replayed_cycles as f64, total_cycles as f64),
        n,
    );
    l.set(
        "cpu.replay_hit_ratio",
        ratio(ts.replayed as f64, (ts.replayed + ts.mismatches) as f64),
        ts.replayed + ts.mismatches,
    );
    l.count("cpu.traces_compiled", ts.compiled);
    l.count("cpu.trace_aborts", ts.aborts);
    let cycles_per_profile = (n * plain.cycles_per_profile) as f64;
    for (name, t) in PROFILE_RATES.into_iter().zip(profile_time) {
        l.set(name, ratio(cycles_per_profile / 1e6, t.as_secs_f64()), n);
    }
    l.set(
        "sim.mcycles_per_s",
        ratio(plain.core.cycles() as f64 / 1e6, plain_wall),
        n,
    );
    sim.fill(&mut l);
    crate::common::trace_layers(&mut l, &tracer, traced_wall, plain_wall);
    Report {
        attempted: 2 * n,
        failed,
        metrics: l.into_metrics(),
        extra: Vec::new(),
    }
}

impl Calls {
    fn merge(&mut self, o: &Calls) {
        for (a, b) in [
            (&mut self.trace_step, o.trace_step),
            (&mut self.fast_forward, o.fast_forward),
            (&mut self.cycle, o.cycle),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.replayed_cycles += o.replayed_cycles;
        self.skipped_cycles += o.skipped_cycles;
    }
}
