//! `pair_grid`: co-run cells of the paper's 9x9 pairing grid (figures 8
//! and 9) with their HT-off solo baselines, through `Engine` with two
//! worker threads and a result cache in a fresh empty directory.
//!
//! The timed pass submits the whole grid, all 81 cells, as one request: a
//! fresh engine and a fresh cache directory, a baseline stage, then one
//! cell stage, the way a cold service runs a grid. A run is that one
//! request (25–55 s on two cores, whatever `--seconds` says; the traced
//! run uses `--seconds`), so every run covers the same cells whatever the
//! seed. The seed picks the cell the request starts from; the order is
//! otherwise the row-major order `pair_matrix_on` submits. (A fully
//! shuffled order changes which cells run side by side on the two host
//! cores, and with it each cell's host latency, by more than the bounds
//! allow.) Set-up draws the start, reads the golden rows, and builds and
//! briefly runs every benchmark's machine as a pre-flight check.
//!
//! Every cell is checked: enough completions, finite positive speedups,
//! and the row equal to its row in `tests/golden/grid.csv` (the grid runs
//! at `ExperimentCtx::quick()`, where that file was blessed).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jsmt_cache::{Cache, CacheStats};
use jsmt_core::experiments::{
    csv_grid, Engine, ExperimentCtx, PairGrid, PairOutcome, Parallelism, StageTiming,
};
use jsmt_core::{RunReport, System, SystemConfig};
use jsmt_cpu::synth::SplitMix;
use jsmt_workloads::{BenchmarkId, WorkloadSpec};

use crate::common::{repo_root, timed_setups, CacheProbe, Cfg, Report, SETUPS};
use crate::metrics::{latency_metrics, peak_rss_mb, ratio, Layers, Metric, Samples};
use crate::sim::SimTotals;
use crate::trace::Tracer;

/// Tail percentile of the cell latency: the highest with ten of a
/// grid's 81 cells beyond it.
pub const TAIL_Q: f64 = 0.875;
/// Simulated cycles each benchmark's machine runs in the set-up's
/// pre-flight check. Besides catching a machine that cannot run before a
/// long grid, it makes set-up mostly simulation, which the host's speed
/// moves as it moves the cells, rather than a few page-faulting builds.
/// On a 2-vCPU Xeon VM a set-up at 20 000 cycles took 2-5 ms and jumped
/// between two levels from run to run; at 200 000 it takes about 50 ms
/// and holds within a few per cent.
const PREFLIGHT_CYCLES: u64 = 200_000;
/// Cells in a round of the traced run (slices of the job order).
const TRACED_ROUND: usize = 9;
const WORKERS: usize = 2;

fn ctx() -> ExperimentCtx {
    ExperimentCtx::quick()
}

struct Setup {
    /// Every cell of the grid, in the seeded job order.
    order: Vec<(BenchmarkId, BenchmarkId)>,
    golden: HashMap<(BenchmarkId, BenchmarkId), String>,
}

impl Setup {
    fn new(cfg: &Cfg) -> Setup {
        let mut rng = SplitMix::new(cfg.seed ^ 0x5041_4952_4752_4944);
        let ids = BenchmarkId::SINGLE_THREADED;
        let mut order: Vec<(BenchmarkId, BenchmarkId)> = ids
            .iter()
            .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
            .collect();
        let start = rng.below(order.len() as u64) as usize;
        order.rotate_left(start);
        if cfg.tiny {
            order.retain(|&(a, b)| a != BenchmarkId::MolDyn && b != BenchmarkId::MolDyn);
            order.truncate(2);
        }
        // Pre-flight: every benchmark's machine must build and run.
        let ctx = ctx();
        for id in BenchmarkId::SINGLE_THREADED {
            let mut sys = System::new(SystemConfig::p4(true).with_seed(ctx.seed));
            sys.add_relaunching_process(WorkloadSpec::single(id).with_scale(ctx.scale));
            let report = sys.run_cycles(PREFLIGHT_CYCLES);
            assert!(
                report.metrics.instructions > 0,
                "{} retired nothing",
                id.name()
            );
        }
        let mut golden = load_golden();
        if cfg.wrong_expected {
            let first = order[0];
            golden.entry(first).and_modify(|row| row.push('0'));
        }
        Setup { order, golden }
    }
}

/// `tests/golden/grid.csv`, keyed by cell.
fn load_golden() -> HashMap<(BenchmarkId, BenchmarkId), String> {
    let path = repo_root().join("tests/golden/grid.csv");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let by_name = |n: &str| {
        BenchmarkId::SINGLE_THREADED
            .into_iter()
            .find(|b| b.name() == n)
    };
    text.lines()
        .skip(1)
        .filter_map(|line| {
            let mut f = line.split(',');
            let a = by_name(f.next()?)?;
            let b = by_name(f.next()?)?;
            Some(((a, b), line.to_string()))
        })
        .collect()
}

/// The cell's row exactly as `csv_grid` renders it.
fn csv_row(o: &PairOutcome) -> String {
    let grid = PairGrid {
        benchmarks: vec![o.a, o.b],
        outcomes: vec![vec![o.clone()]],
    };
    csv_grid(&grid)
        .lines()
        .nth(1)
        .unwrap_or_default()
        .to_string()
}

fn cell_ok(o: &PairOutcome, golden: &HashMap<(BenchmarkId, BenchmarkId), String>) -> bool {
    let ctx = ctx();
    let runs = ctx.repeats + 2;
    let positive = |x: f64| x.is_finite() && x > 0.0;
    o.completions.0 >= runs
        && o.completions.1 >= runs
        && positive(o.speedup_a)
        && positive(o.speedup_b)
        && positive(o.combined)
        && golden.get(&(o.a, o.b)) == Some(&csv_row(o))
}

/// System re-runs of a traced pass (the `system` layer seen directly).
#[derive(Default)]
struct SysAgg {
    builds: u64,
    build: Duration,
    run: Duration,
    cycles: u64,
    /// Trace-tier counts over round 0 only, so they repeat exactly.
    round0_cycles: u64,
    round0_replayed: u64,
    round0_compiled: u64,
    round0_mismatches: u64,
}

/// Traced-pass state shared by the worker threads of a round.
struct Traced<'a> {
    tracer: &'a Tracer,
    round: usize,
    /// Baselines of this round as the `System` re-runs computed them.
    solo: Mutex<HashMap<BenchmarkId, u64>>,
    sys: &'a Mutex<SysAgg>,
    sim: &'a Mutex<SimTotals>,
    probe: Option<CacheProbe>,
}

impl Traced<'_> {
    /// Rebuild a machine through the public `System` API, timing build
    /// and run as replica spans under `parent`.
    fn rerun(&self, unit: u64, parent: u64, ht: bool, ids: &[BenchmarkId], runs: u64) -> RunReport {
        let ctx = ctx();
        let b = self.tracer.begin();
        let mut sys = System::new(SystemConfig::p4(ht).with_seed(ctx.seed));
        for &id in ids {
            sys.add_relaunching_process(WorkloadSpec::single(id).with_scale(ctx.scale));
        }
        let build = b.elapsed();
        self.tracer.end_replica(b, unit, parent, "system.build");
        let r = self.tracer.begin();
        let report = sys.run_until_completions(runs);
        let run = r.elapsed();
        self.tracer.end_replica(r, unit, parent, "system.run");
        let stats = sys.trace_stats();
        let mut agg = self.sys.lock().expect("system totals poisoned");
        agg.builds += 1;
        agg.build += build;
        agg.run += run;
        agg.cycles += report.cycles;
        if self.round == 0 {
            agg.round0_cycles += report.cycles;
            agg.round0_replayed += stats.replayed_cycles;
            agg.round0_compiled += stats.compiled;
            agg.round0_mismatches += stats.mismatches;
        }
        report
    }

    /// Baseline job: re-run the solo machine and keep its baseline.
    fn solo(&self, unit: u64, parent: u64, id: BenchmarkId) {
        let ctx = ctx();
        let report = self.rerun(unit, parent, false, &[id], ctx.repeats.min(4) + 2);
        let cycles = report.processes[0].mean_duration().round() as u64;
        self.solo
            .lock()
            .expect("solo map poisoned")
            .insert(id, cycles);
    }

    /// Cell job: re-run the co-run machine and check the engine's outcome
    /// against it bit for bit; time a direct lookup of the stored entry.
    fn cell(&self, unit: u64, parent: u64, o: &PairOutcome) -> bool {
        let ctx = ctx();
        let report = self.rerun(unit, parent, true, &[o.a, o.b], ctx.repeats + 2);
        let solo = self.solo.lock().expect("solo map poisoned").clone();
        let (Some(&a_s), Some(&b_s)) = (solo.get(&o.a), solo.get(&o.b)) else {
            return false;
        };
        let speedup_a = a_s as f64 / report.processes[0].mean_duration();
        let speedup_b = b_s as f64 / report.processes[1].mean_duration();
        let same = o.speedup_a.to_bits() == speedup_a.to_bits()
            && o.speedup_b.to_bits() == speedup_b.to_bits()
            && o.combined.to_bits() == (speedup_a + speedup_b).to_bits()
            && o.tc_mpki.to_bits() == report.metrics.tc_mpki.to_bits()
            && o.completions
                == (
                    report.processes[0].completions,
                    report.processes[1].completions,
                );
        if self.round == 0 {
            self.sim
                .lock()
                .expect("sim totals poisoned")
                .add_run(&report, o.combined);
        }
        let label = format!("pair:{}+{}", o.a.name(), o.b.name());
        let hit = self
            .probe
            .as_ref()
            .is_none_or(|p| p.request(self.tracer, unit, parent, &label));
        same && hit
    }
}

struct RoundOut {
    /// Host latency of each cell job and whether it passed its checks.
    cells: Vec<(Duration, bool)>,
    stages: Vec<StageTiming>,
    baseline_lookups: u64,
    baseline_misses: u64,
    cache: CacheStats,
}

/// Run `cells` as one grid request (round `round` of its pass).
fn run_round(
    cfg: &Cfg,
    setup: &Setup,
    cells: &[(BenchmarkId, BenchmarkId)],
    round: usize,
    traced: Option<(&Tracer, &Mutex<SysAgg>, &Mutex<SimTotals>)>,
) -> RoundOut {
    let ctx = ctx();
    let dir = cfg.fresh_dir("pair_grid-cache");
    let cache = Arc::new(Cache::open(&dir).expect("open the round's result cache"));
    let mut engine = Engine::new(Parallelism::Threads(WORKERS));
    engine.set_result_cache(Arc::clone(&cache));
    let mut ids: Vec<BenchmarkId> = cells.iter().flat_map(|&(a, b)| [a, b]).collect();
    ids.sort();
    ids.dedup();
    let tr = traced.map(|(tracer, sys, sim)| Traced {
        tracer,
        round,
        solo: Mutex::new(HashMap::new()),
        sys,
        sim,
        probe: None,
    });
    let unit_base = (round as u64) << 8;

    engine.run("solo-baselines", ids.clone(), |&id| match &tr {
        None => {
            engine.solo_baseline(id, &ctx);
        }
        Some(t) => {
            let unit = unit_base | 0x80 | id.tag() as u64;
            let root = t.tracer.begin();
            let e = t.tracer.begin();
            engine.solo_baseline(id, &ctx);
            let eid = e.id;
            t.tracer.end(e, unit, Some(root.id), "engine.solo_baseline");
            t.solo(unit, eid, id);
            t.tracer.end(root, unit, None, "cell.baseline");
        }
    });

    let tr = tr.map(|mut t| {
        t.probe = CacheProbe::open(&dir, &ctx, &format!("solo:{}", ids[0].name()));
        t
    });

    let outs = engine.run("pair-grid", cells.to_vec(), |&(a, b)| {
        let unit = unit_base | (a.tag() as u64) << 4 | b.tag() as u64;
        let root = tr.as_ref().map(|t| t.tracer.begin());
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| match (&tr, &root) {
            (Some(t), Some(root)) => {
                for id in [a, b] {
                    let s = t.tracer.begin();
                    engine.solo_baseline(id, &ctx);
                    t.tracer.end(s, unit, Some(root.id), "engine.solo_baseline");
                }
                let e = t.tracer.begin();
                let o = engine.run_pair_cached(a, b, &ctx);
                let eid = e.id;
                t.tracer
                    .end(e, unit, Some(root.id), "engine.run_pair_cached");
                let same = t.cell(unit, eid, &o);
                (o, same)
            }
            _ => (engine.run_pair_cached(a, b, &ctx), true),
        }));
        let lat = t0.elapsed();
        if let (Some(t), Some(root)) = (&tr, root) {
            t.tracer.end(root, unit, None, "cell");
        }
        let ok = matches!(&result, Ok((o, same)) if *same && cell_ok(o, &setup.golden));
        (lat, ok)
    });

    let b = engine.baseline_stats();
    RoundOut {
        cells: outs,
        stages: engine.stage_timings(),
        baseline_lookups: b.lookups,
        baseline_misses: b.misses,
        cache: cache.stats(),
    }
}

fn failed(rounds: &[RoundOut]) -> u64 {
    rounds
        .iter()
        .flat_map(|r| &r.cells)
        .filter(|&&(_, ok)| !ok)
        .count() as u64
}

fn attempted(rounds: &[RoundOut]) -> u64 {
    rounds.iter().map(|r| r.cells.len() as u64).sum()
}

/// The timed pass: one whole-grid request.
pub fn timed(cfg: &Cfg) -> Report {
    let (setup_s, setup) = timed_setups(SETUPS, || Setup::new(cfg));
    let t0 = Instant::now();
    let rounds = [run_round(cfg, &setup, &setup.order, 0, None)];
    let wall = t0.elapsed().as_secs_f64();
    let mut lats = Samples::new();
    for &(lat, _) in rounds.iter().flat_map(|r| &r.cells) {
        lats.record(lat);
    }
    let n = attempted(&rounds);
    let mut metrics = vec![Metric::new("cells_per_s", n as f64 / wall, "1/s", n)
        .note(format!("one grid request, {WORKERS} workers"))];
    metrics.extend(latency_metrics(&lats, TAIL_Q));
    metrics.push(
        Metric::new("setup_s", setup_s, "s", SETUPS as u64)
            .note(format!("median of {SETUPS} set-ups")),
    );
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
    Report {
        attempted: n,
        failed: failed(&rounds),
        metrics,
        extra: vec![Metric::new("sim_mcycles_per_s", 0.0, "Mcycles/s", 0)
            .note("engine results carry no cycle count; see sim.mcycles_per_s in the traced run")],
    }
}

/// The traced run: rounds of nine cells (slices of the job order, each a
/// grid request of its own) traced for half the run time, each cell also
/// re-run through `System` and looked up in the cache directly; then the
/// same rounds untraced, for the overhead and the engine and cache counts.
pub fn traced(cfg: &Cfg, trace_out: &Path) -> Report {
    let setup = Setup::new(cfg);
    let tracer = Tracer::new();
    let sys = Mutex::new(SysAgg::default());
    let sim = Mutex::new(SimTotals::default());
    let slices: Vec<&[(BenchmarkId, BenchmarkId)]> = setup.order.chunks(TRACED_ROUND).collect();
    let slice = |round: usize| slices[round % slices.len()];
    let t0 = Instant::now();
    let mut traced_rounds = Vec::new();
    while traced_rounds.is_empty() || t0.elapsed() < cfg.seconds / 2 {
        let round = traced_rounds.len();
        let traced = Some((&tracer, &sys, &sim));
        traced_rounds.push(run_round(cfg, &setup, slice(round), round, traced));
    }
    let traced_wall = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let plain: Vec<RoundOut> = (0..traced_rounds.len())
        .map(|round| run_round(cfg, &setup, slice(round), round, None))
        .collect();
    let plain_wall = t1.elapsed().as_secs_f64();
    let _ = tracer.write_csv(trace_out);

    let mut l = Layers::default();
    let stages: Vec<&StageTiming> = plain.iter().flat_map(|r| &r.stages).collect();
    let busy: f64 = stages.iter().map(|s| s.busy.as_secs_f64()).sum();
    let stage_wall: f64 = stages.iter().map(|s| s.wall.as_secs_f64()).sum();
    let jobs: u64 = stages.iter().map(|s| s.jobs as u64).sum();
    l.count("engine.jobs", jobs);
    l.set("engine.busy_s", busy, jobs);
    l.set(
        "engine.idle_share",
        1.0 - ratio(busy, stage_wall * WORKERS as f64),
        jobs,
    );
    let longest = stages
        .iter()
        .map(|s| s.longest.as_secs_f64())
        .fold(0.0, f64::max);
    l.set("engine.longest_job_s", longest, jobs);
    l.count(
        "engine.baseline_lookups",
        plain.iter().map(|r| r.baseline_lookups).sum(),
    );
    l.count(
        "engine.baseline_misses",
        plain.iter().map(|r| r.baseline_misses).sum(),
    );

    let c = plain.iter().fold(CacheStats::default(), |mut acc, r| {
        acc.lookups += r.cache.lookups;
        acc.hits += r.cache.hits;
        acc.misses += r.cache.misses;
        acc.stores += r.cache.stores;
        acc.store_errors += r.cache.store_errors;
        acc.quarantined += r.cache.quarantined;
        acc
    });
    crate::common::cache_layers(&mut l, &c);
    let (req, req_n) = tracer.total("cache.request");
    l.set(
        "cache.request_us",
        ratio(req.as_secs_f64() * 1e6, req_n as f64),
        req_n,
    );

    let s = sys.into_inner().expect("system totals poisoned");
    l.set(
        "system.build_ms",
        ratio(s.build.as_secs_f64() * 1e3, s.builds as f64),
        s.builds,
    );
    l.set("system.run_s", s.run.as_secs_f64(), s.builds);
    l.set(
        "system.ns_per_sim_cycle",
        ratio(s.run.as_secs_f64() * 1e9, s.cycles as f64),
        s.builds,
    );
    l.set(
        "system.trace_replay_share",
        ratio(s.round0_replayed as f64, s.round0_cycles as f64),
        1,
    );
    l.count("system.traces_compiled", s.round0_compiled);
    l.count("system.trace_mismatches", s.round0_mismatches);
    l.set(
        "sim.mcycles_per_s",
        ratio(s.cycles as f64 / 1e6, s.run.as_secs_f64()),
        s.builds,
    );
    sim.into_inner().expect("sim totals poisoned").fill(&mut l);
    crate::common::trace_layers(&mut l, &tracer, traced_wall, plain_wall);

    Report {
        attempted: attempted(&traced_rounds) + attempted(&plain),
        failed: failed(&traced_rounds) + failed(&plain),
        metrics: l.into_metrics(),
        extra: Vec::new(),
    }
}
