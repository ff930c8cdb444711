//! The jsmt benchmark.
//!
//! ```text
//! jsmt-perfbench --workload <pair_grid|core_synth> --seed <n>
//!                --seconds <s> --trace <0|1> [--tiny] [--wrong-expected]
//! ```
//!
//! Prints one table line per metric (name, value, unit, sample count),
//! then, as the last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, measured untraced; with `--trace 1` they are the
//! per-layer ones of a separate traced run, whose spans are written to
//! `.bench_work/trace-<workload>-seed<n>.csv` at the repository root.
//! `--tiny` shrinks the inputs for the smoke tests; `--wrong-expected`
//! corrupts one expected value so the output checks must fail.

mod common;
mod core_synth;
mod metrics;
mod pair_grid;
mod sim;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use common::{repo_root, Cfg, Report};
use metrics::{result_line, table, Metric};

const WORKLOADS: [&str; 2] = ["pair_grid", "core_synth"];

struct Args {
    workload: String,
    cfg: Cfg,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut wrong_expected) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            "--wrong-expected" => wrong_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let work = repo_root()
        .join(".bench_work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        cfg: Cfg {
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            tiny,
            wrong_expected,
            work,
        },
        workload,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jsmt-perfbench: {e}");
            eprintln!(
                "usage: jsmt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--tiny] [--wrong-expected]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("jsmt-perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::FAILURE;
    }
    let trace_out = repo_root()
        .join(".bench_work")
        .join(format!("trace-{}-seed{}.csv", args.workload, cfg.seed));
    let report: Report = match (args.workload.as_str(), args.trace) {
        ("pair_grid", false) => pair_grid::timed(cfg),
        ("pair_grid", true) => pair_grid::traced(cfg, &trace_out),
        (_, false) => core_synth::timed(cfg),
        (_, true) => core_synth::traced(cfg, &trace_out),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);

    let failed_share = Metric::new(
        "failed_share",
        metrics::ratio(report.failed as f64, report.attempted as f64),
        "ratio",
        report.attempted,
    )
    .note(format!("{} of {} units", report.failed, report.attempted));
    let mut lines = report.metrics.clone();
    lines.extend(report.extra);
    lines.push(failed_share);
    print!("{}", table(&args.workload, cfg.seed, &lines));
    if args.trace {
        println!("# spans written to {}", trace_out.display());
    }
    println!(
        "{}",
        result_line(report.attempted, report.failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
