//! Crash-tolerant multi-process shard execution for pairing grids.
//!
//! In-thread supervision ([`Engine::run_supervised`]) isolates panics,
//! but a fault that takes the *process* down — SIGKILL, `abort()`, an
//! OOM kill, a wedged attempt that never reaches a span boundary — still
//! loses the whole grid. This module moves each cell into a worker
//! *process*: the parent (`repro … --workers N`) forks `N` copies of its
//! own binary in `--shard-worker` mode and feeds them shards over a
//! line-oriented stdin/stdout protocol. A worker dying takes at most one
//! in-flight cell with it; the dispatcher detects the death (pipe EOF),
//! respawns capacity, and reassigns the shard with the same
//! deterministic seeded backoff schedule as in-process retries.
//!
//! # Protocol
//!
//! Parent → worker, one request per line:
//!
//! ```text
//! shard <stage> <index> <attempt> solo <bench>
//! shard <stage> <index> <attempt> pair <a> <b> <a_solo> <b_solo>
//! exit
//! ```
//!
//! Worker → parent, one reply per request:
//!
//! ```text
//! ok <index> <hex-value-bytes>
//! err <index> <kind> <component> <cycle> <hex-message>
//! ```
//!
//! Values are hex-encoded [`super::rescache`] cell encodings (solo: u64
//! LE; pair: the `encode_pair` outcome layout), so the reply survives any
//! byte content. Pair requests embed the solo baselines, keeping workers
//! stateless: a shard's result is a pure function of its request line
//! plus the experiment context, no matter which worker (or respawn) runs
//! it. That purity is what makes the merged grid **bit-identical** to a
//! serial run at any worker count.
//!
//! # Failure taxonomy
//!
//! * worker replies `err` — the cell failed *inside* a live worker
//!   (panic, livelock, cooperative deadline); attributed exactly as
//!   in-thread supervision would.
//! * pipe EOF with a shard in flight — the worker *process* died
//!   ([`FailureKind::WorkerDeath`]); its exit status goes in the
//!   message.
//! * per-shard wall-clock deadline expired — the parent SIGKILLs the
//!   worker and records [`FailureKind::Deadline`]; the kill's EOF is not
//!   double-counted as a worker death.
//! * a solo baseline exhausting its attempts cancels its dependent pair
//!   cells ([`FailureKind::Cancelled`], component `dependency`) without
//!   dispatching them.
//!
//! Exhausted cells become [`CellFailure`] records in the returned
//! [`SupervisedGrid`]; the caller renders partial results plus the
//! failure manifest and exits 3 — never a panic, never silently wrong
//! data. Shard-mode failures carry no crash bundle (the tail lives in
//! the dead worker); replaying the cell's fault scope in-process
//! (`--supervised --bundle-dir`) captures one when needed.
//!
//! When a persistent result cache is attached, the parent resolves cache
//! hits *before* enqueuing, so a warm rerun dispatches zero shards, and
//! workers write each computed cell through their own handle to the same
//! cache directory — a later run heals from whatever the fleet managed
//! to finish before dying.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::panic::{self, AssertUnwindSafe};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jsmt_cache::Cache;
use jsmt_workloads::BenchmarkId;

use super::pairing::{run_pair, PairOutcome, SupervisedGrid};
use super::rescache;
use super::supervise::{
    backoff_schedule, diagnose, install, silence_supervised_panics, CellFailure, Diagnosis,
    FailureKind, Supervision, SupervisorCfg,
};
use super::ExperimentCtx;
use crate::error::{ErrorKind, JsmtError};

/// Stage names match supervised in-process runs so fault-spec scopes
/// (`scope=pair-grid/compress+db`) hit identically in both modes.
const SOLO_STAGE: &str = "solo-baselines";
const PAIR_STAGE: &str = "pair-grid";

/// Dispatch policy for a sharded grid run.
#[derive(Debug, Clone)]
pub struct ShardCfg {
    /// Worker processes kept alive while shards are pending.
    pub workers: usize,
    /// Re-dispatches granted after a failed attempt (a shard runs at
    /// most `retries + 1` times, like [`SupervisorCfg::retries`]).
    pub retries: u32,
    /// Per-shard wall-clock deadline; on expiry the worker is SIGKILLed
    /// and the attempt recorded as [`FailureKind::Deadline`]. `None`
    /// disables the parent-side deadline (workers still run their own
    /// livelock watchdog).
    pub deadline: Option<Duration>,
    /// Backoff base for re-dispatch delays (see
    /// [`backoff_schedule`]); `Duration::ZERO` disables sleeping.
    pub backoff_base: Duration,
    /// Upper clamp on any single re-dispatch delay.
    pub backoff_cap: Duration,
    /// Command line that starts one worker (`argv[0]` plus args); the
    /// CLI passes its own binary with `--shard-worker` and matching
    /// context/fault/cache flags.
    pub worker_argv: Vec<String>,
    /// Persistent result cache; hits skip dispatch entirely.
    pub cache: Option<Arc<Cache>>,
}

impl Default for ShardCfg {
    fn default() -> Self {
        let sup = SupervisorCfg::default();
        ShardCfg {
            workers: 2,
            retries: sup.retries,
            deadline: None,
            backoff_base: sup.backoff_base,
            backoff_cap: sup.backoff_cap,
            worker_argv: Vec::new(),
            cache: None,
        }
    }
}

/// One dispatchable unit of work.
#[derive(Debug, Clone)]
struct ShardJob {
    /// Grid-level index (solo: roster position; pair: `i * n + j`) —
    /// recorded in the manifest, echoed in replies.
    index: usize,
    /// Cell label (`jess`, `compress+db`), the fault-scope suffix.
    label: String,
    /// Request tail after `shard <stage> <index> <attempt>`.
    spec: String,
}

/// 9 solo baselines, then 81 pair cells, dispatched over `cfg.workers`
/// worker processes. Returns the same [`SupervisedGrid`] shape as
/// [`super::pair_matrix_supervised`]: complete grids convert via
/// [`SupervisedGrid::into_grid`] into output bit-identical to a serial
/// run; partial grids carry the cells that finished plus one
/// [`CellFailure`] per exhausted cell.
///
/// `Err` is reserved for dispatcher-level faults (cannot spawn any
/// worker, malformed worker replies); cell-level trouble never escapes
/// as an error.
pub fn pair_matrix_sharded(
    ctx: &ExperimentCtx,
    cfg: &ShardCfg,
) -> Result<SupervisedGrid, JsmtError> {
    if cfg.worker_argv.is_empty() {
        return Err(JsmtError::new(
            ErrorKind::Experiment,
            "shard dispatch needs a worker command line",
        ));
    }
    let benchmarks = BenchmarkId::SINGLE_THREADED.to_vec();
    let n = benchmarks.len();
    let mut pool = Pool::new(cfg);
    let mut failures: Vec<CellFailure> = Vec::new();

    // Stage 1: solo baselines. Cache hits resolve here; the rest fan
    // out to workers.
    let mut solo_vals: Vec<Option<u64>> = vec![None; n];
    let mut solo_jobs: Vec<ShardJob> = Vec::new();
    for (i, &b) in benchmarks.iter().enumerate() {
        if let Some(cache) = &cfg.cache {
            if let Some(bytes) = cache.lookup(&rescache::solo_key(b, ctx)) {
                if let Some(v) = rescache::decode_solo(&bytes) {
                    solo_vals[i] = Some(v);
                    continue;
                }
            }
        }
        solo_jobs.push(ShardJob {
            index: i,
            label: b.name().to_string(),
            spec: format!("solo {}", b.name()),
        });
    }
    for (job, res) in solo_jobs
        .iter()
        .zip(pool.run_stage(SOLO_STAGE, ctx, &solo_jobs)?)
    {
        match res {
            Ok(bytes) => match rescache::decode_solo(&bytes) {
                Some(v) => solo_vals[job.index] = Some(v),
                None => {
                    return Err(JsmtError::new(
                        ErrorKind::Experiment,
                        format!(
                            "shard worker returned a malformed solo value for {}",
                            job.label
                        ),
                    ))
                }
            },
            Err(f) => failures.push(f),
        }
    }

    // Stage 2: the pair grid. Cells whose baselines failed are
    // finalized as cancelled without dispatch.
    let mut cells: BTreeMap<usize, PairOutcome> = BTreeMap::new();
    let mut pair_jobs: Vec<ShardJob> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let (a, b) = (benchmarks[i], benchmarks[j]);
            let index = i * n + j;
            let label = format!("{}+{}", a.name(), b.name());
            let (Some(a_solo), Some(b_solo)) = (solo_vals[i], solo_vals[j]) else {
                failures.push(CellFailure {
                    stage: PAIR_STAGE.to_string(),
                    label,
                    index,
                    kind: FailureKind::Cancelled,
                    component: "dependency".to_string(),
                    cycle: 0,
                    message: "solo baseline unavailable; pair cell not dispatched".to_string(),
                    attempts: 0,
                    backoff_ms: Vec::new(),
                    bundle: None,
                });
                continue;
            };
            if let Some(cache) = &cfg.cache {
                if let Some(bytes) = cache.lookup(&rescache::pair_key(a, b, ctx)) {
                    if let Some(o) = rescache::decode_pair(&bytes) {
                        if o.a == a && o.b == b {
                            cells.insert(index, o);
                            continue;
                        }
                    }
                }
            }
            pair_jobs.push(ShardJob {
                index,
                label,
                spec: format!("pair {} {} {a_solo} {b_solo}", a.name(), b.name()),
            });
        }
    }
    for (job, res) in pool
        .run_stage(PAIR_STAGE, ctx, &pair_jobs)?
        .into_iter()
        .enumerate()
        .map(|(k, r)| (&pair_jobs[k], r))
    {
        match res {
            Ok(bytes) => match rescache::decode_pair(&bytes) {
                Some(o) => {
                    cells.insert(job.index, o);
                }
                None => {
                    return Err(JsmtError::new(
                        ErrorKind::Experiment,
                        format!(
                            "shard worker returned a malformed pair value for {}",
                            job.label
                        ),
                    ))
                }
            },
            Err(f) => failures.push(f),
        }
    }
    pool.shutdown();

    // Match the supervised manifest ordering: solo failures by index,
    // then pair failures by index (completion order here depends on
    // worker scheduling).
    failures.sort_by_key(|f| (if f.stage == SOLO_STAGE { 0usize } else { 1 }, f.index));
    Ok(SupervisedGrid {
        benchmarks,
        cells,
        failures,
    })
}

/// A live worker process and what it is doing.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    /// The in-flight shard, if any: `(slot, attempt, deadline)`.
    busy: Option<(usize, u32, Option<Instant>)>,
    /// Set when the parent killed this worker for a deadline, so its
    /// EOF is attributed as [`FailureKind::Deadline`], not worker death.
    timed_out: bool,
}

/// A shard waiting (or re-waiting) for dispatch.
struct Pending {
    slot: usize,
    attempt: u32,
    not_before: Instant,
}

/// The worker pool: spawns, dispatches, reaps, respawns. Workers
/// persist across stages; uids (not PIDs) key the map so a reply racing
/// a respawn can never be credited to the wrong incarnation.
struct Pool<'a> {
    cfg: &'a ShardCfg,
    workers: HashMap<u64, Worker>,
    next_uid: u64,
    tx: Sender<(u64, Option<String>)>,
    rx: Receiver<(u64, Option<String>)>,
}

impl<'a> Pool<'a> {
    fn new(cfg: &'a ShardCfg) -> Pool<'a> {
        let (tx, rx) = std::sync::mpsc::channel();
        Pool {
            cfg,
            workers: HashMap::new(),
            next_uid: 0,
            tx,
            rx,
        }
    }

    fn spawn_worker(&mut self) -> Result<(), JsmtError> {
        let argv = &self.cfg.worker_argv;
        let child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                return Err(JsmtError::new(
                    ErrorKind::Io,
                    format!("spawning shard worker '{}': {e}", argv[0]),
                ))
            }
        };
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let uid = self.next_uid;
        self.next_uid += 1;
        let tx = self.tx.clone();
        // One reader thread per worker; EOF (worker exit or kill) is
        // reported as a `None` line. The thread ends at EOF, so no
        // join bookkeeping is needed.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((uid, Some(line))).is_err() {
                    return;
                }
            }
            let _ = tx.send((uid, None));
        });
        self.workers.insert(
            uid,
            Worker {
                child,
                stdin,
                busy: None,
                timed_out: false,
            },
        );
        Ok(())
    }

    /// Run one stage of shards to completion (success or exhausted
    /// attempts per shard). Results come back in `jobs` order.
    fn run_stage(
        &mut self,
        stage: &str,
        ctx: &ExperimentCtx,
        jobs: &[ShardJob],
    ) -> Result<Vec<Result<Vec<u8>, CellFailure>>, JsmtError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let attempts = self.cfg.retries + 1;
        let schedules: Vec<Vec<Duration>> = jobs
            .iter()
            .map(|j| {
                backoff_schedule(
                    ctx.seed,
                    &format!("{stage}/{}", j.label),
                    attempts,
                    self.cfg.backoff_base,
                    self.cfg.backoff_cap,
                )
            })
            .collect();
        let mut results: Vec<Option<Result<Vec<u8>, CellFailure>>> =
            jobs.iter().map(|_| None).collect();
        let mut pending: Vec<Pending> = (0..jobs.len())
            .map(|slot| Pending {
                slot,
                attempt: 0,
                not_before: Instant::now(),
            })
            .collect();
        let mut done = 0usize;

        while done < jobs.len() {
            // Keep capacity: enough live workers for the remaining
            // work, up to the configured fleet size.
            let in_flight = self.workers.values().filter(|w| w.busy.is_some()).count();
            let target = self.cfg.workers.max(1).min(pending.len() + in_flight);
            while self.workers.len() < target {
                match self.spawn_worker() {
                    Ok(()) => {}
                    Err(e) if self.workers.is_empty() => return Err(e),
                    Err(e) => {
                        // Degraded but alive: finish on the fleet we have.
                        eprintln!(
                            "# shard: respawn failed ({e}); continuing with {} worker(s)",
                            self.workers.len()
                        );
                        break;
                    }
                }
            }

            // Dispatch every ready shard to an idle worker.
            let now = Instant::now();
            while let Some(pi) = pending.iter().position(|p| p.not_before <= now) {
                let Some(uid) = self
                    .workers
                    .iter()
                    .find(|(_, w)| w.busy.is_none())
                    .map(|(&uid, _)| uid)
                else {
                    break;
                };
                let p = pending.swap_remove(pi);
                let job = &jobs[p.slot];
                let line = format!("shard {stage} {} {} {}\n", job.index, p.attempt, job.spec);
                let w = self.workers.get_mut(&uid).expect("idle worker");
                if w.stdin
                    .write_all(line.as_bytes())
                    .and_then(|()| w.stdin.flush())
                    .is_err()
                {
                    // Worker died before accepting the shard: requeue,
                    // end this dispatch round (so the same dead worker
                    // is not re-picked), and let its EOF retire the
                    // worker entry.
                    pending.push(p);
                    w.busy = None;
                    break;
                }
                w.busy = Some((p.slot, p.attempt, self.cfg.deadline.map(|d| now + d)));
            }

            // Enforce per-shard deadlines: SIGKILL, then attribute the
            // resulting EOF as a deadline rather than a worker death.
            for w in self.workers.values_mut() {
                if let Some((_, _, Some(expiry))) = w.busy {
                    if !w.timed_out && Instant::now() >= expiry {
                        w.timed_out = true;
                        let _ = w.child.kill();
                    }
                }
            }

            // Drain worker events.
            match self.rx.recv_timeout(Duration::from_millis(5)) {
                Ok((uid, Some(line))) => self.on_reply(
                    uid,
                    &line,
                    jobs,
                    attempts,
                    &schedules,
                    stage,
                    &mut results,
                    &mut pending,
                    &mut done,
                )?,
                Ok((uid, None)) => self.on_eof(
                    uid,
                    jobs,
                    attempts,
                    &schedules,
                    stage,
                    &mut results,
                    &mut pending,
                    &mut done,
                ),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("pool holds a sender"),
            }
        }
        let mut out = Vec::with_capacity(results.len());
        for r in results {
            out.push(r.expect("stage ran to done"));
        }
        Ok(out)
    }

    /// A reply line arrived from worker `uid`.
    #[allow(clippy::too_many_arguments)]
    fn on_reply(
        &mut self,
        uid: u64,
        line: &str,
        jobs: &[ShardJob],
        attempts: u32,
        schedules: &[Vec<Duration>],
        stage: &str,
        results: &mut [Option<Result<Vec<u8>, CellFailure>>],
        pending: &mut Vec<Pending>,
        done: &mut usize,
    ) -> Result<(), JsmtError> {
        let Some(w) = self.workers.get_mut(&uid) else {
            return Ok(()); // reply from an already-retired worker
        };
        let Some((slot, attempt, _)) = w.busy.take() else {
            return Ok(()); // stray line from an idle worker
        };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let bad = || {
            JsmtError::new(
                ErrorKind::Experiment,
                format!("malformed shard worker reply: {line:?}"),
            )
        };
        match tokens.as_slice() {
            ["ok", index, hex] => {
                if index.parse::<usize>().ok() != Some(jobs[slot].index) {
                    return Err(bad());
                }
                let bytes = from_hex(hex).ok_or_else(bad)?;
                results[slot] = Some(Ok(bytes));
                *done += 1;
            }
            ["err", index, kind, component, cycle, hexmsg] => {
                if index.parse::<usize>().ok() != Some(jobs[slot].index) {
                    return Err(bad());
                }
                let d = Diagnosis {
                    kind: FailureKind::parse(kind).ok_or_else(bad)?,
                    component: (*component).to_string(),
                    cycle: cycle.parse().map_err(|_| bad())?,
                    message: String::from_utf8_lossy(&from_hex(hexmsg).ok_or_else(bad)?)
                        .into_owned(),
                };
                attempt_failed(
                    slot, attempt, d, jobs, attempts, schedules, stage, results, pending, done,
                );
            }
            _ => return Err(bad()),
        }
        Ok(())
    }

    /// Worker `uid`'s stdout closed: the process exited or was killed.
    #[allow(clippy::too_many_arguments)]
    fn on_eof(
        &mut self,
        uid: u64,
        jobs: &[ShardJob],
        attempts: u32,
        schedules: &[Vec<Duration>],
        stage: &str,
        results: &mut [Option<Result<Vec<u8>, CellFailure>>],
        pending: &mut Vec<Pending>,
        done: &mut usize,
    ) {
        let Some(mut w) = self.workers.remove(&uid) else {
            return;
        };
        let status = w
            .child
            .wait()
            .map(|s| s.to_string())
            .unwrap_or_else(|e| format!("wait failed: {e}"));
        let Some((slot, attempt, _)) = w.busy.take() else {
            return; // idle worker exited; capacity is rebuilt next loop
        };
        let d = if w.timed_out {
            Diagnosis {
                kind: FailureKind::Deadline,
                component: "worker".to_string(),
                cycle: 0,
                message: format!(
                    "shard exceeded its wall-clock deadline; worker killed ({status})"
                ),
            }
        } else {
            Diagnosis {
                kind: FailureKind::WorkerDeath,
                component: "worker".to_string(),
                cycle: 0,
                message: format!("worker process died mid-shard ({status})"),
            }
        };
        attempt_failed(
            slot, attempt, d, jobs, attempts, schedules, stage, results, pending, done,
        );
    }

    /// Politely stop the fleet: `exit` + closed stdin ends the worker
    /// loop; waiting reaps the processes.
    fn shutdown(&mut self) {
        for w in self.workers.values_mut() {
            let _ = w.stdin.write_all(b"exit\n");
            let _ = w.stdin.flush();
        }
        for (_, mut w) in self.workers.drain() {
            drop(w.stdin);
            let _ = w.child.wait();
        }
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        // Error paths reach here with workers still alive; don't leak
        // them past the dispatcher.
        for w in self.workers.values_mut() {
            let _ = w.child.kill();
        }
        for (_, mut w) in self.workers.drain() {
            let _ = w.child.wait();
        }
    }
}

/// Record one failed attempt: re-queue with the shard's deterministic
/// backoff delay, or finalize a [`CellFailure`] when attempts are
/// exhausted.
#[allow(clippy::too_many_arguments)]
fn attempt_failed(
    slot: usize,
    attempt: u32,
    d: Diagnosis,
    jobs: &[ShardJob],
    attempts: u32,
    schedules: &[Vec<Duration>],
    stage: &str,
    results: &mut [Option<Result<Vec<u8>, CellFailure>>],
    pending: &mut Vec<Pending>,
    done: &mut usize,
) {
    if attempt + 1 < attempts {
        let delay = schedules[slot]
            .get(attempt as usize)
            .copied()
            .unwrap_or(Duration::ZERO);
        pending.push(Pending {
            slot,
            attempt: attempt + 1,
            not_before: Instant::now() + delay,
        });
    } else {
        results[slot] = Some(Err(CellFailure {
            stage: stage.to_string(),
            label: jobs[slot].label.clone(),
            index: jobs[slot].index,
            kind: d.kind,
            component: d.component,
            cycle: d.cycle,
            message: d.message,
            attempts,
            backoff_ms: schedules[slot]
                .iter()
                .map(|d| d.as_millis() as u64)
                .collect(),
            bundle: None,
        }));
        *done += 1;
    }
}

/// The worker side: serve shard requests from stdin until `exit` or
/// EOF. Each shard runs under the same supervision machinery as an
/// in-process cell — fault scope, worker-kill checkpoint, livelock
/// watchdog, `catch_unwind` + [`diagnose`] attribution — so a fault
/// spec behaves identically whether the cell runs in a thread or a
/// worker process. With a cache attached, computed cells are written
/// through it (keyed identically to the parent's lookups).
pub fn shard_worker_main(
    ctx: &ExperimentCtx,
    cache: Option<Arc<Cache>>,
    livelock_cycles: u64,
) -> Result<(), JsmtError> {
    silence_supervised_panics();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(JsmtError::from)?;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            [] => continue,
            ["exit"] => break,
            ["shard", stage, index, attempt, spec @ ..] => {
                let (Ok(index), Ok(attempt)) = (index.parse::<usize>(), attempt.parse::<u32>())
                else {
                    return Err(bad_request(&line));
                };
                let reply = serve_shard(
                    stage,
                    index,
                    attempt,
                    spec,
                    ctx,
                    cache.as_deref(),
                    livelock_cycles,
                )
                .ok_or_else(|| bad_request(&line))?;
                out.write_all(reply.as_bytes()).map_err(JsmtError::from)?;
                out.flush().map_err(JsmtError::from)?;
            }
            _ => return Err(bad_request(&line)),
        }
    }
    Ok(())
}

fn bad_request(line: &str) -> JsmtError {
    JsmtError::new(
        ErrorKind::Experiment,
        format!("malformed shard request: {line:?}"),
    )
}

/// Run one shard under supervision and format the reply line. `None`
/// means the request itself was malformed (a protocol error, not a cell
/// failure).
#[allow(clippy::too_many_arguments)]
fn serve_shard(
    stage: &str,
    index: usize,
    attempt: u32,
    spec: &[&str],
    ctx: &ExperimentCtx,
    cache: Option<&Cache>,
    livelock_cycles: u64,
) -> Option<String> {
    let label = match spec {
        ["solo", name] => (*name).to_string(),
        ["pair", a, b, _, _] => format!("{a}+{b}"),
        _ => return None,
    };
    let scope_label = format!("{stage}/{label}");
    let sup = Supervision::new(&SupervisorCfg {
        livelock_cycles,
        ..SupervisorCfg::default()
    });
    let outcome = {
        let _scope = jsmt_faults::enter_scope(&scope_label, attempt);
        let _guard = install(sup.clone());
        panic::catch_unwind(AssertUnwindSafe(|| {
            // The dispatcher's worker-kill drill point: a matching
            // `worker-kill` clause aborts the whole process here, at
            // shard pickup.
            jsmt_faults::check_worker_kill();
            jsmt_faults::check_worker();
            compute_shard(spec, ctx, cache)
        }))
    };
    Some(match outcome {
        Ok(Some(bytes)) => format!("ok {index} {}\n", to_hex(&bytes)),
        Ok(None) => return None,
        Err(payload) => {
            let d = diagnose(payload, &sup);
            format!(
                "err {index} {} {} {} {}\n",
                d.kind.name(),
                // Components are single tokens today; keep the protocol
                // safe if one ever grows whitespace.
                d.component.replace(char::is_whitespace, "-"),
                d.cycle,
                to_hex(d.message.as_bytes()),
            )
        }
    })
}

/// Decode and run one shard spec; `None` = malformed spec.
fn compute_shard(spec: &[&str], ctx: &ExperimentCtx, cache: Option<&Cache>) -> Option<Vec<u8>> {
    match spec {
        ["solo", name] => {
            let id = BenchmarkId::parse(name)?;
            let cycles = match cache {
                Some(c) => rescache::cached_solo_baseline(c, id, ctx),
                None => super::solo_baseline_cycles(id, ctx),
            };
            Some(rescache::encode_solo(cycles))
        }
        ["pair", a, b, a_solo, b_solo] => {
            let a = BenchmarkId::parse(a)?;
            let b = BenchmarkId::parse(b)?;
            let a_solo: u64 = a_solo.parse().ok()?;
            let b_solo: u64 = b_solo.parse().ok()?;
            let o = match cache {
                Some(c) => rescache::cached_run_pair(c, a, b, a_solo, b_solo, ctx),
                None => run_pair(a, b, a_solo, b_solo, ctx),
            };
            Some(rescache::encode_pair(&o))
        }
        _ => None,
    }
}

fn to_hex(bytes: &[u8]) -> String {
    // An empty payload still needs a token on the line.
    if bytes.is_empty() {
        return "-".to_string();
    }
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        for payload in [&b""[..], b"\x00", b"hello", &[0xff, 0x00, 0x7f]] {
            assert_eq!(from_hex(&to_hex(payload)).as_deref(), Some(payload));
        }
        assert_eq!(from_hex("xyz"), None);
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("-"), Some(Vec::new()));
    }

    #[test]
    fn compute_shard_matches_direct_calls() {
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 2,
            seed: 0xBEEF,
        };
        let direct = super::super::solo_baseline_cycles(BenchmarkId::Mpegaudio, &ctx);
        let via = compute_shard(&["solo", "mpegaudio"], &ctx, None).expect("valid spec");
        assert_eq!(rescache::decode_solo(&via), Some(direct));

        let pair_spec = [
            "pair",
            "compress",
            "db",
            &direct.to_string()[..],
            &direct.to_string()[..],
        ];
        let bytes = compute_shard(&pair_spec, &ctx, None).expect("valid spec");
        let o = rescache::decode_pair(&bytes).expect("decodable");
        let want = run_pair(BenchmarkId::Compress, BenchmarkId::Db, direct, direct, &ctx);
        assert_eq!(o.combined.to_bits(), want.combined.to_bits());
        assert_eq!(o.completions, want.completions);

        assert_eq!(
            compute_shard(&["solo", "not-a-benchmark"], &ctx, None),
            None
        );
        assert_eq!(compute_shard(&["pair", "db"], &ctx, None), None);
    }

    #[test]
    fn serve_shard_reports_panics_as_err_lines() {
        let ctx = ExperimentCtx {
            scale: 0.02,
            repeats: 2,
            seed: 0xBEEF,
        };
        // A malformed spec is a protocol error, not a reply.
        assert_eq!(
            serve_shard("pair-grid", 0, 0, &["bogus"], &ctx, None, 0),
            None
        );
        // A healthy solo produces an ok line carrying the exact bytes.
        let reply = serve_shard("solo-baselines", 3, 0, &["solo", "jess"], &ctx, None, 0)
            .expect("well-formed");
        let mut it = reply.split_whitespace();
        assert_eq!(it.next(), Some("ok"));
        assert_eq!(it.next(), Some("3"));
        let bytes = from_hex(it.next().expect("payload")).expect("hex");
        assert_eq!(
            rescache::decode_solo(&bytes),
            Some(super::super::solo_baseline_cycles(BenchmarkId::Jess, &ctx))
        );
    }
}
