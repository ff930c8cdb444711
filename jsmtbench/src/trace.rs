//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer. Spans of one unit (grid cell or synth segment)
//! share its unit id. A *replica* span times a public-API call that
//! repeats work the parent span did internally (a `System` re-run of a
//! cell the engine simulated, a direct cache lookup of an entry the
//! engine read); it runs after its parent, outside the parent's interval,
//! and its duration is subtracted from the parent's self time — that is
//! how the parent's internal split is estimated. An *aggregate* span
//! stands for `count` calls of one kind and carries their total time.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    id: u64,
    parent: Option<u64>,
    unit: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    count: u64,
    replica: bool,
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span: its id (for children) and start time.
pub struct Open {
    pub id: u64,
    start: Instant,
}

impl Open {
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn begin(&self) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// Close `open` as a span named `name` of `unit` under `parent`.
    pub fn end(&self, open: Open, unit: u64, parent: Option<u64>, name: &'static str) {
        self.close(open, unit, parent, name, false);
    }

    /// Close `open` as a replica span (see the module docs).
    pub fn end_replica(&self, open: Open, unit: u64, parent: u64, name: &'static str) {
        self.close(open, unit, Some(parent), name, true);
    }

    fn close(&self, open: Open, unit: u64, parent: Option<u64>, name: &'static str, replica: bool) {
        let dur = open.start.elapsed();
        self.push(Span {
            id: open.id,
            parent,
            unit,
            name,
            start_ns: nanos(open.start.duration_since(self.epoch)),
            dur_ns: nanos(dur),
            count: 1,
            replica,
        });
    }

    /// Record `count` calls of one kind taking `total` time in all.
    pub fn aggregate(
        &self,
        unit: u64,
        parent: u64,
        name: &'static str,
        count: u64,
        total: Duration,
    ) {
        if count == 0 {
            return;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: Some(parent),
            unit,
            name,
            start_ns: 0,
            dur_ns: nanos(total),
            count,
            replica: false,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Total time of the spans named `name`, and how many calls they cover.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, c), s| {
                (d + Duration::from_nanos(s.dur_ns), c + s.count)
            })
    }

    /// Self time per layer in seconds: each span's duration minus its
    /// children's (a replica counts against both its parent and the span
    /// it actually ran inside), clamped at 0, summed by layer. A span's layer is its
    /// name up to the first `.`; the unit root spans (`cell…`) belong to
    /// the benchmark itself (`bench`).
    pub fn self_time_by_layer(&self) -> HashMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let parent_of: HashMap<u64, u64> = spans
            .iter()
            .filter_map(|s| s.parent.map(|p| (s.id, p)))
            .collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
                // A replica ran inside its parent's parent, not its parent.
                if let Some(&gp) = parent_of.get(&p).filter(|_| s.replica) {
                    *child_ns.entry(gp).or_default() += s.dur_ns;
                }
            }
        }
        let mut out: HashMap<&'static str, f64> = HashMap::new();
        for s in spans.iter() {
            let own = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(layer_of(s.name)).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,unit,name,start_ns,dur_ns,count,replica")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.id,
                s.parent.map_or(String::new(), |p| p.to_string()),
                s.unit,
                s.name,
                s.start_ns,
                s.dur_ns,
                s.count,
                s.replica
            )?;
        }
        out.flush()
    }
}

fn layer_of(name: &'static str) -> &'static str {
    let head = name.split('.').next().unwrap_or(name);
    if head == "cell" {
        "bench"
    } else {
        head
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, dur_ms: u64, replica: bool) -> Span {
        Span {
            id,
            parent,
            unit: 1,
            name,
            start_ns: 0,
            dur_ns: dur_ms * 1_000_000,
            count: 1,
            replica,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_replicas() {
        // cell (10 ms) -> engine (6 ms) -> system replica (4 ms, run
        // inside the cell after the engine call).
        let t = Tracer::new();
        t.push(span(1, None, "cell", 10, false));
        t.push(span(2, Some(1), "engine.run_pair_cached", 6, false));
        t.push(span(3, Some(2), "system.run", 4, true));
        let by = t.self_time_by_layer();
        let ms = |layer: &str| (by[layer] * 1e3).round();
        assert_eq!((ms("bench"), ms("engine"), ms("system")), (0.0, 2.0, 4.0));
        assert_eq!(t.len(), 3);
    }
}
