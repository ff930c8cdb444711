//! Simulated statistics: exact counts from the model, summed (or, for
//! per-run ratios, averaged) over a workload's reference runs. They are a
//! pure function of the workload seed, so a change that only speeds up
//! the simulator must leave every one of them identical.

use jsmt_core::RunReport;
use jsmt_perfmon::{CounterBank, DerivedMetrics, Event};

use crate::metrics::{ratio, Layers};

#[derive(Default)]
pub struct SimTotals {
    runs: u64,
    cycles: u64,
    uops: u64,
    instr: u64,
    context_switches: u64,
    gc_cycles: u64,
    gc_count: u64,
    compiles: u64,
    allocations: u64,
    combined: Vec<f64>,
    /// Per-run sums of tc, l1d, l2, itlb, dtlb MPKI, BTB miss ratio,
    /// branch mispredict ratio and OS cycle share.
    derived: [f64; 8],
}

impl SimTotals {
    /// Add one machine run from its counters.
    pub fn add_bank(&mut self, bank: &CounterBank, cycles: u64) {
        let m = DerivedMetrics::from_bank(bank, cycles);
        self.runs += 1;
        self.cycles += cycles;
        self.uops += bank.total(Event::UopsRetired);
        self.instr += m.instructions;
        self.context_switches += bank.total(Event::ContextSwitches);
        self.gc_cycles += bank.total(Event::GcCycles);
        let per_run = [
            m.tc_mpki,
            m.l1d_mpki,
            m.l2_mpki,
            m.itlb_mpki,
            m.dtlb_mpki,
            m.btb_miss_ratio,
            m.branch_mispredict_ratio,
            m.os_cycle_fraction,
        ];
        for (sum, v) in self.derived.iter_mut().zip(per_run) {
            *sum += v;
        }
    }

    /// Add one whole-system co-run and the combined speedup derived from it.
    pub fn add_run(&mut self, report: &RunReport, combined: f64) {
        self.add_bank(&report.bank, report.cycles);
        for p in &report.processes {
            self.gc_count += p.gc_count;
            self.compiles += p.compiles_done;
            self.allocations += p.allocations;
        }
        self.combined.push(combined);
    }

    pub fn fill(&self, l: &mut Layers) {
        let runs = self.runs as f64;
        l.count("sim.cycles", self.cycles);
        l.count("sim.uops_retired", self.uops);
        l.set(
            "sim.ipc",
            ratio(self.instr as f64, self.cycles as f64),
            self.runs,
        );
        let n = self.combined.len();
        let mean = ratio(self.combined.iter().sum(), n as f64);
        l.set("sim.combined_speedup_mean", mean, n as u64);
        let names = [
            "mem.tc_mpki",
            "mem.l1d_mpki",
            "mem.l2_mpki",
            "mem.itlb_mpki",
            "mem.dtlb_mpki",
            "mem.btb_miss_ratio",
            "cpu.branch_mispredict_ratio",
            "os.cycle_share",
        ];
        for (name, sum) in names.into_iter().zip(self.derived) {
            l.set(name, ratio(sum, runs), self.runs);
        }
        l.count("os.context_switches", self.context_switches);
        l.count("jvm.gc_count", self.gc_count);
        l.set(
            "jvm.gc_cycle_share",
            ratio(self.gc_cycles as f64, self.cycles as f64),
            self.runs,
        );
        l.count("jvm.compiles", self.compiles);
        l.count("jvm.allocations", self.allocations);
    }
}
