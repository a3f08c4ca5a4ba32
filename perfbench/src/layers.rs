//! Per-layer probes shared by every workload's traced run. Each probe
//! times calls into one crate's public functions from outside the
//! program, over the workload's own trace set, and checks that what it
//! replays agrees with what the workload computed.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use redsim_core::{
    ExecMode, FaultConfig, HostPhase, HostProfiler, Instrumentation, MachineConfig, NullMetrics,
    NullTracer, SchedEngine, SimStats, Simulator, SliceSource,
};
use redsim_irb::{IrbConfig, IrbEntry, ReuseBuffer};
use redsim_isa::asm::assemble;
use redsim_isa::emu::Emulator;
use redsim_isa::trace::DynInst;
use redsim_isa::trace_io::{read_trace, write_trace};
use redsim_isa::OpClass;
use redsim_mem::{Hierarchy, HierarchyConfig};
use redsim_predictor::{build_direction, DirectionConfig};
use redsim_util::io::{atomic_write, RealIo};
use redsim_workloads::{Params, Workload};

use crate::report::Report;
use crate::stats::median;

/// Instruction budget for every trace build (the harness's own).
const TRACE_BUDGET: u64 = 200_000_000;

/// The paper's recovery claims: DIE-IRB wins back ~50% of the
/// ALU-bandwidth loss and ~23% of the overall DIE loss.
const PAPER_ALU_RECOVERY: f64 = 50.0;
/// See [`PAPER_ALU_RECOVERY`].
const PAPER_OVERALL_RECOVERY: f64 = 23.0;

/// The committed-path traces a workload runs, with how each was made.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// Workload and parameters of each trace.
    pub items: Vec<(Workload, Params)>,
    /// The traces, in item order.
    pub traces: Vec<Arc<[DynInst]>>,
}

impl TraceSet {
    /// Builds every trace through `Workload::trace`.
    pub fn build(items: Vec<(Workload, Params)>) -> Result<Self, String> {
        let traces = items
            .iter()
            .map(|&(w, p)| w.trace(p, TRACE_BUDGET).map(Arc::from))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(TraceSet { items, traces })
    }

    fn total_insts(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The four columns of the recovery figure: name, mode, machine.
pub fn grid_columns() -> [(&'static str, ExecMode, MachineConfig); 4] {
    let base = MachineConfig::paper_baseline();
    let twoalu = base.clone().with_double_alus();
    [
        ("sie", ExecMode::Sie, base.clone()),
        ("die", ExecMode::Die, base.clone()),
        ("die-irb", ExecMode::DieIrb, base),
        ("die-2xalu", ExecMode::Die, twoalu),
    ]
}

/// Mean ALU-bandwidth and overall loss recovered by DIE-IRB, in
/// percent, computed per workload exactly as `fig_recovery` does
/// (columns SIE, DIE, DIE-IRB, DIE-2xALU).
pub fn recovery(rows: &[[SimStats; 4]]) -> (f64, f64) {
    let share = |num: f64, den: f64| if den > 1e-9 { num / den * 100.0 } else { 0.0 };
    let (mut alu, mut all) = (0.0, 0.0);
    for [sie, die, irb, die2x] in rows {
        alu += share(irb.ipc() - die.ipc(), die2x.ipc() - die.ipc());
        all += share(irb.ipc() - die.ipc(), sie.ipc() - die.ipc());
    }
    let n = rows.len().max(1) as f64;
    (alu / n, all / n)
}

/// Checks the exact per-job invariants: the run commits its whole
/// trace and every cycle is accounted to commit or one stall cause.
pub fn check_job(report: &mut Report, label: &str, stats: &SimStats, trace_len: usize) {
    report.check(stats.committed_insts == trace_len as u64, || {
        format!(
            "{label}: committed {} of {trace_len} instructions",
            stats.committed_insts
        )
    });
    report.check(stats.stall_conservation_holds(), || {
        format!("{label}: stall attribution does not sum to the cycle count")
    });
}

fn run(sim: &Simulator, trace: &[DynInst]) -> Result<SimStats, String> {
    sim.run_source(&mut SliceSource::new(trace))
        .map_err(|e| e.to_string())
}

/// `workloads` and `isa`: source generation, assembly, emulation and
/// the `.rtrc` codec, each timed separately, against one
/// `Workload::trace` call per item as their parent.
pub fn isa(set: &TraceSet, report: &mut Report) {
    let (mut source_s, mut asm_s, mut emu_s, mut parent_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut enc_s, mut dec_s) = (0.0, 0.0);
    for (&(w, p), trace) in set.items.iter().zip(&set.traces) {
        let label = format!("{w}@{}", p.seed);
        let (built, s) = timed(|| w.trace(p, TRACE_BUDGET));
        parent_s += s;
        report.check(built.as_deref().ok() == Some(&trace[..]), || {
            format!("{label}: rebuilt trace differs from the workload's")
        });
        let (src, s) = timed(|| w.source(p));
        source_s += s;
        let (program, s) = timed(|| assemble(&src));
        asm_s += s;
        let Ok(program) = program else {
            report.check(false, || format!("{label}: assembly failed"));
            continue;
        };
        let (emulated, s) = timed(|| Emulator::new(&program).run_trace(TRACE_BUDGET));
        emu_s += s;
        report.check(emulated.as_deref().ok() == Some(&trace[..]), || {
            format!("{label}: staged emulation differs from the workload's trace")
        });
        let mut bytes = Vec::new();
        let (enc, s) = timed(|| write_trace(&mut bytes, trace));
        enc_s += s;
        let (dec, s) = timed(|| read_trace(&bytes[..]));
        dec_s += s;
        report.check(
            enc.is_ok() && dec.ok().as_deref() == Some(&trace[..]),
            || format!("{label}: trace codec round trip differs"),
        );
    }
    let minst = set.total_insts() as f64 / 1e6;
    report.set("workloads.source_s", source_s);
    report.set("isa.assemble_s", asm_s);
    report.set("isa.emulate_s", emu_s);
    report.set("isa.trace_minst", minst);
    report.set("isa.emulate_minst_per_s", minst / emu_s);
    report.set("isa.trace_encode_ms", enc_s * 1e3);
    report.set("isa.trace_decode_ms", dec_s * 1e3);
    report.set(
        "isa.setup_residual_s",
        parent_s - (source_s + asm_s + emu_s),
    );
}

/// `core`, and the `irb`/`mem`/`predictor` counters it reports: a
/// single-thread replay of the four recovery columns over the trace
/// set, a host-profiled and a scan-scheduler replay of the DIE-IRB
/// column (stats must match the event-driven run exactly), and a
/// fault-injected DIE-IRB replay. Returns the per-item column stats.
pub fn core(set: &TraceSet, fault_seed: u64, report: &mut Report) -> Vec<[SimStats; 4]> {
    let columns = grid_columns();
    let mut col_s = [0.0f64; 4];
    let mut rows = Vec::new();
    for (&(w, _), trace) in set.items.iter().zip(&set.traces) {
        let mut row: [SimStats; 4] = Default::default();
        for (i, (name, mode, cfg)) in columns.iter().enumerate() {
            let (stats, s) = timed(|| run(&Simulator::new(cfg.clone(), *mode), trace));
            col_s[i] += s;
            match stats {
                Ok(stats) => {
                    check_job(report, &format!("replay {w}/{name}"), &stats, trace.len());
                    row[i] = stats;
                }
                Err(e) => report.check(false, || format!("replay {w}/{name}: {e}")),
            }
        }
        rows.push(row);
    }
    let names = [
        "core.sim_s.sie",
        "core.sim_s.die",
        "core.sim_s.die-irb",
        "core.sim_s.die-2xalu",
    ];
    for (name, s) in names.into_iter().zip(col_s) {
        report.set(name, s);
    }
    let cycles: u64 = rows.iter().flatten().map(|s| s.cycles).sum();
    let insts: u64 = rows.iter().flatten().map(|s| s.committed_insts).sum();
    report.set(
        "core.ns_per_cycle",
        col_s.iter().sum::<f64>() * 1e9 / cycles as f64,
    );
    report.set("core.cycles", cycles as f64);
    report.set("core.committed_insts", insts as f64);
    let (alu, all) = recovery(&rows);
    report.set("core.alu_recovery_gap_pp", (alu - PAPER_ALU_RECOVERY).abs());
    report.set(
        "core.overall_recovery_gap_pp",
        (all - PAPER_OVERALL_RECOVERY).abs(),
    );
    structure_counters(&rows, report);

    let (_, irb_mode, irb_cfg) = &columns[2];
    let event_s = col_s[2];
    // Host-profiled replay: phases + residual = profiled wall.
    let mut prof = HostProfiler::default();
    let mut profiled_s = 0.0;
    for (row, trace) in rows.iter().zip(&set.traces) {
        let sim = Simulator::new(irb_cfg.clone(), *irb_mode);
        let mut one = HostProfiler::default();
        let (stats, s) = timed(|| {
            sim.run_source_instrumented(
                &mut SliceSource::new(trace),
                Instrumentation {
                    tracer: &mut NullTracer,
                    metrics: &mut NullMetrics,
                    profiler: Some(&mut one),
                },
            )
        });
        profiled_s += s;
        prof.merge(&one);
        report.check(stats.as_ref().ok() == Some(&row[2]), || {
            "profiled DIE-IRB replay changed the simulated stats".to_owned()
        });
    }
    let total = prof.total_nanos() as f64;
    for (phase, name) in [
        (HostPhase::Fetch, "core.phase_share.fetch"),
        (HostPhase::Schedule, "core.phase_share.schedule"),
        (HostPhase::Execute, "core.phase_share.execute"),
        (HostPhase::Writeback, "core.phase_share.writeback"),
        (HostPhase::Commit, "core.phase_share.commit"),
    ] {
        report.set(name, prof.nanos(phase) as f64 / total);
    }
    report.set("core.profiler_overhead", profiled_s / event_s - 1.0);
    report.set("core.phase_residual_share", 1.0 - total / 1e9 / profiled_s);

    // Same-run A/B: the scan reference scheduler against the default
    // event-driven engine, on identical inputs.
    let mut scan_cfg = irb_cfg.clone();
    scan_cfg.engine = SchedEngine::ScanReference;
    let mut scan_s = 0.0;
    for (row, trace) in rows.iter().zip(&set.traces) {
        let (stats, s) = timed(|| run(&Simulator::new(scan_cfg.clone(), *irb_mode), trace));
        scan_s += s;
        report.check(stats.as_ref().ok() == Some(&row[2]), || {
            "scan-reference DIE-IRB replay differs from the event-driven engine".to_owned()
        });
    }
    report.set("core.scan_over_event", scan_s / event_s);

    // Fault injection on functional units (the campaign's die-irb/fu).
    let faults = FaultConfig {
        fu_rate: 2e-4,
        seed: fault_seed,
        ..FaultConfig::none()
    };
    let (mut fault_s, mut injected, mut rewinds) = (0.0, 0u64, 0u64);
    for (&(w, _), trace) in set.items.iter().zip(&set.traces) {
        let sim = Simulator::new(irb_cfg.clone(), *irb_mode)
            .try_with_faults(faults)
            .expect("fault rates are valid")
            .with_watchdog(50_000_000);
        let (stats, s) = timed(|| run(&sim, trace));
        fault_s += s;
        match stats {
            Ok(st) => {
                report.check(st.fault_lifecycle.conservation_holds(), || {
                    format!("fault replay {w}: lifecycle does not conserve injected faults")
                });
                injected += st.fault_lifecycle.injected;
                rewinds += st.stalls.rewind;
            }
            Err(e) => report.check(false, || format!("fault replay {w}: {e}")),
        }
    }
    report.set("core.fault_sim_s", fault_s);
    report.set("core.faults_injected", injected as f64);
    report.set("core.rewind_cycles", rewinds as f64);
    rows
}

fn permille(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 * 1000.0 / den as f64
    }
}

/// IRB, cache and predictor counters of the DIE-IRB column, summed
/// over the trace set.
fn structure_counters(rows: &[[SimStats; 4]], report: &mut Report) {
    let irb = rows.iter().map(|r| &r[2]);
    let sum = |f: &dyn Fn(&SimStats) -> u64| irb.clone().map(f).sum::<u64>();
    let lookups = sum(&|s| s.irb.buffer.lookups);
    report.set("irb.lookups", lookups as f64);
    report.set(
        "irb.hit_permille",
        permille(
            sum(&|s| s.irb.buffer.pc_hits + s.irb.buffer.victim_hits),
            lookups,
        ),
    );
    report.set(
        "irb.reuse_pass_permille",
        permille(
            sum(&|s| s.irb.reuse_passed),
            sum(&|s| s.irb.reuse_passed + s.irb.reuse_failed),
        ),
    );
    report.set(
        "irb.port_starved",
        sum(&|s| s.irb.lookups_port_starved + s.irb.inserts_port_starved) as f64,
    );
    report.set(
        "mem.l1i_miss_permille",
        permille(sum(&|s| s.l1i.misses()), sum(&|s| s.l1i.accesses)),
    );
    report.set(
        "mem.l1d_miss_permille",
        permille(sum(&|s| s.l1d.misses()), sum(&|s| s.l1d.accesses)),
    );
    report.set("mem.l2_misses", sum(&|s| s.l2.misses()) as f64);
    report.set(
        "predictor.mispredict_permille",
        permille(
            sum(&|s| s.branches.cond_mispredicts),
            sum(&|s| s.branches.cond_branches),
        ),
    );
}

/// `irb`, `mem` and `predictor` structures driven directly: the paper
/// IRB over the traces' integer-ALU operations, the paper cache
/// hierarchy over their effective addresses, and the paper predictor
/// over their conditional-branch outcomes.
pub fn structures(set: &TraceSet, report: &mut Report) {
    let (mut irb_ops, mut irb_s) = (0u64, 0.0);
    let (mut accesses, mut mem_s) = (0u64, 0.0);
    let (mut branches, mut pred_s) = (0u64, 0.0);
    for trace in &set.traces {
        let alu: Vec<&DynInst> = trace
            .iter()
            .filter(|d| d.class() == OpClass::IntAlu)
            .collect();
        let mut irb = ReuseBuffer::new(IrbConfig::paper_baseline());
        let t0 = Instant::now();
        for d in &alu {
            let reused = irb
                .lookup(d.pc)
                .is_some_and(|e| e.op1 == d.src1 && e.op2 == d.src2);
            if !reused {
                irb.insert(IrbEntry {
                    pc: d.pc,
                    op1: d.src1,
                    op2: d.src2,
                    result: d.result.unwrap_or(0),
                });
            }
        }
        irb_s += t0.elapsed().as_secs_f64();
        irb_ops += irb.stats().lookups + irb.stats().inserts;
        black_box(irb.stats());

        let mem: Vec<(bool, u64)> = trace
            .iter()
            .filter_map(|d| d.ea.map(|ea| (d.class() == OpClass::Store, ea)))
            .collect();
        let mut h = Hierarchy::new(HierarchyConfig::paper_baseline());
        let t0 = Instant::now();
        let mut lat = 0u64;
        for &(store, ea) in &mem {
            lat += if store {
                h.write_data(ea)
            } else {
                h.read_data(ea)
            };
        }
        mem_s += t0.elapsed().as_secs_f64();
        accesses += mem.len() as u64;
        black_box(lat);

        let outcomes: Vec<(u64, bool)> = trace
            .iter()
            .filter(|d| d.class() == OpClass::Branch)
            .filter_map(|d| d.control.map(|c| (d.pc, c.taken)))
            .collect();
        let mut p = build_direction(DirectionConfig::paper_baseline());
        let t0 = Instant::now();
        let mut wrong = 0u64;
        for &(pc, taken) in &outcomes {
            wrong += u64::from(p.predict(pc) != taken);
            p.update(pc, taken);
        }
        pred_s += t0.elapsed().as_secs_f64();
        branches += outcomes.len() as u64;
        black_box(wrong);
    }
    report.set("irb.ns_per_op", irb_s * 1e9 / irb_ops.max(1) as f64);
    report.set("mem.ns_per_access", mem_s * 1e9 / accesses.max(1) as f64);
    report.set(
        "predictor.ns_per_branch",
        pred_s * 1e9 / branches.max(1) as f64,
    );
}

/// `util`: the median of fsync'd atomic replacements of a
/// manifest-record-sized payload.
pub fn util(dir: &Path, report: &mut Report) {
    let payload = vec![b'x'; 320];
    let path = dir.join("atomic-probe.json");
    let mut ms = Vec::new();
    for _ in 0..15 {
        let (r, s) = timed(|| atomic_write(&RealIo, &path, &payload, true));
        report.check(r.is_ok(), || "atomic_write probe failed".to_owned());
        ms.push(s * 1e3);
    }
    report.set("util.atomic_write_ms", median(&ms).unwrap_or(0.0));
}
