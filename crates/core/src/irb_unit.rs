//! The IRB as integrated into the pipeline: port arbitration + the
//! 3-stage pipelined lookup race of §3.2.

use redsim_irb::{AttributionCollector, IrbConfig, IrbEntry, PortArbiter, ReuseBuffer};
use redsim_isa::trace::DynInst;
use redsim_isa::OpClass;

use crate::ruu::ReuseState;

/// Pipeline-facing statistics beyond the buffer's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrbUnitStats {
    /// Lookups that could not obtain a read port at fetch.
    pub lookups_port_starved: u64,
    /// Commit-time inserts dropped for lack of a write port.
    pub inserts_port_starved: u64,
    /// Reuse tests that passed (functional units bypassed).
    pub reuse_passed: u64,
    /// Reuse tests that failed (operands differed).
    pub reuse_failed: u64,
}

/// The IRB with its ports, as the fetch and commit stages see it.
#[derive(Debug)]
pub struct IrbUnit {
    buffer: ReuseBuffer,
    arbiter: PortArbiter,
    lookup_stages: u64,
    stats: IrbUnitStats,
    /// Reuse-attribution collector; `None` (never allocated) unless the
    /// run enabled attribution, keeping the default path pure.
    attr: Option<Box<AttributionCollector>>,
}

/// Attribution class id for `di` (index into
/// [`redsim_irb::REUSE_CLASS_NAMES`]): `alu`, `mul`, `div`, `mem`,
/// `branch`. Sys ops map to `alu` but are never reuse-eligible, so they
/// are never counted.
#[must_use]
pub fn reuse_class(di: &DynInst) -> usize {
    match di.class() {
        OpClass::IntAlu | OpClass::FpAdd | OpClass::Sys => 0,
        OpClass::IntMul | OpClass::FpMul => 1,
        OpClass::IntDiv | OpClass::FpDiv | OpClass::FpSqrt => 2,
        OpClass::Load | OpClass::Store => 3,
        OpClass::Branch | OpClass::Jump => 4,
    }
}

/// Is this instruction a candidate for instruction reuse?
///
/// Per §3.2: integer and FP ALU operations, branch target calculation,
/// and address calculation for loads/stores. System operations and nops
/// have nothing to reuse.
#[must_use]
pub fn reuse_eligible(di: &DynInst) -> bool {
    match di.class() {
        OpClass::IntAlu
        | OpClass::IntMul
        | OpClass::IntDiv
        | OpClass::FpAdd
        | OpClass::FpMul
        | OpClass::FpDiv
        | OpClass::FpSqrt => di.inst.op != redsim_isa::Opcode::Nop && di.result.is_some(),
        OpClass::Load | OpClass::Store | OpClass::Branch | OpClass::Jump => true,
        OpClass::Sys => false,
    }
}

/// The value an IRB entry buffers for `di`: the register result for ALU
/// ops, the effective address for memory ops, the encoded outcome for
/// control ops.
#[must_use]
pub fn reuse_output(di: &DynInst) -> u64 {
    match di.class() {
        OpClass::Load | OpClass::Store => di.ea.expect("memory op has an ea"),
        OpClass::Branch | OpClass::Jump => {
            crate::ruu::control_bits(di).expect("control op has an outcome")
        }
        _ => di.result.expect("eligible ALU op has a result"),
    }
}

impl IrbUnit {
    /// Creates the unit.
    ///
    /// # Panics
    ///
    /// Panics on an invalid IRB configuration.
    #[must_use]
    pub fn new(config: IrbConfig) -> Self {
        config.validate();
        IrbUnit {
            buffer: ReuseBuffer::new(config),
            arbiter: PortArbiter::new(config.ports),
            lookup_stages: u64::from(config.lookup_stages),
            stats: IrbUnitStats::default(),
            attr: None,
        }
    }

    /// Turns on reuse attribution (allocates the collector). Off by
    /// default; when off, no attribution code allocates or observes.
    pub fn enable_attribution(&mut self) {
        self.attr = Some(Box::new(AttributionCollector::new()));
    }

    /// The live attribution collector, if enabled.
    #[must_use]
    pub fn attribution(&self) -> Option<&AttributionCollector> {
        self.attr.as_deref()
    }

    /// Observes every instruction leaving fetch, keeping the loop-region
    /// tracker current: a taken control transfer to a lower address is a
    /// backedge, naming the loop by its target (head) PC.
    ///
    /// Called unconditionally from the fetch stage (one predictable
    /// branch when attribution is off), *before* the instruction's own
    /// lookup starts, so a backedge's lookup is charged to its own loop.
    pub fn note_fetched(&mut self, di: &DynInst) {
        if let Some(attr) = &mut self.attr {
            if let Some(target) = di.target().filter(|&t| di.redirects() && t < di.pc) {
                attr.enter_loop(target);
            }
        }
    }

    /// Resets per-cycle port availability. Call once per cycle.
    pub fn begin_cycle(&mut self) {
        self.arbiter.begin_cycle();
    }

    /// Initiates the fetch-parallel lookup for `di`, returning the
    /// entry's starting [`ReuseState`] and the cycle the lookup result
    /// becomes available to the issue window.
    pub fn start_lookup(&mut self, di: &DynInst, cycle: u64) -> (ReuseState, u64) {
        if !reuse_eligible(di) {
            return (ReuseState::NotEligible, cycle);
        }
        if !self.arbiter.try_read() {
            self.stats.lookups_port_starved += 1;
            return (ReuseState::PortStarved, cycle);
        }
        // Attribution mirrors the buffer's own counters exactly: one
        // `record_lookup` per granted probe, one `record_hit` per tag
        // match, so per-class sums equal `IrbStats` totals.
        if let Some(attr) = &mut self.attr {
            attr.record_lookup(reuse_class(di), di.pc);
        }
        let done = cycle + self.lookup_stages;
        match self.buffer.lookup(di.pc) {
            Some(entry) => {
                if let Some(attr) = &mut self.attr {
                    attr.record_hit(reuse_class(di), di.pc);
                }
                (ReuseState::Hit(entry), done)
            }
            None => (ReuseState::PcMiss, done),
        }
    }

    /// Evaluates the reuse test for a PC-hit entry against the operand
    /// values the primary stream forwarded (§3.3's `Rdy2` comparators).
    pub fn reuse_test(&mut self, hit: &IrbEntry, di: &DynInst) -> bool {
        let pass = hit.op1 == di.src1 && hit.op2 == di.src2;
        if pass {
            self.stats.reuse_passed += 1;
        } else {
            self.stats.reuse_failed += 1;
        }
        if let Some(attr) = &mut self.attr {
            attr.record_test(reuse_class(di), di.pc, pass);
        }
        pass
    }

    /// Commit-time update: buffers the execution of `di` if a write
    /// port is free this cycle. Returns `true` if the insert happened.
    pub fn try_insert(&mut self, di: &DynInst) -> bool {
        if !reuse_eligible(di) {
            return false;
        }
        if !self.arbiter.try_write() {
            self.stats.inserts_port_starved += 1;
            return false;
        }
        let names = operand_names(di);
        self.buffer.insert_named(
            IrbEntry {
                pc: di.pc,
                op1: di.src1,
                op2: di.src2,
                result: reuse_output(di),
            },
            names,
        );
        true
    }

    /// Name-based invalidation for a committed register write.
    pub fn on_register_write(&mut self, di: &DynInst) {
        if let Some(r) = di.inst.int_dest() {
            self.buffer.invalidate_name(r.index() as u8);
        }
        if let Some(f) = di.inst.fp_dest() {
            self.buffer.invalidate_name(32 + f.index() as u8);
        }
    }

    /// The underlying buffer (stats, fault injection).
    #[must_use]
    pub fn buffer(&self) -> &ReuseBuffer {
        &self.buffer
    }

    /// Mutable access to the underlying buffer (fault injection).
    pub fn buffer_mut(&mut self) -> &mut ReuseBuffer {
        &mut self.buffer
    }

    /// Pipeline-level statistics.
    #[must_use]
    pub fn stats(&self) -> &IrbUnitStats {
        &self.stats
    }
}

/// Register names `di` reads, in the IRB's name encoding (int = index,
/// fp = 32 + index). Immediate operands are `None`.
fn operand_names(di: &DynInst) -> [Option<u8>; 2] {
    let ints = di.inst.int_sources();
    let fps = di.inst.fp_sources();
    let mut names = [None, None];
    let mut n = 0;
    for r in ints {
        if n < 2 {
            names[n] = Some(r.index() as u8);
            n += 1;
        }
    }
    for f in fps {
        if n < 2 {
            names[n] = Some(32 + f.index() as u8);
            n += 1;
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_isa::trace::ControlOutcome;
    use redsim_isa::{Inst, IntReg, Opcode};

    fn alu_di(pc: u64, a: u64, b: u64, r: u64) -> DynInst {
        DynInst {
            pc,
            inst: Inst::rrr(Opcode::Add, IntReg::new(3), IntReg::new(1), IntReg::new(2)),
            src1: a,
            src2: b,
            result: Some(r),
            ea: None,
            control: None,
        }
    }

    fn unit() -> IrbUnit {
        IrbUnit::new(IrbConfig {
            entries: 64,
            ..IrbConfig::paper_baseline()
        })
    }

    #[test]
    fn lookup_latency_is_three_stages() {
        let mut u = unit();
        u.begin_cycle();
        let (state, done) = u.start_lookup(&alu_di(0x1000, 1, 2, 3), 10);
        assert_eq!(state, ReuseState::PcMiss);
        assert_eq!(done, 13);
    }

    #[test]
    fn insert_then_hit_then_reuse_test() {
        let mut u = unit();
        u.begin_cycle();
        let d = alu_di(0x1000, 5, 6, 11);
        assert!(u.try_insert(&d));
        let (state, _) = u.start_lookup(&d, 1);
        let ReuseState::Hit(entry) = state else {
            panic!("expected hit, got {state:?}")
        };
        assert!(u.reuse_test(&entry, &d), "same operands pass");
        let d2 = alu_di(0x1000, 5, 7, 12);
        assert!(!u.reuse_test(&entry, &d2), "changed operand fails");
        assert_eq!(u.stats().reuse_passed, 1);
        assert_eq!(u.stats().reuse_failed, 1);
    }

    #[test]
    fn port_starvation_counts_and_denies() {
        let mut u = unit();
        u.begin_cycle();
        let d = alu_di(0x1000, 1, 1, 2);
        // Paper ports: 6 effective reads per cycle.
        for _ in 0..6 {
            let (s, _) = u.start_lookup(&d, 0);
            assert_ne!(s, ReuseState::PortStarved);
        }
        let (s, _) = u.start_lookup(&d, 0);
        assert_eq!(s, ReuseState::PortStarved);
        assert_eq!(u.stats().lookups_port_starved, 1);
        u.begin_cycle();
        let (s, _) = u.start_lookup(&d, 1);
        assert_ne!(s, ReuseState::PortStarved, "ports replenish each cycle");
    }

    #[test]
    fn attribution_mirrors_unit_counters() {
        let mut u = unit();
        u.enable_attribution();
        u.begin_cycle();
        let d = alu_di(0x1000, 5, 6, 11);
        assert!(u.try_insert(&d));
        let (s, _) = u.start_lookup(&d, 1);
        let ReuseState::Hit(e) = s else {
            panic!("expected hit, got {s:?}")
        };
        assert!(u.reuse_test(&e, &d));
        assert!(!u.reuse_test(&e, &alu_di(0x1000, 5, 7, 12)));
        let _ = u.start_lookup(&alu_di(0x2000, 1, 2, 3), 2);
        let a = u.attribution().expect("enabled").finish(8);
        let t = a.total();
        let b = u.buffer().stats();
        assert_eq!(t.lookups, b.lookups);
        assert_eq!(t.hits, b.pc_hits + b.victim_hits);
        assert_eq!(t.passes, u.stats().reuse_passed);
        assert_eq!(t.fails, u.stats().reuse_failed);
        assert_eq!(a.classes[0].lookups, t.lookups, "all events were alu");
        assert_eq!(t, a.pc_total());
        assert_eq!(t, a.loop_total());
    }

    #[test]
    fn reuse_class_taxonomy_is_total() {
        use redsim_irb::REUSE_CLASSES;
        let d = alu_di(0x1000, 1, 2, 3);
        assert!(reuse_class(&d) < REUSE_CLASSES);
        assert_eq!(reuse_class(&d), 0);
    }

    #[test]
    fn sys_ops_are_not_eligible() {
        let mut u = unit();
        u.begin_cycle();
        let halt = DynInst {
            pc: 0x1000,
            inst: Inst::halt(),
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: None,
        };
        let (s, _) = u.start_lookup(&halt, 0);
        assert_eq!(s, ReuseState::NotEligible);
        assert!(!u.try_insert(&halt));
    }

    #[test]
    fn memory_ops_buffer_the_effective_address() {
        let load = DynInst {
            pc: 0x2000,
            inst: Inst::load_int(Opcode::Ld, IntReg::new(4), IntReg::new(2), 16),
            src1: 0x8000,
            src2: 16,
            result: Some(99),
            ea: Some(0x8010),
            control: None,
        };
        assert!(reuse_eligible(&load));
        assert_eq!(reuse_output(&load), 0x8010, "address, not the loaded value");
    }

    #[test]
    fn branches_buffer_the_encoded_outcome() {
        let br = DynInst {
            pc: 0x3000,
            inst: Inst::branch(Opcode::Beq, IntReg::new(1), IntReg::new(2), -64),
            src1: 7,
            src2: 7,
            result: None,
            ea: None,
            control: Some(ControlOutcome { taken: true }),
        };
        assert_eq!(reuse_output(&br), 0x2fc0 | 1 << 63);
    }

    #[test]
    fn operand_names_cover_fp_and_stores() {
        let st = DynInst {
            pc: 0x1000,
            inst: Inst::store_int(Opcode::Sd, IntReg::new(7), IntReg::new(2), 0),
            src1: 0x8000,
            src2: 42,
            result: None,
            ea: Some(0x8000),
            control: None,
        };
        assert_eq!(operand_names(&st), [Some(2), Some(7)]);
    }
}
