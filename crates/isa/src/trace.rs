//! Committed dynamic-instruction trace records.
//!
//! The functional emulator emits one [`DynInst`] per architecturally
//! committed instruction. The record carries everything the timing models
//! need: operand *values* (so the instruction-reuse test of the DIE-IRB
//! design operates on real data), results, effective addresses, and branch
//! outcomes. Floating-point values travel as raw `f64` bit patterns, which
//! is what the hardware comparators of the DIE commit stage and the IRB
//! reuse test would see.
//!
//! # Stored versus derived fields
//!
//! A trace holds one record per committed instruction, so the record's
//! size is the trace's size: figure sweeps, the trace caches and
//! paper-scale runs all pay it per instruction. [`DynInst`] therefore
//! stores only what cannot be recomputed from the record itself, in
//! 72 bytes:
//!
//! * stored — `pc`, the static `inst`, the operand values `src1`/`src2`,
//!   `result`, `ea`, and the branch direction in `control`;
//! * derived — the control-flow target ([`DynInst::target`]: `pc + imm`
//!   for branches, `j` and `jal`; `src1 + imm` for `jr` and `jalr`) and
//!   the next committed PC ([`DynInst::next_pc`]: the target when taken,
//!   `pc` for `halt`, the fall-through otherwise);
//! * implied — the commit-order sequence number is the record's index
//!   in its trace; consumers that draw records one at a time (the
//!   timing pipeline) count them as they draw.

use crate::encode::INST_BYTES;
use crate::inst::Inst;
use crate::op::{OpClass, Opcode};

/// Outcome of a control-flow instruction. The target it computed is
/// derived on demand by [`DynInst::target`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ControlOutcome {
    /// Whether the branch/jump redirected the PC (always `true` for
    /// jumps).
    pub taken: bool,
}

/// One committed dynamic instruction.
///
/// Holds only the fields that cannot be recomputed (see the
/// [module docs](self)); the size is pinned at 72 bytes.
///
/// # Examples
///
/// ```
/// use redsim_isa::{asm::assemble, emu::Emulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("main: li a0, 2\n add a1, a0, a0\n halt\n")?;
/// let mut emu = Emulator::new(&p);
/// let _li = emu.step()?.unwrap();
/// let add = emu.step()?.unwrap();
/// assert_eq!(add.src1, 2);
/// assert_eq!(add.result, Some(4));
/// assert_eq!(add.next_pc(), add.pc + 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// The instruction's address.
    pub pc: u64,
    /// The static instruction.
    pub inst: Inst,
    /// First source-operand value. For register–immediate ALU operations
    /// this is the register value; for loads/stores and `jr`/`jalr` it is
    /// the base address register; for fp operations it is the `f64` bit
    /// pattern.
    pub src1: u64,
    /// Second source-operand value. For register–immediate operations
    /// this is the sign-extended immediate; for stores it is the data
    /// value being stored.
    pub src2: u64,
    /// Value written to the destination register (bit pattern), if any.
    /// For loads this is the loaded value; for `jal`/`jalr` the link
    /// address.
    pub result: Option<u64>,
    /// Effective address, for loads and stores.
    pub ea: Option<u64>,
    /// Control-flow outcome, for branches and jumps.
    pub control: Option<ControlOutcome>,
}

const _: () = assert!(std::mem::size_of::<DynInst>() == 72);

impl DynInst {
    /// The functional-unit class of the instruction.
    #[must_use]
    pub fn class(&self) -> OpClass {
        self.inst.op.class()
    }

    /// `true` if this dynamic instruction redirected the PC.
    #[must_use]
    pub fn redirects(&self) -> bool {
        self.control.is_some_and(|c| c.taken)
    }

    /// The address of the instruction immediately after this one in
    /// static program order (the fall-through PC).
    #[must_use]
    pub fn fallthrough_pc(&self) -> u64 {
        self.pc + INST_BYTES
    }

    /// The target a control-flow instruction computes, whether or not
    /// it was taken: `src1 + imm` for the register-indirect `jr`/`jalr`,
    /// `pc + imm` for branches, `j` and `jal`. `None` for records
    /// without a control outcome.
    #[inline]
    #[must_use]
    pub fn target(&self) -> Option<u64> {
        self.control?;
        let base = match self.inst.op {
            Opcode::Jr | Opcode::Jalr => self.src1,
            _ => self.pc,
        };
        Some(base.wrapping_add(self.inst.imm as i64 as u64))
    }

    /// Address of the next committed instruction: the target when the
    /// instruction redirected the PC, its own address for `halt`, and
    /// the fall-through PC otherwise.
    #[inline]
    #[must_use]
    pub fn next_pc(&self) -> u64 {
        match self.target() {
            Some(t) if self.redirects() => t,
            _ if self.inst.op == Opcode::Halt => self.pc,
            _ => self.fallthrough_pc(),
        }
    }
}

/// Events a program emits through the `puti`/`putc`/`putf` instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputEvent {
    /// `puti` — a signed integer.
    Int(i64),
    /// `putc` — one byte.
    Char(u8),
    /// `putf` — a double.
    Float(f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::reg::IntReg;

    fn nop(pc: u64) -> DynInst {
        DynInst {
            pc,
            inst: Inst::NOP,
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: None,
        }
    }

    #[test]
    fn record_is_72_bytes() {
        assert_eq!(std::mem::size_of::<DynInst>(), 72);
        assert_eq!(std::mem::size_of::<Option<ControlOutcome>>(), 1);
    }

    #[test]
    fn redirects_requires_taken() {
        let base = DynInst {
            inst: Inst::branch(Opcode::Beq, IntReg::new(1), IntReg::ZERO, 0x1000),
            ..nop(0x1000)
        };
        assert!(!base.redirects());
        let not_taken = DynInst {
            control: Some(ControlOutcome { taken: false }),
            ..base
        };
        assert!(!not_taken.redirects());
        assert_eq!(not_taken.target(), Some(0x2000));
        assert_eq!(not_taken.next_pc(), 0x1008);
        let taken = DynInst {
            control: Some(ControlOutcome { taken: true }),
            ..base
        };
        assert!(taken.redirects());
        assert_eq!(taken.next_pc(), 0x2000);
    }

    #[test]
    fn fallthrough_is_pc_plus_inst_bytes() {
        let d = nop(0x1010);
        assert_eq!(d.fallthrough_pc(), 0x1018);
        assert_eq!(d.next_pc(), 0x1018);
        assert_eq!(d.target(), None);
    }

    #[test]
    fn indirect_targets_add_the_immediate_to_the_base_register() {
        let jr = DynInst {
            inst: Inst {
                op: Opcode::Jr,
                rd: 0,
                rs1: 5,
                rs2: 0,
                imm: -8,
            },
            src1: 0x4008,
            control: Some(ControlOutcome { taken: true }),
            ..nop(0x1000)
        };
        assert_eq!(jr.target(), Some(0x4000));
        assert_eq!(jr.next_pc(), 0x4000);
    }

    #[test]
    fn halt_stays_put() {
        let h = DynInst {
            inst: Inst::halt(),
            ..nop(0x1040)
        };
        assert_eq!(h.next_pc(), 0x1040);
    }
}
