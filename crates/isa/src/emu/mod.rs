//! Architectural (functional) emulator.
//!
//! [`Emulator`] executes a [`Program`] instruction-at-a-time in commit
//! order, producing a [`DynInst`] trace record per step. The timing
//! models in `redsim-core` consume this stream: the emulator defines
//! *what* the program does, the timing models define *when*.

mod memory;

pub use memory::{Memory, NULL_GUARD};

use crate::encode::INST_BYTES;
use crate::error::EmuError;
use crate::inst::Inst;
use crate::op::Opcode;
use crate::program::{Program, STACK_TOP};
use crate::reg::NUM_REGS;
use crate::trace::{ControlOutcome, DynInst, OutputEvent};

/// The functional emulator.
///
/// # Examples
///
/// ```
/// use redsim_isa::{asm::assemble, emu::Emulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("main: li a0, 6\n li a1, 7\n mul a2, a0, a1\n puti a2\n halt\n")?;
/// let mut emu = Emulator::new(&p);
/// emu.run(100)?;
/// assert_eq!(emu.output_ints(), &[42]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    program: Program,
    pc: u64,
    iregs: [u64; NUM_REGS],
    fregs: [u64; NUM_REGS],
    mem: Memory,
    halted: bool,
    seq: u64,
    output: Vec<OutputEvent>,
}

impl Emulator {
    /// Creates an emulator with the program's segments loaded and the
    /// stack pointer initialized to [`STACK_TOP`].
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let mut mem = Memory::new();
        mem.load_segment(program.data_base(), program.data());
        let mut iregs = [0u64; NUM_REGS];
        iregs[crate::reg::IntReg::SP.index()] = STACK_TOP;
        Emulator {
            pc: program.entry(),
            program: program.clone(),
            iregs,
            fregs: [0; NUM_REGS],
            mem,
            halted: false,
            seq: 0,
            output: Vec::new(),
        }
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// `true` once the program has executed `halt`.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions committed so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.seq
    }

    /// Reads an integer register.
    #[must_use]
    pub fn ireg(&self, r: crate::reg::IntReg) -> u64 {
        self.iregs[r.index()]
    }

    /// Reads an fp register as a double.
    #[must_use]
    pub fn freg(&self, r: crate::reg::FpReg) -> f64 {
        f64::from_bits(self.fregs[r.index()])
    }

    /// The program's output events, in emission order.
    #[must_use]
    pub fn output(&self) -> &[OutputEvent] {
        &self.output
    }

    /// Convenience: just the integers the program `puti`-ed.
    #[must_use]
    pub fn output_ints(&self) -> Vec<i64> {
        self.output
            .iter()
            .filter_map(|e| match e {
                OutputEvent::Int(v) => Some(*v),
                _ => None,
            })
            .collect()
    }

    /// The emulator's memory (e.g. for inspecting results in tests).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    fn read_i(&self, idx: u8) -> u64 {
        self.iregs[idx as usize]
    }

    fn write_i(&mut self, idx: u8, v: u64) {
        if idx != 0 {
            self.iregs[idx as usize] = v;
        }
    }

    fn read_f(&self, idx: u8) -> u64 {
        self.fregs[idx as usize]
    }

    fn write_f(&mut self, idx: u8, bits: u64) {
        self.fregs[idx as usize] = bits;
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(None)` if the program has already halted.
    ///
    /// # Errors
    ///
    /// Fails if the PC leaves the text segment or a memory access faults.
    pub fn step(&mut self) -> Result<Option<DynInst>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = *self.program.fetch(pc).ok_or(EmuError::PcOutOfText { pc })?;
        let (rec, next_pc) = self.exec(pc, inst)?;
        self.pc = next_pc;
        self.seq += 1;
        Ok(Some(rec))
    }

    /// Runs until `halt` or until `budget` instructions have executed.
    ///
    /// Returns the number of instructions committed by this call.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::BudgetExhausted`] if the program does not halt
    /// within the budget, or propagates any execution fault.
    pub fn run(&mut self, budget: u64) -> Result<u64, EmuError> {
        let start = self.seq;
        while !self.halted {
            if self.seq - start >= budget {
                return Err(EmuError::BudgetExhausted {
                    executed: self.seq - start,
                });
            }
            self.step()?;
        }
        Ok(self.seq - start)
    }

    /// Runs like [`run`](Self::run) but collects the full trace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    pub fn run_trace(&mut self, budget: u64) -> Result<Vec<DynInst>, EmuError> {
        let mut out = Vec::new();
        while !self.halted {
            if out.len() as u64 >= budget {
                return Err(EmuError::BudgetExhausted {
                    executed: out.len() as u64,
                });
            }
            if let Some(rec) = self.step()? {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Executes `inst` at `pc`, returning its record and the address of
    /// the next instruction. The emulator computes the next PC itself;
    /// the record derives the same value ([`DynInst::next_pc`]), which
    /// the trace tests hold to this computation.
    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, pc: u64, inst: Inst) -> Result<(DynInst, u64), EmuError> {
        use Opcode::*;
        let fall = pc + INST_BYTES;
        let mut next_pc = fall;
        let mut rec = DynInst {
            pc,
            inst,
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: None,
        };

        // Integer register–register ALU.
        let rrr = |emu: &Self, rec: &mut DynInst| {
            let a = emu.read_i(inst.rs1);
            let b = emu.read_i(inst.rs2);
            rec.src1 = a;
            rec.src2 = b;
            (a, b)
        };
        // Integer register–immediate ALU.
        let rri = |emu: &Self, rec: &mut DynInst| {
            let a = emu.read_i(inst.rs1);
            let b = inst.imm as i64 as u64;
            rec.src1 = a;
            rec.src2 = b;
            (a, b)
        };
        // FP two-source.
        let fff = |emu: &Self, rec: &mut DynInst| {
            let a = emu.read_f(inst.rs1);
            let b = emu.read_f(inst.rs2);
            rec.src1 = a;
            rec.src2 = b;
            (f64::from_bits(a), f64::from_bits(b))
        };

        match inst.op {
            Add => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, a.wrapping_add(b));
            }
            Sub => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, a.wrapping_sub(b));
            }
            And => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, a & b);
            }
            Or => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, a | b);
            }
            Xor => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, a ^ b);
            }
            Nor => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, !(a | b));
            }
            Sll => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, a << (b & 63));
            }
            Srl => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, a >> (b & 63));
            }
            Sra => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, (a as i64 >> (b & 63)) as u64);
            }
            Slt => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, u64::from((a as i64) < b as i64));
            }
            Sltu => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, u64::from(a < b));
            }
            Addi => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, a.wrapping_add(b));
            }
            Andi => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, a & b);
            }
            Ori => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, a | b);
            }
            Xori => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, a ^ b);
            }
            Slti => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, u64::from((a as i64) < b as i64));
            }
            Sltiu => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, u64::from(a < b));
            }
            Slli => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, a << (b & 63));
            }
            Srli => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, a >> (b & 63));
            }
            Srai => {
                let (a, b) = rri(self, &mut rec);
                self.set_int(&mut rec, (a as i64 >> (b & 63)) as u64);
            }
            Li => {
                rec.src2 = inst.imm as i64 as u64;
                self.set_int(&mut rec, inst.imm as i64 as u64);
            }
            Mul => {
                let (a, b) = rrr(self, &mut rec);
                self.set_int(&mut rec, a.wrapping_mul(b));
            }
            Mulh => {
                let (a, b) = rrr(self, &mut rec);
                let wide = i128::from(a as i64) * i128::from(b as i64);
                self.set_int(&mut rec, (wide >> 64) as u64);
            }
            Div => {
                let (a, b) = rrr(self, &mut rec);
                let v = if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                };
                self.set_int(&mut rec, v);
            }
            Divu => {
                let (a, b) = rrr(self, &mut rec);
                let v = a.checked_div(b).unwrap_or(u64::MAX);
                self.set_int(&mut rec, v);
            }
            Rem => {
                let (a, b) = rrr(self, &mut rec);
                let v = if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                };
                self.set_int(&mut rec, v);
            }
            Remu => {
                let (a, b) = rrr(self, &mut rec);
                let v = if b == 0 { a } else { a % b };
                self.set_int(&mut rec, v);
            }
            FaddD => {
                let (a, b) = fff(self, &mut rec);
                self.set_fp(&mut rec, a + b);
            }
            FsubD => {
                let (a, b) = fff(self, &mut rec);
                self.set_fp(&mut rec, a - b);
            }
            FmulD => {
                let (a, b) = fff(self, &mut rec);
                self.set_fp(&mut rec, a * b);
            }
            FdivD => {
                let (a, b) = fff(self, &mut rec);
                self.set_fp(&mut rec, a / b);
            }
            FminD => {
                let (a, b) = fff(self, &mut rec);
                self.set_fp(&mut rec, a.min(b));
            }
            FmaxD => {
                let (a, b) = fff(self, &mut rec);
                self.set_fp(&mut rec, a.max(b));
            }
            FsqrtD => {
                let a = self.read_f(inst.rs1);
                rec.src1 = a;
                self.set_fp(&mut rec, f64::from_bits(a).sqrt());
            }
            FabsD => {
                let a = self.read_f(inst.rs1);
                rec.src1 = a;
                self.set_fp(&mut rec, f64::from_bits(a).abs());
            }
            FnegD => {
                let a = self.read_f(inst.rs1);
                rec.src1 = a;
                self.set_fp(&mut rec, -f64::from_bits(a));
            }
            FmovD => {
                let a = self.read_f(inst.rs1);
                rec.src1 = a;
                rec.result = Some(a);
                self.write_f(inst.rd, a);
            }
            FcvtDL => {
                let a = self.read_i(inst.rs1);
                rec.src1 = a;
                self.set_fp(&mut rec, a as i64 as f64);
            }
            FcvtLD => {
                let a = self.read_f(inst.rs1);
                rec.src1 = a;
                self.set_int(&mut rec, f64::from_bits(a) as i64 as u64);
            }
            FeqD => {
                let (a, b) = fff(self, &mut rec);
                self.set_int(&mut rec, u64::from(a == b));
            }
            FltD => {
                let (a, b) = fff(self, &mut rec);
                self.set_int(&mut rec, u64::from(a < b));
            }
            FleD => {
                let (a, b) = fff(self, &mut rec);
                self.set_int(&mut rec, u64::from(a <= b));
            }
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => {
                let base = self.read_i(inst.rs1);
                rec.src1 = base;
                rec.src2 = inst.imm as i64 as u64;
                let ea = base.wrapping_add(inst.imm as i64 as u64);
                rec.ea = Some(ea);
                let width = inst.op.mem_width().expect("load has a width");
                let raw = self.mem.read(ea, width, pc)?;
                let v = if inst.op.load_sign_extends() {
                    sign_extend(raw, width.bytes())
                } else {
                    raw
                };
                if inst.op == Fld {
                    rec.result = Some(v);
                    self.write_f(inst.rd, v);
                } else {
                    self.set_int(&mut rec, v);
                }
            }
            Sb | Sh | Sw | Sd | Fsd => {
                let base = self.read_i(inst.rs1);
                let data = if inst.op == Fsd {
                    self.read_f(inst.rs2)
                } else {
                    self.read_i(inst.rs2)
                };
                rec.src1 = base;
                rec.src2 = data;
                let ea = base.wrapping_add(inst.imm as i64 as u64);
                rec.ea = Some(ea);
                let width = inst.op.mem_width().expect("store has a width");
                self.mem.write(ea, width, data, pc)?;
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let a = self.read_i(inst.rs1);
                let b = self.read_i(inst.rs2);
                rec.src1 = a;
                rec.src2 = b;
                let taken = match inst.op {
                    Beq => a == b,
                    Bne => a != b,
                    Blt => (a as i64) < b as i64,
                    Bge => a as i64 >= b as i64,
                    Bltu => a < b,
                    Bgeu => a >= b,
                    _ => unreachable!(),
                };
                rec.control = Some(ControlOutcome { taken });
                if taken {
                    next_pc = pc.wrapping_add(inst.imm as i64 as u64);
                }
            }
            J => {
                rec.control = Some(ControlOutcome { taken: true });
                next_pc = pc.wrapping_add(inst.imm as i64 as u64);
            }
            Jal => {
                rec.control = Some(ControlOutcome { taken: true });
                next_pc = pc.wrapping_add(inst.imm as i64 as u64);
                self.set_int(&mut rec, fall);
            }
            Jr => {
                let base = self.read_i(inst.rs1);
                rec.src1 = base;
                rec.control = Some(ControlOutcome { taken: true });
                next_pc = base.wrapping_add(inst.imm as i64 as u64);
            }
            Jalr => {
                let base = self.read_i(inst.rs1);
                rec.src1 = base;
                rec.control = Some(ControlOutcome { taken: true });
                next_pc = base.wrapping_add(inst.imm as i64 as u64);
                self.set_int(&mut rec, fall);
            }
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Nop => {}
            Puti => {
                let v = self.read_i(inst.rs1);
                rec.src1 = v;
                self.output.push(OutputEvent::Int(v as i64));
            }
            Putc => {
                let v = self.read_i(inst.rs1);
                rec.src1 = v;
                self.output.push(OutputEvent::Char(v as u8));
            }
            Putf => {
                let v = self.read_f(inst.rs1);
                rec.src1 = v;
                self.output.push(OutputEvent::Float(f64::from_bits(v)));
            }
        }
        Ok((rec, next_pc))
    }

    fn set_int(&mut self, rec: &mut DynInst, v: u64) {
        // r0 is hard-wired to zero: the record keeps the computed value
        // (that is what an ALU or IRB would produce) but the register
        // write is dropped.
        rec.result = Some(v);
        self.write_i(rec.inst.rd, v);
    }

    fn set_fp(&mut self, rec: &mut DynInst, v: f64) {
        rec.result = Some(v.to_bits());
        self.write_f(rec.inst.rd, v.to_bits());
    }
}

fn sign_extend(v: u64, bytes: u64) -> u64 {
    let bits = bytes * 8;
    if bits == 64 {
        return v;
    }
    let shift = 64 - bits;
    ((v << shift) as i64 >> shift) as u64
}

#[cfg(test)]
mod tests;
