//! Committed-path instruction sources for the timing models.

use redsim_isa::emu::Emulator;
use redsim_isa::trace::DynInst;
use redsim_isa::{EmuError, Program};

/// A stream of committed dynamic instructions.
///
/// The timing models are trace-driven: they pull the committed path from
/// a source and decide *when* each instruction moves through the
/// machine. [`EmulatorSource`] runs the functional emulator lazily;
/// [`VecSource`] replays a pre-recorded trace (useful for tests and for
/// running many machine configurations over the identical instruction
/// stream).
pub trait InstructionSource {
    /// The next committed instruction, or `None` at end of program.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution faults (bad memory access,
    /// runaway program exceeding its budget).
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError>;
}

/// Drives the functional emulator on demand.
#[derive(Debug)]
pub struct EmulatorSource {
    emu: Emulator,
    budget: u64,
    drawn: u64,
}

impl EmulatorSource {
    /// Creates a source executing `program` with an instruction budget
    /// (a runaway-loop backstop).
    #[must_use]
    pub fn new(program: &Program, budget: u64) -> Self {
        EmulatorSource {
            emu: Emulator::new(program),
            budget,
            drawn: 0,
        }
    }

    /// The wrapped emulator (e.g. to read program output afterwards).
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }
}

impl InstructionSource for EmulatorSource {
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError> {
        if self.emu.halted() {
            return Ok(None);
        }
        if self.drawn >= self.budget {
            return Err(EmuError::BudgetExhausted {
                executed: self.drawn,
            });
        }
        self.drawn += 1;
        self.emu.step()
    }
}

/// Replays a pre-recorded trace.
#[derive(Debug, Clone)]
pub struct VecSource {
    trace: Vec<DynInst>,
    pos: usize,
}

impl VecSource {
    /// Creates a source replaying `trace` in order.
    #[must_use]
    pub fn new(trace: Vec<DynInst>) -> Self {
        VecSource { trace, pos: 0 }
    }

    /// Number of instructions remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }
}

impl InstructionSource for VecSource {
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError> {
        let item = self.trace.get(self.pos).copied();
        if item.is_some() {
            self.pos += 1;
        }
        Ok(item)
    }
}

/// Replays a borrowed trace without copying it.
///
/// Sweeps run many machine configurations over the identical committed
/// path; borrowing lets every run share one materialized trace instead
/// of cloning a multi-million-entry `Vec` per run (what [`VecSource`]
/// requires).
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    trace: &'a [DynInst],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Creates a source replaying `trace` in order.
    #[must_use]
    pub fn new(trace: &'a [DynInst]) -> Self {
        SliceSource { trace, pos: 0 }
    }

    /// Number of instructions remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }
}

impl InstructionSource for SliceSource<'_> {
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError> {
        let item = self.trace.get(self.pos).copied();
        if item.is_some() {
            self.pos += 1;
        }
        Ok(item)
    }
}

/// Replays a reference-counted trace shared across threads.
///
/// Cloning an `ArcSource` (or the underlying `Arc<[DynInst]>`) is a
/// pointer bump, so a parallel sweep can hand every worker the same
/// trace without copying instruction data.
#[derive(Debug, Clone)]
pub struct ArcSource {
    trace: std::sync::Arc<[DynInst]>,
    pos: usize,
}

impl ArcSource {
    /// Creates a source replaying `trace` in order.
    #[must_use]
    pub fn new(trace: std::sync::Arc<[DynInst]>) -> Self {
        ArcSource { trace, pos: 0 }
    }

    /// Number of instructions remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }
}

impl InstructionSource for ArcSource {
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError> {
        let item = self.trace.get(self.pos).copied();
        if item.is_some() {
            self.pos += 1;
        }
        Ok(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_isa::asm::assemble;

    #[test]
    fn emulator_source_streams_until_halt() {
        let p = assemble("main: li a0, 1\n li a1, 2\n halt\n").unwrap();
        let mut s = EmulatorSource::new(&p, 100);
        let mut n = 0;
        let mut pc = p.entry();
        while let Some(d) = s.next_inst().unwrap() {
            assert_eq!(d.pc, pc, "records arrive in commit order");
            pc = d.next_pc();
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(s.next_inst().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn emulator_source_enforces_budget() {
        let p = assemble("spin: j spin\n").unwrap();
        let mut s = EmulatorSource::new(&p, 10);
        for _ in 0..10 {
            assert!(s.next_inst().unwrap().is_some());
        }
        assert!(s.next_inst().is_err());
    }

    #[test]
    fn vec_source_replays_in_order() {
        let p = assemble("main: li a0, 1\n add a1, a0, a0\n halt\n").unwrap();
        let trace = redsim_isa::emu::Emulator::new(&p).run_trace(100).unwrap();
        let mut s = VecSource::new(trace.clone());
        assert_eq!(s.remaining(), 3);
        for want in &trace {
            assert_eq!(s.next_inst().unwrap().as_ref(), Some(want));
        }
        assert!(s.next_inst().unwrap().is_none());
        assert_eq!(s.remaining(), 0);
    }

    fn drain(s: &mut dyn InstructionSource) -> Vec<DynInst> {
        let mut out = Vec::new();
        while let Some(d) = s.next_inst().unwrap() {
            out.push(d);
        }
        out
    }

    #[test]
    fn slice_and_arc_sources_stream_identically_to_vec_source() {
        let p = assemble("main: li a0, 5\nloop: addi a0, a0, -1\n bnez a0, loop\n halt\n").unwrap();
        let trace = redsim_isa::emu::Emulator::new(&p).run_trace(100).unwrap();
        let from_vec = drain(&mut VecSource::new(trace.clone()));
        let from_slice = drain(&mut SliceSource::new(&trace));
        let arc: std::sync::Arc<[DynInst]> = trace.clone().into();
        let from_arc = drain(&mut ArcSource::new(arc));
        assert_eq!(from_vec, trace);
        assert_eq!(from_slice, from_vec);
        assert_eq!(from_arc, from_vec);
    }

    #[test]
    fn slice_source_tracks_remaining() {
        let p = assemble("main: li a0, 1\n halt\n").unwrap();
        let trace = redsim_isa::emu::Emulator::new(&p).run_trace(100).unwrap();
        let mut s = SliceSource::new(&trace);
        assert_eq!(s.remaining(), 2);
        s.next_inst().unwrap();
        assert_eq!(s.remaining(), 1);
        drain(&mut s);
        assert_eq!(s.remaining(), 0);
        assert!(s.next_inst().unwrap().is_none(), "stays exhausted");
    }
}
