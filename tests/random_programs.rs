//! Generative tests over randomly generated programs.
//!
//! The generator emits straight-line code with *forward-only* branches,
//! so every program terminates within one pass over its text. Each
//! generated program is run through the emulator and all four timing
//! modes; the timing models must commit exactly the functional
//! instruction count, never mismatch a fault-free pair, and be
//! deterministic.
//!
//! Inputs are drawn from a fixed-seed [`redsim_util::Rng`], so a
//! failing case replays exactly under `cargo test`.

use redsim::core::{ExecMode, MachineConfig, Simulator};
use redsim::isa::emu::Emulator;
use redsim::isa::{Inst, IntReg, Opcode, ProgramBuilder};
use redsim_util::Rng;

/// One step of the generator: an abstract instruction to lower.
#[derive(Debug, Clone)]
enum Gen {
    AluRrr(u8, u8, u8, u8),
    AluRri(u8, u8, u8, i16),
    Li(u8, i32),
    MulDiv(u8, u8, u8, u8),
    Fp(u8, u8, u8, u8),
    Load(u8, u16),
    Store(u8, u16),
    /// Forward branch skipping 1..=skip instructions.
    Branch(u8, u8, u8, u8),
}

const RRR_OPS: [Opcode; 8] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Sll,
    Opcode::Slt,
    Opcode::Sltu,
];
const RRI_OPS: [Opcode; 5] = [
    Opcode::Addi,
    Opcode::Andi,
    Opcode::Ori,
    Opcode::Xori,
    Opcode::Slti,
];
const MD_OPS: [Opcode; 4] = [Opcode::Mul, Opcode::Mulh, Opcode::Div, Opcode::Rem];
const FP_OPS: [Opcode; 4] = [Opcode::FaddD, Opcode::FsubD, Opcode::FmulD, Opcode::FminD];
const BR_OPS: [Opcode; 4] = [Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bgeu];

/// Work registers: avoid zero/ra/sp so the harness scaffolding stays
/// intact.
fn reg(sel: u8) -> IntReg {
    IntReg::new(5 + sel % 20)
}

fn gen_step(rng: &mut Rng) -> Gen {
    match rng.index(8) {
        0 => Gen::AluRrr(rng.any_u8(), rng.any_u8(), rng.any_u8(), rng.any_u8()),
        1 => Gen::AluRri(rng.any_u8(), rng.any_u8(), rng.any_u8(), rng.any_i16()),
        2 => Gen::Li(rng.any_u8(), rng.any_i32()),
        3 => Gen::MulDiv(rng.any_u8(), rng.any_u8(), rng.any_u8(), rng.any_u8()),
        4 => Gen::Fp(rng.any_u8(), rng.any_u8(), rng.any_u8(), rng.any_u8()),
        5 => Gen::Load(rng.any_u8(), rng.next_u64() as u16),
        6 => Gen::Store(rng.any_u8(), rng.next_u64() as u16),
        _ => Gen::Branch(
            rng.any_u8(),
            rng.any_u8(),
            rng.any_u8(),
            rng.range_u64(1, 12) as u8,
        ),
    }
}

fn gen_steps(rng: &mut Rng, lo: u64, hi: u64) -> Vec<Gen> {
    (0..rng.range_u64(lo, hi)).map(|_| gen_step(rng)).collect()
}

/// Lowers the abstract steps into a runnable program.
fn lower(steps: &[Gen]) -> redsim::isa::Program {
    let mut b = ProgramBuilder::new();
    let buf = b.data_space(2048);
    let base = IntReg::new(28); // t3 holds the data buffer
                                // Prologue: seed the registers.
    b = b.inst(Inst::li(base, buf as i32));
    for i in 0..8u8 {
        b = b.inst(Inst::li(reg(i), i32::from(i) * 77 - 100));
        b = b.inst(Inst::cvt_int_to_fp(redsim::isa::FpReg::new(1 + i), reg(i)));
    }
    let prologue_len = 17u64;
    // Pre-compute instruction index of each step (1 inst per step).
    for (idx, g) in steps.iter().enumerate() {
        let inst = match g {
            Gen::AluRrr(o, a, x, y) => Inst::rrr(
                RRR_OPS[*o as usize % RRR_OPS.len()],
                reg(*a),
                reg(*x),
                reg(*y),
            ),
            Gen::AluRri(o, a, x, i) => Inst::rri(
                RRI_OPS[*o as usize % RRI_OPS.len()],
                reg(*a),
                reg(*x),
                i32::from(*i),
            ),
            Gen::Li(a, i) => Inst::li(reg(*a), *i),
            Gen::MulDiv(o, a, x, y) => Inst::rrr(
                MD_OPS[*o as usize % MD_OPS.len()],
                reg(*a),
                reg(*x),
                reg(*y),
            ),
            Gen::Fp(o, a, x, y) => {
                let f = |s: u8| redsim::isa::FpReg::new(1 + s % 8);
                Inst::fff(FP_OPS[*o as usize % FP_OPS.len()], f(*a), f(*x), f(*y))
            }
            Gen::Load(a, off) => {
                Inst::load_int(Opcode::Ld, reg(*a), base, i32::from(off % 2048 / 8 * 8))
            }
            Gen::Store(a, off) => {
                Inst::store_int(Opcode::Sd, reg(*a), base, i32::from(off % 2048 / 8 * 8))
            }
            Gen::Branch(o, a, x, skip) => {
                // Forward-only: skip 1..=skip instructions, clamped to
                // land at or before the halt.
                let remaining = steps.len() - idx - 1;
                let skip = (*skip as usize).min(remaining) as i32;
                Inst::branch(
                    BR_OPS[*o as usize % BR_OPS.len()],
                    reg(*a),
                    reg(*x),
                    (skip + 1) * 8,
                )
            }
        };
        b = b.inst(inst);
        let _ = prologue_len;
    }
    b.inst(Inst::halt()).build()
}

const CASES: u64 = 24;

#[test]
fn all_modes_agree_with_the_emulator_on_any_program() {
    let mut rng = Rng::new(0x9E0_0001);
    for case in 0..CASES {
        let steps = gen_steps(&mut rng, 5, 120);
        let program = lower(&steps);
        let mut emu = Emulator::new(&program);
        // Forward-only control flow: each instruction runs at most once.
        let n = emu
            .run(program.text().len() as u64 + 1)
            .expect("terminates");
        let cfg = MachineConfig::tiny();
        for mode in [
            ExecMode::Sie,
            ExecMode::Die,
            ExecMode::DieIrb,
            ExecMode::SieIrb,
        ] {
            let stats = Simulator::new(cfg.clone(), mode)
                .run_program(&program)
                .expect("simulates");
            assert_eq!(stats.committed_insts, n, "case {case} {mode:?}");
            assert_eq!(stats.pair_mismatches, 0, "case {case} {mode:?}");
            assert!(stats.cycles > 0);
        }
    }
}

#[test]
fn timing_is_deterministic_for_any_program() {
    let mut rng = Rng::new(0x9E0_0002);
    for case in 0..CASES {
        let steps = gen_steps(&mut rng, 5, 60);
        let program = lower(&steps);
        let cfg = MachineConfig::tiny();
        let run = || {
            Simulator::new(cfg.clone(), ExecMode::DieIrb)
                .run_program(&program)
                .expect("simulates")
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn disassembly_listing_reassembles_identically() {
    use redsim::isa::asm::assemble;
    use redsim::isa::disasm::listing;
    let mut rng = Rng::new(0x9E0_0003);
    for case in 0..CASES {
        let steps = gen_steps(&mut rng, 1, 60);
        let program = lower(&steps);
        let text = listing(&program);
        let back = assemble(&text).expect("listing must reassemble");
        assert_eq!(back.text(), program.text(), "case {case}");
    }
}

#[test]
fn container_round_trips_any_program() {
    use redsim::isa::container::{from_bytes, to_bytes};
    let mut rng = Rng::new(0x9E0_0004);
    for case in 0..CASES {
        let steps = gen_steps(&mut rng, 1, 60);
        let program = lower(&steps);
        assert_eq!(
            from_bytes(&to_bytes(&program)).expect("loads"),
            program,
            "case {case}"
        );
    }
}

#[test]
fn trace_serialization_round_trips_any_program() {
    use redsim::isa::trace_io::{read_trace, write_trace};
    let mut rng = Rng::new(0x9E0_0005);
    for case in 0..CASES {
        let steps = gen_steps(&mut rng, 1, 60);
        let program = lower(&steps);
        let trace = Emulator::new(&program)
            .run_trace(program.text().len() as u64 + 1)
            .expect("terminates");
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("writes");
        assert_eq!(
            read_trace(buf.as_slice()).expect("reads"),
            trace,
            "case {case}"
        );
    }
}

#[test]
fn encoded_program_text_round_trips() {
    use redsim::isa::encode::{decode_text, encode_text};
    let mut rng = Rng::new(0x9E0_0006);
    for case in 0..CASES {
        let steps = gen_steps(&mut rng, 1, 80);
        let program = lower(&steps);
        let bytes = encode_text(program.text());
        let back = decode_text(&bytes).expect("decodes");
        assert_eq!(back.as_slice(), program.text(), "case {case}");
    }
}

#[test]
fn derived_fields_match_the_emulator_on_any_program() {
    let mut rng = Rng::new(0x9E0_0007);
    for case in 0..CASES {
        let steps = gen_steps(&mut rng, 1, 120);
        let program = lower(&steps);
        let mut emu = Emulator::new(&program);
        while let Some(d) = emu.step().expect("runs") {
            assert_eq!(d.next_pc(), emu.pc(), "case {case} pc {:#x}", d.pc);
            assert_eq!(d.target().is_some(), d.control.is_some(), "case {case}");
            if d.redirects() {
                assert_eq!(d.target(), Some(emu.pc()), "case {case} pc {:#x}", d.pc);
            }
        }
    }
}

/// fx64 of the `.rtrc` encodings of the [`CASES`] traces the
/// `0x9E0_0007` stream generates, concatenated in case order.
const PINNED_RTRC_FX64: u64 = 0x6ce2b8d066e3999e;

#[test]
fn trace_encoding_is_pinned_for_random_programs() {
    use redsim::isa::trace_io::write_trace;
    let mut rng = Rng::new(0x9E0_0007);
    let mut bytes = Vec::new();
    for _ in 0..CASES {
        let steps = gen_steps(&mut rng, 1, 120);
        let program = lower(&steps);
        let trace = Emulator::new(&program)
            .run_trace(program.text().len() as u64 + 1)
            .expect("terminates");
        write_trace(&mut bytes, &trace).expect("writes");
    }
    assert_eq!(redsim_util::hash::fx64(&bytes), PINNED_RTRC_FX64);
}
