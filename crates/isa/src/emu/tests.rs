use super::*;
use crate::asm::assemble;
use crate::reg::{FpReg, IntReg};
use crate::trace::OutputEvent;

fn run_ints(src: &str) -> Vec<i64> {
    let p = assemble(src).expect("assemble");
    let mut emu = Emulator::new(&p);
    emu.run(10_000_000).expect("run");
    emu.output_ints()
}

fn run_floats(src: &str) -> Vec<f64> {
    let p = assemble(src).expect("assemble");
    let mut emu = Emulator::new(&p);
    emu.run(10_000_000).expect("run");
    emu.output()
        .iter()
        .filter_map(|e| match e {
            OutputEvent::Float(v) => Some(*v),
            _ => None,
        })
        .collect()
}

#[test]
fn arithmetic_basics() {
    let out = run_ints(
        r#"
        li a0, 7
        li a1, 3
        add t0, a0, a1
        puti t0
        sub t0, a0, a1
        puti t0
        mul t0, a0, a1
        puti t0
        div t0, a0, a1
        puti t0
        rem t0, a0, a1
        puti t0
        halt
        "#,
    );
    assert_eq!(out, [10, 4, 21, 2, 1]);
}

#[test]
fn logic_and_shifts() {
    let out = run_ints(
        r#"
        li a0, 0b1100
        li a1, 0b1010
        and t0, a0, a1      # pseudo? no: real
        puti t0
        or  t0, a0, a1
        puti t0
        xor t0, a0, a1
        puti t0
        slli t0, a0, 4
        puti t0
        srli t0, a0, 2
        puti t0
        li a2, -8
        srai t0, a2, 1
        puti t0
        halt
        "#,
    );
    assert_eq!(out, [8, 14, 6, 192, 3, -4]);
}

#[test]
fn signed_unsigned_compares() {
    let out = run_ints(
        r#"
        li a0, -1
        li a1, 1
        slt t0, a0, a1
        puti t0
        sltu t0, a0, a1     # -1 is huge unsigned
        puti t0
        slti t1, a1, 100
        puti t1
        halt
        "#,
    );
    assert_eq!(out, [1, 0, 1]);
}

#[test]
fn division_edge_cases() {
    let out = run_ints(
        r#"
        li a0, 5
        li a1, 0
        div t0, a0, a1      # div by zero -> all ones
        puti t0
        rem t1, a0, a1      # rem by zero -> dividend
        puti t1
        halt
        "#,
    );
    assert_eq!(out, [-1, 5]);
}

#[test]
fn mulh_computes_high_bits() {
    let p = assemble(
        r#"
        li a0, 0x10000000
        slli a0, a0, 8      # a0 = 2^36
        mul a1, a0, a0      # low bits of 2^72 == 0
        mulh a2, a0, a0     # high bits of 2^72 == 2^8
        puti a1
        puti a2
        halt
        "#,
    )
    .unwrap();
    let mut emu = Emulator::new(&p);
    emu.run(100).unwrap();
    assert_eq!(emu.output_ints(), [0, 256]);
}

#[test]
fn loads_and_stores_round_trip() {
    let out = run_ints(
        r#"
            .data
        buf: .space 64
            .text
        main:
            la s0, buf
            li t0, -2
            sd t0, 0(s0)
            ld t1, 0(s0)
            puti t1
            sw t0, 8(s0)
            lw t2, 8(s0)        # sign-extending
            puti t2
            lwu t3, 8(s0)       # zero-extending
            srli t3, t3, 16
            puti t3
            li t4, 300
            sh t4, 16(s0)
            lhu t5, 16(s0)
            puti t5
            sb t4, 24(s0)       # truncates to 44
            lbu t6, 24(s0)
            puti t6
            lb s1, 24(s0)
            puti s1
            halt
        "#,
    );
    assert_eq!(out, [-2, -2, 0xffff, 300, 44, 44]);
}

#[test]
fn fp_arithmetic_and_conversion() {
    let out = run_floats(
        r#"
        li a0, 9
        fcvt.d.l f0, a0
        fsqrt.d f1, f0
        putf f1
        li a1, 2
        fcvt.d.l f2, a1
        fdiv.d f3, f0, f2
        putf f3
        fneg.d f4, f3
        putf f4
        fabs.d f5, f4
        putf f5
        halt
        "#,
    );
    assert_eq!(out, [3.0, 4.5, -4.5, 4.5]);
}

#[test]
fn fp_compares_write_int() {
    let out = run_ints(
        r#"
        li a0, 1
        li a1, 2
        fcvt.d.l f0, a0
        fcvt.d.l f1, a1
        flt.d t0, f0, f1
        puti t0
        fle.d t1, f1, f0
        puti t1
        feq.d t2, f0, f0
        puti t2
        fcvt.l.d t3, f1
        puti t3
        halt
        "#,
    );
    assert_eq!(out, [1, 0, 1, 2]);
}

#[test]
fn control_flow_loop_and_call() {
    let out = run_ints(
        r#"
        # sum 1..5 via a helper
        main:
            li a0, 5
            call sum
            puti a0
            halt
        sum:
            li t0, 0
        loop:
            add t0, t0, a0
            addi a0, a0, -1
            bnez a0, loop
            mv a0, t0
            ret
        "#,
    );
    assert_eq!(out, [15]);
}

#[test]
fn indirect_jump_through_table() {
    let out = run_ints(
        r#"
            .data
        table: .word case0, case1
            .text
        main:
            li s0, 1            # select case1
            la t0, table
            slli t1, s0, 3
            add t0, t0, t1
            ld t2, 0(t0)
            jr t2
        case0:
            li a0, 100
            puti a0
            halt
        case1:
            li a0, 200
            puti a0
            halt
        "#,
    );
    assert_eq!(out, [200]);
}

#[test]
fn stack_discipline() {
    let out = run_ints(
        r#"
        main:
            addi sp, sp, -16
            li t0, 77
            sd t0, 0(sp)
            sd ra, 8(sp)
            call f
            ld t0, 0(sp)
            ld ra, 8(sp)
            addi sp, sp, 16
            puti t0
            halt
        f:
            li t0, 0        # clobber t0
            ret
        "#,
    );
    assert_eq!(out, [77]);
}

#[test]
fn zero_register_ignores_writes() {
    let p = assemble("li zero, 5\nadd zero, zero, zero\nputi zero\nhalt\n").unwrap();
    let mut emu = Emulator::new(&p);
    emu.run(100).unwrap();
    assert_eq!(emu.output_ints(), [0]);
    assert_eq!(emu.ireg(IntReg::ZERO), 0);
}

#[test]
fn trace_records_operand_values() {
    let p = assemble("main: li a0, 3\n li a1, 4\n add a2, a0, a1\n halt\n").unwrap();
    let mut emu = Emulator::new(&p);
    let trace = emu.run_trace(100).unwrap();
    let add = &trace[2];
    assert_eq!(add.src1, 3);
    assert_eq!(add.src2, 4);
    assert_eq!(add.result, Some(7));
    assert_eq!(add.next_pc(), add.pc + 8);
}

#[test]
fn trace_records_branch_outcomes() {
    let p = assemble(
        r#"
        main:
            li t0, 1
            beqz t0, skip      # not taken
            bnez t0, skip      # taken
            nop
        skip:
            halt
        "#,
    )
    .unwrap();
    let mut emu = Emulator::new(&p);
    let trace = emu.run_trace(100).unwrap();
    let not_taken = trace[1].control.unwrap();
    assert!(!not_taken.taken);
    let taken = trace[2].control.unwrap();
    assert!(taken.taken);
    assert_eq!(Some(trace[2].next_pc()), trace[2].target());
    assert_eq!(trace[1].next_pc(), trace[1].fallthrough_pc());
    // both derive the same static target
    assert_eq!(trace[1].target(), trace[2].target());
}

#[test]
fn trace_records_effective_addresses() {
    let p = assemble(
        r#"
            .data
        x:  .word 42
            .text
        main:
            la t0, x
            ld a0, 0(t0)
            sd a0, 8(t0)
            halt
        "#,
    )
    .unwrap();
    let data_base = p.data_base();
    let mut emu = Emulator::new(&p);
    let trace = emu.run_trace(100).unwrap();
    assert_eq!(trace[1].ea, Some(data_base));
    assert_eq!(trace[1].result, Some(42));
    assert_eq!(trace[2].ea, Some(data_base + 8));
    assert_eq!(trace[2].src2, 42, "store data travels in src2");
}

#[test]
fn budget_exhaustion_reported() {
    let p = assemble("spin: j spin\n").unwrap();
    let mut emu = Emulator::new(&p);
    let e = emu.run(100).unwrap_err();
    assert!(matches!(e, EmuError::BudgetExhausted { executed: 100 }));
}

#[test]
fn pc_out_of_text_reported() {
    // Fall off the end of the program (no halt).
    let p = assemble("nop\n").unwrap();
    let mut emu = Emulator::new(&p);
    emu.step().unwrap();
    let e = emu.step().unwrap_err();
    assert!(matches!(e, EmuError::PcOutOfText { .. }));
}

#[test]
fn step_after_halt_returns_none() {
    let p = assemble("halt\n").unwrap();
    let mut emu = Emulator::new(&p);
    assert!(emu.step().unwrap().is_some());
    assert!(emu.halted());
    assert!(emu.step().unwrap().is_none());
    assert_eq!(emu.committed(), 1);
}

#[test]
fn fp_state_visible_through_accessors() {
    let p = assemble("main: li a0, 5\n fcvt.d.l f7, a0\n halt\n").unwrap();
    let mut emu = Emulator::new(&p);
    emu.run(10).unwrap();
    assert_eq!(emu.freg(FpReg::new(7)), 5.0);
}

#[test]
fn output_events_preserve_order_and_kind() {
    let p = assemble(
        r#"
        main:
            li a0, 65
            putc a0
            puti a0
            fcvt.d.l f0, a0
            putf f0
            halt
        "#,
    )
    .unwrap();
    let mut emu = Emulator::new(&p);
    emu.run(100).unwrap();
    assert_eq!(
        emu.output(),
        &[
            OutputEvent::Char(65),
            OutputEvent::Int(65),
            OutputEvent::Float(65.0)
        ]
    );
}

mod generative {
    //! Seeded generative tests: inputs drawn from a fixed-seed
    //! [`redsim_util::Rng`], so failures replay exactly.

    use super::*;
    use redsim_util::Rng;

    /// The emulator agrees with native arithmetic for add/sub/mul,
    /// including the sign/overflow corners proptest would shrink to.
    #[test]
    fn alu_matches_native() {
        let mut rng = Rng::new(0xA1_0001);
        let mut cases: Vec<(i32, i32)> = vec![
            (0, 0),
            (i32::MIN, -1),
            (i32::MIN, i32::MIN),
            (i32::MAX, i32::MAX),
            (-1, 1),
        ];
        cases.extend((0..64).map(|_| (rng.any_i32(), rng.any_i32())));
        for (a, b) in cases {
            let src = format!(
                "main: li a0, {a}\n li a1, {b}\n add t0, a0, a1\n puti t0\n \
                 sub t1, a0, a1\n puti t1\n mul t2, a0, a1\n puti t2\n halt\n"
            );
            let out = run_ints(&src);
            let (a, b) = (i64::from(a), i64::from(b));
            assert_eq!(
                out,
                vec![a.wrapping_add(b), a.wrapping_sub(b), a.wrapping_mul(b)],
                "a={a} b={b}"
            );
        }
    }

    /// Stores followed by loads of the same width return the value,
    /// for every slot in the buffer.
    #[test]
    fn memory_round_trip() {
        let mut rng = Rng::new(0xA1_0002);
        for slot in 0i64..8 {
            for _ in 0..8 {
                let v = i64::from(rng.any_i32());
                let off = slot * 8;
                let src = format!(
                    ".data\nbuf: .space 64\n.text\nmain: la s0, buf\n li t0, {v}\n \
                     sd t0, {off}(s0)\n ld t1, {off}(s0)\n puti t1\n halt\n"
                );
                assert_eq!(run_ints(&src), vec![v], "slot={slot} v={v}");
            }
        }
    }
}
