//! The committed-path trace record and its `.rtrc` encoding.
//!
//! `DynInst` stores only what cannot be recomputed from the record
//! itself; `next_pc()` and `target()` are derived. These tests pin the
//! derivation to the functional emulator on every workload and the
//! `.rtrc` bytes to the encoding captured before the derived fields
//! stopped being stored.

use redsim::isa::emu::Emulator;
use redsim::isa::trace_io::{read_trace, write_trace};
use redsim::workloads::{Workload, DEFAULT_TRACE_BUDGET};
use redsim_util::hash::fx64;

#[test]
fn derived_fields_match_the_emulator_on_every_workload() {
    for w in Workload::ALL {
        let program = w.program(w.tiny_params()).expect("assembles");
        let mut emu = Emulator::new(&program);
        let mut n = 0u64;
        while let Some(d) = emu.step().expect("runs") {
            // The emulator's own PC after the step is the next record's.
            assert_eq!(d.next_pc(), emu.pc(), "{w} record {n}");
            // A taken record's target is where the emulator went; the
            // not-taken targets are held by the pinned encodings below.
            assert_eq!(d.target().is_some(), d.control.is_some(), "{w} record {n}");
            if d.redirects() {
                assert_eq!(d.target(), Some(emu.pc()), "{w} record {n}");
            }
            n += 1;
        }
        assert_eq!(n, emu.committed(), "{w}");
    }
}

/// fx64 of each workload's `tiny_params` trace in `.rtrc` form.
const PINNED_RTRC_FX64: [(Workload, u64); 12] = [
    (Workload::Gzip, 0xfe5bb5136ff83bf3),
    (Workload::Vpr, 0xc26856a26163a72d),
    (Workload::Gcc, 0x42d9fa9ddd720f67),
    (Workload::Mcf, 0xee8b7f3af6bd8cf3),
    (Workload::Parser, 0x117e84084962d03c),
    (Workload::Vortex, 0x994f0514aef3c501),
    (Workload::Bzip2, 0x6863a1f66e0c6c1a),
    (Workload::Twolf, 0xfd7693bcb3871b19),
    (Workload::Wupwise, 0xa5a9a6b379bef10a),
    (Workload::Art, 0x5ddf0ca6543d5e5b),
    (Workload::Equake, 0xde50ad5910946ff9),
    (Workload::Ammp, 0xa68eef169adb39d3),
];

#[test]
fn rtrc_encodings_are_pinned_and_read_back_for_every_workload() {
    assert_eq!(PINNED_RTRC_FX64.len(), Workload::ALL.len());
    for (w, want) in PINNED_RTRC_FX64 {
        let trace = w
            .trace(w.tiny_params(), DEFAULT_TRACE_BUDGET)
            .expect("trace builds");
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).expect("writes");
        assert_eq!(fx64(&bytes), want, "{w}");
        // Reading back checks every stored derived field.
        assert_eq!(read_trace(bytes.as_slice()).expect("reads"), trace, "{w}");
    }
}
