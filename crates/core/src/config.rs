//! Machine configuration.

use redsim_irb::IrbConfig;
use redsim_mem::HierarchyConfig;
use redsim_predictor::{BtbConfig, DirectionConfig};

/// Which execution discipline the core runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Single instruction execution — no redundancy (the baseline).
    Sie,
    /// Dual instruction execution — every instruction duplicated at
    /// dispatch, pairs checked at commit (Ray-Hoe-Falsafi DIE).
    Die,
    /// DIE with the duplicate stream served by the instruction reuse
    /// buffer (the paper's DIE-IRB).
    DieIrb,
    /// Single-stream instruction reuse (Sodani-Sohi), for the ablation
    /// showing IRB bandwidth amplification barely helps a balanced SIE.
    SieIrb,
    /// Clustered DIE: the duplicate stream runs on its own replicated
    /// functional-unit cluster with per-stream forwarding and an
    /// inter-cluster delay on the shared memory data. The alternative
    /// the paper discusses and rejects as "bordering on spatial
    /// redundancy" (§3) — included so the argument can be measured.
    DieCluster,
}

impl ExecMode {
    /// `true` for the modes that duplicate instructions.
    #[must_use]
    pub fn is_dual(self) -> bool {
        matches!(
            self,
            ExecMode::Die | ExecMode::DieIrb | ExecMode::DieCluster
        )
    }

    /// `true` for the modes with an instruction reuse buffer.
    #[must_use]
    pub fn has_irb(self) -> bool {
        matches!(self, ExecMode::DieIrb | ExecMode::SieIrb)
    }

    /// Every mode, in declaration order.
    pub const ALL: [ExecMode; 5] = [
        ExecMode::Sie,
        ExecMode::Die,
        ExecMode::DieIrb,
        ExecMode::SieIrb,
        ExecMode::DieCluster,
    ];

    /// The command-line and wire spelling (`redsim-sim --mode`, serve
    /// job specs). Serve fingerprints hash it, so it never changes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Sie => "sie",
            ExecMode::Die => "die",
            ExecMode::DieIrb => "die-irb",
            ExecMode::SieIrb => "sie-irb",
            ExecMode::DieCluster => "die-cluster",
        }
    }

    /// Parses the [`ExecMode::name`] spelling.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// Who wakes up the duplicate stream's waiting instructions (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForwardingPolicy {
    /// Each stream forwards only within itself (the original DIE). An
    /// IRB under this policy needs its own forwarding buses — the
    /// complexity the paper is avoiding.
    PerStream,
    /// The primary stream's result bus wakes waiting instructions of
    /// *both* streams (the paper's complexity-effective design). The
    /// IRB then never needs to broadcast.
    PrimaryToBoth,
}

/// Which ready entries the select logic favours in dual modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssuePolicy {
    /// The mode's natural policy: symmetric oldest-first for plain DIE
    /// (the original proposal treats the streams identically),
    /// primary-first for DIE-IRB (§3.1: "the primary stream is always
    /// executed by the functional units as in SIE").
    ModeDefault,
    /// Strictly oldest-first, regardless of stream.
    OldestFirst,
    /// Primary copies (oldest-first) before duplicate copies — isolates
    /// how much of DIE-IRB's gain is scheduling rather than reuse.
    PrimaryFirst,
}

/// Which implementation drives the scheduling loop (issue + writeback).
///
/// Both engines produce bit-identical [`crate::SimStats`]; they differ
/// only in host cost. The scan reference exists as the equivalence
/// oracle for the event-driven engine's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedEngine {
    /// Per-stream ready queues plus a completion calendar (timing
    /// wheel): each cycle touches only the entries that actually have
    /// work. The default.
    EventDriven,
    /// The original full-window scans — O(RUU) per cycle regardless of
    /// how much is in flight.
    ScanReference,
}

/// How the issue window obtains operands, which dictates when the IRB
/// reuse test can run (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerModel {
    /// Data-capture scheduler (the paper's evaluated design): operands
    /// are broadcast into the issue window, so the `Rdy2` comparators
    /// run the reuse test in parallel with operand capture — no extra
    /// latency and no functional-unit involvement.
    DataCapture,
    /// Non-data-capture with pipelined wakeup/selection (the paper's
    /// recommended adaptation, after Stark et al.): the register file is
    /// read after wakeup and the reuse test follows it, one cycle after
    /// the duplicate becomes ready; failing duplicates are re-scheduled.
    NonDataCapturePipelined,
    /// Naive non-data-capture: the duplicate must win selection and be
    /// allocated a functional unit before its operands (and therefore
    /// the reuse test) are available — a passing test wastes the
    /// allocated unit and the issue slot, which the paper points out
    /// forfeits the bandwidth benefit.
    NonDataCaptureNaive,
}

/// Functional-unit pool sizes.
///
/// Integer ALUs also perform branch-target and memory-address
/// calculations, as on the paper's platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuCounts {
    /// Single-cycle integer ALUs.
    pub int_alu: usize,
    /// Integer multiplier/dividers.
    pub int_mul_div: usize,
    /// FP adders.
    pub fp_add: usize,
    /// FP multiplier/divider/square-root units.
    pub fp_mul_div_sqrt: usize,
}

impl FuCounts {
    /// The paper's baseline: 4 / 2 / 2 / 1.
    #[must_use]
    pub fn paper_baseline() -> Self {
        FuCounts {
            int_alu: 4,
            int_mul_div: 2,
            fp_add: 2,
            fp_mul_div_sqrt: 1,
        }
    }

    /// Doubled ALU capacity (the paper's `DIE-2xALU`): 8 / 4 / 4 / 2.
    #[must_use]
    pub fn doubled(self) -> Self {
        FuCounts {
            int_alu: self.int_alu * 2,
            int_mul_div: self.int_mul_div * 2,
            fp_add: self.fp_add * 2,
            fp_mul_div_sqrt: self.fp_mul_div_sqrt * 2,
        }
    }
}

/// Operation latencies (cycles) and pipelining, SimpleScalar defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyConfig {
    /// Integer ALU operation latency.
    pub int_alu: u64,
    /// Integer multiply latency (pipelined).
    pub int_mul: u64,
    /// Integer divide latency (unpipelined).
    pub int_div: u64,
    /// FP add/compare/convert latency (pipelined).
    pub fp_add: u64,
    /// FP multiply latency (pipelined).
    pub fp_mul: u64,
    /// FP divide latency (unpipelined).
    pub fp_div: u64,
    /// FP square-root latency (unpipelined).
    pub fp_sqrt: u64,
}

impl LatencyConfig {
    /// SimpleScalar `sim-outorder` defaults.
    #[must_use]
    pub fn simplescalar_defaults() -> Self {
        LatencyConfig {
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_add: 2,
            fp_mul: 4,
            fp_div: 12,
            fp_sqrt: 24,
        }
    }
}

/// Data-cache port provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DcacheConfig {
    /// Accesses (loads at issue + stores at commit) per cycle.
    pub ports: usize,
}

/// The complete machine description.
///
/// [`MachineConfig::paper_baseline`] reproduces the configuration table
/// of the paper's §4; the `with_*` builders derive the seven scaled
/// configurations of Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Instructions fetched per cycle (architected instructions).
    pub fetch_width: usize,
    /// RUU entries dispatched per cycle (copies, in dual modes).
    pub decode_width: usize,
    /// Copies issued to functional units per cycle.
    pub issue_width: usize,
    /// Copies committed per cycle.
    pub commit_width: usize,
    /// Fetch-queue (IFQ) capacity in architected instructions.
    pub fetch_queue: usize,
    /// RUU capacity in entries (a pair costs two).
    pub ruu_size: usize,
    /// Load/store queue capacity (one slot per architected memory op).
    pub lsq_size: usize,
    /// Functional-unit pool sizes.
    pub fu: FuCounts,
    /// Operation latencies.
    pub latency: LatencyConfig,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Data-cache ports.
    pub dcache: DcacheConfig,
    /// Branch direction predictor.
    pub direction: DirectionConfig,
    /// Branch target buffer.
    pub btb: BtbConfig,
    /// Return-address stack depth.
    pub ras_depth: usize,
    /// Cycles from branch resolution to first correct-path fetch.
    pub mispredict_penalty: u64,
    /// Front-end bubble when a predicted-taken branch misses the BTB.
    pub btb_miss_penalty: u64,
    /// Instruction reuse buffer (used by the `*Irb` modes).
    pub irb: IrbConfig,
    /// Duplicate-stream wakeup policy (dual modes).
    pub forwarding: ForwardingPolicy,
    /// Select-logic priority between the streams (dual modes).
    pub issue_policy: IssuePolicy,
    /// Inter-cluster forwarding delay for [`ExecMode::DieCluster`]
    /// (cycles added to the duplicate's view of the pair's single
    /// memory access).
    pub cluster_delay: u64,
    /// Issue-window operand model (when the reuse test can run).
    pub scheduler: SchedulerModel,
    /// Model wrong-path instruction fetch during misprediction
    /// recovery: the front end streams the (wrong) predicted path
    /// through the I-cache until the branch resolves, polluting it.
    /// Off by default — a fidelity ablation; both SIE and DIE pay it.
    pub wrong_path_fetch: bool,
    /// Store-to-load forwarding: a load whose producing store is still
    /// in flight receives the data from the LSQ with a one-cycle
    /// latency instead of a cache access. Off by default (the
    /// conservative model makes the load wait and pay the cache).
    pub stl_forwarding: bool,
    /// Oracle front end: every branch and jump is predicted perfectly
    /// (no recovery stalls, no BTB bubbles). Isolates how much of a
    /// mode's loss is branch-related versus bandwidth-related.
    pub perfect_branch_prediction: bool,
    /// Restrict instruction reuse to long-latency operations (integer
    /// multiply/divide and floating point), reproducing the
    /// prior-work observation the paper's §1 recounts: for a balanced
    /// SIE, reuse only pays on long-latency operations.
    pub reuse_long_latency_only: bool,
    /// Scheduling-loop implementation (host performance only; results
    /// are identical).
    pub engine: SchedEngine,
}

impl MachineConfig {
    /// The paper's baseline machine (§4): 8-wide, 128-entry RUU,
    /// 64-entry LSQ, 4/2/2/1 functional units, tournament predictor,
    /// 1024-entry direct-mapped IRB with 4R/2W/2RW ports.
    #[must_use]
    pub fn paper_baseline() -> Self {
        MachineConfig {
            fetch_width: 8,
            decode_width: 8,
            issue_width: 8,
            commit_width: 8,
            fetch_queue: 16,
            ruu_size: 128,
            lsq_size: 64,
            fu: FuCounts::paper_baseline(),
            latency: LatencyConfig::simplescalar_defaults(),
            hierarchy: HierarchyConfig::paper_baseline(),
            dcache: DcacheConfig { ports: 2 },
            direction: DirectionConfig::paper_baseline(),
            btb: BtbConfig::paper_baseline(),
            ras_depth: 16,
            mispredict_penalty: 3,
            btb_miss_penalty: 2,
            irb: IrbConfig::paper_baseline(),
            forwarding: ForwardingPolicy::PrimaryToBoth,
            issue_policy: IssuePolicy::ModeDefault,
            cluster_delay: 2,
            scheduler: SchedulerModel::DataCapture,
            wrong_path_fetch: false,
            stl_forwarding: false,
            perfect_branch_prediction: false,
            reuse_long_latency_only: false,
            engine: SchedEngine::EventDriven,
        }
    }

    /// A scaled-down machine for fast unit tests: 4-wide, 32-entry RUU,
    /// tiny caches.
    #[must_use]
    pub fn tiny() -> Self {
        MachineConfig {
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            commit_width: 4,
            fetch_queue: 8,
            ruu_size: 32,
            lsq_size: 16,
            fu: FuCounts {
                int_alu: 2,
                int_mul_div: 1,
                fp_add: 1,
                fp_mul_div_sqrt: 1,
            },
            latency: LatencyConfig::simplescalar_defaults(),
            hierarchy: HierarchyConfig::tiny(),
            dcache: DcacheConfig { ports: 1 },
            direction: DirectionConfig::Bimodal { entries: 256 },
            btb: BtbConfig { sets: 64, assoc: 2 },
            ras_depth: 8,
            mispredict_penalty: 3,
            btb_miss_penalty: 2,
            irb: IrbConfig {
                entries: 64,
                ..IrbConfig::paper_baseline()
            },
            forwarding: ForwardingPolicy::PrimaryToBoth,
            issue_policy: IssuePolicy::ModeDefault,
            cluster_delay: 2,
            scheduler: SchedulerModel::DataCapture,
            wrong_path_fetch: false,
            stl_forwarding: false,
            perfect_branch_prediction: false,
            reuse_long_latency_only: false,
            engine: SchedEngine::EventDriven,
        }
    }

    /// Figure 2's `2xALU` knob: doubles every functional-unit pool.
    #[must_use]
    pub fn with_double_alus(mut self) -> Self {
        self.fu = self.fu.doubled();
        self
    }

    /// Figure 2's `2xRUU` knob: doubles the RUU and LSQ.
    #[must_use]
    pub fn with_double_ruu(mut self) -> Self {
        self.ruu_size *= 2;
        self.lsq_size *= 2;
        self
    }

    /// Figure 2's `2xWidths` knob: doubles fetch/decode/issue/commit
    /// widths (and the fetch queue to feed them).
    #[must_use]
    pub fn with_double_widths(mut self) -> Self {
        self.fetch_width *= 2;
        self.decode_width *= 2;
        self.issue_width *= 2;
        self.commit_width *= 2;
        self.fetch_queue *= 2;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any width or capacity is zero, or the IRB geometry is
    /// invalid.
    pub fn validate(&self) {
        assert!(self.fetch_width > 0, "fetch width must be positive");
        assert!(self.decode_width > 0, "decode width must be positive");
        assert!(self.issue_width > 0, "issue width must be positive");
        assert!(self.commit_width > 0, "commit width must be positive");
        assert!(self.ruu_size >= 2, "RUU must hold at least one pair");
        assert!(self.lsq_size > 0, "LSQ must be non-empty");
        assert!(self.fu.int_alu > 0, "at least one integer ALU is required");
        assert!(
            self.dcache.ports > 0,
            "at least one d-cache port is required"
        );
        self.irb.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in ExecMode::ALL {
            assert_eq!(ExecMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(ExecMode::from_name("warp-speed"), None);
    }

    #[test]
    fn paper_baseline_matches_section_4_table() {
        let c = MachineConfig::paper_baseline();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.ruu_size, 128);
        assert_eq!(c.lsq_size, 64);
        assert_eq!(c.fu.int_alu, 4);
        assert_eq!(c.fu.int_mul_div, 2);
        assert_eq!(c.fu.fp_add, 2);
        assert_eq!(c.fu.fp_mul_div_sqrt, 1);
        assert_eq!(c.irb.entries, 1024);
        c.validate();
    }

    #[test]
    fn figure2_knobs_scale_the_right_resources() {
        let base = MachineConfig::paper_baseline();
        let alu = base.clone().with_double_alus();
        assert_eq!(alu.fu.int_alu, 8);
        assert_eq!(alu.ruu_size, base.ruu_size);
        let ruu = base.clone().with_double_ruu();
        assert_eq!(ruu.ruu_size, 256);
        assert_eq!(ruu.lsq_size, 128);
        assert_eq!(ruu.issue_width, base.issue_width);
        let widths = base.clone().with_double_widths();
        assert_eq!(widths.issue_width, 16);
        assert_eq!(widths.fu, base.fu);
        let all = base
            .with_double_alus()
            .with_double_ruu()
            .with_double_widths();
        assert_eq!(
            (all.fu.int_alu, all.ruu_size, all.commit_width),
            (8, 256, 16)
        );
    }

    #[test]
    fn mode_predicates() {
        assert!(ExecMode::Die.is_dual());
        assert!(ExecMode::DieIrb.is_dual());
        assert!(ExecMode::DieCluster.is_dual());
        assert!(!ExecMode::Sie.is_dual());
        assert!(!ExecMode::SieIrb.is_dual());
        assert!(ExecMode::DieIrb.has_irb());
        assert!(ExecMode::SieIrb.has_irb());
        assert!(!ExecMode::Die.has_irb());
        assert!(!ExecMode::DieCluster.has_irb());
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn validate_rejects_tiny_ruu() {
        let mut c = MachineConfig::tiny();
        c.ruu_size = 1;
        c.validate();
    }
}
