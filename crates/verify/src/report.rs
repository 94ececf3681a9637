//! Machine-readable verification results.
//!
//! A [`VerifyReport`] is a list of per-node [`NodeCert`] certificates (the
//! proven bounds) plus a list of [`Violation`]s (facts the verifier could
//! *not* prove). An empty violation list means every check passed for
//! every possible input — the report is a proof object for the graph, not
//! a test over samples.

use std::fmt;

/// One fact the verifier failed to prove, with enough structure for a
/// caller (CI, the deploy pipeline) to act on it without string parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An integer intermediate can exceed its machine width for some
    /// admissible input. `stage` names the dataflow point (e.g.
    /// `"i32-chunk"`, `"depthwise-i16"`, `"depthwise-i32"`,
    /// `"requant-bias"`, `"logits"`); `(lo, hi)` is the computed interval
    /// and `bound` the width it must fit.
    AccOverflow {
        /// Node name.
        node: String,
        /// Dataflow stage inside the kernel.
        stage: &'static str,
        /// Computed interval lower bound (clamped to `i64` for display).
        lo: i64,
        /// Computed interval upper bound (clamped to `i64`).
        hi: i64,
        /// The width the value must fit (`"i16"` / `"i32"` / `"i64"`).
        bound: &'static str,
    },
    /// A dot-product chunk handed to `gemv2` exceeds the kernel's
    /// `MAX_DOT_LEN` dispatch contract (the u16-pair SIMD cores are only
    /// proven for chunks up to this length) — e.g. a `BlockedGemm` node
    /// whose patch is longer, which `QConv2d::supported_kernels` never
    /// offers.
    DotLengthExceedsKernel {
        /// Node name.
        node: String,
        /// Full dot length of the layer.
        k: usize,
        /// The chunk length actually handed to the kernel.
        chunk: usize,
        /// The kernel contract (`simd::MAX_DOT_LEN`).
        max: usize,
    },
    /// The layer's `RequantPlan` gate disagrees with the gate recomputed
    /// from the requantizer parameters: either the plan claims
    /// vectorizability the parameters don't support (silent wrong SIMD
    /// results) or it needlessly forces scalar (silent fallback surprise).
    PlanGateMismatch {
        /// Node name.
        node: String,
        /// What the stored plan claims.
        plan_vectorizable: bool,
        /// Why the recomputed gate disagrees.
        reason: String,
    },
    /// A threshold table is not monotone in the direction its flip flag
    /// claims — binary search over it returns codes that disagree with the
    /// linear scan.
    ThresholdNotMonotone {
        /// Node name.
        node: String,
        /// Offending output channel.
        channel: usize,
    },
    /// The liveness schedule reclaims a tensor's arena storage while a
    /// later step still reads it — the arena would alias the stale bytes
    /// with whatever tensor is allocated next.
    ScheduleAliasing {
        /// Tensor id (0 = graph input, `k + 1` = output of node `k`).
        tensor: usize,
        /// Step after which the schedule frees it.
        freed_after: usize,
        /// Step that still reads it.
        used_at: usize,
    },
    /// The terminal tensor is dropped before the end of the schedule.
    TerminalDropped {
        /// Tensor id of the terminal output.
        tensor: usize,
        /// Step after which the schedule frees it.
        freed_after: usize,
        /// Step it must survive to.
        needed_until: usize,
    },
    /// The schedule is structurally malformed (wrong length, a use before
    /// its definition, …).
    ScheduleMalformed {
        /// What is wrong.
        detail: String,
    },
    /// A node needs more transient scratch than the planned peak.
    ScratchShortfall {
        /// Node name.
        node: String,
        /// Bytes the node's selected kernel stages.
        needed_bytes: usize,
        /// Bytes the plan provisions.
        planned_bytes: usize,
    },
    /// The verifier's independent live-set walk disagrees with the
    /// graph's own `peak_ram_bytes` planner.
    RamPlanMismatch {
        /// Peak computed by the verifier's walk.
        computed: usize,
        /// Peak the graph planner reports.
        planned: usize,
    },
    /// A `QAdd`'s baked fixed-point multiplier does not realize the branch
    /// scale ratio it declares — the classic mismatched-join-scale bug.
    JoinScaleMismatch {
        /// Node name.
        node: String,
        /// Which branch (`"a"` / `"b"`).
        branch: &'static str,
        /// `S_branch / S_out` as declared.
        declared_ratio: f64,
        /// What the baked multiplier actually computes.
        realized_ratio: f64,
    },
    /// A zero-point stored on an edge disagrees with the producing node's
    /// output zero-point.
    ZeroPointMismatch {
        /// Node name (the consumer).
        node: String,
        /// Which input (`"a"` / `"b"`).
        branch: &'static str,
        /// Producer's output zero-point.
        expected: i64,
        /// Zero-point the consumer will subtract.
        got: i64,
    },
    /// A zero-point is not a representable code of its tensor's width.
    ZeroPointOutOfRange {
        /// Node name.
        node: String,
        /// The out-of-range zero-point.
        zero_point: i64,
        /// The width's maximum code.
        qmax: u32,
    },
    /// Structural disagreement between a node's operands (channel counts,
    /// branch shapes, requantizer coverage, …).
    ShapeMismatch {
        /// Node name.
        node: String,
        /// What disagrees.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::AccOverflow {
                node,
                stage,
                lo,
                hi,
                bound,
            } => write!(
                f,
                "{node}: {stage} interval [{lo}, {hi}] exceeds {bound} for some admissible input"
            ),
            Violation::DotLengthExceedsKernel {
                node,
                k,
                chunk,
                max,
            } => write!(
                f,
                "{node}: dot chunk of {chunk} (k = {k}) exceeds the gemv2 contract MAX_DOT_LEN = {max}"
            ),
            Violation::PlanGateMismatch {
                node,
                plan_vectorizable,
                reason,
            } => write!(
                f,
                "{node}: requant plan gate (vectorizable = {plan_vectorizable}) disagrees with parameters: {reason}"
            ),
            Violation::ThresholdNotMonotone { node, channel } => write!(
                f,
                "{node}: threshold table of channel {channel} is not monotone"
            ),
            Violation::ScheduleAliasing {
                tensor,
                freed_after,
                used_at,
            } => write!(
                f,
                "schedule frees tensor {tensor} after step {freed_after} but step {used_at} still reads it (arena would alias)"
            ),
            Violation::TerminalDropped {
                tensor,
                freed_after,
                needed_until,
            } => write!(
                f,
                "terminal tensor {tensor} dropped after step {freed_after}, needed until {needed_until}"
            ),
            Violation::ScheduleMalformed { detail } => {
                write!(f, "schedule malformed: {detail}")
            }
            Violation::ScratchShortfall {
                node,
                needed_bytes,
                planned_bytes,
            } => write!(
                f,
                "{node}: needs {needed_bytes} scratch bytes, plan provisions {planned_bytes}"
            ),
            Violation::RamPlanMismatch { computed, planned } => write!(
                f,
                "live-set walk peaks at {computed} bytes but the planner reports {planned}"
            ),
            Violation::JoinScaleMismatch {
                node,
                branch,
                declared_ratio,
                realized_ratio,
            } => write!(
                f,
                "{node}: branch {branch} declares scale ratio {declared_ratio:.9} but the baked multiplier realizes {realized_ratio:.9}"
            ),
            Violation::ZeroPointMismatch {
                node,
                branch,
                expected,
                got,
            } => write!(
                f,
                "{node}: branch {branch} subtracts zero-point {got} but its producer emits {expected}"
            ),
            Violation::ZeroPointOutOfRange {
                node,
                zero_point,
                qmax,
            } => write!(
                f,
                "{node}: zero-point {zero_point} outside the code range [0, {qmax}]"
            ),
            Violation::ShapeMismatch { node, detail } => {
                write!(f, "{node}: {detail}")
            }
        }
    }
}

impl Violation {
    /// Short machine-stable kind tag (golden reports key on it).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::AccOverflow { .. } => "acc_overflow",
            Violation::DotLengthExceedsKernel { .. } => "dot_length",
            Violation::PlanGateMismatch { .. } => "plan_gate",
            Violation::ThresholdNotMonotone { .. } => "threshold_monotone",
            Violation::ScheduleAliasing { .. } => "schedule_aliasing",
            Violation::TerminalDropped { .. } => "terminal_dropped",
            Violation::ScheduleMalformed { .. } => "schedule_malformed",
            Violation::ScratchShortfall { .. } => "scratch_shortfall",
            Violation::RamPlanMismatch { .. } => "ram_plan_mismatch",
            Violation::JoinScaleMismatch { .. } => "join_scale",
            Violation::ZeroPointMismatch { .. } => "zero_point_mismatch",
            Violation::ZeroPointOutOfRange { .. } => "zero_point_range",
            Violation::ShapeMismatch { .. } => "shape_mismatch",
        }
    }
}

/// The per-node certificate: the bounds the verifier proved for one
/// scheduled node under its resolved kernel choice.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCert {
    /// Node name (schedule order is the report order).
    pub node: String,
    /// Operator label (`conv` / `dwconv` / `pool` / `fc` / `add`).
    pub op: &'static str,
    /// Resolved kernel label.
    pub choice: &'static str,
    /// Dot length `k` (kernel taps × input channels, the head's input
    /// features; 0 where not a dot).
    pub k: usize,
    /// Longest contiguous run accumulated in one register. It equals `k`
    /// on every certificate the verifier builds: the blocked GEMM runs
    /// its whole patch in one `i32` run (`k ≤ MAX_DOT_LEN`), and the
    /// other kernels never split a dot.
    pub chunk: usize,
    /// Proven interval of the accumulation stage (`i32` on the blocked
    /// GEMM and the depthwise core, `i64` on the direct loop).
    pub acc: (i64, i64),
    /// Proven interval of the folded `Φ` (per-channel hull, worst-case
    /// input zero-point) — the requantizer's input domain.
    pub phi: (i64, i64),
    /// Whether the stored `RequantPlan` engages the vector epilogue.
    pub vectorizable: bool,
    /// Whether the hoisted corrections provably fit `i32` for every input
    /// (the NEON GEMM-row kernel's gate; scalar fallback otherwise). It
    /// does not cover the AVX2 GEMM-row kernel, whose gate is
    /// `PackedPanels::weight_bound` plus `max |Bq|` ≤ `i32::MAX`, checked
    /// per node call and not certified here.
    pub corrections_fit_i32: bool,
}

/// The verification result for one lowered graph.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Caller-supplied label (model / backend / assignment).
    pub graph: String,
    /// Per-node certificates, in schedule order.
    pub nodes: Vec<NodeCert>,
    /// Everything the verifier could not prove (empty ⇒ verified).
    pub violations: Vec<Violation>,
    /// Peak activation RAM of the verified schedule (planner-agreed).
    pub peak_ram_bytes: usize,
    /// Peak transient scratch of the verified schedule.
    pub peak_scratch_bytes: usize,
}

impl VerifyReport {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line summary (one line per node, then one per
    /// violation).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "verify {}: {} nodes, {} violations, peak_ram={} peak_scratch={}",
            self.graph,
            self.nodes.len(),
            self.violations.len(),
            self.peak_ram_bytes,
            self.peak_scratch_bytes
        );
        for n in &self.nodes {
            let _ = writeln!(
                s,
                "  {} [{} / {}] k={} chunk={} acc=[{}, {}] phi=[{}, {}] simd={} corr32={}",
                n.node,
                n.op,
                n.choice,
                n.k,
                n.chunk,
                n.acc.0,
                n.acc.1,
                n.phi.0,
                n.phi.1,
                n.vectorizable,
                n.corrections_fit_i32
            );
        }
        for v in &self.violations {
            let _ = writeln!(s, "  VIOLATION[{}]: {v}", v.kind());
        }
        s
    }
}
