//! The layer-graph executor: a uniform [`QOp`] abstraction over the
//! integer kernels and a [`QGraph`] **DAG** that runs any topology of them
//! — the deployment graph `g'(x)` of §4 as an executable object rather
//! than a hardcoded conv-stack.
//!
//! Nodes reference explicit input *tensor ids* (id 0 is the graph input,
//! id `k + 1` the output of node `k`), so residual branches — the
//! [`QAdd`]-joined skips MobileNetV2-style bottlenecks need — are first
//! class: [`QGraph::push`] keeps the familiar chain behaviour, while
//! [`QGraph::push_node`] wires arbitrary predecessors.
//!
//! One schedule loop executes every walk. The node order is already a
//! topological schedule (inputs must be defined before use), per-tensor
//! live ranges follow from each tensor's last consumer, and packed
//! activation storage is recycled into an [`ActivationArena`] the moment a
//! tensor dies. [`QGraph::peak_ram_bytes`] reports the true multi-branch
//! high-water mark of that schedule per Eq. 7 — for a chain it degenerates
//! to the classic input+output pair, for a residual graph it prices the
//! extra live skip tensor.
//!
//! [`QGraph::run`] walks with a fresh arena and keeps the ledger: one
//! [`LayerRun`] per node (its [`OpCounts`], activation bytes and operator
//! class, which cycle models in `mixq-mcu` turn into per-layer latency
//! breakdowns) and [`GraphRun::peak_live_bytes`], the measured twin of the
//! planner's peak. [`QGraph::infer_pooled`] is the same loop without the
//! ledger: it draws every buffer from a caller-owned arena, writes the
//! classifier logits into a caller-owned buffer and allocates nothing in
//! steady state.
//!
//! Host-side execution speed is independent of that model: the blocked
//! GEMM and depthwise nodes requantize their accumulators through the
//! vectorized epilogue in [`crate::simd::requant`], [`QAdd`] joins 8-bit
//! branches through a lookup-table loop, and sub-byte activations
//! pack/unpack through one portable shift-and-mask loop per width in
//! `mixq_quant::packing`, while codes **and** ledger stay bit-identical
//! to the scalar reference at every [`crate::simd::SimdLevel`].
//!
//! # Examples
//!
//! ```
//! use mixq_kernels::{OpCounts, QActivation, QAvgPool, QConv2d, QConvWeights, QGraph,
//!                    Requantizer, WeightOffset};
//! use mixq_quant::{BitWidth, FixedPointMultiplier};
//! use mixq_tensor::{ConvGeometry, Shape};
//!
//! let w = QConvWeights::new(Shape::new(1, 1, 1, 1), false, &[2], BitWidth::W4,
//!                           WeightOffset::PerLayer(0));
//! let requant = Requantizer::icn(vec![0], vec![FixedPointMultiplier::from_real(1.0)],
//!                                0, BitWidth::W8);
//! let mut graph = QGraph::new();
//! graph.push("pw", QConv2d::new(w, ConvGeometry::pointwise(), requant));
//! graph.push("pool", QAvgPool);
//!
//! let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[3], BitWidth::W8, 0);
//! let run = graph.run(x);
//! assert_eq!(run.output.as_ref().unwrap().codes(), vec![6]); // 3 × 2
//! assert_eq!(run.layers.len(), 2);
//! assert_eq!(run.total_ops().macs, 1);
//! ```
//!
//! A residual branch joined by a requantizing add:
//!
//! ```
//! use mixq_kernels::{QActivation, QAdd, QGraph};
//! use mixq_quant::BitWidth;
//! use mixq_tensor::Shape;
//!
//! let mut graph = QGraph::new();
//! // Identity add of the input with itself: ids [0, 0].
//! graph.push_node("res", QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8), &[0, 0]);
//! let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[5], BitWidth::W8, 0);
//! assert_eq!(graph.run(x).output.unwrap().codes(), vec![10]);
//! ```

use std::mem;

use mixq_quant::BitWidth;
use mixq_tensor::Shape;

use crate::backend::{Backend, KernelChoice};
use crate::blocked::{im2col_scratch_bytes, PackedPanels};
use crate::simd::MAX_DOT_LEN;
use crate::{OpCounts, QActivation, QAdd, QAvgPool, QConv2d, QLinear};

/// Coarse operator class of a graph node — what a cycle model needs to
/// pick the right per-MAC rate (dense convolutions stream through the
/// dual-MAC `SMLAD`; depthwise kernels have poor data reuse; the
/// fully-connected head is a single dot-product sweep; residual adds are
/// MAC-free requantization traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Standard or pointwise convolution.
    Conv,
    /// Depthwise convolution.
    DepthwiseConv,
    /// Global average pooling.
    Pool,
    /// Fully-connected classifier head.
    Linear,
    /// Requantizing residual add.
    Add,
}

impl OpKind {
    /// Short human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            OpKind::Conv => "conv",
            OpKind::DepthwiseConv => "dwconv",
            OpKind::Pool => "pool",
            OpKind::Linear => "linear",
            OpKind::Add => "add",
        }
    }
}

/// What executing one op produces: the next activation tensor, or — for a
/// terminal classifier head — the `i32` logits (which cannot be
/// represented as sub-byte codes without loss).
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// A quantized activation feeding the next layer.
    Act(QActivation),
    /// Terminal integer logits.
    Logits(Vec<i32>),
}

/// A single integer-inference operator, executable inside a [`QGraph`].
///
/// Ops take a slice of input activations (`arity` of them — one for the
/// kernels, two for the residual add) and produce one output. The contract
/// mirrors the deployment memory model: `flash_bytes` is the op's
/// read-only footprint (packed weights + §4.1 static parameters),
/// `output_bytes` its contribution to the Eq. 7 live set, and
/// `scratch_bytes` any transient buffer (e.g. an im2col expansion) a
/// lowered implementation would need on top of the live activations.
pub trait QOp {
    /// Operator class (for cycle models and reporting).
    fn kind(&self) -> OpKind;

    /// Number of input tensors the op consumes.
    fn arity(&self) -> usize {
        1
    }

    /// The kernel implementations this op can execute with; the first entry
    /// is the reference (direct) kernel every op supports. A [`Backend`]'s
    /// selection must come from this list.
    fn supported_kernels(&self) -> &'static [KernelChoice] {
        &[KernelChoice::DirectConv]
    }

    /// Builds the blocked-GEMM [`PackedPanels`] for a node resolved to
    /// [`KernelChoice::BlockedGemm`] — what [`QGraph::select_kernels`]
    /// caches on the node — together with the one-time [`OpCounts`] ledger
    /// of the packing work itself (code reads and decodes, panel stores).
    /// Every other choice, and every op without a blocked kernel, has
    /// nothing to cache: `(None, OpCounts::default())`, the default.
    fn prepack(&self, choice: KernelChoice) -> (Option<PackedPanels>, OpCounts) {
        let _ = choice;
        (None, OpCounts::default())
    }

    /// Runs the op with a throwaway arena, no panels and the reference
    /// kernel, charging `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()` (implementations index the
    /// slice directly).
    fn execute(&self, inputs: &[&QActivation], ops: &mut OpCounts) -> OpOutput {
        self.execute_kernel(
            KernelChoice::DirectConv,
            None,
            inputs,
            &mut ActivationArena::new(),
            ops,
        )
    }

    /// Runs the op with the given kernel implementation, drawing scratch
    /// and packed output storage from `arena` — the buffer-pool hook that
    /// makes steady-state inference allocation-free. This is the executor's
    /// dispatch point: each graph node passes its build-time-resolved
    /// [`KernelChoice`] and its panels ([`GraphNode::prepacked`]) here.
    /// [`KernelChoice::BlockedGemm`] runs on the given panels; every other
    /// choice reads the packed weights in place and ignores them.
    ///
    /// # Panics
    ///
    /// Panics if the choice is not in [`QOp::supported_kernels`], the
    /// input count disagrees with the arity, or a blocked call gets no
    /// panels or panels built for a different layer.
    fn execute_kernel(
        &self,
        choice: KernelChoice,
        panels: Option<&PackedPanels>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput;

    /// Output shape for the given input shapes.
    fn output_shape(&self, inputs: &[Shape]) -> Shape;

    /// Output activation precision given the input precisions. For the
    /// classifier head the value is nominal (its real output is `i32`
    /// logits, accounted by [`QOp::output_bytes`]).
    fn out_bits(&self, in_bits: &[BitWidth]) -> BitWidth;

    /// RAM bytes of this op's output tensor (`mem(y, Q_y)` of Eq. 7).
    fn output_bytes(&self, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        self.out_bits(in_bits)
            .bytes_for(self.output_shape(inputs).volume())
    }

    /// Flash bytes of the op: packed weights plus §4.1 static parameters.
    fn flash_bytes(&self) -> usize;

    /// Transient scratch bytes the given kernel implementation needs over
    /// the inputs at their precisions (e.g. the im2col expansion of a GEMM
    /// lowering; zero for kernels that run in place over the live
    /// activations).
    fn scratch_bytes(&self, choice: KernelChoice, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        let _ = (choice, inputs, in_bits);
        0
    }
}

impl QOp for QConv2d {
    fn kind(&self) -> OpKind {
        if self.weights().is_depthwise() {
            OpKind::DepthwiseConv
        } else {
            OpKind::Conv
        }
    }

    fn supported_kernels(&self) -> &'static [KernelChoice] {
        let w = self.weights();
        // CMSIS-NN lowers depthwise directly; there is no im2col form. The
        // blocked GEMM accumulates a whole patch in one `i32` run, so a
        // patch past `MAX_DOT_LEN` runs the direct loop's `i64` one.
        if w.is_depthwise() || self.geometry().kernel_area() * w.in_channels() > MAX_DOT_LEN {
            &[KernelChoice::DirectConv]
        } else {
            &[KernelChoice::DirectConv, KernelChoice::BlockedGemm]
        }
    }

    fn prepack(&self, choice: KernelChoice) -> (Option<PackedPanels>, OpCounts) {
        blocked_prepack(self.weights(), choice, || self.prepack_panels())
    }

    fn execute_kernel(
        &self,
        choice: KernelChoice,
        panels: Option<&PackedPanels>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        let mut codes = arena.take_scratch();
        let shape = match choice {
            KernelChoice::DirectConv => {
                let mut aux = arena.take_aux();
                let shape = self.execute_codes_pooled(inputs[0], &mut codes, &mut aux, ops);
                arena.put_aux(aux);
                shape
            }
            KernelChoice::BlockedGemm => {
                let panels = panels.expect(NO_PANELS);
                let mut aux = arena.take_aux();
                let mut acc = arena.take_acc();
                let shape = self.execute_blocked_prepacked_pooled(
                    panels, inputs[0], &mut aux, &mut acc, &mut codes, ops,
                );
                arena.put_acc(acc);
                arena.put_aux(aux);
                shape
            }
        };
        let act = QActivation::from_codes_in(
            shape,
            &codes,
            self.requant().out_bits(),
            self.out_zero_point(),
            arena.take_packed(),
        );
        arena.put_scratch(codes);
        OpOutput::Act(act)
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        QConv2d::output_shape(self, inputs[0])
    }

    fn out_bits(&self, _in_bits: &[BitWidth]) -> BitWidth {
        self.requant().out_bits()
    }

    fn flash_bytes(&self) -> usize {
        // Packed weights + Zw + Zx/Zy + requant parameters (Table 1 row).
        self.weights().byte_len()
            + self.weights().offset().flash_bytes()
            + 2
            + self.requant().flash_bytes()
    }

    fn scratch_bytes(&self, choice: KernelChoice, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        match choice {
            // The direct loop reads the packed input in place (the
            // depthwise core's sub-byte decode is host staging, priced
            // nowhere, like the im2col path's).
            KernelChoice::DirectConv => 0,
            // The blocked kernel's pointwise identity fast path borrows an
            // 8-bit input's packed storage zero-copy — no expansion at all.
            KernelChoice::BlockedGemm => {
                if self.blocked_borrows_input(in_bits[0]) {
                    0
                } else {
                    im2col_scratch_bytes(self, inputs[0])
                }
            }
        }
    }
}

impl QOp for QAvgPool {
    fn kind(&self) -> OpKind {
        OpKind::Pool
    }

    fn execute_kernel(
        &self,
        _choice: KernelChoice,
        _panels: Option<&PackedPanels>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        let x = inputs[0];
        let mut codes = arena.take_scratch();
        let shape = self.execute_codes(x, &mut codes, ops);
        let act = QActivation::from_codes_in(
            shape,
            &codes,
            x.bits(),
            x.zero_point(),
            arena.take_packed(),
        );
        arena.put_scratch(codes);
        OpOutput::Act(act)
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        let input = inputs[0];
        Shape::new(input.n, 1, 1, input.c)
    }

    fn out_bits(&self, in_bits: &[BitWidth]) -> BitWidth {
        in_bits[0]
    }

    fn flash_bytes(&self) -> usize {
        0
    }
}

impl QOp for QLinear {
    fn kind(&self) -> OpKind {
        OpKind::Linear
    }

    fn supported_kernels(&self) -> &'static [KernelChoice] {
        // The blocked GEMV accumulates all `c_i` features in one `i32` run,
        // as the blocked GEMM does a convolution patch.
        if self.in_features() > MAX_DOT_LEN {
            &[KernelChoice::DirectConv]
        } else {
            &[KernelChoice::DirectConv, KernelChoice::BlockedGemm]
        }
    }

    fn prepack(&self, choice: KernelChoice) -> (Option<PackedPanels>, OpCounts) {
        blocked_prepack(self.weights(), choice, || {
            PackedPanels::build(self.weights(), self.in_features())
        })
    }

    fn execute_kernel(
        &self,
        choice: KernelChoice,
        panels: Option<&PackedPanels>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        let mut logits = Vec::with_capacity(inputs[0].shape().n * self.out_features());
        self.execute_kernel_into(choice, panels, inputs[0], arena, &mut logits, ops);
        OpOutput::Logits(logits)
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        Shape::new(inputs[0].n, 1, 1, self.out_features())
    }

    fn out_bits(&self, in_bits: &[BitWidth]) -> BitWidth {
        in_bits[0]
    }

    fn output_bytes(&self, inputs: &[Shape], _in_bits: &[BitWidth]) -> usize {
        // The head's output is i32 logits, one per class per batch item.
        4 * inputs[0].n * self.out_features()
    }

    fn flash_bytes(&self) -> usize {
        // Packed weights + Zw + Zx/Zy + Bq (i32) and M0/N0 (5 bytes) per
        // class when a rescale is present.
        self.weights().byte_len()
            + self.weights().offset().flash_bytes()
            + 2
            + 4 * self.bq().len()
            + self.rescale().map_or(0, |r| 5 * r.len())
    }

    fn scratch_bytes(&self, choice: KernelChoice, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        match choice {
            KernelChoice::DirectConv => 0,
            // The blocked GEMV borrows an 8-bit input's packed storage, as
            // the pointwise identity path does, and unpacks a sub-byte one
            // whole: one code per GEMM row element.
            KernelChoice::BlockedGemm => {
                if in_bits[0] == BitWidth::W8 {
                    0
                } else {
                    inputs[0].n * self.in_features()
                }
            }
        }
    }
}

impl QOp for QAdd {
    fn kind(&self) -> OpKind {
        OpKind::Add
    }

    fn arity(&self) -> usize {
        2
    }

    fn execute_kernel(
        &self,
        _choice: KernelChoice,
        _panels: Option<&PackedPanels>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        let mut codes = arena.take_scratch();
        let shape = self.execute_codes(inputs[0], inputs[1], &mut codes, ops);
        let act = QActivation::from_codes_in(
            shape,
            &codes,
            QAdd::out_bits(self),
            self.zero_point() as u8, // validated to be a code at construction
            arena.take_packed(),
        );
        arena.put_scratch(codes);
        OpOutput::Act(act)
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        inputs[0]
    }

    fn out_bits(&self, _in_bits: &[BitWidth]) -> BitWidth {
        QAdd::out_bits(self)
    }

    fn flash_bytes(&self) -> usize {
        QAdd::flash_bytes(self)
    }
}

/// The panic message of a blocked-GEMM call without its panels.
pub(crate) const NO_PANELS: &str =
    "a blocked-GEMM call needs the node's panels (built by QGraph::select_kernels)";

/// Prepack rule shared by the convolutions and the classifier head: a
/// blocked-GEMM node caches its interleaved panels, charged one read of
/// every code (decoding sub-byte ones) and one panel store per code, once;
/// a direct node reads the packed weights in place and caches nothing.
fn blocked_prepack(
    weights: &crate::QConvWeights,
    choice: KernelChoice,
    build_panels: impl FnOnce() -> PackedPanels,
) -> (Option<PackedPanels>, OpCounts) {
    if choice != KernelChoice::BlockedGemm {
        return (None, OpCounts::default());
    }
    let vol = weights.shape().volume() as u64;
    let ops = OpCounts {
        unpacks: if weights.needs_unpack() { vol } else { 0 },
        act_loads: vol,
        act_stores: vol,
        ..OpCounts::default()
    };
    (Some(build_panels()), ops)
}

/// Closed set of graph node operators.
///
/// The graph stores this enum rather than `Box<dyn QOp>` so that networks
/// stay `Clone`/`PartialEq` (conversion tests compare whole deployments)
/// and dispatch stays static — the executor adds no indirection over the
/// kernels it schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyOp {
    /// Convolution (standard, pointwise or depthwise).
    Conv(QConv2d),
    /// Global average pooling.
    Pool(QAvgPool),
    /// Fully-connected classifier head.
    Linear(QLinear),
    /// Requantizing residual add.
    Add(QAdd),
}

impl From<QConv2d> for AnyOp {
    fn from(op: QConv2d) -> Self {
        AnyOp::Conv(op)
    }
}

impl From<QAvgPool> for AnyOp {
    fn from(op: QAvgPool) -> Self {
        AnyOp::Pool(op)
    }
}

impl From<QLinear> for AnyOp {
    fn from(op: QLinear) -> Self {
        AnyOp::Linear(op)
    }
}

impl From<QAdd> for AnyOp {
    fn from(op: QAdd) -> Self {
        AnyOp::Add(op)
    }
}

macro_rules! dispatch {
    ($self:expr, $op:ident => $call:expr) => {
        match $self {
            AnyOp::Conv($op) => $call,
            AnyOp::Pool($op) => $call,
            AnyOp::Linear($op) => $call,
            AnyOp::Add($op) => $call,
        }
    };
}

impl QOp for AnyOp {
    fn kind(&self) -> OpKind {
        dispatch!(self, op => op.kind())
    }

    fn arity(&self) -> usize {
        dispatch!(self, op => QOp::arity(op))
    }

    fn supported_kernels(&self) -> &'static [KernelChoice] {
        dispatch!(self, op => QOp::supported_kernels(op))
    }

    fn prepack(&self, choice: KernelChoice) -> (Option<PackedPanels>, OpCounts) {
        dispatch!(self, op => QOp::prepack(op, choice))
    }

    fn execute_kernel(
        &self,
        choice: KernelChoice,
        panels: Option<&PackedPanels>,
        inputs: &[&QActivation],
        arena: &mut ActivationArena,
        ops: &mut OpCounts,
    ) -> OpOutput {
        dispatch!(self, op => QOp::execute_kernel(op, choice, panels, inputs, arena, ops))
    }

    fn output_shape(&self, inputs: &[Shape]) -> Shape {
        dispatch!(self, op => QOp::output_shape(op, inputs))
    }

    fn out_bits(&self, in_bits: &[BitWidth]) -> BitWidth {
        dispatch!(self, op => QOp::out_bits(op, in_bits))
    }

    fn output_bytes(&self, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        dispatch!(self, op => op.output_bytes(inputs, in_bits))
    }

    fn flash_bytes(&self) -> usize {
        dispatch!(self, op => QOp::flash_bytes(op))
    }

    fn scratch_bytes(&self, choice: KernelChoice, inputs: &[Shape], in_bits: &[BitWidth]) -> usize {
        dispatch!(self, op => op.scratch_bytes(choice, inputs, in_bits))
    }
}

/// A named node of a [`QGraph`] with its input tensor ids, the kernel
/// implementation it resolved to at build time and, when that is the
/// blocked GEMM, the weight panels it streams — the node's one weight
/// cache.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphNode {
    name: String,
    op: AnyOp,
    inputs: Vec<usize>,
    choice: KernelChoice,
    panels: Option<PackedPanels>,
    prepack_ops: OpCounts,
}

impl GraphNode {
    /// Node name (layer label in breakdowns and exports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator.
    pub fn op(&self) -> &AnyOp {
        &self.op
    }

    /// Mutable operator (deployment rewrites, e.g. threshold saturation).
    /// The node's kernel choice and panels are preserved across rewrites —
    /// the panels are weight-derived, so rewrites that keep the weights
    /// (requantizer changes) keep them valid.
    pub fn op_mut(&mut self) -> &mut AnyOp {
        &mut self.op
    }

    /// Input tensor ids (0 = graph input, `k + 1` = output of node `k`).
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// The kernel implementation this node executes with — resolved by a
    /// [`Backend`] in [`QGraph::select_kernels`];
    /// [`KernelChoice::DirectConv`] until then.
    pub fn choice(&self) -> KernelChoice {
        self.choice
    }

    /// The node's blocked-GEMM weight panels, built once by
    /// [`QGraph::select_kernels`] when the node resolved to
    /// [`KernelChoice::BlockedGemm`]; `None` for every other choice.
    pub fn prepacked(&self) -> Option<&PackedPanels> {
        self.panels.as_ref()
    }

    /// The one-time [`OpCounts`] ledger of building this node's panels
    /// (zero when it has none) — what cycle models report separately from
    /// the steady-state per-inference work.
    pub fn prepack_ops(&self) -> OpCounts {
        self.prepack_ops
    }

    /// Read-only bytes of the node's panels (zero when none).
    pub fn prepacked_bytes(&self) -> usize {
        self.panels.as_ref().map_or(0, PackedPanels::bytes)
    }
}

/// The per-layer record the executor writes: the ledger a cycle model
/// turns into a latency breakdown, plus the activation traffic of the
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRun {
    /// Node name.
    pub name: String,
    /// Operator class.
    pub kind: OpKind,
    /// The kernel implementation the node executed with (cycle models price
    /// per choice).
    pub choice: KernelChoice,
    /// Abstract operation counts charged by this layer alone.
    pub ops: OpCounts,
    /// One-time packing work of the node's panels (zero when the node has
    /// none). Charged at graph build, **not** per inference
    /// — cycle models report it separately from the steady-state cost.
    pub prepack: OpCounts,
    /// Input activation bytes (packed, summed over all inputs —
    /// `mem(x, Q_x)` of Eq. 7).
    pub in_bytes: usize,
    /// Output bytes (packed activation, or `4·classes` for the head).
    pub out_bytes: usize,
    /// Output shape.
    pub out_shape: Shape,
}

/// Result of one [`QGraph::run`]: the terminal product plus the per-layer
/// ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRun {
    /// Integer logits, when the graph ends in a classifier head.
    pub logits: Option<Vec<i32>>,
    /// Final activation, when the graph ends in a code-producing op.
    pub output: Option<QActivation>,
    /// One record per executed node, in execution order.
    pub layers: Vec<LayerRun>,
    /// Measured high-water mark of live activation bytes across the run —
    /// the executor-side twin of [`QGraph::peak_ram_bytes`].
    pub peak_live_bytes: usize,
}

impl GraphRun {
    /// Folds the per-layer ledgers into network totals.
    pub fn total_ops(&self) -> OpCounts {
        self.layers.iter().map(|l| l.ops).sum()
    }

    /// The logits of a head-terminated graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not end in a classifier head.
    pub fn into_logits(self) -> Vec<i32> {
        self.logits
            .expect("graph does not end in a classifier head")
    }
}

/// The liveness-planned activation buffer pool: the kernels' scratch
/// buffers, a free list of recycled packed-storage buffers and the
/// schedule loop's tensor slots, so that — after a warm-up run —
/// steady-state inference through [`QGraph::infer_pooled`] performs
/// **zero heap allocations**. [`QGraph::run`] walks with a fresh arena.
///
/// The arena is the executor-side twin of the Eq. 7 accounting: the
/// schedule keeps a tensor's storage exactly as long as a consumer still
/// needs it, recycling it the instant the tensor dies, and
/// [`QGraph::peak_ram_bytes`] prices the largest live set that plan ever
/// holds.
#[derive(Debug, Default)]
pub struct ActivationArena {
    scratch: Vec<u8>,
    aux: Vec<u8>,
    acc: Vec<i32>,
    packed: Vec<Vec<u8>>,
    slots: Vec<Option<QActivation>>,
    last_uses: Vec<usize>,
}

impl ActivationArena {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        ActivationArena::default()
    }

    /// Takes ownership of the unpacked-code scratch buffer. Pair with
    /// [`ActivationArena::put_scratch`]; takes nested between a take and
    /// its put see an empty buffer.
    pub fn take_scratch(&mut self) -> Vec<u8> {
        mem::take(&mut self.scratch)
    }

    /// Returns the scratch buffer taken by
    /// [`ActivationArena::take_scratch`].
    pub fn put_scratch(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    /// Takes ownership of the auxiliary expansion buffer (im2col matrices,
    /// sub-byte linear unpacks) — the second scratch GEMM-lowered kernels
    /// need alongside the output-code scratch. Pair with
    /// [`ActivationArena::put_aux`].
    pub fn take_aux(&mut self) -> Vec<u8> {
        mem::take(&mut self.aux)
    }

    /// Returns the buffer taken by [`ActivationArena::take_aux`].
    pub fn put_aux(&mut self, buf: Vec<u8>) {
        self.aux = buf;
    }

    /// Takes ownership of the 32-bit scratch of the blocked GEMM: the
    /// `2·c_o` per-channel partial sums of the two rows in flight, then
    /// the epilogue's staged terms
    /// ([`GemmTerms::scratch_len`](crate::simd::requant::GemmTerms::scratch_len)
    /// entries). Pair with [`ActivationArena::put_acc`].
    pub fn take_acc(&mut self) -> Vec<i32> {
        mem::take(&mut self.acc)
    }

    /// Returns the buffer taken by [`ActivationArena::take_acc`].
    pub fn put_acc(&mut self, buf: Vec<i32>) {
        self.acc = buf;
    }

    /// Hands out a recycled packed-storage buffer (empty if the pool is
    /// dry).
    pub fn take_packed(&mut self) -> Vec<u8> {
        self.packed.pop().unwrap_or_default()
    }

    /// Recycles a dead activation's packed storage into the pool.
    pub fn recycle(&mut self, act: QActivation) {
        self.packed.push(act.into_storage());
    }
}

/// A DAG of integer ops — the executable deployment model.
///
/// Nodes are appended in topological order: every input tensor id must
/// already be defined, so the node order doubles as the execution
/// schedule. See the [module docs](self) for examples.
///
/// Each node carries the [`KernelChoice`] it executes with.
/// [`QGraph::push`]/[`QGraph::push_node`] append a node on the direct
/// reference kernel and build nothing; declaring the input with
/// [`QGraph::with_input`] enables [`QGraph::select_kernels`], which
/// resolves every node against a [`Backend`] and is the one place a
/// node's weight panels are built.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QGraph {
    nodes: Vec<GraphNode>,
    input: Option<(Shape, BitWidth)>,
}

impl QGraph {
    /// An empty graph with no declared input (backend selection needs
    /// [`QGraph::with_input`]).
    pub fn new() -> Self {
        QGraph::default()
    }

    /// An empty graph with a declared input tensor, enabling build-time
    /// kernel selection: backends see each node's input shapes and
    /// precisions, derived from this declaration through the ops already
    /// pushed.
    pub fn with_input(input: Shape, in_bits: BitWidth) -> Self {
        QGraph {
            nodes: Vec::new(),
            input: Some((input, in_bits)),
        }
    }

    /// The declared input tensor, if any.
    pub fn input_decl(&self) -> Option<(Shape, BitWidth)> {
        self.input
    }

    /// Appends a chain node consuming the most recent tensor (the previous
    /// node's output, or the graph input for the first node). Returns the
    /// new node's output tensor id. The node runs the direct reference
    /// kernel until [`QGraph::select_kernels`] resolves it.
    pub fn push(&mut self, name: impl Into<String>, op: impl Into<AnyOp>) -> usize {
        let prev = self.nodes.len();
        self.push_node(name, op, &[prev])
    }

    /// Appends a node with explicit input tensor ids (0 = graph input,
    /// `k + 1` = output of node `k`). Returns the new node's output tensor
    /// id. The node runs the direct reference kernel until
    /// [`QGraph::select_kernels`] resolves it.
    ///
    /// # Panics
    ///
    /// Panics if an input id is not yet defined or the input count does
    /// not match the op's arity.
    pub fn push_node(
        &mut self,
        name: impl Into<String>,
        op: impl Into<AnyOp>,
        inputs: &[usize],
    ) -> usize {
        let (name, op) = (name.into(), op.into());
        let out_id = self.nodes.len() + 1;
        assert_eq!(
            inputs.len(),
            QOp::arity(&op),
            "node `{name}`: {} inputs for an arity-{} op",
            inputs.len(),
            QOp::arity(&op)
        );
        for &t in inputs {
            assert!(
                t < out_id,
                "node `{name}`: input tensor {t} is not defined yet (next id is {out_id})"
            );
        }
        self.nodes.push(GraphNode {
            name,
            op,
            inputs: inputs.to_vec(),
            choice: KernelChoice::DirectConv,
            panels: None,
            prepack_ops: OpCounts::default(),
        });
        out_id
    }

    /// Resolves every node's [`KernelChoice`] against `backend` from the
    /// shapes and precisions of its input tensors (derived from the
    /// declared graph input) — for a freshly built graph, or to retarget
    /// an already-built one (e.g. a converted network) without rebuilding
    /// it. This is the one place a node's blocked-GEMM panels
    /// ([`QOp::prepack`]) are built: when the node resolves to
    /// [`KernelChoice::BlockedGemm`] from another choice. A node that
    /// leaves the blocked GEMM drops its panels, and one re-selected with
    /// the same choice keeps what it has.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no declared input ([`QGraph::with_input`])
    /// or the backend returns a choice outside some node's
    /// [`QOp::supported_kernels`].
    pub fn select_kernels(&mut self, backend: &dyn Backend) {
        let (input, in_bits) = self
            .input
            .expect("backend selection needs a declared graph input (QGraph::with_input)");
        let (shapes, bits) = self.tensor_plan(input, in_bits);
        let mut in_shapes = Vec::new();
        let mut in_bits_v = Vec::new();
        for node in &mut self.nodes {
            in_shapes.clear();
            in_bits_v.clear();
            for &t in &node.inputs {
                in_shapes.push(shapes[t]);
                in_bits_v.push(bits[t]);
            }
            let choice = backend.select(&node.op, &in_shapes, &in_bits_v);
            assert!(
                node.op.supported_kernels().contains(&choice),
                "node `{}`: backend `{}` selected {choice}, which the op does not support",
                node.name,
                backend.name()
            );
            if choice != node.choice {
                node.choice = choice;
                (node.panels, node.prepack_ops) = node.op.prepack(choice);
            }
        }
    }

    /// Total read-only bytes of all nodes' weight panels — the flash-side
    /// cost of the steady-state packing amortization, reported separately
    /// from the Table-1 flash model ([`QGraph::flash_bytes`]) and from the
    /// Eq. 7 activation RAM ([`QGraph::peak_ram_bytes`]).
    pub fn prepacked_bytes(&self) -> usize {
        self.nodes.iter().map(GraphNode::prepacked_bytes).sum()
    }

    /// The resolved [`KernelChoice`] of every node, in schedule order.
    pub fn kernel_choices(&self) -> Vec<KernelChoice> {
        self.nodes.iter().map(|n| n.choice).collect()
    }

    /// The nodes, in schedule order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Mutable nodes (deployment rewrites keep the topology intact).
    pub fn nodes_mut(&mut self) -> &mut [GraphNode] {
        &mut self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All convolution nodes, in order.
    pub fn convs(&self) -> Vec<&QConv2d> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                AnyOp::Conv(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// The classifier head, if the graph has one.
    pub fn head(&self) -> Option<&QLinear> {
        self.nodes.iter().find_map(|n| match &n.op {
            AnyOp::Linear(l) => Some(l),
            _ => None,
        })
    }

    /// Total flash footprint of the graph (packed weights + §4.1 static
    /// parameters of every node).
    pub fn flash_bytes(&self) -> usize {
        self.nodes.iter().map(|n| QOp::flash_bytes(&n.op)).sum()
    }

    /// Shape and precision of every tensor (index = tensor id): entry 0 is
    /// the graph input, entry `k + 1` the output of node `k`. This is the
    /// same plan the executor's arena planner uses, exposed so static
    /// analyses (`mixq-verify`) can reason about the exact deployed
    /// schedule rather than a reconstruction of it.
    pub fn tensor_plan(&self, input: Shape, in_bits: BitWidth) -> (Vec<Shape>, Vec<BitWidth>) {
        let mut shapes = Vec::with_capacity(self.nodes.len() + 1);
        let mut bits = Vec::with_capacity(self.nodes.len() + 1);
        shapes.push(input);
        bits.push(in_bits);
        let mut in_shapes = Vec::new();
        let mut in_bits_v = Vec::new();
        for node in &self.nodes {
            in_shapes.clear();
            in_bits_v.clear();
            for &t in &node.inputs {
                in_shapes.push(shapes[t]);
                in_bits_v.push(bits[t]);
            }
            shapes.push(node.op.output_shape(&in_shapes));
            bits.push(node.op.out_bits(&in_bits_v));
        }
        (shapes, bits)
    }

    /// Last schedule step at which each tensor is still needed: the index
    /// of its final consuming node, its defining node when unused, and a
    /// past-the-end sentinel for the terminal tensor (which must survive
    /// the run).
    pub(crate) fn last_uses_into(&self, out: &mut Vec<usize>) {
        let n = self.nodes.len();
        out.clear();
        out.push(0); // graph input: droppable after node 0 if unused
        for k in 0..n {
            out.push(k); // tensor k + 1, defined by node k
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for &t in &node.inputs {
                out[t] = out[t].max(i);
            }
        }
        if n > 0 {
            out[n] = n; // terminal tensor: never dropped mid-run
        }
    }

    /// Last schedule step at which each tensor is still needed (index =
    /// tensor id, as in [`QGraph::tensor_plan`]) — the liveness schedule
    /// the activation arena is planned from, exposed for static
    /// verification of the schedule itself.
    pub fn last_uses(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.last_uses_into(&mut out);
        out
    }

    /// Peak activation RAM (Eq. 7) of the liveness-planned schedule: for
    /// every step, the bytes of all tensors still needed plus the step's
    /// output, each at its deployed precision; the peak over steps. On a
    /// chain this is the classic largest input+output pair; on a residual
    /// graph the pending skip tensor is priced too.
    pub fn peak_ram_bytes(&self, input: Shape, in_bits: BitWidth) -> usize {
        let (shapes, bits) = self.tensor_plan(input, in_bits);
        let mut last = Vec::new();
        self.last_uses_into(&mut last);
        let mut peak = 0usize;
        let mut in_shapes = Vec::new();
        let mut in_bits_v = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            in_shapes.clear();
            in_bits_v.clear();
            for &t in &node.inputs {
                in_shapes.push(shapes[t]);
                in_bits_v.push(bits[t]);
            }
            let out_bytes = node.op.output_bytes(&in_shapes, &in_bits_v);
            let live: usize = (0..=i)
                .filter(|&t| last[t] >= i)
                .map(|t| bits[t].bytes_for(shapes[t].volume()))
                .sum();
            peak = peak.max(live + out_bytes);
        }
        peak
    }

    /// Largest transient scratch buffer any node needs with the kernel it
    /// actually selected, on top of the live activations: GEMM-lowered
    /// nodes are priced for their im2col expansion (zero when the blocked
    /// kernel's pointwise identity path borrows the input zero-copy),
    /// direct nodes for nothing. A reference-selected graph therefore
    /// reports zero, and a tiled graph exactly the largest expansion its
    /// GEMM nodes materialize.
    pub fn peak_scratch_bytes(&self, input: Shape, in_bits: BitWidth) -> usize {
        let (shapes, bits) = self.tensor_plan(input, in_bits);
        let mut peak = 0usize;
        let mut in_shapes = Vec::new();
        let mut in_bits_v = Vec::new();
        for node in &self.nodes {
            in_shapes.clear();
            in_bits_v.clear();
            for &t in &node.inputs {
                in_shapes.push(shapes[t]);
                in_bits_v.push(bits[t]);
            }
            peak = peak.max(node.op.scratch_bytes(node.choice, &in_shapes, &in_bits_v));
        }
        peak
    }

    /// Shape of the graph's terminal output for a given input shape.
    pub fn output_shape(&self, input: Shape) -> Shape {
        let (shapes, _) = self.tensor_plan(input, BitWidth::W8);
        *shapes.last().expect("plan includes the input")
    }

    /// Runs the graph on `input` with a fresh arena, keeping the per-layer
    /// [`LayerRun`] ledger and the measured peak of live activation bytes.
    ///
    /// # Panics
    ///
    /// Panics if a classifier head appears before the last node (logits
    /// cannot feed a code-consuming op), or if a node consumes a logits
    /// tensor.
    pub fn run(&self, input: QActivation) -> GraphRun {
        let mut layers = Vec::with_capacity(self.nodes.len());
        let mut logits = Vec::new();
        let mut ops = OpCounts::default();
        let (output, peak_live_bytes) = self.walk(
            input,
            &mut ActivationArena::new(),
            &mut logits,
            &mut ops,
            Some(&mut layers),
        );
        GraphRun {
            logits: output.is_none().then_some(logits),
            output,
            layers,
            peak_live_bytes,
        }
    }

    /// The allocation-free inference path: runs a head-terminated graph
    /// writing the logits into `logits_out` (cleared in place) and
    /// accumulating the op ledger into `ops`, drawing every buffer from
    /// `arena`. After one warm-up run over a given graph, subsequent calls
    /// perform no heap allocation (asserted by the `allocation_free`
    /// integration test). It is the same schedule loop as
    /// [`QGraph::run`], without the per-layer ledger.
    ///
    /// One walk computes a whole batch: `input` carries the batch in its
    /// shape's `n` dimension (N stacked NHWC items); every kernel sweeps
    /// all N samples against the node's weights, so per-layer dispatch and
    /// weight-panel streaming are amortized across the batch, and
    /// `logits_out` receives `N · classes` values in row-major
    /// `(n, classes)` order — bit-identical to N single-sample calls
    /// (asserted by the
    /// `batch_matches_single_sample_logits` proptest). Steady-state
    /// batched calls are allocation-free too, once the arena buffers
    /// reached their (batch-scaled) capacities; [`QGraph::peak_ram_bytes`]
    /// and [`QGraph::peak_scratch_bytes`] price the batch dimension when
    /// given the batched input shape.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not end in a classifier head, plus the
    /// conditions of [`QGraph::run`].
    pub fn infer_pooled(
        &self,
        input: QActivation,
        arena: &mut ActivationArena,
        logits_out: &mut Vec<i32>,
        ops: &mut OpCounts,
    ) {
        let (output, _) = self.walk(input, arena, logits_out, ops, None);
        assert!(output.is_none(), "graph does not end in a classifier head");
    }

    /// The schedule loop behind [`QGraph::run`] and [`QGraph::infer_pooled`]:
    /// runs the nodes in order, the classifier head into `logits` and every
    /// other node into its tensor slot, and recycles each tensor into
    /// `arena` at its last use. Charges each node's work to `ops` and, when
    /// `ledger` is given, appends its [`LayerRun`]. Returns the terminal
    /// activation (`None` when the graph ends in the head) and the measured
    /// high-water mark of live activation bytes.
    fn walk(
        &self,
        input: QActivation,
        arena: &mut ActivationArena,
        logits: &mut Vec<i32>,
        ops: &mut OpCounts,
        mut ledger: Option<&mut Vec<LayerRun>>,
    ) -> (Option<QActivation>, usize) {
        let n = self.nodes.len();
        let mut last = mem::take(&mut arena.last_uses);
        self.last_uses_into(&mut last);
        let mut slots = mem::take(&mut arena.slots);
        slots.clear();
        slots.resize_with(n + 1, || None);
        // Bytes held in `slots`; the peak adds each node's output while its
        // inputs are still live.
        let mut live = input.byte_len();
        let mut peak = 0;
        slots[0] = Some(input);
        let mut head_done = false;
        for (i, node) in self.nodes.iter().enumerate() {
            assert!(
                !head_done,
                "classifier head must be the terminal node (violated at `{}`)",
                node.name
            );
            let mut node_ops = OpCounts::default();
            let (out, in_bytes, out_shape) = {
                let input = |t: usize| {
                    slots[t].as_ref().unwrap_or_else(|| {
                        panic!(
                            "node `{}` consumes tensor {t}, which is not a live activation",
                            node.name
                        )
                    })
                };
                let x = input(node.inputs[0]);
                let pair = [x, node.inputs.get(1).map_or(x, |&t| input(t))];
                let ins = &pair[..node.inputs.len()];
                let in_bytes = ins.iter().map(|a| a.byte_len()).sum::<usize>();
                match &node.op {
                    AnyOp::Linear(head) => {
                        head.execute_kernel_into(
                            node.choice,
                            node.panels.as_ref(),
                            x,
                            arena,
                            logits,
                            &mut node_ops,
                        );
                        (None, in_bytes, node.op.output_shape(&[x.shape()]))
                    }
                    op => match op.execute_kernel(
                        node.choice,
                        node.panels.as_ref(),
                        ins,
                        arena,
                        &mut node_ops,
                    ) {
                        OpOutput::Act(a) => {
                            let shape = a.shape();
                            (Some(a), in_bytes, shape)
                        }
                        OpOutput::Logits(_) => unreachable!("only the head yields logits"),
                    },
                }
            };
            let out_bytes = out.as_ref().map_or(4 * logits.len(), QActivation::byte_len);
            peak = peak.max(live + out_bytes);
            if let Some(layers) = ledger.as_deref_mut() {
                layers.push(LayerRun {
                    name: node.name.clone(),
                    kind: node.op.kind(),
                    choice: node.choice,
                    ops: node_ops,
                    prepack: node.prepack_ops,
                    in_bytes,
                    out_bytes,
                    out_shape,
                });
            }
            *ops += node_ops;
            match out {
                Some(a) => {
                    live += out_bytes;
                    slots[i + 1] = Some(a);
                }
                None => head_done = true,
            }
            // Recycle every tensor whose last consumer was this node,
            // including its own output when nothing ever reads it.
            for &t in node.inputs.iter().chain([i + 1].iter()) {
                if last[t] == i {
                    if let Some(a) = slots[t].take() {
                        live -= a.byte_len();
                        arena.recycle(a);
                    }
                }
            }
        }
        // Every other tensor died at its last use; only the terminal one
        // is left (none when the head wrote logits).
        let output = slots[n].take();
        arena.slots = slots;
        arena.last_uses = last;
        (output, peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QConvWeights, Requantizer, WeightOffset};
    use mixq_quant::{BitWidth, FixedPointMultiplier};
    use mixq_tensor::{ConvGeometry, Padding};

    fn identity_requant(channels: usize, bits: BitWidth) -> Requantizer {
        Requantizer::icn(
            vec![0; channels],
            vec![FixedPointMultiplier::from_real(1.0); channels],
            0,
            bits,
        )
    }

    fn pointwise(ci: usize, co: usize, wcode: u8) -> QConv2d {
        let shape = Shape::new(co, 1, 1, ci);
        let w = QConvWeights::new(
            shape,
            false,
            &vec![wcode; shape.volume()],
            BitWidth::W4,
            WeightOffset::PerLayer(0),
        );
        QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(co, BitWidth::W8),
        )
    }

    fn depthwise(c: usize, wcode: u8) -> QConv2d {
        let shape = Shape::new(c, 3, 3, 1);
        let w = QConvWeights::new(
            shape,
            true,
            &vec![wcode; shape.volume()],
            BitWidth::W4,
            WeightOffset::PerChannel(vec![0; c]),
        );
        QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 1, Padding::Same),
            identity_requant(c, BitWidth::W8),
        )
    }

    fn identity_add() -> QAdd {
        QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8)
    }

    #[test]
    fn kinds_distinguish_depthwise() {
        assert_eq!(QOp::kind(&pointwise(2, 3, 1)), OpKind::Conv);
        assert_eq!(QOp::kind(&depthwise(2, 1)), OpKind::DepthwiseConv);
        assert_eq!(QAvgPool.kind(), OpKind::Pool);
        assert_eq!(QOp::kind(&identity_add()), OpKind::Add);
        assert_eq!(OpKind::DepthwiseConv.label(), "dwconv");
        assert_eq!(OpKind::Add.label(), "add");
        assert_eq!(QOp::arity(&identity_add()), 2);
        assert_eq!(QOp::arity(&pointwise(1, 1, 1)), 1);
    }

    #[test]
    fn graph_matches_manual_layer_loop() {
        // A depthwise-separable block graph must be bit-identical, op for
        // op, with the hand-rolled loop over the same layers.
        let dw = depthwise(2, 2);
        let pw = pointwise(2, 4, 1);
        let shape = Shape::feature_map(5, 5, 2);
        let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 11) as u8).collect();
        let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);

        let mut graph = QGraph::new();
        graph.push("dw", dw.clone());
        graph.push("pw", pw.clone());
        graph.push("pool", QAvgPool);
        let run = graph.run(x.clone());

        let mut ops = OpCounts::default();
        let manual = QAvgPool.execute(&pw.execute(&dw.execute(&x, &mut ops), &mut ops), &mut ops);
        assert_eq!(run.output, Some(manual));
        assert_eq!(run.total_ops(), ops);
        assert_eq!(run.layers.len(), 3);
        assert_eq!(run.layers[0].kind, OpKind::DepthwiseConv);
        assert_eq!(run.layers[1].kind, OpKind::Conv);
        // The ledger decomposes: depthwise layer charges its own MACs only.
        assert_eq!(run.layers[0].ops.macs + run.layers[1].ops.macs, ops.macs);
    }

    #[test]
    fn arena_reuse_is_bit_identical_across_runs() {
        let mut graph = QGraph::new();
        graph.push("dw", depthwise(3, 1));
        graph.push("pw", pointwise(3, 3, 2));
        let shape = Shape::feature_map(4, 4, 3);
        let weights: Vec<u8> = (0..2 * shape.volume()).map(|i| (i % 5) as u8).collect();
        let head = QLinear::new(
            QConvWeights::new(
                Shape::new(2, 1, 1, shape.volume()),
                false,
                &weights,
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            vec![1, -1],
            None,
        );
        graph.push("fc", head);
        let mut arena = ActivationArena::new();
        let mut logits = Vec::new();
        for seed in [7, 3, 7] {
            let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % seed) as u8).collect();
            let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
            let fresh = graph.run(x.clone());
            let mut ops = OpCounts::default();
            graph.infer_pooled(x, &mut arena, &mut logits, &mut ops);
            assert_eq!(Some(&logits), fresh.logits.as_ref(), "input {seed}");
            assert_eq!(ops, fresh.total_ops(), "input {seed}");
        }
    }

    #[test]
    fn pooled_inference_matches_ledger_run() {
        let mut graph = QGraph::new();
        graph.push("dw", depthwise(2, 1));
        graph.push("pool", QAvgPool);
        let head = QLinear::new(
            QConvWeights::new(
                Shape::new(2, 1, 1, 2),
                false,
                &[1, 0, 0, 1],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            vec![3, 4],
            None,
        );
        graph.push("fc", head);
        let shape = Shape::feature_map(4, 4, 2);
        let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 9) as u8).collect();
        let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
        let run = graph.run(x.clone());
        let mut arena = ActivationArena::new();
        let mut logits = Vec::new();
        let mut ops = OpCounts::default();
        graph.infer_pooled(x, &mut arena, &mut logits, &mut ops);
        assert_eq!(Some(logits), run.logits);
        assert_eq!(ops, run.total_ops());
    }

    #[test]
    fn residual_add_joins_branches() {
        // input -> dw -> pw(a); skip: input; add(pw, input).
        let mut graph = QGraph::new();
        let dw_id = graph.push("dw", depthwise(2, 1));
        let pw_id = graph.push_node("pw", pointwise(2, 2, 1), &[dw_id]);
        let add_id = graph.push_node("res", identity_add(), &[pw_id, 0]);
        assert_eq!((dw_id, pw_id, add_id), (1, 2, 3));
        assert_eq!(graph.nodes()[2].inputs(), &[2, 0]);

        let shape = Shape::feature_map(3, 3, 2);
        let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 5) as u8).collect();
        let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
        let run = graph.run(x.clone());

        // Manual: y = pw(dw(x)) + x (identity add on the same grid).
        let mut ops = OpCounts::default();
        let branch = pointwise(2, 2, 1).execute(&depthwise(2, 1).execute(&x, &mut ops), &mut ops);
        let manual = identity_add().execute(&branch, &x, &mut ops);
        assert_eq!(run.output, Some(manual));
        assert_eq!(run.total_ops(), ops);
        assert_eq!(run.layers[2].kind, OpKind::Add);
        // The add's ledger records both branch inputs.
        assert_eq!(run.layers[2].in_bytes, 2 * shape.volume());
    }

    #[test]
    fn peak_ram_matches_manual_pair_walk() {
        let mut graph = QGraph::new();
        graph.push("dw", depthwise(4, 1));
        graph.push("pw", pointwise(4, 8, 1));
        graph.push("pool", QAvgPool);
        let input = Shape::feature_map(6, 6, 4);
        // dw: 144 in + 144 out; pw: 144 in + 288 out (8 ch); pool: 288 + 8.
        assert_eq!(graph.peak_ram_bytes(input, BitWidth::W8), 144 + 288);
        // A 4-bit input halves the first pair's input tensor; the binding
        // pair here is pw (all-W8), so the peak cannot grow.
        assert!(graph.peak_ram_bytes(input, BitWidth::W4) <= 144 + 288);
        // When the first pair binds, the saving is strict.
        let mut dw_only = QGraph::new();
        dw_only.push("dw", depthwise(4, 1));
        assert_eq!(dw_only.peak_ram_bytes(input, BitWidth::W8), 144 + 144);
        assert_eq!(dw_only.peak_ram_bytes(input, BitWidth::W4), 72 + 144);
    }

    #[test]
    fn diamond_graph_prices_the_extra_live_tensor() {
        // in -> A; A -> B; A -> C; add(B, C). All tensors 4x4x2 = 32 B.
        let mut graph = QGraph::new();
        let a = graph.push("a", depthwise(2, 1));
        let b = graph.push_node("b", pointwise(2, 2, 1), &[a]);
        let c = graph.push_node("c", pointwise(2, 2, 2), &[a]);
        graph.push_node("add", identity_add(), &[b, c]);
        let input = Shape::feature_map(4, 4, 2);
        // While C runs, A (its input), B (pending) and C's output are all
        // live: 3 × 32 = 96 — beyond any double-buffered pair.
        assert_eq!(graph.peak_ram_bytes(input, BitWidth::W8), 96);

        // The measured high-water mark of a real run agrees exactly.
        let codes: Vec<u8> = (0..input.volume()).map(|i| (i % 4) as u8).collect();
        let x = QActivation::from_codes(input, &codes, BitWidth::W8, 0);
        let run = graph.run(x);
        assert_eq!(run.peak_live_bytes, 96);
    }

    #[test]
    fn chain_measured_peak_matches_planner() {
        let mut graph = QGraph::new();
        graph.push("dw", depthwise(4, 1));
        graph.push("pw", pointwise(4, 8, 1));
        graph.push("pool", QAvgPool);
        let input = Shape::feature_map(6, 6, 4);
        let codes: Vec<u8> = (0..input.volume()).map(|i| (i % 13) as u8).collect();
        let x = QActivation::from_codes(input, &codes, BitWidth::W8, 0);
        let run = graph.run(x);
        assert_eq!(
            run.peak_live_bytes,
            graph.peak_ram_bytes(input, BitWidth::W8)
        );
    }

    #[test]
    fn flash_bytes_sums_nodes() {
        let dw = depthwise(2, 1);
        let pw = pointwise(2, 3, 1);
        let mut graph = QGraph::new();
        graph.push("dw", dw.clone());
        graph.push("pw", pw.clone());
        graph.push("pool", QAvgPool);
        assert_eq!(
            graph.flash_bytes(),
            QOp::flash_bytes(&dw) + QOp::flash_bytes(&pw)
        );
        assert!(graph.flash_bytes() > 0);
        // Adds contribute their multiplier/zero-point block.
        graph.push_node("res", identity_add(), &[3, 3]);
        assert_eq!(
            graph.flash_bytes(),
            QOp::flash_bytes(&dw) + QOp::flash_bytes(&pw) + 13
        );
    }

    #[test]
    fn scratch_follows_the_selected_kernel() {
        let dense = QConv2d::new(
            QConvWeights::new(
                Shape::new(2, 3, 3, 3),
                false,
                &[0; 54],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            ConvGeometry::new(3, 3, 1, Padding::Same),
            identity_requant(2, BitWidth::W8),
        );
        let input = Shape::feature_map(8, 8, 3);
        let w8 = [BitWidth::W8];
        // The direct loop runs in place; only the GEMM lowering expands.
        assert_eq!(
            QOp::scratch_bytes(&dense, KernelChoice::DirectConv, &[input], &w8),
            0
        );
        assert_eq!(
            QOp::scratch_bytes(&dense, KernelChoice::BlockedGemm, &[input], &w8),
            8 * 8 * 9 * 3
        );
        // The blocked kernel's pointwise identity path borrows an 8-bit
        // input zero-copy (no scratch); a sub-byte input needs the linear
        // unpack buffer.
        let pw = pointwise(3, 4, 1);
        assert_eq!(
            QOp::scratch_bytes(&pw, KernelChoice::BlockedGemm, &[input], &w8),
            0
        );
        assert_eq!(
            QOp::scratch_bytes(&pw, KernelChoice::BlockedGemm, &[input], &[BitWidth::W4]),
            8 * 8 * 3
        );
        // A reference graph prices no scratch; a tiled graph prices exactly
        // the GEMM nodes' expansions.
        let mut graph = QGraph::with_input(input, BitWidth::W8);
        graph.push("dw", depthwise(3, 1));
        graph.push("c", dense.clone());
        assert_eq!(graph.peak_scratch_bytes(input, BitWidth::W8), 0);
        graph.select_kernels(&crate::TiledBackend::default());
        assert_eq!(
            graph.kernel_choices(),
            vec![KernelChoice::DirectConv, KernelChoice::BlockedGemm]
        );
        assert_eq!(graph.peak_scratch_bytes(input, BitWidth::W8), 8 * 8 * 9 * 3);
    }

    #[test]
    fn backend_selection_is_bit_identical_across_kernels() {
        // The same graph, selected three ways, produces identical runs
        // apart from the recorded choices.
        let input = Shape::feature_map(6, 6, 3);
        let build = || {
            let mut g = QGraph::with_input(input, BitWidth::W8);
            g.push("dw", depthwise(3, 1));
            g.push("pw", pointwise(3, 8, 2));
            g.push("pool", QAvgPool);
            g
        };
        let reference = build();
        let mut tiled = build();
        tiled.select_kernels(&crate::TiledBackend::default());
        assert_eq!(
            tiled.kernel_choices(),
            vec![
                KernelChoice::DirectConv,
                KernelChoice::BlockedGemm,
                KernelChoice::DirectConv
            ]
        );
        let codes: Vec<u8> = (0..input.volume()).map(|i| (i % 17) as u8).collect();
        let x = QActivation::from_codes(input, &codes, BitWidth::W8, 2);
        let a = reference.run(x.clone());
        let b = tiled.run(x);
        assert_eq!(a.output, b.output);
        assert_eq!(a.peak_live_bytes, b.peak_live_bytes);
        assert_eq!(b.layers[1].choice, KernelChoice::BlockedGemm);
        assert_eq!(a.layers[1].choice, KernelChoice::DirectConv);
        // Pointwise convs have no padded taps, so the MAC and requant
        // counts agree between the direct and GEMM dataflows (the load
        // ledger legitimately differs: im2col touches each input element
        // once, the direct loop once per MAC).
        assert_eq!(a.layers[1].ops.macs, b.layers[1].ops.macs);
        assert_eq!(a.layers[1].ops.requants, b.layers[1].ops.requants);
    }

    #[test]
    fn select_kernels_resolves_each_node() {
        let input = Shape::feature_map(5, 5, 2);
        let mut g = QGraph::with_input(input, BitWidth::W8);
        g.push("dw", depthwise(2, 1));
        let pw = g.push("pw", pointwise(2, 4, 1));
        g.push_node("res", identity_add(), &[pw, pw]);
        // Pushing resolves nothing and builds nothing.
        assert!(g
            .nodes()
            .iter()
            .all(|n| n.choice() == KernelChoice::DirectConv));
        assert_eq!(g.prepacked_bytes(), 0);
        g.select_kernels(&crate::TiledBackend::default());
        assert_eq!(
            g.kernel_choices(),
            vec![
                KernelChoice::DirectConv,
                KernelChoice::BlockedGemm,
                KernelChoice::DirectConv
            ]
        );
        assert_eq!(g.input_decl(), Some((input, BitWidth::W8)));
        // Only the blocked node holds panels.
        for node in g.nodes() {
            assert_eq!(
                node.prepacked().is_some(),
                node.choice() == KernelChoice::BlockedGemm,
                "{}",
                node.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "declared graph input")]
    fn select_kernels_requires_declared_input() {
        let mut g = QGraph::new();
        g.push("pw", pointwise(2, 4, 1));
        g.select_kernels(&crate::TiledBackend::default());
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn unsupported_backend_choice_is_rejected() {
        struct GemmEverywhere;
        impl crate::Backend for GemmEverywhere {
            fn name(&self) -> &'static str {
                "gemm-everywhere"
            }
            fn select(
                &self,
                _op: &AnyOp,
                _inputs: &[Shape],
                _in_bits: &[BitWidth],
            ) -> KernelChoice {
                KernelChoice::BlockedGemm
            }
        }
        let input = Shape::feature_map(5, 5, 2);
        let mut g = QGraph::with_input(input, BitWidth::W8);
        // Depthwise has no GEMM lowering: the selection must be rejected.
        g.push("dw", depthwise(2, 1));
        g.select_kernels(&GemmEverywhere);
    }

    #[test]
    #[should_panic(expected = "terminal node")]
    fn head_must_be_terminal() {
        let head = QLinear::new(
            QConvWeights::new(
                Shape::new(2, 1, 1, 3),
                false,
                &[1; 6],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            vec![0, 0],
            None,
        );
        let mut graph = QGraph::new();
        graph.push("fc", head);
        graph.push("pool", QAvgPool);
        let x = QActivation::from_codes(Shape::new(1, 1, 1, 3), &[1, 2, 3], BitWidth::W8, 0);
        let _ = graph.run(x);
    }

    #[test]
    #[should_panic(expected = "does not end in a classifier head")]
    fn pooled_inference_requires_a_head() {
        let mut graph = QGraph::new();
        graph.push("pool", QAvgPool);
        let x = QActivation::from_codes(Shape::feature_map(1, 1, 2), &[1, 2], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        graph.infer_pooled(x, &mut ActivationArena::new(), &mut Vec::new(), &mut ops);
    }

    #[test]
    #[should_panic(expected = "not defined yet")]
    fn forward_references_are_rejected() {
        let mut graph = QGraph::new();
        graph.push_node("dw", depthwise(2, 1), &[1]);
    }

    #[test]
    #[should_panic(expected = "arity-2")]
    fn add_arity_is_enforced() {
        let mut graph = QGraph::new();
        graph.push_node("res", identity_add(), &[0]);
    }

    #[test]
    fn head_terminated_graph_yields_logits() {
        let head = QLinear::new(
            QConvWeights::new(
                Shape::new(2, 1, 1, 2),
                false,
                &[1, 0, 0, 1],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            vec![10, 20],
            None,
        );
        let mut graph = QGraph::new();
        graph.push("pool", QAvgPool);
        graph.push("fc", head.clone());
        let shape = Shape::feature_map(2, 2, 2);
        let x = QActivation::from_codes(shape, &[4, 8, 4, 8, 4, 8, 4, 8], BitWidth::W8, 0);
        let run = graph.run(x.clone());
        // Pool → [4, 8]; identity weights + bias.
        assert_eq!(run.clone().into_logits(), vec![14, 28]);
        assert!(run.output.is_none());
        // Ledger bytes: head output is 4 bytes per class.
        assert_eq!(run.layers.last().unwrap().out_bytes, 8);
        assert_eq!(run.layers.last().unwrap().kind, OpKind::Linear);
        // Head accounting hooks.
        assert_eq!(
            head.output_bytes(&[Shape::new(1, 1, 1, 2)], &[BitWidth::W8]),
            8
        );
        assert_eq!(
            QOp::output_shape(&head, &[Shape::new(1, 1, 1, 2)]),
            Shape::new(1, 1, 1, 2)
        );
    }
}
