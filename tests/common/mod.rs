//! Shared helpers for the integration tests: lowering a shape-level
//! [`NetworkSpec`] onto a real executor [`QGraph`] with dummy (all-zero)
//! weights, so planner-vs-assignment agreement can be checked without
//! training a network; and running a convolution on the blocked GEMM
//! next to the closed-form ledger it must charge against the direct
//! oracle's.

// Each test binary compiles its own copy; not all of them use every helper.
#![allow(dead_code)]

use mixq::core::mixed::BitAssignment;
use mixq::kernels::{
    ActivationArena, KernelChoice, OpCounts, OpOutput, PackedPanels, QActivation, QAdd, QAvgPool,
    QConv2d, QConvWeights, QGraph, QLinear, QOp, Requantizer, WeightOffset,
};
use mixq::models::{LayerKind, NetworkSpec};
use mixq::quant::{BitWidth, FixedPointMultiplier};
use mixq::tensor::{ConvGeometry, Padding, Shape};

fn identity_requant(channels: usize, bits: BitWidth) -> Requantizer {
    Requantizer::icn(
        vec![0; channels],
        vec![FixedPointMultiplier::from_real(1.0); channels],
        0,
        bits,
    )
}

/// Lowers `spec` onto an executable [`QGraph`] with zeroed weights, wiring
/// conv, residual-add, pool and classifier nodes exactly as
/// `mixq::core::convert` does for a trained network, with every tensor at
/// the precision `assignment` gives it. The result is shape-faithful: its
/// `peak_ram_bytes` is the executor's verdict on the assignment.
pub fn lower_shape_graph(spec: &NetworkSpec, assignment: &BitAssignment) -> QGraph {
    let mut graph = QGraph::new();
    let mut cur = 0usize;
    let mut out_ids = Vec::with_capacity(spec.num_layers());
    for (i, layer) in spec.layers().iter().enumerate() {
        match layer.kind() {
            LayerKind::Linear => {
                graph.push("pool", QAvgPool);
                let w = QConvWeights::new(
                    Shape::new(layer.out_channels(), 1, 1, layer.in_channels()),
                    false,
                    &vec![0; layer.weight_elements()],
                    BitWidth::W4,
                    WeightOffset::PerLayer(0),
                );
                cur = graph.push("fc", QLinear::new(w, vec![0; layer.out_channels()], None));
            }
            kind => {
                let depthwise = kind == LayerKind::DepthwiseConv;
                let shape = if depthwise {
                    Shape::new(layer.out_channels(), layer.kernel(), layer.kernel(), 1)
                } else {
                    Shape::new(
                        layer.out_channels(),
                        layer.kernel(),
                        layer.kernel(),
                        layer.in_channels(),
                    )
                };
                let offset = if depthwise {
                    WeightOffset::PerChannel(vec![0; layer.out_channels()])
                } else {
                    WeightOffset::PerLayer(0)
                };
                let w = QConvWeights::new(
                    shape,
                    depthwise,
                    &vec![0; layer.weight_elements()],
                    BitWidth::W4,
                    offset,
                );
                let conv = QConv2d::new(
                    w,
                    ConvGeometry::new(
                        layer.kernel(),
                        layer.kernel(),
                        layer.stride(),
                        Padding::Same,
                    ),
                    identity_requant(layer.out_channels(), assignment.act_bits[i + 1]),
                );
                cur = graph.push_node(layer.name().to_owned(), conv, &[cur]);
                if let Some(s) = spec.skip_ending_at(i) {
                    let add = QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, assignment.res_bits[s]);
                    let skip_src = out_ids[spec.skips()[s].from()];
                    cur = graph.push_node(format!("add{i}"), add, &[cur, skip_src]);
                }
            }
        }
        out_ids.push(cur);
    }
    graph
}

/// The executor's peak-RAM verdict on `assignment`: the liveness-planned
/// high-water mark of the lowered graph (8-bit network input, as always).
pub fn lowered_peak_ram(spec: &NetworkSpec, assignment: &BitAssignment) -> usize {
    let input = spec.input();
    lower_shape_graph(spec, assignment).peak_ram_bytes(input, BitWidth::W8)
}

/// The chain-era pairwise Eq. 7 model (largest input+output pair), kept
/// here as the baseline the DAG-aware model is compared against: it is
/// blind to the skip tensor's extended live range.
pub fn pairwise_peak_bytes(spec: &NetworkSpec, assignment: &BitAssignment) -> usize {
    spec.layers()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            assignment.act_bits[i].bytes_for(l.in_act_elements())
                + assignment.act_bits[i + 1].bytes_for(l.out_act_elements())
        })
        .max()
        .unwrap_or(0)
}

/// Runs `conv` on the blocked GEMM through the graph's dispatch point,
/// `QOp::execute_kernel`, against the given panels, returning the output
/// and the ledger it charged.
pub fn run_blocked(
    conv: &QConv2d,
    panels: &PackedPanels,
    x: &QActivation,
) -> (QActivation, OpCounts) {
    let mut ops = OpCounts::default();
    let out = conv.execute_kernel(
        KernelChoice::BlockedGemm,
        Some(panels),
        &[x],
        &mut ActivationArena::new(),
        &mut ops,
    );
    let OpOutput::Act(y) = out else {
        unreachable!("a convolution yields an activation")
    };
    (y, ops)
}

/// The ledger the blocked GEMM charges on `x`, in closed form from the
/// direct oracle's ledger `od` on the same input: `rows·k·c_o` MACs
/// (padded taps included), one activation load per real tap code
/// (`od.macs / c_o`), one unpack per MAC for sub-byte weights plus one per
/// load for a sub-byte input, one offset subtraction per MAC under
/// per-channel `Zw`, and the oracle's requantization, comparison, store
/// and bias counts.
pub fn blocked_ledger(conv: &QConv2d, x: &QActivation, od: &OpCounts) -> OpCounts {
    let out = conv.output_shape(x.shape());
    let co = out.c as u64;
    let k = (conv.geometry().kernel_area() * x.shape().c) as u64;
    let macs = (out.pixels() * out.n) as u64 * k * co;
    let act_loads = od.macs / co;
    OpCounts {
        macs,
        act_loads,
        unpacks: conv.weights().needs_unpack() as u64 * macs + x.needs_unpack() as u64 * act_loads,
        offset_subs: conv.weights().offset().is_per_channel() as u64 * macs,
        ..*od
    }
}
