//! Backend / kernel-selection integration tests: the memory model and the
//! Cortex-M7 cycle model must agree with the kernel each node *actually*
//! selected — for both shipped backends — and execution must stay
//! bit-identical across selections.

use mixq::core::convert::{convert_with_backend, scheme_granularity};
use mixq::core::memory::QuantScheme;
use mixq::data::{DatasetSpec, SyntheticKind};
use mixq::kernels::{
    im2col_scratch_bytes, AnyOp, Backend, KernelChoice, OpKind, PackedPanels, QActivation, QAdd,
    QAvgPool, QConv2d, QConvWeights, QGraph, QLinear, QOp, ReferenceBackend, Requantizer,
    TiledBackend, WeightOffset,
};
use mixq::mcu::CortexM7CycleModel;
use mixq::models::micro::mobilenet_like_residual;
use mixq::nn::qat::QatNetwork;
use mixq::quant::{BitWidth, FixedPointMultiplier};
use mixq::tensor::{ConvGeometry, Padding, Shape};

fn icn(co: usize, bits: BitWidth) -> Requantizer {
    Requantizer::icn(
        vec![1; co],
        vec![FixedPointMultiplier::from_real(0.01); co],
        0,
        bits,
    )
}

fn depthwise(c: usize) -> QConv2d {
    let shape = Shape::new(c, 3, 3, 1);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 16) as u8).collect();
    QConv2d::new(
        QConvWeights::new(
            shape,
            true,
            &codes,
            BitWidth::W4,
            WeightOffset::PerChannel(vec![1; c]),
        ),
        ConvGeometry::new(3, 3, 1, Padding::Same),
        icn(c, BitWidth::W8),
    )
}

fn pointwise(ci: usize, co: usize) -> QConv2d {
    let shape = Shape::new(co, 1, 1, ci);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 16) as u8).collect();
    QConv2d::new(
        QConvWeights::new(
            shape,
            false,
            &codes,
            BitWidth::W4,
            WeightOffset::PerChannel((0..co).map(|c| c as i16 % 3).collect()),
        ),
        ConvGeometry::pointwise(),
        icn(co, BitWidth::W8),
    )
}

fn dense3x3(ci: usize, co: usize) -> QConv2d {
    let shape = Shape::new(co, 3, 3, ci);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 4) as u8).collect();
    QConv2d::new(
        QConvWeights::new(
            shape,
            false,
            &codes,
            BitWidth::W2,
            WeightOffset::PerLayer(1),
        ),
        ConvGeometry::new(3, 3, 1, Padding::Same),
        icn(co, BitWidth::W8),
    )
}

fn head(ci: usize, classes: usize) -> QLinear {
    let codes: Vec<u8> = (0..classes * ci).map(|i| (i % 7) as u8).collect();
    QLinear::new(
        QConvWeights::new(
            Shape::new(classes, 1, 1, ci),
            false,
            &codes,
            BitWidth::W4,
            WeightOffset::PerLayer(3),
        ),
        vec![5; classes],
        None,
    )
}

/// A residual depthwise-separable stack: stem conv, dw/pw pair with an
/// identity skip, pool, classifier.
fn residual_graph(input: Shape) -> QGraph {
    let mut g = QGraph::with_input(input, BitWidth::W8);
    let stem = g.push("stem", dense3x3(input.c, 4));
    let dw = g.push_node("dw", depthwise(4), &[stem]);
    let pw = g.push_node("pw", pointwise(4, 4), &[dw]);
    g.push_node(
        "res",
        QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8),
        &[pw, stem],
    );
    g.push("pool", QAvgPool);
    g.push("fc", head(4, 3));
    g
}

fn input_act(shape: Shape) -> QActivation {
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 19) as u8).collect();
    QActivation::from_codes(shape, &codes, BitWidth::W8, 2)
}

/// Recomputes `peak_scratch_bytes` from each node's actual choice by hand:
/// blocked-GEMM convs price their im2col expansion, except on the
/// pointwise identity path over an 8-bit input, which borrows the packed
/// input zero-copy; the blocked head borrows an 8-bit input and unpacks a
/// sub-byte one, `n·c_i` codes.
fn manual_peak_scratch(g: &QGraph, input: Shape) -> usize {
    let mut shapes = vec![input];
    let mut bits = vec![BitWidth::W8];
    let mut peak = 0usize;
    for node in g.nodes() {
        let in_shapes: Vec<Shape> = node.inputs().iter().map(|&t| shapes[t]).collect();
        let in_bits: Vec<BitWidth> = node.inputs().iter().map(|&t| bits[t]).collect();
        let expansion = match (node.op(), node.choice()) {
            (AnyOp::Conv(c), KernelChoice::BlockedGemm) if !c.blocked_borrows_input(in_bits[0]) => {
                im2col_scratch_bytes(c, in_shapes[0])
            }
            (AnyOp::Linear(h), KernelChoice::BlockedGemm) if in_bits[0] != BitWidth::W8 => {
                in_shapes[0].n * h.in_features()
            }
            _ => 0,
        };
        peak = peak.max(expansion);
        shapes.push(node.op().output_shape(&in_shapes));
        bits.push(node.op().out_bits(&in_bits));
    }
    peak
}

#[test]
fn cycle_model_agrees_with_selected_kernels_for_both_backends() {
    let input = Shape::feature_map(8, 8, 2);
    let model = CortexM7CycleModel::default();
    for backend in [
        &ReferenceBackend as &dyn Backend,
        &TiledBackend::default() as &dyn Backend,
    ] {
        let mut g = residual_graph(input);
        g.select_kernels(backend);
        let run = g.run(input_act(input));
        let breakdown = model.breakdown_from_runs(&run.layers);
        for (layer, latency) in run.layers.iter().zip(&breakdown) {
            // The breakdown prices exactly the kernel the node selected.
            assert_eq!(
                latency.cycles,
                model.kernel_cycles(layer.kind, layer.choice, &layer.ops),
                "{} ({}, {})",
                layer.name,
                backend.name(),
                layer.choice
            );
        }
        assert_eq!(
            model.cycles_from_runs(&run.layers),
            breakdown.iter().map(|l| l.cycles).sum::<u64>()
        );
        // The run records the graph's resolved choices node for node.
        let recorded: Vec<KernelChoice> = run.layers.iter().map(|l| l.choice).collect();
        assert_eq!(recorded, g.kernel_choices(), "{}", backend.name());
    }
}

#[test]
fn tiled_selection_lowers_cycles_on_dense_convs_and_the_head() {
    let input = Shape::feature_map(8, 8, 2);
    let reference = residual_graph(input);
    let mut tiled = residual_graph(input);
    tiled.select_kernels(&TiledBackend::default());
    assert_eq!(
        tiled.kernel_choices(),
        vec![
            KernelChoice::BlockedGemm, // stem: dense 3x3
            KernelChoice::DirectConv,  // depthwise
            KernelChoice::BlockedGemm, // pointwise
            KernelChoice::DirectConv,  // residual add
            KernelChoice::DirectConv,  // pool
            KernelChoice::BlockedGemm, // head: GEMV over an 8-bit input
        ]
    );
    let model = CortexM7CycleModel::default();
    let run_ref = reference.run(input_act(input));
    let run_tiled = tiled.run(input_act(input));
    let br_ref = model.breakdown_from_runs(&run_ref.layers);
    let br_tiled = model.breakdown_from_runs(&run_tiled.layers);
    // The pointwise node has no padded taps: same MACs, cheaper rate.
    assert_eq!(run_ref.layers[2].ops.macs, run_tiled.layers[2].ops.macs);
    assert!(
        br_tiled[2].cycles < br_ref[2].cycles,
        "blocked GEMM must model cheaper than direct: {} vs {}",
        br_tiled[2].cycles,
        br_ref[2].cycles
    );
    // Single-kernel ops are priced identically under both backends, and
    // so is the head: the model prices `Linear` at one rate whatever the
    // choice, and both kernels charge the same ledger.
    for i in [1usize, 3, 4, 5] {
        assert_eq!(br_ref[i].cycles, br_tiled[i].cycles, "node {i}");
        assert_ne!(run_ref.layers[i].kind, OpKind::Conv);
    }
    assert_eq!(run_ref.layers[5].ops, run_tiled.layers[5].ops);
    assert_eq!(run_ref.logits, run_tiled.logits);
}

#[test]
fn scratch_and_ram_models_track_actual_selection() {
    let input = Shape::feature_map(8, 8, 2);
    for backend in [
        &ReferenceBackend as &dyn Backend,
        &TiledBackend::default() as &dyn Backend,
    ] {
        let mut g = residual_graph(input);
        g.select_kernels(backend);
        assert_eq!(
            g.peak_scratch_bytes(input, BitWidth::W8),
            manual_peak_scratch(&g, input),
            "{}",
            backend.name()
        );
        // Eq. 7 peak RAM is dataflow-independent: live activations do not
        // change with the kernel choice, and the measured high-water mark
        // agrees exactly under both backends.
        let run = g.run(input_act(input));
        assert_eq!(
            run.peak_live_bytes,
            g.peak_ram_bytes(input, BitWidth::W8),
            "{}",
            backend.name()
        );
    }
    // Concrete scratch numbers: reference prices nothing; tiled prices the
    // stem's 3×3 expansion (64 pixels × 9 taps × 2 channels) — the
    // pointwise node borrows its 8-bit input zero-copy and prices zero.
    let reference = residual_graph(input);
    assert_eq!(reference.peak_scratch_bytes(input, BitWidth::W8), 0);
    let mut tiled = residual_graph(input);
    tiled.select_kernels(&TiledBackend::default());
    assert_eq!(tiled.peak_scratch_bytes(input, BitWidth::W8), 8 * 8 * 9 * 2);
}

/// Asserts the one-cache rule on every node: panels (and a one-time
/// packing ledger) exactly on the blocked-GEMM nodes, nothing elsewhere.
fn assert_panels_follow_choice(g: &QGraph) {
    for node in g.nodes() {
        let blocked = node.choice() == KernelChoice::BlockedGemm;
        assert_eq!(node.prepacked().is_some(), blocked, "{}", node.name());
        assert_eq!(
            node.prepack_ops() != Default::default(),
            blocked,
            "{}",
            node.name()
        );
    }
}

#[test]
fn prepack_caches_follow_the_selected_kernel() {
    let input = Shape::feature_map(8, 8, 2);
    let mut g = residual_graph(input);
    // Pushing builds nothing; selection builds the panels of the blocked
    // nodes only (stem, pointwise, head) — the direct W4 depthwise and the
    // weight-free ops hold no cache.
    assert_eq!(g.prepacked_bytes(), 0);
    g.select_kernels(&TiledBackend::default());
    assert_panels_follow_choice(&g);
    let blocked: Vec<&str> = g
        .nodes()
        .iter()
        .filter(|n| n.prepacked().is_some())
        .map(|n| n.name())
        .collect();
    assert_eq!(blocked, ["stem", "pw", "fc"]);
    // The one-time packing ledgers reach the run, and the cycle model
    // reports them separately from the steady state.
    let run = g.run(input_act(input));
    let model = CortexM7CycleModel::default();
    let breakdown = model.breakdown_from_runs(&run.layers);
    for (node, (lr, lat)) in g.nodes().iter().zip(run.layers.iter().zip(&breakdown)) {
        assert_eq!(lr.prepack, node.prepack_ops(), "{}", node.name());
        assert_eq!(
            lat.one_time_cycles,
            model.prepack_cycles(&lr.prepack),
            "{}",
            node.name()
        );
    }
    assert!(model.one_time_packing_cycles(&run.layers) > 0);
    assert!(g.prepacked_bytes() > 0);
    let first: Vec<Option<PackedPanels>> =
        g.nodes().iter().map(|n| n.prepacked().cloned()).collect();

    // Retargeting to the reference backend leaves no cache at all, and
    // the run is bit-identical: the abstract op counts describe the
    // deployed algorithm, not the host-side caching.
    let mut retargeted = g.clone();
    retargeted.select_kernels(&ReferenceBackend);
    assert_panels_follow_choice(&retargeted);
    assert_eq!(retargeted.prepacked_bytes(), 0);
    let run_ref = retargeted.run(input_act(input));
    assert_eq!(run.logits, run_ref.logits);
    assert!(run_ref
        .layers
        .iter()
        .all(|l| l.prepack == Default::default()));

    // Retargeting back rebuilds panels equal to the first build, and
    // re-selecting the same backend keeps them.
    retargeted.select_kernels(&TiledBackend::default());
    let rebuilt: Vec<Option<PackedPanels>> = retargeted
        .nodes()
        .iter()
        .map(|n| n.prepacked().cloned())
        .collect();
    assert_eq!(rebuilt, first);
    retargeted.select_kernels(&TiledBackend::default());
    assert_eq!(retargeted, g);

    // A tiled conversion of a network with sub-byte weights everywhere
    // builds panels for its blocked nodes only: its direct nodes, the W4
    // depthwise convs among them, hold no cache and no packing ledger.
    let spec = mobilenet_like_residual(32, 2, 8, 3);
    let ds = DatasetSpec::new(SyntheticKind::Bars, 32, 32, 2, 3)
        .with_samples(2)
        .generate(5);
    let mut net = QatNetwork::build(&spec, 11);
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, BitWidth::W4);
    }
    net.set_linear_weight_bits(BitWidth::W4);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(QuantScheme::PerChannelIcn));
    let tiled = convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("calibrated network converts");
    assert_panels_follow_choice(tiled.graph());
    assert!(tiled.graph().nodes().iter().any(|n| {
        n.op().kind() == OpKind::DepthwiseConv && n.choice() == KernelChoice::DirectConv
    }));
    assert!(tiled.kernel_choices().contains(&KernelChoice::BlockedGemm));
}

#[test]
fn tiled_backend_rates_mirror_cycle_model() {
    // TiledBackend's selection constants are hand-mirrored copies of the
    // Cortex-M7 model's per-choice rates (the kernels crate cannot depend
    // on mixq-mcu). This assertion makes tuning one side without the other
    // fail loudly instead of silently diverging selection from pricing.
    let model = CortexM7CycleModel::default();
    assert_eq!(TiledBackend::DIRECT_MAC_CYCLES, model.conv_cycles_per_mac);
    assert_eq!(
        TiledBackend::BLOCKED_MAC_CYCLES,
        model.blocked_gemm_cycles_per_mac
    );
}
