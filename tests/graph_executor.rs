//! Executor-refactor guarantees: the `QGraph`-based `IntNetwork` must be
//! *bit-identical* — logits and `OpCounts` — to the hand-rolled
//! layer-by-layer loop it replaced, and its per-layer ledger must fold
//! into the same totals the flat counters report.

use mixq::core::convert::{convert, scheme_granularity, IntNetwork};
use mixq::core::memory::QuantScheme;
use mixq::data::{Dataset, DatasetSpec, SyntheticKind};
use mixq::kernels::{ActivationArena, OpCounts, OpKind, QAvgPool};
use mixq::mcu::CortexM7CycleModel;
use mixq::nn::qat::{MicroCnnSpec, QatNetwork};
use mixq::nn::train::{train, TrainConfig};
use mixq::quant::BitWidth;

fn dataset() -> Dataset {
    DatasetSpec::new(SyntheticKind::Bars, 8, 8, 2, 3)
        .with_samples(64)
        .with_noise(0.05)
        .generate(29)
}

/// Trains a MobileNet-style depthwise-separable micro CNN (standard stem +
/// dw/pw pairs) and converts it under `scheme`.
fn trained_separable(scheme: QuantScheme, bits: BitWidth) -> (IntNetwork, Dataset) {
    let ds = dataset();
    let spec = MicroCnnSpec::separable(8, 8, 2, 3, &[4, 6]);
    let mut net = QatNetwork::build(&spec, 55);
    let _ = train(&mut net, &ds, &TrainConfig::fast(4));
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(scheme));
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, bits);
    }
    net.set_linear_weight_bits(bits);
    let _ = train(&mut net, &ds, &TrainConfig::fast(3));
    let int_net = convert(&net, scheme).expect("trained network converts");
    (int_net, ds)
}

/// The acceptance bar of the refactor: graph-routed inference reproduces
/// the hand-rolled conv-stack loop exactly, op count for op count.
#[test]
fn graph_infer_is_bit_identical_to_hand_rolled_loop() {
    for (scheme, bits) in [
        (QuantScheme::PerChannelIcn, BitWidth::W8),
        (QuantScheme::PerChannelIcn, BitWidth::W4),
        (QuantScheme::PerChannelThresholds, BitWidth::W4),
    ] {
        let (int_net, ds) = trained_separable(scheme, bits);
        for i in 0..8 {
            let image = &ds.sample(i).images;
            let (logits, ops) = int_net.infer(image);

            // The loop the refactor replaced: conv stack → pool → head.
            let mut manual_ops = OpCounts::default();
            let mut x = int_net.quantize_input(image);
            for layer in int_net.layers() {
                x = layer.execute(&x, &mut manual_ops);
            }
            let pooled = QAvgPool.execute(&x, &mut manual_ops);
            let manual_logits = int_net.linear().execute(&pooled, &mut manual_ops);

            assert_eq!(
                logits,
                manual_logits,
                "{scheme} w{} sample {i}",
                bits.bits()
            );
            assert_eq!(ops, manual_ops, "{scheme} w{} sample {i}", bits.bits());
        }
    }
}

#[test]
fn separable_network_lowers_onto_graph_with_depthwise_nodes() {
    let (int_net, ds) = trained_separable(QuantScheme::PerChannelIcn, BitWidth::W8);
    let run = int_net.infer_detailed(&ds.sample(0).images);
    // Stem + (dw, pw) pair + pool + head = 5 nodes for pair_channels [4, 6].
    assert_eq!(run.layers.len(), 5);
    let kinds: Vec<OpKind> = run.layers.iter().map(|l| l.kind).collect();
    assert_eq!(
        kinds,
        [
            OpKind::Conv,
            OpKind::DepthwiseConv,
            OpKind::Conv,
            OpKind::Pool,
            OpKind::Linear
        ]
    );
    // The ledger folds into the flat totals.
    let (_, total) = int_net.infer(&ds.sample(0).images);
    assert_eq!(run.total_ops(), total);
    // And the cycle model prices depthwise nodes at their own rate.
    let model = CortexM7CycleModel::default();
    let breakdown = model.breakdown_from_runs(&run.layers);
    assert_eq!(breakdown.len(), run.layers.len());
    assert_eq!(
        breakdown.iter().map(|l| l.cycles).sum::<u64>(),
        model.cycles_from_runs(&run.layers)
    );
    let dw = &breakdown[1];
    assert!(
        dw.name.starts_with("dw"),
        "node names flow through: {}",
        dw.name
    );
    assert!(dw.cycles > 0 && dw.macs > 0);
}

#[test]
fn accounting_routes_through_the_graph() {
    let (int_net, _) = trained_separable(QuantScheme::PerChannelIcn, BitWidth::W4);
    // flash: network == graph == sum of per-node footprints.
    assert_eq!(int_net.flash_bytes(), int_net.graph().flash_bytes());
    let node_sum: usize = int_net
        .graph()
        .nodes()
        .iter()
        .map(|n| mixq::kernels::QOp::flash_bytes(n.op()))
        .sum();
    assert_eq!(int_net.flash_bytes(), node_sum);
    // peak RAM: the graph walk agrees with the network façade.
    let input = int_net.graph().nodes();
    assert!(!input.is_empty());
    assert!(int_net.peak_ram_bytes() > 0);
}

#[test]
fn arena_reuse_matches_fresh_runs_across_a_dataset() {
    let (int_net, ds) = trained_separable(QuantScheme::PerChannelIcn, BitWidth::W8);
    let mut arena = ActivationArena::new();
    let mut logits = Vec::new();
    for i in 0..6 {
        let x = int_net.quantize_input(&ds.sample(i).images);
        let fresh = int_net.graph().run(x.clone());
        let mut ops = OpCounts::default();
        int_net
            .graph()
            .infer_pooled(x, &mut arena, &mut logits, &mut ops);
        assert_eq!(Some(&logits), fresh.logits.as_ref(), "sample {i}");
        assert_eq!(ops, fresh.total_ops(), "sample {i}");
    }
}
