//! DAG-executor guarantees: residual (MobileNetV2-style) networks train,
//! convert and run integer inference end to end through `QGraph`; the
//! liveness planner's `peak_ram_bytes` matches the executor's measured
//! high-water mark on both chain and residual graphs; parallel batch
//! evaluation is bit-identical to the sequential path; and saturated-INT16
//! threshold deployments execute.

use mixq::core::convert::{convert, scheme_granularity, IntNetwork};
use mixq::core::memory::QuantScheme;
use mixq::core::pipeline::prediction_agreement;
use mixq::data::{Dataset, DatasetSpec, SyntheticKind};
use mixq::kernels::{
    ActivationArena, AnyOp, KernelChoice, OpCounts, OpKind, OpOutput, QActivation, QOp,
    TiledBackend,
};
use mixq::mcu::CortexM7CycleModel;
use mixq::models::micro::mobilenet_like_residual;
use mixq::nn::qat::{BlockSpec, MicroCnnSpec, QatNetwork};
use mixq::nn::train::{train, TrainConfig};
use mixq::nn::ConvKind;
use mixq::quant::BitWidth;

fn residual_micro_spec() -> MicroCnnSpec {
    // Stem + depthwise/pointwise pair at constant shape, with an identity
    // skip around the pair — one MobileNetV2-ish bottleneck.
    let std_block = |c: usize, kernel: usize| BlockSpec {
        out_channels: c,
        stride: 1,
        kind: ConvKind::Standard,
        kernel,
    };
    let dw_block = |c: usize| BlockSpec {
        out_channels: c,
        stride: 1,
        kind: ConvKind::Depthwise,
        kernel: 3,
    };
    MicroCnnSpec::new(10, 10, 2, 3, &[6])
        .with_blocks(vec![std_block(6, 3), dw_block(6), std_block(6, 1)])
        .with_residual(0, 2)
}

fn dataset() -> Dataset {
    DatasetSpec::new(SyntheticKind::Bars, 10, 10, 2, 3)
        .with_samples(60)
        .with_noise(0.05)
        .generate(41)
}

fn trained_residual(scheme: QuantScheme, bits: BitWidth) -> (QatNetwork, IntNetwork, Dataset) {
    let ds = dataset();
    let spec = residual_micro_spec();
    let mut net = QatNetwork::build(&spec, 61);
    let _ = train(&mut net, &ds, &TrainConfig::fast(4));
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(scheme));
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, bits);
    }
    net.set_linear_weight_bits(bits);
    let _ = train(&mut net, &ds, &TrainConfig::fast(3));
    let int_net = convert(&net, scheme).expect("residual network converts");
    (net, int_net, ds)
}

/// The acceptance bar of the DAG refactor: a trained residual network
/// lowers onto the graph with a `QAdd` join and its integer predictions
/// track the fake-quantized network, while the add node's ledger is priced
/// by the cycle model.
#[test]
fn residual_network_lowers_and_agrees() {
    let (net, int_net, ds) = trained_residual(QuantScheme::PerChannelIcn, BitWidth::W8);
    // Topology: 3 convs + add + pool + head.
    assert_eq!(int_net.graph().len(), 6);
    let adds: Vec<_> = int_net
        .graph()
        .nodes()
        .iter()
        .filter(|n| matches!(n.op(), AnyOp::Add(_)))
        .collect();
    assert_eq!(adds.len(), 1);
    // The join consumes the pair's pointwise output and the stem output.
    assert_eq!(adds[0].inputs(), &[3, 1]);

    let agreement = prediction_agreement(&net, &int_net, &ds);
    assert!(
        agreement > 0.85,
        "integer residual graph diverged: {agreement}"
    );

    // The add node's ledger: requantization traffic, zero MACs, and the
    // cycle model prices it.
    let run = int_net.infer_detailed(&ds.sample(0).images);
    let add_run = run
        .layers
        .iter()
        .find(|l| l.kind == OpKind::Add)
        .expect("add node executed");
    assert_eq!(add_run.ops.macs, 0);
    assert!(add_run.ops.requants > 0);
    let model = CortexM7CycleModel::default();
    let breakdown = model.breakdown_from_runs(&run.layers);
    let add_latency = breakdown
        .iter()
        .zip(&run.layers)
        .find(|(_, l)| l.kind == OpKind::Add)
        .expect("add priced")
        .0;
    assert!(add_latency.cycles > 0);
    assert_eq!(
        breakdown.iter().map(|l| l.cycles).sum::<u64>(),
        model.cycles_from_runs(&run.layers)
    );
}

/// Planner-reported peak RAM must match the measured high-water mark on
/// both chain and residual graphs — and the residual skip must actually
/// cost RAM beyond the chain's double-buffered pair.
#[test]
fn planner_peak_matches_measured_high_water_mark() {
    // Residual graph.
    let (_, int_net, ds) = trained_residual(QuantScheme::PerChannelIcn, BitWidth::W8);
    let run = int_net.infer_detailed(&ds.sample(0).images);
    assert_eq!(run.peak_live_bytes, int_net.peak_ram_bytes());

    // Chain graph (no residual): same invariant.
    let spec = MicroCnnSpec::separable(8, 8, 2, 3, &[4, 6]);
    let mut net = QatNetwork::build(&spec, 55);
    let ds8 = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 2, 3)
        .with_samples(32)
        .generate(29);
    let _ = train(&mut net, &ds8, &TrainConfig::fast(2));
    net.calibrate_input(ds8.images());
    net.enable_fake_quant(scheme_granularity(QuantScheme::PerChannelIcn));
    let chain = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
    let chain_run = chain.infer_detailed(&ds8.sample(0).images);
    assert_eq!(chain_run.peak_live_bytes, chain.peak_ram_bytes());
}

/// A trained MobileNet-like model with residual bottlenecks lowers through
/// all 27 conv layers plus the `QAdd` joins and runs integer inference end
/// to end.
#[test]
fn mobilenet_like_residual_runs_integer_inference_end_to_end() {
    let spec = mobilenet_like_residual(32, 2, 8, 3);
    assert!(!spec.residuals().is_empty(), "variant declares skips");
    let ds = DatasetSpec::new(SyntheticKind::Bars, 32, 32, 2, 3)
        .with_samples(12)
        .with_noise(0.05)
        .generate(77);
    let mut net = QatNetwork::build(&spec, 99);
    assert_eq!(net.num_blocks(), 27, "MobileNetV1 stem + 13 pairs");
    let _ = train(&mut net, &ds, &TrainConfig::fast(1));
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(QuantScheme::PerChannelIcn));
    let _ = train(&mut net, &ds, &TrainConfig::fast(1));
    let int_net = convert(&net, QuantScheme::PerChannelIcn).expect("mobilenet converts");

    let adds = int_net
        .graph()
        .nodes()
        .iter()
        .filter(|n| matches!(n.op(), AnyOp::Add(_)))
        .count();
    assert_eq!(adds, spec.residuals().len());
    assert_eq!(int_net.graph().len(), 27 + adds + 2);
    assert_eq!(int_net.layers().len(), 27);

    let run = int_net.infer_detailed(&ds.sample(0).images);
    assert_eq!(run.layers.len(), int_net.graph().len());
    assert_eq!(run.clone().into_logits().len(), 3);
    assert_eq!(run.peak_live_bytes, int_net.peak_ram_bytes());
    assert!(run.total_ops().macs > 0);
    // Flash accounting covers the adds too.
    let node_sum: usize = int_net
        .graph()
        .nodes()
        .iter()
        .map(|n| QOp::flash_bytes(n.op()))
        .sum();
    assert_eq!(int_net.flash_bytes(), node_sum);
}

/// Replaying a converted residual MobileNet node by node through the
/// public per-node entry point — `QOp::execute_kernel` on each node's
/// resolved choice and prepacked weights, recycling every tensor at its
/// last use, as perfbench's traced walk does — reproduces `QGraph::run`:
/// the logits, and each node's ledger and activation bytes, on both
/// backends at batch 1 and 4. The library's own loop writes the
/// classifier head's logits straight into the caller's buffer, never
/// through `QOp::execute_kernel`, so this is what keeps the head's
/// `execute_kernel` under test.
#[test]
fn node_by_node_replay_matches_run() {
    let spec = mobilenet_like_residual(32, 2, 8, 3);
    let ds = DatasetSpec::new(SyntheticKind::Bars, 32, 32, 2, 3)
        .with_samples(4)
        .generate(77);
    let mut net = QatNetwork::build(&spec, 99);
    // 4-bit weights everywhere and a 4-bit stem output, so the replay
    // crosses sub-byte unpacking and a depthwise node on a 4-bit input.
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, BitWidth::W4);
    }
    net.set_act_bits(0, BitWidth::W4);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(QuantScheme::PerChannelIcn));
    let reference = convert(&net, QuantScheme::PerChannelIcn).expect("mobilenet converts");
    let mut tiled = reference.clone();
    tiled.select_backend(&TiledBackend::default());
    assert!(tiled.kernel_choices().contains(&KernelChoice::BlockedGemm));

    for (backend, int_net) in [("reference", &reference), ("tiled", &tiled)] {
        let graph = int_net.graph();
        let last = graph.last_uses();
        for batch in [1, 4] {
            let mut arena = ActivationArena::new();
            let x = int_net.quantize_input_items_pooled(ds.images(), 0, batch, &mut arena);
            let run = graph.run(x.clone());
            assert_eq!(run.layers.len(), graph.len());
            let mut slots: Vec<Option<QActivation>> = vec![None; graph.len() + 1];
            slots[0] = Some(x);
            let mut logits = None;
            for (i, (node, layer)) in graph.nodes().iter().zip(&run.layers).enumerate() {
                let at = format!("{backend} batch {batch} node `{}`", node.name());
                let ins: Vec<&QActivation> = node
                    .inputs()
                    .iter()
                    .map(|&t| slots[t].as_ref().expect("live until its last use"))
                    .collect();
                let in_bytes: usize = ins.iter().map(|a| a.byte_len()).sum();
                let mut ops = OpCounts::default();
                let out = node.op().execute_kernel(
                    node.choice(),
                    node.prepacked(),
                    &ins,
                    &mut arena,
                    &mut ops,
                );
                let out_bytes = match out {
                    OpOutput::Act(a) => {
                        let bytes = a.byte_len();
                        slots[i + 1] = Some(a);
                        bytes
                    }
                    OpOutput::Logits(l) => {
                        let bytes = 4 * l.len();
                        logits = Some(l);
                        bytes
                    }
                };
                assert_eq!(ops, layer.ops, "{at} ops");
                assert_eq!(in_bytes, layer.in_bytes, "{at} in_bytes");
                assert_eq!(out_bytes, layer.out_bytes, "{at} out_bytes");
                for &t in node.inputs().iter().chain([i + 1].iter()) {
                    if last[t] == i {
                        if let Some(a) = slots[t].take() {
                            arena.recycle(a);
                        }
                    }
                }
            }
            assert!(logits.is_some(), "{backend} batch {batch}: the head ran");
            assert_eq!(logits, run.logits, "{backend} batch {batch} logits");
        }
    }
}

/// The batch-sharded evaluator must reproduce the sequential accuracy and
/// op ledger exactly on both backends, for batch sizes that divide the
/// dataset and one that leaves a partial last batch, and for worker counts
/// that divide the batch count and ones that do not.
#[test]
fn parallel_evaluate_is_identical_to_sequential() {
    let (_, int_net, ds) = trained_residual(QuantScheme::PerChannelIcn, BitWidth::W4);
    let mut tiled = int_net.clone();
    tiled.select_backend(&TiledBackend::default());
    assert_ne!(
        tiled.kernel_choices(),
        int_net.kernel_choices(),
        "the tiled clone lowers some node onto another kernel"
    );
    for (backend, net) in [("reference", &int_net), ("tiled", &tiled)] {
        for batch in [1, 3, 8] {
            let (acc_seq, ops_seq) = net.evaluate_batch(&ds, batch);
            for workers in [1, 3, 4, 64] {
                let (acc_par, ops_par) = net.evaluate_parallel_batch(&ds, workers, batch);
                let at = format!("{backend} batch {batch}, {workers} workers");
                assert_eq!(acc_seq, acc_par, "{at}");
                assert_eq!(ops_seq, ops_par, "{at}");
            }
        }
    }
}

/// Saturating the threshold tables to INT16 yields a runnable deployment;
/// on a micro net whose thresholds fit INT16 it is lossless, and the
/// rewrite leaves non-threshold schemes untouched.
#[test]
fn saturated_threshold_deployment_executes() {
    let (_, thr, ds) = trained_residual(QuantScheme::PerChannelThresholds, BitWidth::W4);
    let sat = thr.with_saturated_thresholds();
    let (acc_full, _) = thr.evaluate(&ds);
    let (acc_sat, _) = sat.evaluate(&ds);
    // The saturated deployment runs end to end; accuracy may only degrade.
    assert!(acc_sat <= acc_full + 1e-6);
    assert!(acc_sat >= 0.0);
    // ICN networks carry no tables: the rewrite is the identity.
    let (_, icn, _) = trained_residual(QuantScheme::PerChannelIcn, BitWidth::W4);
    assert_eq!(icn.with_saturated_thresholds(), icn);
}
