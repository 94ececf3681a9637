//! Consistency tests across the deployment stack: the *actual* converted
//! network (packed tensors, requant parameters) must agree with the
//! shape-level Table-1 memory model and with the blocked-GEMM kernel
//! dataflow, and the exported C header must account for the same bytes.

mod common;

use mixq::core::convert::{convert, scheme_granularity, IntNetwork};
use mixq::core::export::emit_c_header;
use mixq::core::memory::{network_flash_footprint_with_acts, peak_activation_bytes, QuantScheme};
use mixq::data::{Dataset, DatasetSpec, SyntheticKind};
use mixq::kernels::OpCounts;
use mixq::models::micro::network_spec_of;
use mixq::nn::qat::{MicroCnnSpec, QatNetwork};
use mixq::nn::train::{train, TrainConfig};
use mixq::quant::BitWidth;

fn dataset() -> Dataset {
    DatasetSpec::new(SyntheticKind::Bars, 8, 8, 2, 3)
        .with_samples(96)
        .with_noise(0.05)
        .generate(17)
}

fn trained(scheme: QuantScheme, bits: BitWidth) -> (QatNetwork, IntNetwork, Dataset) {
    let ds = dataset();
    let spec = MicroCnnSpec::new(8, 8, 2, 3, &[6, 8]);
    let mut net = QatNetwork::build(&spec, 23);
    let _ = train(&mut net, &ds, &TrainConfig::fast(4));
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(scheme));
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, bits);
    }
    net.set_linear_weight_bits(bits);
    let _ = train(&mut net, &ds, &TrainConfig::fast(2));
    let int_net = convert(&net, scheme).expect("convertible");
    (net, int_net, ds)
}

#[test]
fn converted_flash_matches_table1_memory_model_pc_icn() {
    // The memory model predicts the converted network's actual bytes for
    // PC+ICN exactly (same datatypes, same packing).
    let (net, int_net, _) = trained(QuantScheme::PerChannelIcn, BitWidth::W4);
    let spec = network_spec_of(&net, "consistency");
    let mut weight_bits = vec![BitWidth::W4; spec.num_layers()];
    // Micro net uses uniform bits; the model takes per-layer anyway.
    weight_bits[spec.num_layers() - 1] = BitWidth::W4;
    let act_bits = vec![BitWidth::W8; spec.num_layers() + 1];
    let model_bytes = network_flash_footprint_with_acts(
        &spec,
        QuantScheme::PerChannelIcn,
        &weight_bits,
        &act_bits,
    );
    let actual = int_net.flash_bytes();
    assert_eq!(
        actual, model_bytes,
        "actual converted bytes must equal the Table-1 model"
    );
}

#[test]
fn converted_peak_ram_matches_memory_model() {
    let (net, int_net, _) = trained(QuantScheme::PerChannelIcn, BitWidth::W8);
    let spec = network_spec_of(&net, "consistency");
    let act_bits = vec![BitWidth::W8; spec.num_layers() + 1];
    let model_peak = peak_activation_bytes(&spec, &act_bits);
    let actual_peak = int_net.peak_ram_bytes();
    assert_eq!(actual_peak, model_peak, "Eq. 7 peaks must agree");
}

#[test]
fn blocked_path_matches_direct_on_converted_network() {
    // Run the first (standard) conv layer of a real converted network
    // through both dataflows.
    let (_, int_net, ds) = trained(QuantScheme::PerChannelIcn, BitWidth::W4);
    for i in 0..4 {
        let x = int_net.quantize_input(&ds.sample(i).images);
        let layer = &int_net.layers()[0];
        assert!(!layer.weights().is_depthwise());
        let mut od = OpCounts::default();
        let direct = layer.execute(&x, &mut od);
        let (blocked, ob) = common::run_blocked(layer, &layer.prepack_panels(), &x);
        assert_eq!(direct, blocked, "sample {i}");
        assert_eq!(
            ob,
            common::blocked_ledger(layer, &x, &od),
            "blocked ledger, sample {i}"
        );
    }
}

#[test]
fn exported_header_accounts_for_flash_bytes() {
    for scheme in QuantScheme::ALL {
        let (_, int_net, _) = trained(scheme, BitWidth::W4);
        let header = emit_c_header(&int_net, "consistency");
        // Parse the declared array lengths back out of the header and
        // compare byte totals with flash_bytes().
        let mut total = 0usize;
        for line in header.lines() {
            let Some(rest) = line.strip_prefix("static const ") else {
                continue;
            };
            let elem_bytes = if rest.starts_with("uint8_t") || rest.starts_with("int8_t") {
                1
            } else if rest.starts_with("int16_t") || rest.starts_with("uint16_t") {
                2
            } else if rest.starts_with("int32_t") {
                4
            } else {
                continue;
            };
            if let Some(open) = rest.find('[') {
                let close = rest[open..].find(']').map(|c| open + c);
                if let Some(close) = close {
                    let n: usize = rest[open + 1..close].parse().unwrap_or(0);
                    total += n * elem_bytes;
                }
            } else if rest.contains('=') {
                // Scalar declaration.
                total += elem_bytes;
            }
        }
        // Counts such as thresholds per channel are `#define`s, so every
        // `static const` is an accounted parameter.
        assert_eq!(
            total,
            int_net.flash_bytes(),
            "{scheme}: header arrays must account for exactly the flash footprint"
        );
    }
}

#[test]
fn integer_kernel_macs_match_analytic_spec_on_mobilenet_topology() {
    // Build the paper's exact MobileNetV1 topology at reduced scale, run
    // integer inference layer by layer, and reconcile the kernels' counted
    // MACs with the shape-level analytic model that drives Figures 2–3:
    // pointwise (1×1) layers must match *exactly*; 3×3 SAME layers may
    // undercount only by the padded border taps.
    use mixq::models::micro::mobilenet_like;
    let spec = mobilenet_like(32, 2, 16, 4);
    let ds = DatasetSpec::new(SyntheticKind::Gratings, 32, 32, 2, 4)
        .with_samples(4)
        .generate(5);
    let mut net = QatNetwork::build(&spec, 3);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(QuantScheme::PerChannelIcn));
    let int_net = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
    let ns = network_spec_of(&net, "mini-mobilenet");
    // Exact expected MACs of the direct kernel: per output pixel, only the
    // in-bounds taps of the SAME-padded window multiply.
    fn direct_macs(l: &mixq::models::LayerSpec) -> u64 {
        let k = l.kernel();
        let s = l.stride();
        let (h, w) = (l.in_h() as isize, l.in_w() as isize);
        let pad = {
            // TF SAME: total pad = (out-1)*s + k - in, split top/left = pad/2.
            let pad_h = ((l.out_h() as isize - 1) * s as isize + k as isize - h).max(0);
            let pad_w = ((l.out_w() as isize - 1) * s as isize + k as isize - w).max(0);
            (pad_h / 2, pad_w / 2)
        };
        let per_tap = match l.kind() {
            mixq::models::LayerKind::Conv => l.in_channels() as u64,
            mixq::models::LayerKind::DepthwiseConv => 1,
            mixq::models::LayerKind::Linear => return l.macs() as u64,
        };
        let mut taps = 0u64;
        for oy in 0..l.out_h() {
            for ox in 0..l.out_w() {
                for ky in 0..k {
                    let iy = (oy * s + ky) as isize - pad.0;
                    if iy < 0 || iy >= h {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * s + kx) as isize - pad.1;
                        if ix >= 0 && ix < w {
                            taps += 1;
                        }
                    }
                }
            }
        }
        taps * per_tap * l.out_channels() as u64
    }

    let mut x = int_net.quantize_input(&ds.sample(0).images);
    let mut total_counted = 0u64;
    let mut total_analytic = 0u64;
    for (layer, lspec) in int_net.layers().iter().zip(ns.layers()) {
        let mut ops = OpCounts::default();
        let y = layer.execute(&x, &mut ops);
        let analytic = lspec.macs() as u64;
        assert_eq!(
            ops.macs,
            direct_macs(lspec),
            "{}: counted MACs must equal the exact valid-tap count",
            lspec.name()
        );
        if lspec.kernel() == 1 {
            assert_eq!(ops.macs, analytic, "{}: 1x1 has no padding", lspec.name());
        } else {
            assert!(ops.macs <= analytic, "{}", lspec.name());
        }
        total_counted += ops.macs;
        total_analytic += analytic;
        x = y;
    }
    // Network-level agreement: the analytic model over-counts only the
    // padded border taps.
    let ratio = total_counted as f64 / total_analytic as f64;
    assert!(
        (0.75..=1.0).contains(&ratio),
        "counted/analytic = {ratio:.4}"
    );
}

#[test]
fn infer_and_evaluate_agree() {
    let (_, int_net, ds) = trained(QuantScheme::PerChannelIcn, BitWidth::W8);
    let (acc, _) = int_net.evaluate(&ds);
    let manual = (0..ds.len())
        .filter(|&i| int_net.predict(&ds.sample(i).images) == ds.labels()[i])
        .count() as f32
        / ds.len() as f32;
    assert!((acc - manual).abs() < 1e-6);
}

#[test]
fn modeled_cycles_invariant_under_host_execution_settings() {
    // The Cortex-M7 cycle model prices the *abstract* ledger (MACs,
    // unpacks, requants...), never the host dataflow — so the modeled
    // deployment latency of one walk must come out identical whether the
    // host ran forced-scalar or any auto-detected SIMD level.
    use mixq::core::convert::convert_with_backend;
    use mixq::kernels::{simd, ActivationArena, SimdLevel, TiledBackend};
    use mixq::mcu::CortexM7CycleModel;

    let ds = dataset();
    let spec = MicroCnnSpec::new(8, 8, 2, 3, &[6, 8]);
    let mut net = QatNetwork::build(&spec, 23);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(scheme_granularity(QuantScheme::PerChannelIcn));
    let int_net = convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("convertible");

    let walk = |forced: Option<SimdLevel>| -> (Vec<i32>, OpCounts) {
        simd::set_forced(forced);
        let mut arena = ActivationArena::new();
        let mut logits = Vec::new();
        let mut ops = OpCounts::default();
        let x = int_net.quantize_input_items_pooled(ds.images(), 0, 4, &mut arena);
        int_net
            .graph()
            .infer_pooled(x, &mut arena, &mut logits, &mut ops);
        simd::set_forced(None);
        (logits, ops)
    };

    let model = CortexM7CycleModel::default();
    let (base_logits, base_ops) = walk(Some(SimdLevel::Scalar));
    let base_cycles = model.cycles_from_counts(&base_ops);
    assert!(base_cycles > 0);
    // Sweep every SIMD level the host can express (each one routes the
    // blocked GEMM through the vectorized requantization epilogue): codes,
    // ledger and modeled cycles must never move.
    let mut settings: Vec<Option<SimdLevel>> = vec![None];
    for level in [SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon] {
        if level.available() {
            settings.push(Some(level));
        }
    }
    for forced in settings {
        let (logits, ops) = walk(forced);
        assert_eq!(logits, base_logits, "{forced:?} logits");
        assert_eq!(ops, base_ops, "{forced:?} ledger");
        assert_eq!(
            model.cycles_from_counts(&ops),
            base_cycles,
            "{forced:?} modeled cycles"
        );
    }
}
