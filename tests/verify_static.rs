//! Static-verification integration: every lowered micro-model graph must
//! verify on both backends under every scheme, the verifier's tight Φ
//! intervals must be achieved by concrete adversarial inputs evaluated
//! through the real folded-accumulator formula, and the deploy pipeline
//! must refuse nothing that converts honestly.

use mixq::core::convert::convert_with_backend;
use mixq::core::memory::QuantScheme;
use mixq::data::{DatasetSpec, SyntheticKind};
use mixq::kernels::backend::{Backend, ReferenceBackend, TiledBackend};
use mixq::kernels::AnyOp;
use mixq::models::micro::{folding_stress_cnn, mobilenet_like_residual, quickstart_cnn};
use mixq::nn::qat::{MicroCnnSpec, QatNetwork};
use mixq::quant::Granularity;
use mixq::verify::{conv_phi_intervals, verify_graph, Interval};

fn calibrated(spec: &MicroCnnSpec, seed: u64) -> QatNetwork {
    let input = spec.input_shape();
    let ds = DatasetSpec::new(SyntheticKind::Bars, input.h, input.w, input.c, 4)
        .with_samples(8)
        .with_noise(0.05)
        .generate(seed);
    let mut net = QatNetwork::build(spec, seed);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(Granularity::PerChannel);
    net
}

#[test]
fn zoo_graphs_verify_on_both_backends() {
    let backends: [(&dyn Backend, &str); 2] = [
        (&ReferenceBackend, "ref"),
        (&TiledBackend::default(), "tiled"),
    ];
    let models: [(&str, MicroCnnSpec); 3] = [
        ("residual", mobilenet_like_residual(16, 2, 8, 4)),
        ("quickstart", quickstart_cnn(4)),
        ("folding", folding_stress_cnn(2, 4)),
    ];
    for (model, spec) in &models {
        let net = calibrated(spec, 77);
        for scheme in QuantScheme::ALL {
            for (backend, btag) in backends {
                let int = convert_with_backend(&net, scheme, backend).expect("converts");
                let g = int.graph();
                let (shape, bits) = g.input_decl().expect("declared input");
                let report = verify_graph(&format!("{model}/{btag}"), g, shape, bits);
                assert!(report.ok(), "{}", report.render());
                assert_eq!(report.nodes.len(), g.len());
                assert_eq!(report.peak_ram_bytes, g.peak_ram_bytes(shape, bits));
            }
        }
    }
}

/// Evaluates the folded accumulator `Φ_c(X, Zx) = Σ_i x_i(w_i − Zw_c) −
/// Zx·base_c` for one concrete input vector — the formula the fused
/// kernels compute, written independently of the verifier's interval
/// transfer functions.
fn concrete_phi(row: &[u8], zw: i64, x: &[i64], zx: i64) -> i128 {
    let base: i64 = row.iter().map(|&c| c as i64 - zw).sum();
    let dot: i128 = row
        .iter()
        .zip(x)
        .map(|(&c, &xi)| xi as i128 * (c as i64 - zw) as i128)
        .sum();
    dot - zx as i128 * base as i128
}

#[test]
fn phi_intervals_are_tight_and_sound() {
    let net = calibrated(&mobilenet_like_residual(16, 2, 8, 4), 77);
    let int = convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("converts");
    let g = int.graph();
    let (shape, in_bits) = g.input_decl().expect("declared input");
    let (_, bits) = g.tensor_plan(shape, in_bits);

    let mut convs_checked = 0;
    for node in g.nodes() {
        let AnyOp::Conv(conv) = node.op() else {
            continue;
        };
        let node_in_bits = bits[node.inputs()[0]];
        let qx = node_in_bits.qmax() as i64;
        let zx_iv = Interval::new(0, qx as i128);
        let phis = conv_phi_intervals(conv, node_in_bits, zx_iv);

        let w = conv.weights();
        let taps =
            conv.geometry().kernel_area() * if w.is_depthwise() { 1 } else { w.in_channels() };
        let codes = w.codes();
        for (co, iv) in phis.iter().enumerate() {
            let row = &codes[co * taps..(co + 1) * taps];
            let zw = w.offset().at(co) as i64;
            let base: i64 = row.iter().map(|&c| c as i64 - zw).sum();

            // Tightness: the adversarial corner input (x_i = qx exactly
            // where w_i > Zw, zero-point at the worst endpoint) achieves
            // the interval's upper bound; the mirrored input achieves the
            // lower bound.
            let x_hi: Vec<i64> = row
                .iter()
                .map(|&c| if (c as i64) > zw { qx } else { 0 })
                .collect();
            let zx_hi = if base < 0 { qx } else { 0 };
            assert_eq!(
                concrete_phi(row, zw, &x_hi, zx_hi),
                iv.hi(),
                "Φ upper bound not achieved: {} channel {co}",
                node.name()
            );
            let x_lo: Vec<i64> = row
                .iter()
                .map(|&c| if (c as i64) < zw { qx } else { 0 })
                .collect();
            let zx_lo = if base > 0 { qx } else { 0 };
            assert_eq!(
                concrete_phi(row, zw, &x_lo, zx_lo),
                iv.lo(),
                "Φ lower bound not achieved: {} channel {co}",
                node.name()
            );

            // Soundness: deterministic pseudo-random inputs stay inside.
            let mut state = 0x9e37_79b9_u64.wrapping_add(co as u64);
            for _ in 0..20 {
                let x: Vec<i64> = (0..taps)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) as i64 % (qx + 1)
                    })
                    .collect();
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let zx = (state >> 33) as i64 % (qx + 1);
                assert!(
                    iv.contains(concrete_phi(row, zw, &x, zx)),
                    "Φ escaped its interval: {} channel {co}",
                    node.name()
                );
            }
        }
        convs_checked += 1;
    }
    assert!(convs_checked >= 10, "expected a deep conv stack");
}

#[test]
fn depthwise_certificate_covers_out_of_range_zero_points() {
    // A 3×3 W8 depthwise layer with per-channel Zw = −2: `w − Zw` reaches
    // 257 > qw, so the nominal ±taps·qx·qw hull (±585225) would not cover
    // the core's accumulator. The certificate must widen to the actual
    // extreme, and the core must reach exactly that extreme, exactly, at
    // every SIMD level the host runs.
    use mixq::kernels::simd::depthwise::{mac_pixels, PAD};
    use mixq::kernels::{
        simd, OpCounts, QActivation, QConv2d, QConvWeights, QGraph, Requantizer, SimdLevel,
        WeightOffset,
    };
    use mixq::quant::{BitWidth, FixedPointMultiplier};
    use mixq::tensor::{ConvGeometry, Padding, Shape};

    // 21 channels: a 16-channel AVX2 step, a 4-channel step and a scalar tail.
    let c = 21;
    let extreme = 9 * 255 * 257;
    let conv = QConv2d::new(
        QConvWeights::new(
            Shape::new(c, 3, 3, 1),
            true,
            &vec![255; 9 * c],
            BitWidth::W8,
            WeightOffset::PerChannel(vec![-2; c]),
        ),
        ConvGeometry::new(3, 3, 1, Padding::Same),
        Requantizer::icn(
            vec![0; c],
            vec![FixedPointMultiplier::from_real(1.0 / 8192.0); c],
            128,
            BitWidth::W8,
        ),
    );
    let input = Shape::feature_map(3, 3, c);
    let mut g = QGraph::with_input(input, BitWidth::W8);
    g.push("dw", conv.clone());
    let report = verify_graph("dw-negative-zw", &g, input, BitWidth::W8);
    assert!(report.ok(), "{}", report.render());
    assert_eq!(report.nodes[0].acc, (-extreme, extreme));

    // The core, fed the extreme rows directly: x = 255 against Zx = 0, and
    // x = 0 against Zx = 255, over all nine taps (plus the pad partner).
    let w: Vec<i16> = (0..10 * c)
        .map(|i| {
            if i / (2 * c) == 4 && i % 2 == 1 {
                0
            } else {
                257
            }
        })
        .collect();
    let taps: Vec<usize> = (0..9).map(|t| t * c).chain([PAD]).collect();
    for (code, zx, want) in [(255u8, 0u8, extreme), (0, 255, -extreme)] {
        let x = vec![code; 9 * c];
        let zrow = vec![zx; c];
        for level in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            if !level.available() {
                continue;
            }
            let mut acc = vec![0i32; c];
            mac_pixels(level, &x, &zrow, &taps, 0, &w, 2 * c, zx, c, &mut acc);
            assert!(
                acc.iter().all(|&a| a as i64 == want),
                "{level:?} accumulators {acc:?}, want {want}"
            );
        }
    }

    // And the whole layer: the centre pixel sees all nine taps at the
    // extreme, every level agrees with the requantizer applied to the
    // certified bound.
    let x = QActivation::from_codes(input, &vec![255; 9 * c], BitWidth::W8, 0);
    for level in [
        SimdLevel::Scalar,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
        SimdLevel::Neon,
    ] {
        if !level.available() {
            continue;
        }
        simd::set_forced(Some(level));
        let y = conv.execute(&x, &mut OpCounts::default());
        simd::set_forced(None);
        let (mut rq, mut tc) = (0u64, 0u64);
        for co in 0..c {
            let want = conv.requant().apply(co, extreme, &mut rq, &mut tc);
            assert_eq!(y.get(0, 1, 1, co), want, "{level:?} channel {co}");
        }
    }
}
