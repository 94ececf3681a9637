//! Property-based tests (proptest) on the core quantization data
//! structures and algorithms: round-trips, fixed-point accuracy, threshold
//! equivalence, kernel/float agreement, constraint satisfaction of the
//! memory-driven assignment on randomized network shapes, and spec-vs-
//! executor agreement of the liveness peak on randomized residual DAGs.

mod common;

use proptest::prelude::*;

use mixq::core::memory::{MemoryBudget, QuantScheme};
use mixq::core::mixed::{assign_bits, MixedPrecisionConfig};
use mixq::kernels::{
    ActivationArena, AnyOp, Backend, KernelChoice, OpCounts, OpOutput, QActivation, QConv2d,
    QConvWeights, QGraph, QLinear, QOp, ReferenceBackend, Requantizer, SimdLevel, ThresholdChannel,
    TiledBackend, WeightOffset,
};
use mixq::models::{LayerSpec, NetworkSpec};
use mixq::quant::{BitWidth, FixedPointMultiplier, PackedTensor, QuantParams};
use mixq::tensor::{ConvGeometry, Padding, Shape};

fn bitwidth_strategy() -> impl Strategy<Value = BitWidth> {
    prop_oneof![Just(BitWidth::W2), Just(BitWidth::W4), Just(BitWidth::W8),]
}

/// The depthwise-input width a proptest index picks: none, or a 2-, 4- or
/// 8-bit input to the optional depthwise layer of [`random_residual_dag`].
fn dw_input(i: usize) -> Option<BitWidth> {
    [
        None,
        Some(BitWidth::W2),
        Some(BitWidth::W4),
        Some(BitWidth::W8),
    ][i % 4]
}

/// The classifier head a proptest index picks: 1, 3, 8, 13 or 40 classes
/// (below, at and past one 8-channel vector, with remainders), 2-, 4- or
/// 8-bit weights, a per-layer or per-channel `Zw` (negative values
/// included), and no rescale or a per-class one.
fn random_head(ci: usize, variant: usize, seed: u64) -> QLinear {
    let classes = [1, 3, 8, 13, 40][variant % 5];
    let wbits = [BitWidth::W2, BitWidth::W4, BitWidth::W8][variant / 5 % 3];
    let offset = if variant / 15 % 2 == 1 {
        WeightOffset::PerChannel(
            (0..classes)
                .map(|c| (c as i16 * 37 + seed as i16) % 11 - 5)
                .collect(),
        )
    } else {
        WeightOffset::PerLayer((seed % 7) as u8)
    };
    let rescale = (variant / 30 % 2 == 1).then(|| {
        (0..classes)
            .map(|c| FixedPointMultiplier::from_real(0.05 + c as f64 * 0.047))
            .collect()
    });
    let codes: Vec<u8> = (0..classes * ci)
        .map(|i| ((i as u64 * 11 + seed) % wbits.levels() as u64) as u8)
        .collect();
    QLinear::new(
        QConvWeights::new(Shape::new(classes, 1, 1, ci), false, &codes, wbits, offset),
        (0..classes as i32)
            .map(|c| (c * 7919 + seed as i32) % 201 - 100)
            .collect(),
        rescale,
    )
}

/// Deterministic random residual DAG shared by the equivalence proptests:
/// a `depth`-layer conv stack (optionally capped by an identity skip), an
/// average pool and the [`random_head`] `head`, plus a matching batched
/// input. Interior activations, and so the head's input, are `abits` wide.
/// With `dw_in`, a 3×3 depthwise layer follows the first conv, which then
/// emits `dw_in`-bit codes, so the depthwise node reads a 2-, 4- or 8-bit
/// input.
#[allow(clippy::too_many_arguments)]
fn random_residual_dag(
    depth: usize,
    ch: usize,
    h: usize,
    k: usize,
    batch: usize,
    wbits: BitWidth,
    abits: BitWidth,
    dw_in: Option<BitWidth>,
    with_skip: bool,
    tiled: bool,
    head: usize,
    zx: u8,
    seed: u64,
) -> (QGraph, QActivation) {
    let input = Shape::feature_map(h, h, ch);
    // Output zero-points drawn from the seed, so the layers after the
    // first, and the head, read inputs with nonzero `Zx` too.
    let zy = |out_bits: BitWidth| (seed % out_bits.levels() as u64) as i32;
    let requant = |out_bits: BitWidth| {
        Requantizer::icn(
            (0..ch).map(|c| c as i32 - 1).collect(),
            (0..ch)
                .map(|c| FixedPointMultiplier::from_real(0.02 + c as f64 * 0.004))
                .collect(),
            zy(out_bits),
            out_bits,
        )
    };
    let codes = |n: usize, salt: u64| -> Vec<u8> {
        (0..n)
            .map(|i| ((i as u64 * 31 + seed * 7 + salt) % wbits.levels() as u64) as u8)
            .collect()
    };
    let zw = || WeightOffset::PerChannel((0..ch).map(|c| (c as i16 % 5) - 2).collect());
    let layer = |l: usize, out_bits: BitWidth| {
        let wshape = Shape::new(ch, k, k, ch);
        QConv2d::new(
            QConvWeights::new(
                wshape,
                false,
                &codes(wshape.volume(), l as u64),
                wbits,
                zw(),
            ),
            ConvGeometry::new(k, k, 1, Padding::Same),
            requant(out_bits),
        )
    };
    let dw_layer = |out_bits: BitWidth| {
        let wshape = Shape::new(ch, 3, 3, 1);
        QConv2d::new(
            QConvWeights::new(wshape, true, &codes(wshape.volume(), 99), wbits, zw()),
            ConvGeometry::new(3, 3, 1, Padding::Same),
            requant(out_bits),
        )
    };
    let mut g = QGraph::with_input(input, BitWidth::W8);
    let mut id = 0usize;
    for l in 0..depth {
        let bits = match dw_in {
            Some(b) if l == 0 => b,
            _ => abits,
        };
        id = g.push_node(format!("c{l}"), layer(l, bits), &[id]);
        if l == 0 && dw_in.is_some() {
            id = g.push_node("dw", dw_layer(abits), &[id]);
        }
    }
    if with_skip {
        // Identity residual join of the stack output with the input
        // (same grid at stride 1 / SAME padding).
        id = g.push_node(
            "res",
            mixq::kernels::QAdd::from_scales(1.0, 1.0, 1.0, zy(abits) as u8, zx, zy(abits), abits),
            &[id, 0],
        );
    }
    let _ = id;
    g.push("pool", mixq::kernels::QAvgPool);
    g.push("fc", random_head(ch, head, seed));
    if tiled {
        g.select_kernels(&TiledBackend::default());
    }
    let item = input.volume();
    let mut stacked = Vec::with_capacity(batch * item);
    for s in 0..batch {
        stacked.extend((0..item).map(|i| (((s * item + i) as u64 * 13 + seed) % 200) as u8));
    }
    let xb = QActivation::from_codes(input.with_batch(batch), &stacked, BitWidth::W8, zx);
    (g, xb)
}

/// An independently written depthwise loop over the layer's public
/// accessors: the output codes and the ledger every direct kernel must
/// charge (one MAC, load and per-operand unpack per valid tap; one store
/// and bias add per output; one offset subtraction per MAC for per-channel
/// `Zw`; the requantizer's own counters).
fn naive_depthwise(conv: &QConv2d, x: &QActivation) -> (Vec<u8>, OpCounts) {
    let w = conv.weights();
    let wc = w.codes();
    let g = conv.geometry();
    let xs = x.shape();
    let xc = x.codes();
    let (oh, ow) = g.output_size(xs.h, xs.w);
    let (pt, pl) = g.pad_top_left(xs.h, xs.w);
    let zx = x.zero_point() as i64;
    let mut ops = OpCounts::default();
    let mut out = Vec::with_capacity(xs.n * oh * ow * xs.c);
    for n in 0..xs.n {
        for oy in 0..oh {
            for ox in 0..ow {
                for co in 0..xs.c {
                    let zw = w.offset().at(co) as i64;
                    let mut acc = 0i64;
                    for ky in 0..g.kh {
                        for kx in 0..g.kw {
                            let iy = (oy * g.stride + ky) as i64 - pt as i64;
                            let ix = (ox * g.stride + kx) as i64 - pl as i64;
                            if iy < 0 || ix < 0 || iy >= xs.h as i64 || ix >= xs.w as i64 {
                                continue;
                            }
                            let xv =
                                xc[((n * xs.h + iy as usize) * xs.w + ix as usize) * xs.c + co];
                            let wv = wc[(co * g.kh + ky) * g.kw + kx];
                            acc += (xv as i64 - zx) * (wv as i64 - zw);
                            ops.macs += 1;
                        }
                    }
                    out.push(conv.requant().apply(
                        co,
                        acc,
                        &mut ops.requants,
                        &mut ops.threshold_cmps,
                    ));
                }
            }
        }
    }
    let volume = out.len() as u64;
    ops.act_loads = ops.macs;
    ops.unpacks = (w.needs_unpack() as u64 + x.needs_unpack() as u64) * ops.macs;
    ops.act_stores = volume;
    ops.bias_adds = volume;
    if w.offset().is_per_channel() {
        ops.offset_subs = ops.macs;
    }
    (out, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantizer_round_trip_error_bounded(
        lo in -100.0f32..0.0,
        span in 0.01f32..200.0,
        bits in bitwidth_strategy(),
        x in -150.0f32..150.0,
    ) {
        let q = QuantParams::from_min_max(lo, lo + span, bits);
        let x_clamped = x.clamp(q.range_min(), q.range_max());
        let err = (q.fake_quantize(x_clamped) - x_clamped).abs();
        // Nearest rounding: half a step plus float slack.
        prop_assert!(err <= 0.5 * q.scale() * 1.001 + 1e-5,
                     "err {err} step {}", q.scale());
    }

    #[test]
    fn vector_quantizer_matches_oracle_at_code_boundaries(
        mant in 1.0f32..2.0,
        exp in -100i32..0,
        z in -20i32..280,
        bits in bitwidth_strategy(),
        nearest in any::<bool>(),
    ) {
        // Every level of the input quantizer must reproduce
        // `QuantParams::quantize` exactly, most of all where rounding
        // decides: x at every code boundary — `(q − Z ± ½)·S` for nearest
        // rounding, `(q − Z)·S` for floor — and its three f32 neighbours on
        // each side, plus NaN, ±∞, ±0, subnormals and ±f32::MAX.
        use mixq::kernels::simd::quantize::quantize_codes;
        use mixq::quant::RoundingMode;
        let scale = mant * 2f32.powi(exp);
        let rounding = if nearest { RoundingMode::Nearest } else { RoundingMode::Floor };
        let params = QuantParams::from_parts(scale, z, bits, rounding);
        let mut x = vec![
            f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0,
            f32::from_bits(1), f32::from_bits(0x8000_0001), f32::from_bits(0x007f_ffff),
            -f32::MIN_POSITIVE, f32::MAX, f32::MIN,
        ];
        for q in -1..=bits.qmax() as i32 + 1 {
            for half in [-0.5f32, 0.0, 0.5] {
                let boundary = ((q - z) as f32 + half) * scale;
                for d in -3i32..=3 {
                    x.push(f32::from_bits(boundary.to_bits().wrapping_add_signed(d)));
                }
            }
        }
        let want: Vec<u8> = x.iter().map(|&v| params.quantize(v) as u8).collect();
        let mut got = vec![0u8; x.len()];
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon] {
            if level.available() {
                quantize_codes(level, &params, &x, &mut got);
                prop_assert_eq!(&got, &want, "{:?} {:?}", level, params);
            }
        }
    }

    #[test]
    fn pact_quantizer_floor_error_bounded(
        clip in 0.1f32..50.0,
        bits in bitwidth_strategy(),
        x in -10.0f32..60.0,
    ) {
        let q = QuantParams::from_pact_clip(clip, bits);
        let x_clamped = x.clamp(0.0, clip);
        let fq = q.fake_quantize(x_clamped);
        // Floor rounding: strictly below one full step.
        prop_assert!(fq <= x_clamped + 1e-5);
        prop_assert!(x_clamped - fq < q.scale() * 1.001 + 1e-5);
    }

    #[test]
    fn packing_round_trips(
        bits in bitwidth_strategy(),
        raw in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let mask = bits.qmax() as u8;
        let codes: Vec<u8> = raw.iter().map(|v| v & mask).collect();
        let packed = PackedTensor::pack(&codes, bits);
        // The layout written element by element (LSB-first, 8/Q codes per
        // byte): a consistently wrong layout would still round-trip.
        let q = bits.bits() as usize;
        let mut layout = vec![0u8; bits.bytes_for(codes.len())];
        for (i, &c) in codes.iter().enumerate() {
            layout[i * q / 8] |= c << (i * q % 8);
        }
        prop_assert_eq!(packed.as_bytes(), layout.as_slice());
        prop_assert_eq!(packed.unpack(), codes.clone());
        prop_assert_eq!(packed.byte_len(), bits.bytes_for(codes.len()));
        for (i, &c) in codes.iter().enumerate() {
            prop_assert_eq!(packed.get(i), c);
        }
    }

    #[test]
    fn fixed_point_apply_matches_float_floor(
        mantissa in -1000000i32..1000000,
        exp in -12i32..12,
        v in -100000i32..100000,
    ) {
        prop_assume!(mantissa != 0);
        let m = mantissa as f64 / 1e5 * f64::powi(2.0, exp);
        let fp = FixedPointMultiplier::from_real(m);
        let exact = (m * v as f64).floor();
        let got = fp.apply(v) as f64;
        // Q31 mantissa rounding can move the product across an integer
        // boundary: allow one unit.
        prop_assert!((got - exact).abs() <= 1.0, "m={m} v={v} got={got} exact={exact}");
    }

    #[test]
    fn threshold_tables_equal_affine_requant(
        m_raw in -200i32..200,
        bq in -500i64..500,
        zy in 0i32..16,
        bits in bitwidth_strategy(),
        phi in -2000i64..2000,
    ) {
        prop_assume!(m_raw != 0);
        let m = m_raw as f64 / 100.0;
        let ch = ThresholdChannel::from_affine(m, bq, zy, bits);
        let mut cmps = 0;
        let got = ch.eval(phi, &mut cmps) as i64;
        let exact = (zy as i64 + (m * (phi + bq) as f64).floor() as i64)
            .clamp(0, bits.qmax() as i64);
        // When m·(phi+bq) lands exactly on an integer, the two float
        // evaluation orders may legitimately disagree by one ulp → one code.
        prop_assert!((got - exact).abs() <= 1,
                     "m={} bq={} zy={} phi={}: {} vs {}", m, bq, zy, phi, got, exact);
    }

    #[test]
    fn icn_requant_within_one_code_of_exact(
        m_raw in -200i32..200,
        bq in -500i32..500,
        phi in -5000i64..5000,
        bits in bitwidth_strategy(),
    ) {
        prop_assume!(m_raw != 0);
        let m = m_raw as f64 / 317.0;
        let req = Requantizer::icn(
            vec![bq],
            vec![FixedPointMultiplier::from_real(m)],
            0,
            bits,
        );
        let mut r = 0;
        let mut c = 0;
        let got = req.apply(0, phi, &mut r, &mut c) as i64;
        let exact = ((m * (phi + bq as i64) as f64).floor() as i64)
            .clamp(0, bits.qmax() as i64);
        prop_assert!((got - exact).abs() <= 1);
    }

    #[test]
    fn integer_conv_matches_float_reference(
        codes in proptest::collection::vec(0u8..=15, 16),
        wcodes in proptest::collection::vec(0u8..=15, 9),
        zx in 0u8..=7,
        zw in 0u8..=7,
    ) {
        // 4x4 input, one channel, 3x3 SAME conv; identity requant to W8.
        let w = QConvWeights::new(
            Shape::new(1, 3, 3, 1),
            false,
            &wcodes,
            BitWidth::W4,
            WeightOffset::PerLayer(zw),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 1, Padding::Same),
            Requantizer::icn(
                vec![0],
                vec![FixedPointMultiplier::from_real(0.25)],
                0,
                BitWidth::W8,
            ),
        );
        let x = QActivation::from_codes(Shape::feature_map(4, 4, 1), &codes, BitWidth::W4, zx);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        // Float reference computed the same way (floor of quarter of Φ).
        for oy in 0..4usize {
            for ox in 0..4usize {
                let mut acc = 0i64;
                for ky in 0..3usize {
                    for kx in 0..3usize {
                        let iy = oy as isize + ky as isize - 1;
                        let ix = ox as isize + kx as isize - 1;
                        if !(0..4).contains(&iy) || !(0..4).contains(&ix) {
                            continue;
                        }
                        let xv = codes[(iy * 4 + ix) as usize] as i64 - zx as i64;
                        let wv = wcodes[ky * 3 + kx] as i64 - zw as i64;
                        acc += xv * wv;
                    }
                }
                let expected = ((acc as f64) * 0.25).floor().clamp(0.0, 255.0) as u8;
                let got = y.get(0, oy, ox, 0);
                prop_assert!((got as i16 - expected as i16).abs() <= 1,
                             "({oy},{ox}): {got} vs {expected}");
            }
        }
        prop_assert_eq!(ops.macs as usize,
                        (0..4).flat_map(|oy: i32| (0..4).map(move |ox: i32| {
                            let mut n = 0;
                            for ky in 0..3 {
                                for kx in 0..3 {
                                    let iy = oy + ky - 1;
                                    let ix = ox + kx - 1;
                                    if (0..4).contains(&iy) && (0..4).contains(&ix) { n += 1; }
                                }
                            }
                            n
                        })).sum::<usize>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocked_path_equals_direct_path(
        co in 1usize..5,
        ci in 1usize..4,
        k in prop_oneof![Just(1usize), Just(3usize)],
        stride in 1usize..3,
        h in 3usize..8,
        zx in 0u8..6,
        per_channel in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // Randomized layer; codes derived deterministically from the seed.
        let wshape = Shape::new(co, k, k, ci);
        let wcodes: Vec<u8> = (0..wshape.volume())
            .map(|i| ((i as u64 * 31 + seed * 7) % 16) as u8)
            .collect();
        let offset = if per_channel {
            WeightOffset::PerChannel((0..co).map(|c| (c as i16 % 5) - 2).collect())
        } else {
            WeightOffset::PerLayer(2)
        };
        let weights = QConvWeights::new(wshape, false, &wcodes, BitWidth::W4, offset);
        let requant = Requantizer::icn(
            (0..co).map(|c| c as i32 - 1).collect(),
            (0..co)
                .map(|c| FixedPointMultiplier::from_real(0.01 + c as f64 * 0.005))
                .collect(),
            0,
            BitWidth::W8,
        );
        let conv = QConv2d::new(
            weights,
            ConvGeometry::new(k, k, stride, Padding::Same),
            requant,
        );
        let in_shape = Shape::feature_map(h, h, ci);
        let codes: Vec<u8> = (0..in_shape.volume())
            .map(|i| ((i as u64 * 13 + seed) % 200) as u8)
            .collect();
        let x = QActivation::from_codes(in_shape, &codes, BitWidth::W8, zx);
        let mut od = OpCounts::default();
        let direct = conv.execute(&x, &mut od);
        // The blocked kernel as a graph node runs it: through the dispatch
        // point, against the panels the node caches.
        let (panels, _) = conv.prepack(KernelChoice::BlockedGemm);
        let (blocked, ob) = common::run_blocked(&conv, &panels.expect("blocked panels"), &x);
        prop_assert_eq!(&direct, &blocked);
        prop_assert_eq!(ob, common::blocked_ledger(&conv, &x, &od));
    }

    #[test]
    fn backends_produce_bit_identical_logits(
        depth in 1usize..4,
        ch in 1usize..6,
        h in 4usize..9,
        k in prop_oneof![Just(1usize), Just(3usize)],
        wbits in bitwidth_strategy(),
        abits in bitwidth_strategy(),
        head in 0usize..60,
        zx in 0u8..4,
        seed in 0u64..1000,
    ) {
        // A head-terminated conv stack under random shapes and mixed
        // bit-widths, selected three ways: direct everywhere (reference),
        // blocked GEMM everywhere (custom backend, which also lowers the
        // shapes the tiled backend keeps direct, e.g. c_o = 1 or a
        // sub-byte pointwise input), and the cost-driven tiled backend.
        // Logits must be bit-identical — backends trade dataflow, never
        // arithmetic.
        struct BlockedEverywhere;
        impl Backend for BlockedEverywhere {
            fn name(&self) -> &'static str { "blocked-everywhere" }
            fn select(&self, op: &AnyOp, _i: &[Shape], _b: &[BitWidth]) -> KernelChoice {
                if op.supported_kernels().contains(&KernelChoice::BlockedGemm) {
                    KernelChoice::BlockedGemm
                } else {
                    KernelChoice::DirectConv
                }
            }
        }
        let input = Shape::feature_map(h, h, ch);
        let layer = |l: usize, out_bits: BitWidth| {
            let wshape = Shape::new(ch, k, k, ch);
            let wcodes: Vec<u8> = (0..wshape.volume())
                .map(|i| ((i as u64 * 31 + seed * 7 + l as u64) % wbits.levels() as u64) as u8)
                .collect();
            QConv2d::new(
                QConvWeights::new(wshape, false, &wcodes, wbits,
                                  WeightOffset::PerChannel((0..ch).map(|c| (c as i16 % 5) - 2).collect())),
                ConvGeometry::new(k, k, 1, Padding::Same),
                Requantizer::icn(
                    (0..ch).map(|c| c as i32 - 1).collect(),
                    (0..ch)
                        .map(|c| FixedPointMultiplier::from_real(0.02 + c as f64 * 0.004))
                        .collect(),
                    // A nonzero output zero-point reaches the next layer
                    // and the head as their `Zx`.
                    (seed % out_bits.levels() as u64) as i32,
                    out_bits,
                ),
            )
        };
        let head = random_head(ch, head, seed);
        let build = || {
            let mut g = QGraph::with_input(input, BitWidth::W8);
            for l in 0..depth {
                // Interior activations at the random precision, ending W8.
                g.push(format!("c{l}"), layer(l, if l + 1 == depth { BitWidth::W8 } else { abits }));
            }
            g.push("pool", mixq::kernels::QAvgPool);
            g.push("fc", head.clone());
            g
        };
        let reference = build();
        let mut blocked = build();
        blocked.select_kernels(&BlockedEverywhere);
        let mut tiled = build();
        tiled.select_kernels(&TiledBackend::default());
        prop_assert!(reference.kernel_choices().iter().all(|&c| c == KernelChoice::DirectConv));
        prop_assert!(blocked.kernel_choices()[..depth].iter().all(|&c| c == KernelChoice::BlockedGemm));
        // The head reads the last conv's 8-bit codes: both lower it.
        prop_assert_eq!(blocked.kernel_choices()[depth + 1], KernelChoice::BlockedGemm);
        prop_assert_eq!(tiled.kernel_choices()[depth + 1], KernelChoice::BlockedGemm);

        let codes: Vec<u8> = (0..input.volume())
            .map(|i| ((i as u64 * 13 + seed) % 200) as u8)
            .collect();
        let x = QActivation::from_codes(input, &codes, BitWidth::W8, zx);
        let a = reference.run(x.clone());
        let b = blocked.run(x.clone());
        let c = tiled.run(x);
        prop_assert_eq!(a.logits.as_ref(), b.logits.as_ref());
        prop_assert_eq!(a.logits.as_ref(), c.logits.as_ref());
        // The reference backend prices no scratch; the blocked selection
        // prices its largest im2col expansion, which is none when every
        // conv borrows its input (pointwise over an 8-bit input: the
        // first conv reads the W8 graph input, later ones `abits` codes).
        prop_assert_eq!(reference.peak_scratch_bytes(input, BitWidth::W8), 0);
        let borrows = k == 1 && (depth == 1 || abits == BitWidth::W8);
        prop_assert_eq!(
            blocked.peak_scratch_bytes(input, BitWidth::W8),
            if borrows { 0 } else { h * h * k * k * ch }
        );
        // Re-selecting with the reference backend round-trips exactly.
        let mut back = tiled.clone();
        back.select_kernels(&ReferenceBackend);
        prop_assert_eq!(back, reference);
    }

    #[test]
    fn prepacked_execution_is_bit_identical_to_per_call_packing(
        co in 1usize..6,
        ci in 1usize..4,
        k in prop_oneof![Just(1usize), Just(3usize)],
        stride in 1usize..3,
        h in 3usize..8,
        batch in 1usize..4,
        wbits in bitwidth_strategy(),
        xbits in bitwidth_strategy(),
        zx in 0u8..6,
        per_channel in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // The prepacked-panel path must reproduce the direct oracle's
        // codes and the closed-form blocked ledger, across shapes,
        // strides, bit-widths, zero-points and batch sizes.
        let wshape = Shape::new(co, k, k, ci);
        let wcodes: Vec<u8> = (0..wshape.volume())
            .map(|i| ((i as u64 * 31 + seed * 7) % wbits.levels() as u64) as u8)
            .collect();
        let offset = if per_channel {
            WeightOffset::PerChannel((0..co).map(|c| (c as i16 % 5) - 2).collect())
        } else {
            WeightOffset::PerLayer(2)
        };
        let weights = QConvWeights::new(wshape, false, &wcodes, wbits, offset);
        let requant = Requantizer::icn(
            (0..co).map(|c| c as i32 - 1).collect(),
            (0..co)
                .map(|c| FixedPointMultiplier::from_real(0.01 + c as f64 * 0.005))
                .collect(),
            0,
            BitWidth::W8,
        );
        let conv = QConv2d::new(
            weights,
            ConvGeometry::new(k, k, stride, Padding::Same),
            requant,
        );
        let in_shape = Shape::feature_map(h, h, ci).with_batch(batch);
        let codes: Vec<u8> = (0..in_shape.volume())
            .map(|i| ((i as u64 * 13 + seed) % xbits.levels() as u64) as u8)
            .collect();
        let x = QActivation::from_codes(in_shape, &codes, xbits, zx.min(xbits.qmax() as u8));
        let mut o_direct = OpCounts::default();
        let panels = conv.prepack_panels();
        let (blocked, o_blocked) = common::run_blocked(&conv, &panels, &x);
        let direct = conv.execute(&x, &mut o_direct);
        prop_assert_eq!(&direct, &blocked);
        prop_assert_eq!(o_blocked, common::blocked_ledger(&conv, &x, &o_direct));
        // The artifact reports a non-trivial read-only footprint.
        prop_assert!(panels.bytes() >= wshape.volume());
        prop_assert_eq!(panels.k(), k * k * ci);
        prop_assert_eq!(panels.out_channels(), co);
    }

    #[test]
    fn batch_matches_single_sample_logits(
        depth in 1usize..4,
        ch in 1usize..5,
        h in 4usize..8,
        k in prop_oneof![Just(1usize), Just(3usize)],
        batch in 1usize..6,
        wbits in bitwidth_strategy(),
        abits in bitwidth_strategy(),
        dw in 0usize..4,
        with_skip in any::<bool>(),
        tiled in any::<bool>(),
        head in 0usize..60,
        zx in 0u8..4,
        seed in 0u64..1000,
    ) {
        // A batch-N walk of a random residual DAG must be bit-identical to
        // N single-sample walks: logits, total ledger, and the planner's
        // batched Eq. 7 peak against the measured high-water mark.
        let input = Shape::feature_map(h, h, ch);
        let (g, xb) = random_residual_dag(depth, ch, h, k, batch, wbits, abits,
                                          dw_input(dw), with_skip, tiled, head, zx, seed);
        let batched_shape = input.with_batch(batch);
        let run_b = g.run(xb.clone());

        // The same samples, one walk each.
        let item = input.volume();
        let stacked = xb.codes();
        let mut single_logits = Vec::new();
        let mut single_ops = OpCounts::default();
        for s in 0..batch {
            let xs = QActivation::from_codes(input, &stacked[s * item..(s + 1) * item],
                                             BitWidth::W8, zx);
            let r = g.run(xs);
            single_ops += r.total_ops();
            single_logits.extend(r.logits.expect("head-terminated"));
        }
        prop_assert_eq!(run_b.logits.as_deref(), Some(single_logits.as_slice()));
        prop_assert_eq!(run_b.total_ops(), single_ops);
        // The pooled batch path agrees with the ledger run, allocation
        // pooling aside.
        let mut arena = ActivationArena::new();
        let mut pooled_logits = Vec::new();
        let mut pooled_ops = OpCounts::default();
        g.infer_pooled(xb, &mut arena, &mut pooled_logits, &mut pooled_ops);
        prop_assert_eq!(Some(pooled_logits), run_b.logits);
        prop_assert_eq!(pooled_ops, single_ops);
        // Planner and executor agree on the batched Eq. 7 peak.
        prop_assert_eq!(
            run_b.peak_live_bytes,
            g.peak_ram_bytes(batched_shape, BitWidth::W8)
        );
        // Per-layer ledgers divide back to one sample exactly.
        for lr in &run_b.layers {
            let mut acc = OpCounts::default();
            for _ in 0..batch {
                acc += lr.ops.per_sample(batch as u64);
            }
            prop_assert_eq!(acc, lr.ops);
        }
    }

    #[test]
    fn chain_and_dag_wiring_run_identically(
        depth in 1usize..4,
        ch in 1usize..4,
        h in 2usize..6,
        seed in 0u64..1000,
    ) {
        // A stack of pointwise convolutions built twice: once through the
        // chain `push`, once through explicit DAG input ids. The runs must
        // be bit-identical — ledger, logits-free output, measured peak —
        // and on a linear graph the liveness planner must degenerate to
        // the classic input+output pair walk.
        let layer = |l: usize| {
            let wshape = Shape::new(ch, 1, 1, ch);
            let wcodes: Vec<u8> = (0..wshape.volume())
                .map(|i| ((i as u64 * 17 + seed + l as u64 * 5) % 16) as u8)
                .collect();
            QConv2d::new(
                QConvWeights::new(wshape, false, &wcodes, BitWidth::W4,
                                  WeightOffset::PerLayer(1)),
                ConvGeometry::pointwise(),
                Requantizer::icn(
                    vec![0; ch],
                    (0..ch)
                        .map(|c| FixedPointMultiplier::from_real(0.05 + c as f64 * 0.01))
                        .collect(),
                    0,
                    BitWidth::W8,
                ),
            )
        };
        let mut chain = QGraph::new();
        let mut dag = QGraph::new();
        let mut id = 0usize;
        for l in 0..depth {
            chain.push(format!("c{l}"), layer(l));
            id = dag.push_node(format!("c{l}"), layer(l), &[id]);
        }
        let in_shape = Shape::feature_map(h, h, ch);
        let codes: Vec<u8> = (0..in_shape.volume())
            .map(|i| ((i as u64 * 7 + seed) % 256) as u8)
            .collect();
        let x = QActivation::from_codes(in_shape, &codes, BitWidth::W8, 1);
        let a = chain.run(x.clone());
        let b = dag.run(x);
        prop_assert_eq!(&a, &b);
        // Pointwise stack at W8: every tensor has the same byte size, so
        // the peak is exactly one input+output pair.
        let bytes = in_shape.volume();
        prop_assert_eq!(chain.peak_ram_bytes(in_shape, BitWidth::W8), 2 * bytes);
        prop_assert_eq!(a.peak_live_bytes, 2 * bytes);
    }

    #[test]
    fn histogram_percentile_is_monotone(
        values in proptest::collection::vec(-50.0f32..50.0, 1..200),
        p1 in 0.0f32..1.0,
        p2 in 0.0f32..1.0,
    ) {
        use mixq::quant::observer::HistogramObserver;
        let mut h = HistogramObserver::new(64);
        h.observe(&values);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(h.percentile_bound(lo) <= h.percentile_bound(hi) + 1e-6);
        // The full percentile covers the maximum magnitude.
        let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        prop_assert!(h.percentile_bound(1.0) >= max_abs * 0.95);
    }

    #[test]
    fn assignment_satisfies_constraints_on_random_networks(
        depth in 1usize..6,
        base_channels in 1usize..12,
        res in 8usize..40,
        ro_kb in 2usize..64,
        rw_kb in 1usize..64,
    ) {
        // Build a random-but-valid conv chain.
        let mut layers = Vec::new();
        let mut c = 1usize;
        let mut h = res;
        for i in 0..depth {
            let out = base_channels * (i + 1);
            layers.push(LayerSpec::conv(&format!("c{i}"), 3, if i % 2 == 1 { 2 } else { 1 }, c, out, h, h));
            h = h.div_ceil(if i % 2 == 1 { 2 } else { 1 });
            c = out;
        }
        layers.push(LayerSpec::linear("fc", c, 10));
        let spec = NetworkSpec::new("rand", Shape::feature_map(res, res, 1), layers);
        let cfg = MixedPrecisionConfig::new(
            MemoryBudget::new(ro_kb * 1024, rw_kb * 1024),
            QuantScheme::PerChannelIcn,
        );
        match assign_bits(&spec, &cfg) {
            Ok(a) => {
                // The invariant: a returned assignment always satisfies
                // both constraints and never dips below the minimums.
                prop_assert!(a.satisfies(&spec, &cfg));
                prop_assert!(a.act_bits.iter().all(|&b| b >= cfg.qa_min));
                prop_assert!(a.weight_bits.iter().all(|&b| b >= cfg.qw_min));
                // Input and logits stay at 8 bits.
                prop_assert_eq!(a.act_bits[0], BitWidth::W8);
                prop_assert_eq!(*a.act_bits.last().unwrap(), BitWidth::W8);
            }
            Err(mixq::core::MixQError::InfeasibleActivations { layer, pair_bytes, budget }) => {
                // Algorithm 1 is a greedy heuristic (the paper's CutBits
                // rule never cuts a tensor below its partner's precision),
                // so it may stop above the true minimum. The guarantee is
                // internal consistency: the reported violation is real.
                prop_assert!(pair_bytes > budget);
                // `layer` is a schedule-step index: one step per conv
                // layer, plus the explicit pool and classifier steps.
                prop_assert!(layer <= spec.num_layers());
                prop_assert_eq!(budget, cfg.budget.rw_bytes);
            }
            Err(mixq::core::MixQError::InfeasibleWeights { total_bytes, budget }) => {
                // Algorithm 2 *is* complete (it can drive every layer to
                // the minimum), so weight infeasibility must be absolute.
                prop_assert!(total_bytes > budget);
                let l = spec.num_layers();
                let min_assign = mixq::core::mixed::BitAssignment {
                    act_bits: {
                        let mut a = vec![cfg.qa_min; l + 1];
                        a[0] = BitWidth::W8;
                        a[l] = BitWidth::W8;
                        a
                    },
                    weight_bits: vec![cfg.qw_min; l],
                    res_bits: Vec::new(),
                };
                prop_assert!(
                    min_assign.flash_bytes(&spec, cfg.scheme) > cfg.budget.ro_bytes,
                    "claimed weight-infeasible but minimum weights fit"
                );
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    #[test]
    fn residual_dag_peak_matches_executor_planner(
        res in prop_oneof![Just(6usize), Just(8), Just(10)],
        input_c in 1usize..3,
        stem_c in prop_oneof![Just(4usize), Just(6), Just(8)],
        // Per candidate block, two bits: does the stride-1 pair carry an
        // identity skip (bit 0), and does it squeeze its hidden channels
        // (bit 1)?
        pattern in proptest::collection::vec(0usize..4, 1..4),
        cut_pattern in proptest::collection::vec(0usize..3, 0..24),
    ) {
        // Build a random residual DAG: a stem conv, then for each pattern
        // entry a (squeeze?) bottleneck pair, optionally skipped.
        let mut layers = vec![LayerSpec::conv("stem", 3, 1, input_c, stem_c, res, res)];
        let mut spec_skips = Vec::new();
        for (i, &bits) in pattern.iter().enumerate() {
            let (skip, squeeze) = (bits & 1 == 1, bits & 2 == 2);
            let hidden = if squeeze { stem_c.div_ceil(2) } else { stem_c };
            let from = layers.len() - 1;
            layers.push(LayerSpec::conv(&format!("b{i}a"), 1, 1, stem_c, hidden, res, res));
            layers.push(LayerSpec::conv(&format!("b{i}b"), 3, 1, hidden, stem_c, res, res));
            if skip {
                spec_skips.push((from, layers.len() - 1));
            }
        }
        layers.push(LayerSpec::linear("fc", stem_c, 3));
        let mut spec = NetworkSpec::new("rand-dag", Shape::feature_map(res, res, input_c), layers);
        for (from, to) in spec_skips {
            spec = spec.with_skip(from, to);
        }

        // Under uniform 8 bits the spec-level liveness peak equals the
        // executor planner's `peak_ram_bytes` of the lowered graph...
        let mut assignment = mixq::core::mixed::BitAssignment::uniform8(&spec);
        let peak8 = assignment.peak_rw_bytes(&spec);
        prop_assert_eq!(peak8, common::lowered_peak_ram(&spec, &assignment));

        // ...and under an arbitrary cut assignment the two still agree,
        // while the uniform-8 peak stays an upper bound.
        let widths = [BitWidth::W8, BitWidth::W4, BitWidth::W2];
        for (j, &w) in cut_pattern.iter().enumerate() {
            let acts = assignment.act_bits.len();
            if j % 2 == 0 && acts > 2 {
                // Interior activations only: input and logits stay 8-bit.
                assignment.act_bits[1 + j % (acts - 2)] = widths[w];
            } else if !assignment.res_bits.is_empty() {
                let s = j % assignment.res_bits.len();
                assignment.res_bits[s] = widths[w];
            }
        }
        let peak_cut = assignment.peak_rw_bytes(&spec);
        prop_assert_eq!(peak_cut, common::lowered_peak_ram(&spec, &assignment));
        prop_assert!(peak_cut <= peak8, "cuts can only shrink the live set");
    }

    #[test]
    fn simd_matches_scalar_bit_identical(
        depth in 1usize..4,
        ch in 1usize..6,
        h in 4usize..8,
        k in prop_oneof![Just(1usize), Just(3usize)],
        batch in 1usize..5,
        wbits in bitwidth_strategy(),
        abits in bitwidth_strategy(),
        dw in 0usize..4,
        with_skip in any::<bool>(),
        head in 0usize..60,
        zx in 0u8..4,
        seed in 0u64..1000,
    ) {
        // Every vector backend the host can run must reproduce the forced-
        // scalar walk bit-exactly: logits AND the abstract ledger (the
        // dataflow may change, the modeled work may not). The graph is
        // lowered through the tiled backend so the blocked-GEMM/`gemv2`
        // path is on the execution path, for the convs and the head, next
        // to the depthwise core when the DAG has a depthwise layer.
        use mixq::kernels::simd;
        let (g, xb) = random_residual_dag(depth, ch, h, k, batch, wbits, abits,
                                          dw_input(dw), with_skip, true, head, zx, seed);
        simd::set_forced(Some(SimdLevel::Scalar));
        let scalar = g.run(xb.clone());
        for level in [SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon] {
            if !level.available() {
                continue;
            }
            simd::set_forced(Some(level));
            let vec_run = g.run(xb.clone());
            simd::set_forced(None);
            prop_assert_eq!(&vec_run.logits, &scalar.logits,
                            "{:?} logits diverge from scalar", level);
            prop_assert_eq!(vec_run.total_ops(), scalar.total_ops(),
                            "{:?} ledger diverges from scalar", level);
        }
        // Auto-detection picks one of the levels just proven identical.
        simd::set_forced(None);
        let auto = g.run(xb);
        prop_assert_eq!(auto.logits, scalar.logits);
        prop_assert_eq!(auto.total_ops(), scalar.total_ops());
    }

    #[test]
    fn vectorized_requant_is_bit_identical(
        co in 1usize..40,
        kind in 0usize..3, // 0 = ICN, 1 = folded per-layer, 2 = thresholds
        out_bits in bitwidth_strategy(),
        zy in -20i32..280,
        saturate in any::<bool>(),
        mantissas in proptest::collection::vec(-1.0f64..1.0, 40),
        exponents in proptest::collection::vec(-40i32..3, 40),
        wide_bq in any::<bool>(),
        bqs in proptest::collection::vec(-5000i64..5000, 40),
        wide_bqs in proptest::collection::vec(-2147483647i64..2147483648, 40),
        phis in proptest::collection::vec(-1_000_000i64..1_000_000, 1..80),
        edges in proptest::collection::vec(0usize..5, 80),
        c0 in 0usize..8,
        reps in 1usize..4,
    ) {
        // The vectorized requantization epilogue must reproduce the scalar
        // `Requantizer::apply` loop bit-exactly — codes AND the abstract
        // `requants`/`threshold_cmps` ledger — at every SIMD level the
        // host can run. Multipliers span ~2^-41 (shifts ≥ 63) to ±4
        // (the saturation-limit clamp), `Bq` reaches ±(2^31 − 1), `Zy`
        // leaves [0, qmax], accumulators sit near ±2^31 (the overflow
        // fallback), and lane counts, `c0` offsets and tiled plans fall on
        // both sides of the 8- and 16-lane vector widths. Threshold
        // channels come in both orientations, with the saturated-i16
        // ablation rewrite.
        use mixq::kernels::simd::requant::{self as vreq, RequantPlan};
        let mults: Vec<f64> = mantissas
            .iter()
            .zip(&exponents)
            .map(|(&m, &e)| m * 2f64.powi(e))
            .collect();
        let bqs = if wide_bq { &wide_bqs } else { &bqs };
        let req = match kind {
            0 => Requantizer::icn(
                bqs[..co].iter().map(|&b| b as i32).collect(),
                mults[..co].iter().map(|&m| FixedPointMultiplier::from_real(m)).collect(),
                zy, out_bits),
            1 => Requantizer::folded(
                bqs[..co].iter().map(|&b| b as i32).collect(),
                FixedPointMultiplier::from_real(mults[0]),
                zy, out_bits),
            _ => {
                // `from_affine` needs m > 0; fold the sign into a transfer
                // instead so negative slopes exercise descending tables.
                let channels = (0..co).map(|c| {
                    let m = mults[c];
                    if m.abs() < 1e-12 {
                        ThresholdChannel::from_affine(0.5, bqs[c], zy, out_bits)
                    } else if m > 0.0 {
                        ThresholdChannel::from_affine(m, bqs[c], zy, out_bits)
                    } else {
                        ThresholdChannel::from_transfer(m, bqs[c] as f64, zy, out_bits)
                    }
                }).collect();
                let t = Requantizer::thresholds(channels, zy, out_bits);
                if saturate { t.saturated_i16() } else { t }
            }
        };
        // Accumulators: the moderate range, or pinned near ±2^31.
        let phis: Vec<i64> = phis
            .iter()
            .zip(&edges)
            .map(|(&p, &e)| match e {
                0 => i32::MAX as i64 - p.abs() % 7,
                1 => i32::MIN as i64 + p.abs() % 7,
                _ => p,
            })
            .collect();
        let plan = RequantPlan::new(&req);
        let tiled = plan.tiled(reps);

        for (plan, lanes) in [(&plan, co), (&tiled, reps * co)] {
            let c0 = c0.min(lanes - 1);
            let n = (lanes - c0).min(phis.len());

            // Reference: the plain scalar loop over `Requantizer::apply`.
            let mut out_ref = vec![0u8; n];
            let (mut rq_ref, mut tc_ref) = (0u64, 0u64);
            for (j, &phi) in phis[..n].iter().enumerate() {
                out_ref[j] = req.apply((c0 + j) % co, phi, &mut rq_ref, &mut tc_ref);
            }

            for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2,
                          SimdLevel::Neon] {
                if !level.available() {
                    continue;
                }
                // The i32-accumulator entry (the depthwise epilogue) takes
                // every accumulator that fits i32 — all of them here.
                let accs: Vec<i32> = phis[..n].iter().map(|&p| p as i32).collect();
                let mut out = vec![0u8; n];
                let (mut rq, mut tc) = (0u64, 0u64);
                vreq::apply_i32_block(plan, &req, level, c0, &accs,
                                      &mut out, &mut rq, &mut tc);
                prop_assert_eq!(&out, &out_ref, "{:?} codes diverge", level);
                prop_assert_eq!((rq, tc), (rq_ref, tc_ref),
                                "{:?} ledger diverges", level);
            }
        }
    }

    #[test]
    fn flash_footprint_monotone_in_precision(
        co in 1usize..64,
        ci in 1usize..64,
        k in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let layer = LayerSpec::conv("l", k, 1, ci, co, 16, 16);
        let mut last = 0usize;
        for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            let b = mixq::core::memory::layer_flash_footprint(
                &layer, QuantScheme::PerChannelIcn, bits, BitWidth::W8);
            prop_assert!(b >= last);
            last = b;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn depthwise_core_matches_naive_loop(
        k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        stride in 1usize..3,
        same in any::<bool>(),
        // Half the cases narrow enough for the pixel-grouped epilogue.
        c in prop_oneof![1usize..17, 17usize..131],
        h in 1usize..8,
        batch in 1usize..3,
        wbits in bitwidth_strategy(),
        xbits in bitwidth_strategy(),
        out_bits in bitwidth_strategy(),
        per_channel in any::<bool>(),
        kind in 0usize..3, // 0 = ICN, 1 = folded per-layer, 2 = thresholds
        seed in 0u64..1000,
    ) {
        // Every route into the depthwise kernel — the one-shot `execute`
        // and the graph's dispatch point with arena staging — at every
        // SIMD level the host runs, against an independently written naive
        // loop: codes and ledger. Channel counts cross both the
        // narrow-layer pixel grouping (c ≤ 32) and the 64-channel block;
        // zero-points include Zw = −2.
        use mixq::kernels::simd;
        let qw = wbits.qmax() as u64;
        let qx = xbits.qmax() as u64;
        let h = if same { h } else { h.max(k) };
        let wshape = Shape::new(c, k, k, 1);
        let wcodes: Vec<u8> = (0..wshape.volume())
            .map(|i| ((i as u64 * 37 + seed * 11) % (qw + 1)) as u8)
            .collect();
        let offset = if per_channel {
            WeightOffset::PerChannel(
                (0..c).map(|co| ((co as u64 * 7 + seed) % (qw + 3)) as i16 - 2).collect(),
            )
        } else {
            WeightOffset::PerLayer((seed % (qw + 1)) as u8)
        };
        let zy = (seed % 3) as i32;
        let bq: Vec<i32> = (0..c).map(|co| (co as i32 % 9 - 4) * 50).collect();
        let requant = match kind {
            0 => Requantizer::icn(
                bq,
                (0..c)
                    .map(|co| FixedPointMultiplier::from_real(0.002 + (co % 7) as f64 * 0.003))
                    .collect(),
                zy,
                out_bits,
            ),
            1 => Requantizer::folded(bq, FixedPointMultiplier::from_real(0.013), zy, out_bits),
            _ => Requantizer::thresholds(
                (0..c)
                    .map(|co| match co % 7 {
                        6 => ThresholdChannel::from_affine(0.0, bq[co] as i64, zy, out_bits),
                        2 | 5 => ThresholdChannel::from_transfer(
                            -0.004 - co as f64 * 1e-4, bq[co] as f64, zy, out_bits),
                        _ => ThresholdChannel::from_affine(
                            0.004 + co as f64 * 1e-4, bq[co] as i64, zy, out_bits),
                    })
                    .collect(),
                zy,
                out_bits,
            ),
        };
        let padding = if same { Padding::Same } else { Padding::Valid };
        let conv = QConv2d::new(
            QConvWeights::new(wshape, true, &wcodes, wbits, offset),
            ConvGeometry::new(k, k, stride, padding),
            requant,
        );
        let in_shape = Shape::feature_map(h, h, c).with_batch(batch);
        let codes: Vec<u8> = (0..in_shape.volume())
            .map(|i| ((i as u64 * 13 + seed * 5) % (qx + 1)) as u8)
            .collect();
        let x = QActivation::from_codes(in_shape, &codes, xbits, (seed % (qx + 1)) as u8);
        let (want, want_ops) = naive_depthwise(&conv, &x);

        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon] {
            if !level.available() {
                continue;
            }
            simd::set_forced(Some(level));
            let mut ops = OpCounts::default();
            let y = conv.execute(&x, &mut ops);
            prop_assert_eq!(y.codes(), want.clone(), "{:?} codes", level);
            prop_assert_eq!(ops, want_ops, "{:?} ledger", level);
            let mut ops = OpCounts::default();
            let out = conv.execute_kernel(KernelChoice::DirectConv, None, &[&x],
                                          &mut ActivationArena::new(), &mut ops);
            let OpOutput::Act(y) = out else { unreachable!("a convolution yields an activation") };
            prop_assert_eq!(y.codes(), want.clone(), "{:?} dispatched codes", level);
            prop_assert_eq!(ops, want_ops, "{:?} dispatched ledger", level);
        }
        simd::set_forced(None);
    }
}
