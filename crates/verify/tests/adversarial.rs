//! Adversarial overflow corner tests: max-magnitude operands driven
//! through the real kernels at the exact geometry boundaries the verifier
//! reasons about, asserting (1) the kernels stay bit-identical across
//! SIMD levels at the corners, (2) the verifier's intervals are *tight* —
//! achieved by the adversarial inputs, not merely sound — and (3) forged
//! geometry, schedules, joins and kernel lowerings are rejected with the
//! precise diagnostic.

use mixq_kernels::simd::{self, SimdLevel, MAX_DOT_LEN};
use mixq_kernels::{
    AnyOp, KernelChoice, QAdd, QConv2d, QConvWeights, QGraph, QLinear, Requantizer,
    ThresholdChannel, TiledBackend, WeightOffset,
};
use mixq_models::{LayerSpec, NetworkSpec};
use mixq_quant::{BitWidth, FixedPointMultiplier};
use mixq_tensor::{ConvGeometry, Padding, Shape};
use mixq_verify::{
    check_dot_geometry, check_schedule, requant_gate, verify_add_node, verify_graph,
    verify_spec_uniform, Violation,
};

/// Runs `gemv2` over an all-max panel (`x = w = 255` everywhere) at dot
/// length `k` and returns the per-channel accumulators of both rows.
fn gemv2_all_max(level: SimdLevel, k: usize, co_n: usize) -> (Vec<i32>, Vec<i32>) {
    let x = vec![255u8; k];
    let pairs = vec![255u8; (k / 2) * co_n * 2];
    let tail = vec![255u8; co_n * (k & 1)];
    let mut acc0 = vec![0i32; co_n];
    let mut acc1 = vec![0i32; co_n];
    simd::gemv2(level, &x, &x, &pairs, &tail, &mut acc0, &mut acc1);
    (acc0, acc1)
}

#[test]
fn gemv2_max_magnitude_at_contract_boundary() {
    // k = MAX_DOT_LEN is the largest chunk the dispatch contract admits;
    // k = MAX_DOT_LEN − 1 exercises the odd-k tail at the same scale.
    for k in [2usize, 3, 7, MAX_DOT_LEN - 1, MAX_DOT_LEN] {
        let expected = (k as i64 * 255 * 255) as i32; // fits: 32768·255² < 2³¹
        let (s0, s1) = gemv2_all_max(SimdLevel::Scalar, k, 4);
        assert!(s0.iter().chain(&s1).all(|&a| a == expected), "k = {k}");

        let level = simd::active_level();
        let (v0, v1) = gemv2_all_max(level, k, 4);
        assert_eq!((&s0, &s1), (&v0, &v1), "{level:?} diverges at k = {k}");

        // Verifier tightness: the proven i32-chunk interval's upper bound
        // is exactly the value the all-max input just achieved.
        let (acc, violations) = check_dot_geometry("corner", k, k, 255, 255);
        assert!(violations.is_empty(), "k = {k} must verify");
        assert_eq!(acc.hi(), expected as i128, "interval not tight at k = {k}");
        assert_eq!(acc.lo(), 0);
    }
}

#[test]
fn gemv2_odd_k_tail_bit_identity() {
    // Mixed (non-uniform) codes through the odd-k tail path, scalar vs
    // active SIMD level.
    let k = 4097; // odd, forces the tail element
    let co_n = 9; // odd channel count, forces the channel remainder
    let x0: Vec<u8> = (0..k).map(|i| (i * 37 % 256) as u8).collect();
    let x1: Vec<u8> = (0..k).map(|i| (i * 101 % 256) as u8).collect();
    let pairs: Vec<u8> = (0..(k / 2) * co_n * 2)
        .map(|i| (i * 53 % 256) as u8)
        .collect();
    let tail: Vec<u8> = (0..co_n).map(|i| (i * 29 % 256) as u8).collect();
    let mut s = (vec![0i32; co_n], vec![0i32; co_n]);
    simd::gemv2(
        SimdLevel::Scalar,
        &x0,
        &x1,
        &pairs,
        &tail,
        &mut s.0,
        &mut s.1,
    );
    let mut v = (vec![0i32; co_n], vec![0i32; co_n]);
    let level = simd::active_level();
    simd::gemv2(level, &x0, &x1, &pairs, &tail, &mut v.0, &mut v.1);
    assert_eq!(s, v, "{level:?} diverges on the odd-k tail");
}

#[test]
fn spec_layers_past_contract_verify_as_direct_i64() {
    // Dots longer than MAX_DOT_LEN lower to the direct loop, which
    // accumulates in i64: a spec with such a conv (k = 3·3·4000 = 36000)
    // and head (k = 40000) verifies clean, one run of k taps per layer.
    let spec = NetworkSpec::new(
        "long",
        Shape::feature_map(2, 2, 4000),
        vec![
            LayerSpec::conv("wide", 3, 1, 4000, 40_000, 2, 2),
            LayerSpec::linear("fc", 40_000, 10),
        ],
    );
    let report = verify_spec_uniform("long", &spec, BitWidth::W8, BitWidth::W8);
    assert!(report.ok(), "{}", report.render());
    for (name, k) in [("wide", 36_000usize), ("fc", 40_000)] {
        let cert = report.nodes.iter().find(|n| n.node == name).unwrap();
        assert!(k > MAX_DOT_LEN);
        assert_eq!((cert.k, cert.chunk), (k, k), "{name}");
        let hi = k as i64 * 255 * 255;
        assert_eq!(cert.acc, (-hi, hi), "{name}: the direct loop's i64 hull");
    }
}

#[test]
fn forged_chunk_rejected_at_exact_boundaries() {
    // One past the contract: contract violation only — 32769·255² still
    // fits i32, and the verifier must say which line was crossed.
    let (_, v) = check_dot_geometry("forged", 40_000, MAX_DOT_LEN + 1, 255, 255);
    assert_eq!(v.len(), 1);
    assert!(matches!(
        &v[0],
        Violation::DotLengthExceedsKernel { chunk, max, .. }
            if *chunk == MAX_DOT_LEN + 1 && *max == MAX_DOT_LEN
    ));

    // The largest arithmetically safe chunk: ⌊2³¹/255²⌋ = 33025. Still a
    // contract violation, still no overflow.
    let (acc, v) = check_dot_geometry("forged", 33_025, 33_025, 255, 255);
    assert_eq!(v.len(), 1, "33025·255² = {} fits i32", acc.hi());
    assert!(matches!(&v[0], Violation::DotLengthExceedsKernel { .. }));

    // One more element and the i32 bound falls too: both diagnostics.
    let (_, v) = check_dot_geometry("forged", 33_026, 33_026, 255, 255);
    assert_eq!(v.len(), 2);
    assert!(matches!(
        &v[1],
        Violation::AccOverflow {
            stage: "i32-chunk",
            ..
        }
    ));
}

#[test]
fn forged_schedules_rejected() {
    // Tensor 0 freed after step 0 but read by step 2: aliasing.
    let inputs = vec![vec![0], vec![1], vec![0, 2]];
    let v = check_schedule(&inputs, &[0, 1, 2, 3]);
    assert_eq!(v.len(), 1);
    assert!(matches!(
        &v[0],
        Violation::ScheduleAliasing {
            tensor: 0,
            freed_after: 0,
            used_at: 2
        }
    ));

    // Terminal tensor dropped one step early.
    let inputs = vec![vec![0], vec![1], vec![2]];
    let v = check_schedule(&inputs, &[0, 1, 2, 2]);
    assert!(matches!(
        &v[0],
        Violation::TerminalDropped { tensor: 3, .. }
    ));

    // Wrong coverage and a use before definition are structural.
    let v = check_schedule(&inputs, &[0, 1, 2]);
    assert!(matches!(&v[0], Violation::ScheduleMalformed { .. }));
    let v = check_schedule(&[vec![2]], &[0, 1]);
    assert!(matches!(&v[0], Violation::ScheduleMalformed { .. }));

    // The honest schedule of the same uses verifies.
    let inputs = vec![vec![0], vec![1], vec![0, 2]];
    assert!(check_schedule(&inputs, &[2, 1, 2, 3]).is_empty());
}

#[test]
fn forged_join_rejected_with_precise_diagnostics() {
    let shape = Shape::feature_map(4, 4, 8);
    let bits = [BitWidth::W8, BitWidth::W8];

    // Declared branch-b scale disagrees with the baked multiplier.
    let add = QAdd::from_scales(0.5, 0.25, 1.0, 10, 12, 7, BitWidth::W8)
        .with_declared_scales(0.5, 0.6, 1.0);
    let (_, v) = verify_add_node("join", &add, [shape, shape], bits, [Some(10), Some(12)]);
    assert_eq!(v.len(), 1);
    assert!(matches!(
        &v[0],
        Violation::JoinScaleMismatch { branch: "b", declared_ratio, .. }
            if (*declared_ratio - 0.6).abs() < 1e-12
    ));

    // Producer zero-point on branch a disagrees with what the add
    // subtracts.
    let add = QAdd::from_scales(0.5, 0.25, 1.0, 10, 12, 7, BitWidth::W8);
    let (_, v) = verify_add_node("join", &add, [shape, shape], bits, [Some(11), Some(12)]);
    assert_eq!(v.len(), 1);
    assert!(matches!(
        &v[0],
        Violation::ZeroPointMismatch {
            branch: "a",
            expected: 11,
            got: 10,
            ..
        }
    ));

    // Honest joins (declared scales matching the baked multipliers, edge
    // zero-points agreeing) verify cleanly.
    let add = QAdd::from_scales(0.5, 0.25, 1.0, 10, 12, 7, BitWidth::W8);
    let (cert, v) = verify_add_node("join", &add, [shape, shape], bits, [Some(10), Some(12)]);
    assert!(v.is_empty(), "{v:?}");
    assert!(cert.vectorizable);
}

#[test]
fn forged_depthwise_gemm_lowering_rejected() {
    let c = 8;
    let input = Shape::feature_map(4, 4, c);
    let conv = |depthwise: bool, k: usize, ci: usize| {
        QConv2d::new(
            QConvWeights::new(
                Shape::new(c, k, k, ci),
                depthwise,
                &vec![1; c * k * k * ci],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            ConvGeometry::new(k, k, 1, Padding::Same),
            Requantizer::icn(
                vec![0; c],
                vec![FixedPointMultiplier::from_real(0.01); c],
                0,
                BitWidth::W8,
            ),
        )
    };
    // A pointwise conv the tiled backend lowers onto the blocked GEMM
    // verifies clean.
    let mut g = QGraph::with_input(input, BitWidth::W8);
    g.push("pw", conv(false, 1, c));
    g.select_kernels(&TiledBackend::default());
    assert_eq!(g.kernel_choices(), vec![KernelChoice::BlockedGemm]);
    let report = verify_graph("honest", &g, input, BitWidth::W8);
    assert!(report.ok(), "{}", report.render());

    // A depthwise conv swapped into the node keeps the GEMM lowering,
    // which has no depthwise form.
    *g.nodes_mut()[0].op_mut() = AnyOp::Conv(conv(true, 3, 1));
    let report = verify_graph("forged", &g, input, BitWidth::W8);
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::ShapeMismatch { node, detail }
                if node == "pw" && detail.contains("GEMM")
        )),
        "{}",
        report.render()
    );

    // A dense conv whose patch is past the blocked GEMM's contract, which
    // `supported_kernels` never offers the GEMM for, swapped into the
    // blocked node: its one i32 run would exceed MAX_DOT_LEN.
    let k = MAX_DOT_LEN + 1;
    *g.nodes_mut()[0].op_mut() = AnyOp::Conv(conv(false, 1, k));
    let report = verify_graph("forged-long", &g, input, BitWidth::W8);
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::DotLengthExceedsKernel { node, k: vk, chunk, max }
                if node == "pw" && *vk == k && *chunk == k && *max == MAX_DOT_LEN
        )),
        "{}",
        report.render()
    );
}

#[test]
fn forged_long_head_gemv_rejected() {
    let head = |k: usize| {
        QLinear::new(
            QConvWeights::new(
                Shape::new(3, 1, 1, k),
                false,
                &vec![1; 3 * k],
                BitWidth::W8,
                WeightOffset::PerLayer(0),
            ),
            vec![0; 3],
            None,
        )
    };
    // A head the tiled backend lowers onto the blocked GEMV verifies clean,
    // certified as the one i32 run over its 8 features.
    let input = Shape::feature_map(1, 1, 8);
    let mut g = QGraph::with_input(input, BitWidth::W8);
    g.push("fc", head(8));
    g.select_kernels(&TiledBackend::default());
    assert_eq!(g.kernel_choices(), vec![KernelChoice::BlockedGemm]);
    let report = verify_graph("honest", &g, input, BitWidth::W8);
    assert!(report.ok(), "{}", report.render());
    let cert = &report.nodes[0];
    assert_eq!((cert.choice, cert.k, cert.chunk), ("blocked_gemm", 8, 8));
    assert_eq!(cert.acc, (0, 8 * 255 * 255));

    // A head past the GEMV's contract, which `supported_kernels` never
    // offers the blocked kernel for, swapped into the blocked node: its one
    // i32 run would exceed MAX_DOT_LEN.
    let k = MAX_DOT_LEN + 1;
    *g.nodes_mut()[0].op_mut() = AnyOp::Linear(head(k));
    let long = Shape::feature_map(1, 1, k);
    let report = verify_graph("forged-long-head", &g, long, BitWidth::W8);
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::DotLengthExceedsKernel { node, k: vk, chunk, max }
                if node == "fc" && *vk == k && *chunk == k && *max == MAX_DOT_LEN
        )),
        "{}",
        report.render()
    );
}

#[test]
fn threshold_tables_at_i64_extremes() {
    // A micro-scale multiplier pushes the comparison thresholds toward the
    // i64 extremes; eval must agree with a plain linear scan there, and
    // the verifier's gate must still accept the (regular, monotone) table.
    let ch = ThresholdChannel::from_affine(1.0e-15, 3, 0, BitWidth::W4);
    assert!(!ch.is_empty());
    let t = ch.thresholds().to_vec();
    assert!(
        t.windows(2).all(|w| w[0] <= w[1]) || t.windows(2).all(|w| w[0] >= w[1]),
        "extreme table must stay monotone"
    );
    let mut cmps = 0u64;
    for phi in [
        i64::MIN,
        i64::MIN + 1,
        -1,
        0,
        1,
        i64::MAX - 1,
        i64::MAX,
        t[0],
        t[t.len() - 1],
    ] {
        let got = ch.eval(phi, &mut cmps);
        // Linear reference: count thresholds passed in table order.
        let passed = if ch.is_ascending() {
            t.iter().filter(|&&th| th <= phi).count()
        } else {
            t.iter().filter(|&&th| th >= phi).count()
        };
        assert_eq!(got as usize, passed, "phi = {phi}");
    }

    // The verifier's expressibility gate over a thresholds requantizer
    // with such extreme tables: W4 (15 entries) passes, W8 (255 entries)
    // exceeds the vector budget and must gate to scalar.
    let req = Requantizer::Thresholds {
        channels: vec![ch],
        zy: 0,
        out_bits: BitWidth::W4,
    };
    assert!(requant_gate(&req).0);
    let ch8 = ThresholdChannel::from_affine(1.0e-15, 3, 0, BitWidth::W8);
    let req = Requantizer::Thresholds {
        channels: vec![ch8],
        zy: 0,
        out_bits: BitWidth::W8,
    };
    let (ok, reason) = requant_gate(&req);
    assert!(!ok);
    assert!(reason.contains("255"), "reason: {reason}");
}
