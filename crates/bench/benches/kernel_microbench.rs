//! Microbenchmarks of the integer kernels (the substrate behind Figure 2's
//! latency axis): convolution at 8/4/2-bit operands, depthwise vs
//! pointwise, ICN vs thresholds requantization, the direct loop against
//! the blocked GEMM with a per-phase breakdown of the latter — plus the
//! `QGraph` executor against a hand-rolled layer loop.
//!
//! These measure *host* throughput with a simple median-of-samples timer
//! (the build environment has no registry access for criterion; the shape
//! under test is relative, not absolute). The MCU latency itself comes
//! from the cycle model. Expected shape: sub-byte kernels pay an unpack
//! cost, per-channel offsets cost extra work, thresholds replace
//! multiplies with comparisons.
//!
//! Run with: `cargo bench --bench kernel_microbench`

use std::hint::black_box;
use std::time::Instant;

use mixq_bench::harness::{backend_arg, batch_arg};
use mixq_kernels::{
    ActivationArena, Backend, KernelChoice, OpCounts, OpOutput, QActivation, QAvgPool, QConv2d,
    QConvWeights, QGraph, QOp, Requantizer, ThresholdChannel, WeightOffset,
};
use mixq_quant::{BitWidth, FixedPointMultiplier};
use mixq_tensor::{ConvGeometry, Padding, Shape};

/// Times `f` over `samples` timed runs (after warmup) and reports the
/// median duration in microseconds.
fn time_us<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..2 {
        black_box(f());
    }
    let mut runs: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    runs.sort_by(|a, b| a.total_cmp(b));
    runs[runs.len() / 2]
}

fn report(group: &str, name: &str, us: f64) {
    println!("{group:>18} / {name:<14} {us:>10.1} µs");
}

/// Times `conv` on the blocked GEMM the way a graph node runs it: through
/// `QOp::execute_kernel` with the prepack cache built once, recycling
/// each output into the arena.
fn time_blocked(conv: &QConv2d, x: &QActivation) -> f64 {
    let (cache, _) = conv.prepack(KernelChoice::BlockedGemm);
    let mut arena = ActivationArena::new();
    time_us(SAMPLES, || {
        let mut ops = OpCounts::default();
        let out = conv.execute_kernel(
            KernelChoice::BlockedGemm,
            cache.as_ref(),
            &[black_box(x)],
            &mut arena,
            &mut ops,
        );
        if let OpOutput::Act(y) = out {
            arena.recycle(y);
        }
        ops
    })
}

fn conv_layer(weight_bits: BitWidth, per_channel: bool, thresholds: bool) -> QConv2d {
    let co = 16;
    let ci = 16;
    let wshape = Shape::new(co, 3, 3, ci);
    let codes: Vec<u8> = (0..wshape.volume())
        .map(|i| (i % weight_bits.levels() as usize) as u8)
        .collect();
    let offset = if per_channel {
        WeightOffset::PerChannel(vec![1i16; co])
    } else {
        WeightOffset::PerLayer(1)
    };
    let weights = QConvWeights::new(wshape, false, &codes, weight_bits, offset);
    let requant = if thresholds {
        Requantizer::thresholds(
            (0..co)
                .map(|c| ThresholdChannel::from_affine(0.002 + c as f64 * 1e-4, 3, 0, BitWidth::W4))
                .collect(),
            0,
            BitWidth::W4,
        )
    } else {
        Requantizer::icn(
            vec![3; co],
            vec![FixedPointMultiplier::from_real(0.002); co],
            0,
            BitWidth::W4,
        )
    };
    QConv2d::new(weights, ConvGeometry::new(3, 3, 1, Padding::Same), requant)
}

fn input(bits: BitWidth) -> QActivation {
    let shape = Shape::feature_map(16, 16, 16);
    let codes: Vec<u8> = (0..shape.volume())
        .map(|i| (i % bits.levels() as usize) as u8)
        .collect();
    QActivation::from_codes(shape, &codes, bits, 0)
}

const SAMPLES: usize = 20;

fn bench_conv_bitwidths() {
    for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
        let conv = conv_layer(bits, false, false);
        let x = input(BitWidth::W8);
        let us = time_us(SAMPLES, || {
            let mut ops = OpCounts::default();
            conv.execute(black_box(&x), &mut ops)
        });
        report("conv16x16x16_3x3", &format!("weights_{bits}"), us);
    }
}

fn bench_pc_vs_pl() {
    for (name, per_channel) in [("per_layer", false), ("per_channel", true)] {
        let conv = conv_layer(BitWidth::W8, per_channel, false);
        let x = input(BitWidth::W8);
        let us = time_us(SAMPLES, || {
            let mut ops = OpCounts::default();
            conv.execute(black_box(&x), &mut ops)
        });
        report("offset_mode", name, us);
    }
}

fn bench_requant_modes() {
    for (name, thresholds) in [("icn", false), ("thresholds", true)] {
        let conv = conv_layer(BitWidth::W4, true, thresholds);
        let x = input(BitWidth::W4);
        let us = time_us(SAMPLES, || {
            let mut ops = OpCounts::default();
            conv.execute(black_box(&x), &mut ops)
        });
        report("requant_mode", name, us);
    }
}

fn icn_identity(co: usize, bits: BitWidth) -> Requantizer {
    Requantizer::icn(
        vec![0; co],
        vec![FixedPointMultiplier::from_real(0.01); co],
        0,
        bits,
    )
}

fn depthwise(co: usize) -> QConv2d {
    let w = QConvWeights::new(
        Shape::new(co, 3, 3, 1),
        true,
        &vec![1u8; co * 9],
        BitWidth::W8,
        WeightOffset::PerLayer(0),
    );
    QConv2d::new(
        w,
        ConvGeometry::new(3, 3, 1, Padding::Same),
        icn_identity(co, BitWidth::W8),
    )
}

fn pointwise(co: usize) -> QConv2d {
    let w = QConvWeights::new(
        Shape::new(co, 1, 1, co),
        false,
        &vec![1u8; co * co],
        BitWidth::W8,
        WeightOffset::PerLayer(0),
    );
    QConv2d::new(w, ConvGeometry::pointwise(), icn_identity(co, BitWidth::W8))
}

fn bench_depthwise_vs_pointwise() {
    let co = 32;
    let dw = depthwise(co);
    let pw = pointwise(co);
    let shape = Shape::feature_map(16, 16, co);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 256) as u8).collect();
    let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
    let us = time_us(SAMPLES, || {
        let mut ops = OpCounts::default();
        dw.execute(black_box(&x), &mut ops)
    });
    report("dw_vs_pw", "depthwise_3x3", us);
    let us = time_us(SAMPLES, || {
        let mut ops = OpCounts::default();
        pw.execute(black_box(&x), &mut ops)
    });
    report("dw_vs_pw", "pointwise_1x1", us);
    let us = time_us(SAMPLES, || {
        let mut ops = OpCounts::default();
        QAvgPool.execute(black_box(&x), &mut ops)
    });
    report("dw_vs_pw", "avgpool", us);
}

/// The two dense-convolution dataflows head to head: the direct
/// output-stationary loop and the register-blocked GEMM.
fn bench_conv_dataflows() {
    let co = 32;
    let pw = pointwise(co);
    let shape = Shape::feature_map(16, 16, co);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 256) as u8).collect();
    let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
    let us = time_us(SAMPLES, || {
        let mut ops = OpCounts::default();
        pw.execute(black_box(&x), &mut ops)
    });
    report("conv_dataflow", "direct", us);
    report("conv_dataflow", "blocked_gemm", time_blocked(&pw, &x));
}

/// Per-phase breakdown of the blocked-GEMM dataflow: where does a layer's
/// time actually go between the im2col gather, the dot-product core, the
/// requantization epilogue and the sub-byte pack/unpack? The phases are
/// timed in isolation with the same operands the fused kernel sees, so
/// the section shows directly what the vectorized epilogue removed from
/// the post-GEMM tail (force `MIXQ_FORCE_SCALAR=1` to compare against the
/// scalar reference). Pack/unpack runs one portable loop per width on
/// every host, so its W4 and W2 rows do not move with the SIMD level.
fn bench_phase_breakdown() {
    use mixq_kernels::simd::{self, requant as vreq};
    use mixq_quant::PackedTensor;

    let conv = conv_layer(BitWidth::W4, true, false);
    let x4 = input(BitWidth::W4);
    let x8 = input(BitWidth::W8);
    let out_shape = conv.output_shape(x8.shape());
    let pixels = out_shape.pixels();
    let co = out_shape.c;
    let level = simd::active_level();

    // Phase 1: the im2col gather (sub-byte input → exercises the staged
    // one-shot word decode; 8-bit input → the pure memcpy gather).
    let mut scratch = Vec::new();
    for (name, x) in [("im2col_w4_in", &x4), ("im2col_w8_in", &x8)] {
        let us = time_us(SAMPLES, || {
            let mut ops = OpCounts::default();
            conv.im2col_into(black_box(x), &mut scratch, &mut ops);
            ops
        });
        report("phase_breakdown", name, us);
    }

    // Phase 2: the full blocked GEMM (gather, dot-product core and fused
    // epilogue) against its prepacked panels.
    report("phase_breakdown", "gemm_blocked", time_blocked(&conv, &x8));

    // Phase 3: the requantization epilogue alone, over exactly the
    // accumulator volume the layer produces.
    let accs: Vec<i32> = (0..pixels * co).map(|i| (i as i32 % 4093) - 2046).collect();
    let plan = conv.plan();
    let req = conv.requant();
    let mut codes = vec![0u8; pixels * co];
    let us = time_us(SAMPLES, || {
        let (mut rq, mut tc) = (0u64, 0u64);
        for p in 0..pixels {
            vreq::apply_i32_block(
                plan,
                req,
                level,
                0,
                black_box(&accs[p * co..(p + 1) * co]),
                &mut codes[p * co..(p + 1) * co],
                &mut rq,
                &mut tc,
            );
        }
        rq
    });
    report("phase_breakdown", "requant_epilogue", us);
    let us = time_us(SAMPLES, || {
        let (mut rq, mut tc) = (0u64, 0u64);
        for (i, &a) in accs.iter().enumerate() {
            codes[i] = req.apply(i % co, black_box(a) as i64, &mut rq, &mut tc);
        }
        rq
    });
    report("phase_breakdown", "requant_scalar", us);

    // Phase 4: sub-byte pack/unpack of the produced code volume, at both
    // sub-byte widths (the codes masked to each width's range).
    for bits in [BitWidth::W4, BitWidth::W2] {
        let mask = bits.qmax() as u8;
        let narrow: Vec<u8> = codes.iter().map(|&c| c & mask).collect();
        let mut packed = Vec::new();
        let us = time_us(SAMPLES, || {
            packed = PackedTensor::pack_into(black_box(&narrow), bits, std::mem::take(&mut packed))
                .into_bytes();
            packed.len()
        });
        report("phase_breakdown", &format!("pack_w{}", bits.bits()), us);
        let tensor = PackedTensor::pack(&narrow, bits);
        let mut unpacked = vec![0u8; narrow.len()];
        let us = time_us(SAMPLES, || tensor.unpack_into(black_box(&mut unpacked)));
        report("phase_breakdown", &format!("unpack_w{}", bits.bits()), us);
    }
}

/// The requantization epilogue alone, in ns per output element: the
/// blocked GEMM's fused `apply_gemm_row` (one row of genuine GEMV
/// accumulators per call) and the depthwise core's `apply_i32_block` (one
/// pixel's channels per call), over an ICN W4 layer of `c_o` channels, at the
/// active SIMD level and at scalar. Printed only, never goldened.
fn bench_epilogue() {
    use mixq_kernels::simd::{self, requant as vreq, SimdLevel};

    const ROWS: usize = 256;
    const K: usize = 64;
    let active = simd::active_level();
    let mut levels = vec![active];
    if active != SimdLevel::Scalar {
        levels.push(SimdLevel::Scalar);
    }
    for co in [4usize, 8, 16, 32, 64, 128, 256] {
        let wshape = Shape::new(co, 1, 1, K);
        let wcodes: Vec<u8> = (0..wshape.volume())
            .map(|i| ((i * 7 + 3) % 16) as u8)
            .collect();
        let zw: Vec<i16> = (0..co).map(|c| (c % 5) as i16 + 6).collect();
        let weights = QConvWeights::new(
            wshape,
            false,
            &wcodes,
            BitWidth::W4,
            WeightOffset::PerChannel(zw),
        );
        let requant = Requantizer::icn(
            (0..co).map(|c| c as i32 * 37 - 900).collect(),
            (0..co)
                .map(|c| FixedPointMultiplier::from_real(0.002 + c as f64 * 1e-5))
                .collect(),
            3,
            BitWidth::W4,
        );
        let conv = QConv2d::new(weights, ConvGeometry::new(1, 1, 1, Padding::Same), requant);
        let (plan, req) = (conv.plan(), conv.requant());
        let panels = conv.prepack_panels();
        // Genuine GEMV accumulators and row sums of ROWS input rows.
        let xs: Vec<u8> = (0..ROWS * K).map(|i| ((i * 13 + 5) % 256) as u8).collect();
        let mut accs = vec![0i32; ROWS * co];
        let mut sx = vec![0i64; ROWS];
        for r in 0..ROWS {
            let x = &xs[r * K..(r + 1) * K];
            sx[r] = x.iter().map(|&v| v as i64).sum();
            for c in 0..co {
                let w = &wcodes[c * K..(c + 1) * K];
                accs[r * co + c] = x.iter().zip(w).map(|(&a, &b)| a as i32 * b as i32).sum();
            }
        }
        let mut scratch = vec![0i32; vreq::GemmTerms::scratch_len(co)];
        let terms = vreq::GemmTerms::stage(plan, &panels, 11, &mut scratch);
        let mut codes = vec![0u8; ROWS * co];
        let elems = (ROWS * co) as f64;
        for &level in &levels {
            let us = time_us(SAMPLES, || {
                let (mut rq, mut tc) = (0u64, 0u64);
                for ((acc, out), &sx) in accs.chunks(co).zip(codes.chunks_mut(co)).zip(&sx) {
                    vreq::apply_gemm_row(
                        req,
                        level,
                        &terms,
                        black_box(acc),
                        sx,
                        out,
                        &mut rq,
                        &mut tc,
                    );
                }
                rq
            });
            report_ns(&format!("gemm_row/co={co}/{}", level.label()), us, elems);
            let us = time_us(SAMPLES, || {
                let (mut rq, mut tc) = (0u64, 0u64);
                for p in 0..ROWS {
                    let span = p * co..(p + 1) * co;
                    vreq::apply_i32_block(
                        plan,
                        req,
                        level,
                        0,
                        black_box(&accs[span.clone()]),
                        &mut codes[span],
                        &mut rq,
                        &mut tc,
                    );
                }
                rq
            });
            report_ns(&format!("i32_block/co={co}/{}", level.label()), us, elems);
        }
    }
}

/// Prints a timing as ns per output element.
fn report_ns(name: &str, us: f64, elems: f64) {
    println!(
        "{:>18} / {name:<26} {:>8.2} ns/elem",
        "epilogue",
        us * 1e3 / elems
    );
}

/// The graph executor's arena (reused output buffers) against the naive
/// per-layer loop that allocates a fresh activation every layer, under the
/// `--backend` flag's kernel selection.
fn bench_graph_vs_loop() {
    let co = 32;
    let layers = vec![depthwise(co), pointwise(co), depthwise(co), pointwise(co)];
    let shape = Shape::feature_map(16, 16, co);
    let codes: Vec<u8> = (0..shape.volume()).map(|i| (i % 256) as u8).collect();
    let x = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);

    let backend = backend_arg();
    let mut graph = QGraph::with_input(shape, BitWidth::W8);
    for (i, l) in layers.iter().enumerate() {
        graph.push(format!("blk{i}"), l.clone());
    }
    graph.select_kernels(&backend);
    let us = time_us(SAMPLES, || {
        let run = graph.run(black_box(x.clone()));
        run.total_ops()
    });
    report("graph_executor", &format!("qgraph_{}", backend.name()), us);

    // Batch-N walk under the --batch flag: one graph traversal for the
    // whole batch, per-sample time reported.
    let batch = batch_arg();
    let batched_shape = shape.with_batch(batch);
    let batched_codes: Vec<u8> = (0..batched_shape.volume())
        .map(|i| (i % 256) as u8)
        .collect();
    let xb = QActivation::from_codes(batched_shape, &batched_codes, BitWidth::W8, 0);
    let us = time_us(SAMPLES, || {
        let run = graph.run(black_box(xb.clone()));
        run.total_ops()
    }) / batch as f64;
    report(
        "graph_executor",
        &format!("qgraph_{}_batch{batch}_per_sample", backend.name()),
        us,
    );

    let us = time_us(SAMPLES, || {
        let mut ops = OpCounts::default();
        let mut a = black_box(x.clone());
        for l in &layers {
            a = l.execute(&a, &mut ops);
        }
        ops
    });
    report("graph_executor", "naive_loop", us);
}

fn main() {
    println!("kernel microbench (median of {SAMPLES} runs, host CPU)");
    bench_conv_bitwidths();
    bench_pc_vs_pl();
    bench_requant_modes();
    bench_depthwise_vs_pointwise();
    bench_conv_dataflows();
    bench_phase_breakdown();
    bench_epilogue();
    bench_graph_vs_loop();
}
