//! Static verification of a lowered [`QGraph`].
//!
//! [`verify_graph`] walks the deployed schedule once, node by node, and
//! runs interval range analysis through each resolved kernel's exact
//! dataflow:
//!
//! * **u8 codes** — `[0, 2^Q − 1]` from the tensor plan's bit widths;
//! * **dot-product chunks** — the `i32` accumulation run the blocked GEMM
//!   hands `gemv2`: the whole patch, odd-`k` tails included, which the
//!   kernel's contract bounds by `MAX_DOT_LEN`;
//! * **folded `Φ`** — the per-channel `i64` totals after the hoisted
//!   zero-point corrections, bounded *tightly* from the actual weight
//!   codes (not the generic `±k·qx·qw` hull);
//! * **requantization** — the saturating `Φ + Bq` input, the fixed-point
//!   `M0·2^N0` shift gate, and threshold-table monotonicity.
//!
//! Each fact that cannot be proven becomes a structured
//! [`Violation`]; the per-node bounds that *were* proven are returned as
//! [`NodeCert`]s so callers (and the goldened `verify_zoo` bench) can
//! assert tightness, not just absence of failure.

use mixq_kernels::simd::MAX_DOT_LEN;
use mixq_kernels::{AnyOp, KernelChoice, QAdd, QConv2d, QGraph, QLinear, QOp, Requantizer};
use mixq_quant::BitWidth;
use mixq_tensor::Shape;

use crate::interval::Interval;
use crate::report::{NodeCert, VerifyReport, Violation};

/// Relative tolerance for the `QAdd` declared-scale consistency check:
/// `FixedPointMultiplier::from_real` is exact to ~2^-31, so any honest
/// construction sits far inside this.
const JOIN_SCALE_RTOL: f64 = 1e-6;

/// Checks the dot-product geometry one GEMM-lowered layer hands to
/// `gemv2`: the dispatch contract (`chunk ≤ MAX_DOT_LEN`, the bound the
/// u16-pair SIMD cores are proven for) and the arithmetic bound (the
/// worst-case unsigned partial sum `chunk·qx·qw` must fit `i32`).
///
/// The two are deliberately separate facts: `MAX_DOT_LEN = 32768` is
/// stricter than the arithmetic limit `⌊2³¹/(255·255)⌋ = 33025`, so a
/// forged chunk of, say, `MAX_DOT_LEN + 1` violates the contract while
/// still being arithmetically safe — the verifier reports exactly which
/// line was crossed.
///
/// Returns the proven `i32`-chunk accumulator interval plus any
/// violations.
pub fn check_dot_geometry(
    node: &str,
    k: usize,
    chunk: usize,
    qx: u32,
    qw: u32,
) -> (Interval, Vec<Violation>) {
    let mut violations = Vec::new();
    if chunk > MAX_DOT_LEN {
        violations.push(Violation::DotLengthExceedsKernel {
            node: node.to_string(),
            k,
            chunk,
            max: MAX_DOT_LEN,
        });
    }
    let acc = Interval::new(0, chunk as i128 * qx as i128 * qw as i128);
    if !acc.fits_i32() {
        let (lo, hi) = acc.clamped_i64();
        violations.push(Violation::AccOverflow {
            node: node.to_string(),
            stage: "i32-chunk",
            lo,
            hi,
            bound: "i32",
        });
    }
    (acc, violations)
}

/// The direct loop's accumulator interval `±k·qx·qw`: it accumulates
/// `(x − Zx)(w − Zw)` in `i64` over a `k`-tap dot, for the dense layers
/// that do not lower to the blocked GEMM. Returns the interval plus an
/// `i64-acc` violation if it leaves `i64`.
pub(crate) fn check_direct_acc(
    node: &str,
    k: usize,
    qx: u32,
    qw: u32,
) -> (Interval, Vec<Violation>) {
    let acc = Interval::new(-(qx as i128) * qw as i128, qx as i128 * qw as i128).sum_of(k);
    let mut violations = Vec::new();
    if !acc.fits_i64() {
        let (lo, hi) = acc.clamped_i64();
        violations.push(Violation::AccOverflow {
            node: node.to_string(),
            stage: "i64-acc",
            lo,
            hi,
            bound: "i64",
        });
    }
    (acc, violations)
}

/// Tight per-output-channel intervals of the folded accumulator
/// `Φ_c(X, Zx) = Σ_i x_i·(w_i − Zw_c) − Zx·base_c` computed from the
/// layer's *actual* weight codes, with `x_i ∈ [0, qx]` free per tap and
/// the input zero-point ranging over `zx` (pass a point interval when the
/// producer's zero-point is statically known, `[0, qx]` otherwise).
///
/// The returned bounds are achievable: `hi` is attained by setting
/// `x_i = qx` exactly where `w_i > Zw_c` (and 0 elsewhere) at the
/// `zx` endpoint minimizing the correction — the adversarial corner tests
/// drive these inputs through the kernels and assert the interval is met.
pub fn conv_phi_intervals(conv: &QConv2d, in_bits: BitWidth, zx: Interval) -> Vec<Interval> {
    let w = conv.weights();
    let codes = w.codes();
    let qx = in_bits.qmax() as i128;
    let co_n = w.out_channels();
    let taps = conv.geometry().kernel_area() * if w.is_depthwise() { 1 } else { w.in_channels() };
    let mut out = Vec::with_capacity(co_n);
    for co in 0..co_n {
        let zw = w.offset().at(co) as i128;
        let row = &codes[co * taps..(co + 1) * taps];
        let (mut lo, mut hi, mut sum) = (0i128, 0i128, 0i128);
        for &c in row {
            let d = c as i128 - zw;
            sum += c as i128;
            if d > 0 {
                hi += qx * d;
            } else {
                lo += qx * d;
            }
        }
        let base = sum - taps as i128 * zw;
        let phi = Interval::new(lo, hi).add(zx.mul_const(-base));
        out.push(phi);
    }
    out
}

/// The `i32` accumulator interval of the depthwise core: every partial
/// sum of `Σ_t (x_t − Zx)·(w_t − Zw_c)` over a channel's taps, for
/// `x_t ∈ [0, qx]` and the input zero-point ranging over `zx`.
///
/// When every zero-point is a code (`zx ⊆ [0, qx]`, every `Zw_c ∈ [0,
/// qw]`), `|x − Zx| ≤ qx` and `|w − Zw| ≤ qw`, so the nominal
/// `±taps·qx·qw` hull holds. Otherwise the bound widens from the actual
/// weight codes: each tap adds `(x − Zx)·(w_t − Zw_c)` with `x − Zx` over
/// its whole range (and zero, for padded taps and partial sums).
fn depthwise_acc_interval(conv: &QConv2d, in_bits: BitWidth, zx: Interval) -> Interval {
    let w = conv.weights();
    let qx = in_bits.qmax() as i128;
    let qw = w.bits().qmax() as i128;
    let taps = conv.geometry().kernel_area();
    let co_n = w.out_channels();
    let codes_in_range = zx.lo() >= 0
        && zx.hi() <= qx
        && (0..co_n).all(|co| (0..=qw).contains(&(w.offset().at(co) as i128)));
    if codes_in_range {
        return Interval::new(-qx * qw, qx * qw).sum_of(taps);
    }
    let xd = Interval::new(-zx.hi(), qx - zx.lo());
    let codes = w.codes();
    (0..co_n)
        .map(|co| {
            let zw = w.offset().at(co) as i128;
            codes[co * taps..(co + 1) * taps]
                .iter()
                .map(|&c| xd.mul_const(c as i128 - zw).hull(Interval::ZERO))
                .fold(Interval::ZERO, Interval::add)
        })
        .reduce(Interval::hull)
        .unwrap_or(Interval::ZERO)
}

/// The operand intervals the depthwise core multiplies as `i16`: the
/// input term `x − Zx` (`x ∈ [0, qx]`, `Zx` over `zx`) and the weight term
/// `w − Zw_c` over every code `w ∈ [0, qw]` and channel — the range the
/// kernel's per-layer fast-path gate checks.
fn depthwise_operand_intervals(
    conv: &QConv2d,
    in_bits: BitWidth,
    zx: Interval,
) -> (Interval, Interval) {
    let w = conv.weights();
    let qw = w.bits().qmax() as i128;
    let xd = Interval::new(-zx.hi(), in_bits.qmax() as i128 - zx.lo());
    let wd = (0..w.out_channels())
        .map(|co| {
            let zw = w.offset().at(co) as i128;
            Interval::new(-zw, qw - zw)
        })
        .reduce(Interval::hull)
        .unwrap_or(Interval::ZERO);
    (xd, wd)
}

/// Per-channel `base_c = Σ W − k·Zw` values of a conv layer (the
/// prepacked correction table), recomputed from the weight codes.
fn conv_bases(conv: &QConv2d) -> Vec<i128> {
    let w = conv.weights();
    let codes = w.codes();
    let co_n = w.out_channels();
    let taps = conv.geometry().kernel_area() * if w.is_depthwise() { 1 } else { w.in_channels() };
    (0..co_n)
        .map(|co| {
            let zw = w.offset().at(co) as i128;
            let sum: i128 = codes[co * taps..(co + 1) * taps]
                .iter()
                .map(|&c| c as i128)
                .sum();
            sum - taps as i128 * zw
        })
        .collect()
}

/// Recomputes the SIMD-expressibility gate straight from the requantizer
/// parameters (independently of the stored `RequantPlan`): fixed-point
/// schemes need every effective shift `31 − N0 ≥ 0`; threshold schemes
/// need `qmax ≤ 15` and regular table lengths. Returns the expected gate
/// and, when `false`, the reason.
pub fn requant_gate(req: &Requantizer) -> (bool, String) {
    match req {
        Requantizer::FoldedPerLayer { mult, .. } => {
            if mult.shift() < 0 {
                (
                    false,
                    format!("layer multiplier shift {} < 0 (N0 > 31)", mult.shift()),
                )
            } else {
                (true, String::new())
            }
        }
        Requantizer::Icn { mult, .. } => {
            for (c, m) in mult.iter().enumerate() {
                if m.shift() < 0 {
                    return (
                        false,
                        format!("channel {c} multiplier shift {} < 0 (N0 > 31)", m.shift()),
                    );
                }
            }
            (true, String::new())
        }
        Requantizer::Thresholds {
            channels, out_bits, ..
        } => {
            let qmax = out_bits.qmax() as usize;
            if qmax > 15 {
                return (
                    false,
                    format!("{qmax}-entry tables exceed the 15-threshold vector budget"),
                );
            }
            for (c, ch) in channels.iter().enumerate() {
                if !ch.is_empty() && ch.len() != qmax {
                    return (
                        false,
                        format!(
                            "channel {c} table has {} entries, expected {qmax}",
                            ch.len()
                        ),
                    );
                }
            }
            (true, String::new())
        }
    }
}

/// Validates a liveness schedule against the uses it must serve: every
/// read of tensor `t` at step `i` needs `last_uses[t] ≥ i` (otherwise the
/// arena reclaims the bytes and a later allocation aliases them), every
/// tensor's entry must cover its defining step, and the terminal tensor
/// must survive the whole run.
///
/// `node_inputs[i]` are the tensor ids step `i` reads (tensor `t + 1` is
/// defined by step `t`; tensor 0 is the graph input).
pub fn check_schedule(node_inputs: &[Vec<usize>], last_uses: &[usize]) -> Vec<Violation> {
    let n = node_inputs.len();
    let mut violations = Vec::new();
    if last_uses.len() != n + 1 {
        violations.push(Violation::ScheduleMalformed {
            detail: format!(
                "schedule covers {} tensors, graph defines {}",
                last_uses.len(),
                n + 1
            ),
        });
        return violations;
    }
    for (i, inputs) in node_inputs.iter().enumerate() {
        for &t in inputs {
            if t > i {
                violations.push(Violation::ScheduleMalformed {
                    detail: format!("step {i} reads tensor {t} before it is defined"),
                });
                continue;
            }
            if last_uses[t] < i {
                violations.push(Violation::ScheduleAliasing {
                    tensor: t,
                    freed_after: last_uses[t],
                    used_at: i,
                });
            }
        }
    }
    if n > 0 && last_uses[n] < n {
        violations.push(Violation::TerminalDropped {
            tensor: n,
            freed_after: last_uses[n],
            needed_until: n,
        });
    }
    violations
}

/// Statically verifies a lowered graph: per-node overflow intervals for
/// the resolved kernels, requant plan gating, schedule aliasing, scratch
/// sufficiency and join consistency. See the module docs for the abstract
/// domains; `label` tags the report (model / backend / assignment).
pub fn verify_graph(label: &str, g: &QGraph, input: Shape, in_bits: BitWidth) -> VerifyReport {
    let mut violations = Vec::new();

    if let Some((decl_shape, decl_bits)) = g.input_decl() {
        if decl_shape.item_volume() != input.item_volume() || decl_bits != in_bits {
            violations.push(Violation::ShapeMismatch {
                node: "<input>".to_string(),
                detail: format!(
                    "graph declares input {decl_shape} @ {decl_bits:?}, verifying {input} @ {in_bits:?}"
                ),
            });
        }
    }

    let (shapes, bits) = g.tensor_plan(input, in_bits);
    let last = g.last_uses();
    let node_inputs: Vec<Vec<usize>> = g.nodes().iter().map(|n| n.inputs().to_vec()).collect();
    violations.extend(check_schedule(&node_inputs, &last));

    // Static zero-point propagation: the code of real zero on each edge,
    // where the producer determines it (input zero-points are a runtime
    // property of the activation, so tensor 0 stays unknown).
    let mut zp: Vec<Option<i64>> = vec![None; shapes.len()];

    let mut certs = Vec::with_capacity(g.len());
    let mut computed_peak_ram = 0usize;
    let mut max_scratch = 0usize;
    let planned_scratch = g.peak_scratch_bytes(input, in_bits);

    for (i, node) in g.nodes().iter().enumerate() {
        let in_shapes: Vec<Shape> = node.inputs().iter().map(|&t| shapes[t]).collect();
        let in_bits_v: Vec<BitWidth> = node.inputs().iter().map(|&t| bits[t]).collect();

        // Eq. 7 live-set walk, independent of the planner's own loop.
        let out_bytes = node.op().output_bytes(&in_shapes, &in_bits_v);
        let live: usize = (0..=i)
            .filter(|&t| last.get(t).is_some_and(|&l| l >= i))
            .map(|t| bits[t].bytes_for(shapes[t].volume()))
            .sum();
        computed_peak_ram = computed_peak_ram.max(live + out_bytes);

        let scratch = node
            .op()
            .scratch_bytes(node.choice(), &in_shapes, &in_bits_v);
        max_scratch = max_scratch.max(scratch);
        if scratch > planned_scratch {
            violations.push(Violation::ScratchShortfall {
                node: node.name().to_string(),
                needed_bytes: scratch,
                planned_bytes: planned_scratch,
            });
        }

        let cert = match node.op() {
            AnyOp::Conv(conv) => verify_conv(
                node.name(),
                conv,
                node.choice(),
                in_shapes[0],
                in_bits_v[0],
                zp[node.inputs()[0]],
                &mut violations,
            ),
            AnyOp::Linear(lin) => verify_linear(
                node.name(),
                lin,
                node.choice(),
                in_bits_v[0],
                zp[node.inputs()[0]],
                &mut violations,
            ),
            AnyOp::Pool(_) => verify_pool(node.name(), in_shapes[0], in_bits_v[0]),
            AnyOp::Add(add) => verify_add(
                node.name(),
                add,
                &in_shapes,
                &in_bits_v,
                [zp[node.inputs()[0]], zp[node.inputs()[1]]],
                &mut violations,
            ),
        };
        certs.push(cert);

        // Output zero-point for downstream edges.
        let out_t = i + 1;
        zp[out_t] = match node.op() {
            AnyOp::Conv(conv) => Some(conv.requant().zero_point() as i64),
            AnyOp::Pool(_) => zp[node.inputs()[0]],
            AnyOp::Add(add) => Some(add.zero_point() as i64),
            AnyOp::Linear(_) => None, // i32 logits carry no code zero-point
        };
    }

    let planned_ram = g.peak_ram_bytes(input, in_bits);
    if computed_peak_ram != planned_ram {
        violations.push(Violation::RamPlanMismatch {
            computed: computed_peak_ram,
            planned: planned_ram,
        });
    }

    VerifyReport {
        graph: label.to_string(),
        nodes: certs,
        violations,
        peak_ram_bytes: planned_ram,
        peak_scratch_bytes: planned_scratch,
    }
}

fn verify_conv(
    name: &str,
    conv: &QConv2d,
    choice: KernelChoice,
    in_shape: Shape,
    in_bits: BitWidth,
    zp_in: Option<i64>,
    violations: &mut Vec<Violation>,
) -> NodeCert {
    let w = conv.weights();
    let qx = in_bits.qmax();
    let qw = w.bits().qmax();
    let depthwise = w.is_depthwise();
    let expected_c = if depthwise {
        w.out_channels()
    } else {
        w.in_channels()
    };
    if in_shape.c != expected_c {
        violations.push(Violation::ShapeMismatch {
            node: name.to_string(),
            detail: format!(
                "input has {} channels, weights expect {expected_c}",
                in_shape.c
            ),
        });
    }
    if depthwise && choice == KernelChoice::BlockedGemm {
        violations.push(Violation::ShapeMismatch {
            node: name.to_string(),
            detail: "depthwise layer lowered to a GEMM kernel".to_string(),
        });
    }
    let taps = conv.geometry().kernel_area() * if depthwise { 1 } else { w.in_channels() };

    // The input zero-point: statically known from the producer, or any
    // code of the input width.
    let zx = match zp_in {
        Some(z) => Interval::point(z.into()),
        None => Interval::new(0, qx as i128),
    };

    // Accumulation stage of the resolved kernel; each runs all `taps` in
    // one register.
    let acc = match (depthwise, choice) {
        // Depthwise core: i16 operands (x − Zx, w − Zw) into an i32
        // accumulator over `kernel_area` taps per channel.
        (true, _) => {
            let (xd, wd) = depthwise_operand_intervals(conv, in_bits, zx);
            for operand in [xd, wd] {
                if !operand.fits_i16() {
                    let (lo, hi) = operand.clamped_i64();
                    violations.push(Violation::AccOverflow {
                        node: name.to_string(),
                        stage: "depthwise-i16",
                        lo,
                        hi,
                        bound: "i16",
                    });
                }
            }
            let acc = depthwise_acc_interval(conv, in_bits, zx);
            if !acc.fits_i32() {
                let (lo, hi) = acc.clamped_i64();
                violations.push(Violation::AccOverflow {
                    node: name.to_string(),
                    stage: "depthwise-i32",
                    lo,
                    hi,
                    bound: "i32",
                });
            }
            acc
        }
        // Blocked GEMM: unsigned code dot products over the whole patch
        // in one i32 run.
        (false, KernelChoice::BlockedGemm) => {
            let (acc, geo) = check_dot_geometry(name, taps, taps, qx, qw);
            violations.extend(geo);
            acc
        }
        // The direct loop accumulates (x − Zx)(w − Zw) in i64.
        (false, KernelChoice::DirectConv) => {
            let (acc, checks) = check_direct_acc(name, taps, qx, qw);
            violations.extend(checks);
            acc
        }
    };

    // Tight folded-Φ interval per channel, hulled for the certificate.
    let phis = conv_phi_intervals(conv, in_bits, zx);
    let phi_hull = phis
        .iter()
        .copied()
        .reduce(Interval::hull)
        .unwrap_or(Interval::ZERO);

    // Requantization: the saturating Φ + Bq input must fit i32 for the
    // fixed-point schemes to be exact; thresholds compare in i64.
    let req = conv.requant();
    match req {
        Requantizer::FoldedPerLayer { bq, .. } | Requantizer::Icn { bq, .. } => {
            for (c, phi) in phis.iter().enumerate() {
                let v = phi.add_const(bq[c] as i128);
                if !v.fits_i32() {
                    let (lo, hi) = v.clamped_i64();
                    violations.push(Violation::AccOverflow {
                        node: name.to_string(),
                        stage: "requant-bias",
                        lo,
                        hi,
                        bound: "i32",
                    });
                    break; // one per node is diagnostic enough
                }
            }
        }
        Requantizer::Thresholds { channels, .. } => {
            if !phi_hull.fits_i64() {
                let (lo, hi) = phi_hull.clamped_i64();
                violations.push(Violation::AccOverflow {
                    node: name.to_string(),
                    stage: "threshold-phi",
                    lo,
                    hi,
                    bound: "i64",
                });
            }
            for (c, ch) in channels.iter().enumerate() {
                if !ch.is_empty() && !threshold_monotone(ch.thresholds()) {
                    violations.push(Violation::ThresholdNotMonotone {
                        node: name.to_string(),
                        channel: c,
                    });
                }
            }
        }
    }

    // Plan gate cross-check: the stored RequantPlan vs the gate
    // recomputed from the parameters.
    let (expected_gate, reason) = requant_gate(req);
    let plan_gate = conv.plan().vectorizable();
    if expected_gate != plan_gate {
        violations.push(Violation::PlanGateMismatch {
            node: name.to_string(),
            plan_vectorizable: plan_gate,
            reason: if expected_gate {
                "parameters are expressible but the plan forces scalar".to_string()
            } else {
                reason
            },
        });
    }

    // Output zero-point must be a representable code.
    let zy = req.zero_point() as i64;
    let out_qmax = req.out_bits().qmax();
    if zy < 0 || zy > out_qmax as i64 {
        violations.push(Violation::ZeroPointOutOfRange {
            node: name.to_string(),
            zero_point: zy,
            qmax: out_qmax,
        });
    }

    // NEON GEMM-row correction operands: Σ X ≤ k·qx, Zw, base — all i32?
    let sx_max = taps as i128 * qx as i128;
    let corrections_fit = Interval::new(0, sx_max).fits_i32()
        && conv_bases(conv)
            .iter()
            .all(|&b| Interval::point(b).fits_i32());

    NodeCert {
        node: name.to_string(),
        op: if depthwise { "dwconv" } else { "conv" },
        choice: choice.label(),
        k: taps,
        chunk: taps,
        acc: acc.clamped_i64(),
        phi: phi_hull.clamped_i64(),
        vectorizable: plan_gate,
        corrections_fit_i32: corrections_fit,
    }
}

fn verify_linear(
    name: &str,
    lin: &QLinear,
    choice: KernelChoice,
    in_bits: BitWidth,
    zp_in: Option<i64>,
    violations: &mut Vec<Violation>,
) -> NodeCert {
    let w = lin.weights();
    let qx = in_bits.qmax() as i128;
    let k = lin.in_features();
    let codes = w.codes();
    let zx = match zp_in {
        Some(z) => Interval::point(z.into()),
        None => Interval::new(0, qx),
    };
    // Tight per-class logit interval from the actual weights: each term
    // (x − Zx)(w − Zw) with x free in [0, qx].
    let mut hull = Interval::ZERO;
    let mut all_fit = true;
    for (o, &bq) in lin.bq().iter().enumerate() {
        let zw = w.offset().at(o) as i128;
        let mut logit = Interval::point(bq as i128);
        for &c in &codes[o * k..(o + 1) * k] {
            let x = Interval::new(0, qx);
            logit = logit.add(x.sub(zx).mul_const(c as i128 - zw));
        }
        if !logit.fits_i32() {
            all_fit = false;
        }
        hull = hull.hull(logit);
    }
    if !all_fit {
        let (lo, hi) = hull.clamped_i64();
        violations.push(Violation::AccOverflow {
            node: name.to_string(),
            stage: "logits",
            lo,
            hi,
            bound: "i32",
        });
    }
    // Accumulation stage of the resolved kernel: the blocked GEMV sums
    // unsigned code products over all `c_i` features in one i32 run (its
    // epilogue folds the zero-points in i64, as the oracle does); the
    // direct loop accumulates the logit itself in i64.
    let acc = match choice {
        KernelChoice::BlockedGemm => {
            let (acc, geo) = check_dot_geometry(name, k, k, qx as u32, w.bits().qmax());
            violations.extend(geo);
            acc
        }
        KernelChoice::DirectConv => hull,
    };
    NodeCert {
        node: name.to_string(),
        op: "fc",
        choice: choice.label(),
        k,
        chunk: k,
        acc: acc.clamped_i64(),
        phi: hull.clamped_i64(),
        vectorizable: false, // the logit epilogue is a scalar loop per class
        corrections_fit_i32: all_fit,
    }
}

fn verify_pool(name: &str, in_shape: Shape, in_bits: BitWidth) -> NodeCert {
    // u64 code sum over the pooled area; the mean is again a code.
    let area = (in_shape.h * in_shape.w) as i128;
    let sum = Interval::new(0, in_bits.qmax() as i128 * area);
    NodeCert {
        node: name.to_string(),
        op: "pool",
        choice: "direct",
        k: area as usize,
        chunk: area as usize,
        acc: sum.clamped_i64(),
        phi: Interval::code(in_bits).clamped_i64(),
        vectorizable: true,
        corrections_fit_i32: true,
    }
}

/// Verifies one residual-join node in isolation — the hook the
/// adversarial tests and the `verify_zoo` forged section use to feed a
/// deliberately inconsistent [`QAdd`] (mismatched declared scales, wrong
/// edge zero-points) to the same checker [`verify_graph`] runs, without
/// having to lower a whole graph around it.
///
/// `zp_in` are the statically-known producer zero-points of the two
/// branches (`None` where unknown, as for a graph input).
pub fn verify_add_node(
    name: &str,
    add: &QAdd,
    in_shapes: [Shape; 2],
    in_bits: [BitWidth; 2],
    zp_in: [Option<i64>; 2],
) -> (NodeCert, Vec<Violation>) {
    let mut violations = Vec::new();
    let cert = verify_add(name, add, &in_shapes, &in_bits, zp_in, &mut violations);
    (cert, violations)
}

fn verify_add(
    name: &str,
    add: &QAdd,
    in_shapes: &[Shape],
    in_bits: &[BitWidth],
    zp_in: [Option<i64>; 2],
    violations: &mut Vec<Violation>,
) -> NodeCert {
    if in_shapes[0] != in_shapes[1] {
        violations.push(Violation::ShapeMismatch {
            node: name.to_string(),
            detail: format!(
                "residual branches disagree: {} vs {}",
                in_shapes[0], in_shapes[1]
            ),
        });
    }
    let (ma, mb) = add.multipliers();
    let (za, zb) = add.input_zero_points();
    let zy = add.zero_point() as i64;
    let out_qmax = add.out_bits().qmax();
    if zy < 0 || zy > out_qmax as i64 {
        violations.push(Violation::ZeroPointOutOfRange {
            node: name.to_string(),
            zero_point: zy,
            qmax: out_qmax,
        });
    }
    // Edge zero-point agreement: the add subtracts Z_a/Z_b; the producer
    // of each branch determines what the code of real zero actually is.
    for (branch, (z_stored, z_prod)) in [("a", (za, zp_in[0])), ("b", (zb, zp_in[1]))] {
        if let Some(expected) = z_prod {
            if expected != z_stored as i64 {
                violations.push(Violation::ZeroPointMismatch {
                    node: name.to_string(),
                    branch,
                    expected,
                    got: z_stored as i64,
                });
            }
        }
    }
    // Declared-scale consistency: the baked multiplier must realize the
    // declared S_branch/S_out ratio.
    if let Some((sa, sb, sy)) = add.declared_scales() {
        for (branch, declared, m) in [("a", sa / sy, ma), ("b", sb / sy, mb)] {
            let realized = m.to_real();
            let denom = declared.abs().max(f64::MIN_POSITIVE);
            if ((realized - declared) / denom).abs() > JOIN_SCALE_RTOL {
                violations.push(Violation::JoinScaleMismatch {
                    node: name.to_string(),
                    branch,
                    declared_ratio: declared,
                    realized_ratio: realized,
                });
            }
        }
    }
    // Value range: Z_y + M_a(q_a − Z_a) + M_b(q_b − Z_b) in i64, clamped
    // to the output code range — overflow-free by construction, recorded
    // for the certificate.
    let va = Interval::code(in_bits[0])
        .add_const(-(za as i128))
        .apply_fixed(ma);
    let vb = Interval::code(in_bits[1])
        .add_const(-(zb as i128))
        .apply_fixed(mb);
    let v = va.add(vb).add_const(zy as i128);
    NodeCert {
        node: name.to_string(),
        op: "add",
        choice: "direct",
        k: 0,
        chunk: 0,
        acc: v.clamped_i64(),
        phi: v.clamped_i64(),
        vectorizable: true, // LUT-gathered; always expressible
        corrections_fit_i32: true,
    }
}

/// Whether a threshold table is monotone (either direction) — the
/// property the binary search in `ThresholdChannel::eval` relies on.
fn threshold_monotone(t: &[i64]) -> bool {
    t.windows(2).all(|w| w[0] <= w[1]) || t.windows(2).all(|w| w[0] >= w[1])
}
