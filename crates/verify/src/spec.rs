//! Shape-level verification of a [`NetworkSpec`] under a bit assignment.
//!
//! Before a single weight is trained, the worst-case overflow and
//! geometry facts are already determined by shapes and widths: the dot
//! length `k` of every layer, the kernel it lowers to (the blocked GEMM's
//! one `i32` run up to `MAX_DOT_LEN`, the direct loop's `i64` past it),
//! and the generic accumulator hull `±k·qx·qw` (weights unknown, so the
//! symmetric bound replaces [`conv_phi_intervals`]'s tight one). This is
//! the deployment-time pre-check: it runs over every model-zoo spec ×
//! assignment in the `verify_zoo` bench with no training, deterministic
//! and goldenable.
//!
//! [`conv_phi_intervals`]: crate::graph::conv_phi_intervals

use mixq_kernels::simd::MAX_DOT_LEN;
use mixq_models::{LayerKind, NetworkSpec, SpecOp};
use mixq_quant::BitWidth;

use crate::graph::{check_direct_acc, check_dot_geometry, check_schedule};
use crate::interval::Interval;
use crate::report::{NodeCert, VerifyReport, Violation};

/// Verifies a spec under per-layer widths: `w_bits[i]` / `a_bits[i]` are
/// the weight and *input-activation* precision of layer `i` (both of
/// length `spec.num_layers()`).
///
/// # Panics
///
/// Panics if the width slices don't cover the layers.
pub fn verify_spec(
    label: &str,
    spec: &NetworkSpec,
    w_bits: &[BitWidth],
    a_bits: &[BitWidth],
) -> VerifyReport {
    assert_eq!(
        w_bits.len(),
        spec.num_layers(),
        "one weight width per layer"
    );
    assert_eq!(
        a_bits.len(),
        spec.num_layers(),
        "one activation width per layer"
    );
    let graph = spec.graph();
    let mut violations = Vec::new();

    // The lowered schedule's liveness plan, checked structurally.
    let node_inputs: Vec<Vec<usize>> = graph.steps().iter().map(|s| s.inputs.clone()).collect();
    violations.extend(check_schedule(&node_inputs, graph.last_uses()));

    let mut certs = Vec::with_capacity(graph.steps().len());
    for step in graph.steps() {
        let cert = match step.op {
            SpecOp::Layer(i) => {
                let layer = &spec.layers()[i];
                let qx = a_bits[i].qmax();
                let qw = w_bits[i].qmax();
                match layer.kind() {
                    LayerKind::Conv | LayerKind::Linear => {
                        let k = if layer.kind() == LayerKind::Linear {
                            layer.in_channels()
                        } else {
                            layer.kernel() * layer.kernel() * layer.in_channels()
                        };
                        // The kernel the layer lowers to: the blocked
                        // GEMM accumulates up to `MAX_DOT_LEN` taps in
                        // `i32`, the direct loop any longer dot in `i64`.
                        let (acc, checks) = if k <= MAX_DOT_LEN {
                            check_dot_geometry(layer.name(), k, k, qx, qw)
                        } else {
                            check_direct_acc(layer.name(), k, qx, qw)
                        };
                        violations.extend(checks);
                        let phi =
                            Interval::new(-(qx as i128) * qw as i128, qx as i128 * qw as i128)
                                .sum_of(k);
                        NodeCert {
                            node: layer.name().to_string(),
                            op: if layer.kind() == LayerKind::Linear {
                                "fc"
                            } else {
                                "conv"
                            },
                            choice: "spec",
                            k,
                            chunk: k,
                            acc: acc.clamped_i64(),
                            phi: phi.clamped_i64(),
                            vectorizable: true,
                            corrections_fit_i32: Interval::new(0, k as i128 * qx as i128)
                                .fits_i32(),
                        }
                    }
                    LayerKind::DepthwiseConv => {
                        let k = layer.kernel() * layer.kernel();
                        let acc =
                            Interval::new(-(qx as i128) * qw as i128, qx as i128 * qw as i128)
                                .sum_of(k);
                        if !acc.fits_i32() {
                            let (lo, hi) = acc.clamped_i64();
                            violations.push(Violation::AccOverflow {
                                node: layer.name().to_string(),
                                stage: "depthwise-i32",
                                lo,
                                hi,
                                bound: "i32",
                            });
                        }
                        NodeCert {
                            node: layer.name().to_string(),
                            op: "dwconv",
                            choice: "spec",
                            k,
                            chunk: k,
                            acc: acc.clamped_i64(),
                            phi: acc.clamped_i64(),
                            vectorizable: true,
                            corrections_fit_i32: true,
                        }
                    }
                }
            }
            SpecOp::ResidualAdd(s) => {
                let to = spec.skips()[s].to();
                let bits = a_bits[to];
                let v = Interval::code(bits);
                NodeCert {
                    node: format!("add{s}"),
                    op: "add",
                    choice: "spec",
                    k: 0,
                    chunk: 0,
                    acc: v.clamped_i64(),
                    phi: v.clamped_i64(),
                    vectorizable: true,
                    corrections_fit_i32: true,
                }
            }
            SpecOp::AvgPool => {
                let last = spec.num_layers() - 1;
                let layer = &spec.layers()[last];
                let area = layer.in_h() * layer.in_w();
                let sum = Interval::new(0, a_bits[last].qmax() as i128 * area as i128);
                NodeCert {
                    node: "avgpool".to_string(),
                    op: "pool",
                    choice: "spec",
                    k: area,
                    chunk: area,
                    acc: sum.clamped_i64(),
                    phi: Interval::code(a_bits[last]).clamped_i64(),
                    vectorizable: true,
                    corrections_fit_i32: true,
                }
            }
        };
        certs.push(cert);
    }

    VerifyReport {
        graph: label.to_string(),
        nodes: certs,
        violations,
        peak_ram_bytes: 0,
        peak_scratch_bytes: 0,
    }
}

/// [`verify_spec`] with one uniform weight and activation width.
pub fn verify_spec_uniform(
    label: &str,
    spec: &NetworkSpec,
    w: BitWidth,
    a: BitWidth,
) -> VerifyReport {
    let n = spec.num_layers();
    verify_spec(label, spec, &vec![w; n], &vec![a; n])
}
