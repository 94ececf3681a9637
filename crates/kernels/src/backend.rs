//! The kernel backend layer: build-time selection of the concrete kernel
//! implementation each graph node executes with.
//!
//! The paper's deployment story (§6) binds every layer to the
//! best-fitting CMSIS-NN kernel for its shape and bit-width; mixed-precision
//! follow-ups on PULP dispatch per-layer the same way. This module makes
//! that binding an explicit, pluggable API:
//!
//! * [`KernelChoice`] — the closed set of kernel implementations a node can
//!   resolve to: the direct loop, the scalar oracle, and the
//!   register-blocked GEMM, the one fast path for dense convolutions and
//!   the classifier head;
//! * [`Backend`] — the selection policy: given a node's op, input shapes
//!   and bit-widths, pick a choice at **graph build time**;
//! * [`ReferenceBackend`] — direct kernels everywhere (bit-identical to the
//!   pre-backend executor);
//! * [`TiledBackend`] — a cost-driven policy that lowers standard
//!   convolutions and the classifier head onto the register-blocked,
//!   cache-tiled GEMM whenever its modeled cycle cost beats the direct
//!   loop.
//!
//! Every choice is **bit-identical in output codes**: backends trade
//! dataflow (and therefore cycles and scratch RAM), never arithmetic.
//! Selection is deterministic shape math, so per-node decisions golden
//! cleanly in the regression CI.
//!
//! # Plugging a custom backend
//!
//! Implement [`Backend`] and hand it to
//! [`QGraph::select_kernels`](crate::QGraph::select_kernels) or
//! `mixq_core::convert::convert_with_backend`. Only return choices the op
//! supports ([`QOp::supported_kernels`]); the graph validates the
//! selection.
//!
//! ```
//! use mixq_kernels::{AnyOp, Backend, KernelChoice, QOp};
//! use mixq_quant::BitWidth;
//! use mixq_tensor::Shape;
//!
//! /// Forces the blocked GEMM on every op that supports it, whatever its
//! /// modeled cost.
//! struct BlockedEverywhere;
//!
//! impl Backend for BlockedEverywhere {
//!     fn name(&self) -> &'static str {
//!         "blocked-everywhere"
//!     }
//!     fn select(&self, op: &AnyOp, _inputs: &[Shape], _in_bits: &[BitWidth]) -> KernelChoice {
//!         if op.supported_kernels().contains(&KernelChoice::BlockedGemm) {
//!             KernelChoice::BlockedGemm
//!         } else {
//!             KernelChoice::DirectConv
//!         }
//!     }
//! }
//! ```

use std::fmt;

use mixq_quant::BitWidth;
use mixq_tensor::Shape;

use crate::graph::{AnyOp, QOp};

/// The concrete kernel implementation a graph node resolved to at build
/// time. Both choices produce bit-identical output codes; they differ in
/// dataflow — cycles and transient scratch RAM. A node runs its choice
/// through [`QOp::execute_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// The direct output-stationary loop, the scalar oracle
    /// ([`QConv2d::execute`](crate::QConv2d::execute) and
    /// [`QLinear::execute`](crate::QLinear::execute) run it one-shot),
    /// which runs depthwise layers on the depthwise fast core; the only
    /// implementation for depthwise convolutions, pooling and residual
    /// adds.
    DirectConv,
    /// im2col followed by the register-blocked, cache-tiled GEMM inner
    /// kernel ([`crate::blocked`]), the fast dense path; needs an im2col
    /// scratch buffer unless it borrows the input
    /// ([`QConv2d::blocked_borrows_input`](crate::QConv2d::blocked_borrows_input)).
    /// Offered for standard convolutions whose patch length
    /// `k = k_h·k_w·c_i` is at most
    /// [`MAX_DOT_LEN`](crate::simd::MAX_DOT_LEN), which it accumulates in
    /// one `i32` run, and for the classifier head with at most that many
    /// input features: the batch items are its GEMV rows, an 8-bit input
    /// is borrowed and a sub-byte one unpacked into scratch.
    BlockedGemm,
}

impl KernelChoice {
    /// Short machine-friendly label (used in breakdown tables and the
    /// golden JSON).
    pub const fn label(self) -> &'static str {
        match self {
            KernelChoice::DirectConv => "direct",
            KernelChoice::BlockedGemm => "blocked_gemm",
        }
    }
}

impl fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A kernel-selection policy: given a node's operator, the shapes and
/// precisions of its input tensors, pick the [`KernelChoice`] the node will
/// execute with.
///
/// Selection runs at graph build time
/// ([`QGraph::select_kernels`](crate::QGraph::select_kernels)); the resolved
/// choice is stored on the node, drives execution dispatch, the scratch-RAM
/// model ([`QGraph::peak_scratch_bytes`](crate::QGraph::peak_scratch_bytes))
/// and the per-choice cycle pricing in `mixq-mcu`. Implementations must be
/// deterministic functions of their arguments — decisions are golden-tested.
pub trait Backend {
    /// Backend name (reports and bench tables).
    fn name(&self) -> &'static str;

    /// Selects the kernel for one node. Must return a choice listed in the
    /// op's [`QOp::supported_kernels`]; the graph asserts this.
    fn select(&self, op: &AnyOp, inputs: &[Shape], in_bits: &[BitWidth]) -> KernelChoice;
}

/// The reference backend: the direct kernel everywhere. A graph selected
/// with it is bit-identical — codes, ledgers, scratch and cycles — to the
/// pre-backend executor, and is the default wherever a backend parameter
/// grew onto an existing API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReferenceBackend;

impl Backend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn select(&self, _op: &AnyOp, _inputs: &[Shape], _in_bits: &[BitWidth]) -> KernelChoice {
        KernelChoice::DirectConv
    }
}

/// The cost-driven tiled backend: lowers standard convolutions and the
/// classifier head onto the register-blocked GEMM
/// ([`KernelChoice::BlockedGemm`]) whenever the modeled cycle cost —
/// per-MAC rate plus the expansion traffic — beats the direct loop. The
/// head is priced as a 1×1 stride-1 convolution over its `(n, 1, 1, c_i)`
/// input, one GEMM row per batch item. Every op whose
/// [`QOp::supported_kernels`] leaves the GEMM out stays direct: depthwise
/// convolutions, patches or heads past
/// [`MAX_DOT_LEN`](crate::simd::MAX_DOT_LEN), pooling and residual adds.
///
/// The per-MAC rates mirror `CortexM7CycleModel`'s per-choice pricing
/// (asserted against the model's defaults in `tests/backend_kernels.rs`,
/// so tuning one side fails loudly instead of silently diverging). On top
/// of those rates, selection also prices the expansion traffic — which the
/// abstract op ledger does not — so very small output-channel counts stay
/// direct. The expansion is the op's [`QOp::scratch_bytes`] for the GEMM,
/// one copy per byte: the pointwise identity fast path
/// ([`QConv2d::blocked_borrows_input`](crate::QConv2d::blocked_borrows_input))
/// and a head over an 8-bit input borrow their input and are priced as
/// free.
///
/// It has no settable parameter: the rates are associated constants.
/// Callers outside this crate build it as `TiledBackend::default()`;
/// `#[non_exhaustive]` keeps that call free of Clippy's
/// `default_constructed_unit_structs` lint, which fires on an exhaustive
/// unit struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct TiledBackend;

impl TiledBackend {
    /// Modeled cycles per MAC of the direct dense loop.
    pub const DIRECT_MAC_CYCLES: f64 = 2.1;
    /// Modeled cycles per MAC of the blocked GEMM inner kernel.
    pub const BLOCKED_MAC_CYCLES: f64 = 1.4;
    /// Modeled cycles per element copied into the GEMM's expansion buffer
    /// (an im2col matrix or a sub-byte unpack).
    pub const IM2COL_CYCLES_PER_ELEM: f64 = 1.0;
}

impl Backend for TiledBackend {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn select(&self, op: &AnyOp, inputs: &[Shape], in_bits: &[BitWidth]) -> KernelChoice {
        if !op.supported_kernels().contains(&KernelChoice::BlockedGemm) {
            return KernelChoice::DirectConv;
        }
        // The GEMM's `rows × k` input matrix and its `c_o` channels. The
        // head is priced as a 1×1 stride-1 convolution over an
        // `(n, 1, 1, c_i)` map: one row per batch item.
        let (rows, k, co) = match op {
            AnyOp::Conv(conv) => {
                let out = conv.output_shape(inputs[0]);
                let k = conv.geometry().kernel_area() * inputs[0].c;
                (out.pixels() * out.n, k, out.c)
            }
            AnyOp::Linear(head) => (inputs[0].n, head.in_features(), head.out_features()),
            AnyOp::Pool(_) | AnyOp::Add(_) => return KernelChoice::DirectConv,
        };
        // The expansion the GEMM materializes: one code per matrix element,
        // none when it borrows an 8-bit input zero-copy (the pointwise
        // identity path, or a head over 8-bit codes).
        let expansion = op.scratch_bytes(KernelChoice::BlockedGemm, inputs, in_bits);
        // Both dataflows perform the same padded MAC count (rows · k per
        // output channel); the GEMM path adds one copy per expanded
        // element. Deterministic shape math — no measurement involved.
        let macs = (rows * k * co) as f64;
        let direct = macs * Self::DIRECT_MAC_CYCLES;
        let gemm =
            macs * Self::BLOCKED_MAC_CYCLES + expansion as f64 * Self::IM2COL_CYCLES_PER_ELEM;
        if gemm < direct {
            KernelChoice::BlockedGemm
        } else {
            KernelChoice::DirectConv
        }
    }
}

/// A cloneable, comparable handle over the shipped backends — what
/// configuration types (`PipelineConfig`, bench flags) store. Custom
/// [`Backend`] implementations are passed as `&dyn Backend` instead.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BackendKind {
    /// [`ReferenceBackend`]: direct kernels everywhere.
    #[default]
    Reference,
    /// [`TiledBackend`].
    Tiled(TiledBackend),
}

impl BackendKind {
    /// The tiled backend.
    pub fn tiled() -> Self {
        BackendKind::Tiled(TiledBackend)
    }
}

impl Backend for BackendKind {
    fn name(&self) -> &'static str {
        match self {
            BackendKind::Reference => ReferenceBackend.name(),
            BackendKind::Tiled(t) => t.name(),
        }
    }

    fn select(&self, op: &AnyOp, inputs: &[Shape], in_bits: &[BitWidth]) -> KernelChoice {
        match self {
            BackendKind::Reference => ReferenceBackend.select(op, inputs, in_bits),
            BackendKind::Tiled(t) => t.select(op, inputs, in_bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QAdd, QAvgPool, QConv2d, QConvWeights, QLinear, Requantizer, WeightOffset};
    use mixq_quant::FixedPointMultiplier;
    use mixq_tensor::{ConvGeometry, Padding};

    fn pointwise(ci: usize, co: usize) -> AnyOp {
        let shape = Shape::new(co, 1, 1, ci);
        AnyOp::Conv(QConv2d::new(
            QConvWeights::new(
                shape,
                false,
                &vec![0; shape.volume()],
                BitWidth::W4,
                WeightOffset::PerLayer(0),
            ),
            ConvGeometry::pointwise(),
            Requantizer::icn(
                vec![0; co],
                vec![FixedPointMultiplier::from_real(1.0); co],
                0,
                BitWidth::W8,
            ),
        ))
    }

    fn dense3x3(ci: usize, co: usize) -> AnyOp {
        let shape = Shape::new(co, 3, 3, ci);
        AnyOp::Conv(QConv2d::new(
            QConvWeights::new(
                shape,
                false,
                &vec![0; shape.volume()],
                BitWidth::W4,
                WeightOffset::PerLayer(0),
            ),
            ConvGeometry::new(3, 3, 1, Padding::Same),
            Requantizer::icn(
                vec![0; co],
                vec![FixedPointMultiplier::from_real(1.0); co],
                0,
                BitWidth::W8,
            ),
        ))
    }

    fn depthwise(c: usize) -> AnyOp {
        let shape = Shape::new(c, 3, 3, 1);
        AnyOp::Conv(QConv2d::new(
            QConvWeights::new(
                shape,
                true,
                &vec![0; shape.volume()],
                BitWidth::W4,
                WeightOffset::PerChannel(vec![0; c]),
            ),
            ConvGeometry::new(3, 3, 1, Padding::Same),
            Requantizer::icn(
                vec![0; c],
                vec![FixedPointMultiplier::from_real(1.0); c],
                0,
                BitWidth::W8,
            ),
        ))
    }

    #[test]
    fn reference_selects_direct_everywhere() {
        let b = ReferenceBackend;
        let input = Shape::feature_map(8, 8, 4);
        for op in [
            pointwise(4, 8),
            depthwise(4),
            AnyOp::Pool(QAvgPool),
            AnyOp::Add(QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8)),
        ] {
            assert_eq!(
                b.select(&op, &[input, input], &[BitWidth::W8, BitWidth::W8]),
                KernelChoice::DirectConv
            );
        }
        assert_eq!(b.name(), "reference");
    }

    #[test]
    fn tiled_lowers_dense_convs_only() {
        let b = TiledBackend::default();
        let input = Shape::feature_map(8, 8, 4);
        assert_eq!(
            b.select(&pointwise(4, 8), &[input], &[BitWidth::W8]),
            KernelChoice::BlockedGemm
        );
        assert_eq!(
            b.select(&depthwise(4), &[input], &[BitWidth::W8]),
            KernelChoice::DirectConv
        );
        assert_eq!(
            b.select(&AnyOp::Pool(QAvgPool), &[input], &[BitWidth::W8]),
            KernelChoice::DirectConv
        );
        assert_eq!(b.name(), "tiled");
    }

    #[test]
    fn tiled_selection_is_cost_driven() {
        // A 3×3 conv with a single output channel: the im2col copy costs
        // more than the per-MAC saving, so the direct loop stays cheaper.
        let b = TiledBackend::default();
        let input = Shape::feature_map(8, 8, 4);
        assert_eq!(
            b.select(&dense3x3(4, 1), &[input], &[BitWidth::W8]),
            KernelChoice::DirectConv
        );
        // Two channels amortize the expansion: GEMM wins.
        assert_eq!(
            b.select(&dense3x3(4, 2), &[input], &[BitWidth::W8]),
            KernelChoice::BlockedGemm
        );
        // A pointwise conv over an 8-bit input borrows the input zero-copy
        // (no expansion traffic), so GEMM wins even at one output channel.
        assert_eq!(
            b.select(&pointwise(4, 1), &[input], &[BitWidth::W8]),
            KernelChoice::BlockedGemm
        );
        // A sub-byte input must be linearly unpacked first — the traffic
        // term applies again and one channel stays direct.
        assert_eq!(
            b.select(&pointwise(4, 1), &[input], &[BitWidth::W4]),
            KernelChoice::DirectConv
        );
    }

    fn head(ci: usize, classes: usize) -> AnyOp {
        AnyOp::Linear(QLinear::new(
            QConvWeights::new(
                Shape::new(classes, 1, 1, ci),
                false,
                &vec![0; classes * ci],
                BitWidth::W4,
                WeightOffset::PerLayer(0),
            ),
            vec![0; classes],
            None,
        ))
    }

    #[test]
    fn tiled_prices_the_head_as_a_pointwise_conv() {
        // The head over an (n, 1, 1, c_i) feature batch decides exactly as
        // a 1×1 stride-1 conv over that map: an 8-bit input is borrowed,
        // a sub-byte one pays its unpack traffic.
        let b = TiledBackend::default();
        let feat = Shape::new(8, 1, 1, 4);
        for classes in [1, 2, 8] {
            for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
                assert_eq!(
                    b.select(&head(4, classes), &[feat], &[bits]),
                    b.select(&pointwise(4, classes), &[feat], &[bits]),
                    "classes={classes} {bits:?}"
                );
            }
        }
        assert_eq!(
            b.select(&head(4, 1), &[feat], &[BitWidth::W8]),
            KernelChoice::BlockedGemm
        );
        assert_eq!(
            b.select(&head(4, 1), &[feat], &[BitWidth::W4]),
            KernelChoice::DirectConv
        );
    }

    #[test]
    fn backend_kind_delegates() {
        let input = Shape::feature_map(8, 8, 4);
        assert_eq!(BackendKind::default().name(), "reference");
        assert_eq!(BackendKind::tiled().name(), "tiled");
        assert_eq!(
            BackendKind::tiled().select(&pointwise(4, 8), &[input], &[BitWidth::W8]),
            KernelChoice::BlockedGemm
        );
        assert_eq!(
            BackendKind::Reference.select(&pointwise(4, 8), &[input], &[BitWidth::W8]),
            KernelChoice::DirectConv
        );
    }

    #[test]
    fn choice_labels() {
        assert_eq!(KernelChoice::DirectConv.label(), "direct");
        assert_eq!(KernelChoice::BlockedGemm.to_string(), "blocked_gemm");
    }
}
