//! # mixq-kernels
//!
//! Integer-only inference kernels in the style of the paper's extended
//! CMSIS-NN library (§6): convolution, depthwise convolution and
//! fully-connected kernels over **bit-packed sub-byte tensors**
//! (`Q ∈ {2, 4, 8}`), with an output-stationary dataflow and the three
//! requantization schemes of §4:
//!
//! * folded per-layer fixed-point (the Jacob-et-al. PL+FB pipeline),
//! * the **Integer Channel-Normalization (ICN)** activation (Eq. 5),
//! * integer **thresholds** (Umuroglu & Jahre / IFQ-Net style).
//!
//! Every kernel increments an [`OpCounts`] ledger (MACs, sub-byte unpacks,
//! per-channel offset subtractions, requantization and threshold
//! comparisons) — the abstract costs the Cortex-M7 cycle model in
//! `mixq-mcu` converts into latency, reproducing Figure 2's trends.
//!
//! # Examples
//!
//! ```
//! use mixq_kernels::{OpCounts, QActivation, QConv2d, QConvWeights, Requantizer, WeightOffset};
//! use mixq_quant::{BitWidth, FixedPointMultiplier};
//! use mixq_tensor::{ConvGeometry, Shape};
//!
//! // 1x1 conv, one input/output channel, weight code 2 with Zw=0.
//! let w = QConvWeights::new(
//!     Shape::new(1, 1, 1, 1), false, &[2], BitWidth::W4,
//!     WeightOffset::PerLayer(0),
//! );
//! let requant = Requantizer::icn(
//!     vec![0],
//!     vec![FixedPointMultiplier::from_real(1.0)],
//!     0,
//!     BitWidth::W8,
//! );
//! let conv = QConv2d::new(w, ConvGeometry::pointwise(), requant);
//! let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[3], BitWidth::W8, 0);
//! let mut ops = OpCounts::default();
//! let y = conv.execute(&x, &mut ops);
//! assert_eq!(y.codes(), vec![6]); // 3 × 2
//! assert_eq!(ops.macs, 1);
//! ```

// `unsafe` is denied crate-wide and re-allowed in exactly one leaf
// module: `simd` (std::arch intrinsics behind runtime feature
// detection). All kernel dataflow code stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod add;
pub mod backend;
pub mod blocked;
mod conv;
mod counter;
pub mod graph;
mod linear;
mod pool;
mod requant;
pub mod simd;
mod tensorq;

pub use add::QAdd;
pub use backend::{Backend, BackendKind, KernelChoice, ReferenceBackend, TiledBackend};
pub use blocked::{im2col_scratch_bytes, PackedPanels};
pub use conv::QConv2d;
pub use counter::OpCounts;
pub use graph::{
    ActivationArena, AnyOp, GraphNode, GraphRun, LayerRun, OpKind, OpOutput, QGraph, QOp,
};
pub use linear::QLinear;
pub use pool::QAvgPool;
pub use requant::{Requantizer, ThresholdChannel};
pub use simd::SimdLevel;
pub use tensorq::{QActivation, QConvWeights, WeightOffset};
