//! # mixq-quant
//!
//! Uniform low-bitwidth quantization primitives (paper §3):
//!
//! * [`BitWidth`] — the admissible precisions `Q ∈ {2, 4, 8}`.
//! * [`QuantParams`] / [`ChannelParams`] — uniform affine quantizers
//!   (Eq. 1–2) with per-layer (PL) and per-channel (PC) granularity.
//! * [`observer`] — range estimators: running min/max (as in Jacob et al.)
//!   and the PACT learned clipping bound.
//! * [`fixedpoint`] — the `m = m0 · 2^{n0}` decomposition used by the ICN
//!   layer (Eq. 5), with `0.5 ≤ |m0| < 1` and a Q31 integer mantissa.
//! * [`packing`] — sub-byte bit packing so 4-/2-bit tensors really occupy
//!   `Q/8` bytes per element, as on the microcontroller, with one portable
//!   shift-and-mask loop per width.
//!
//! All arithmetic on the deployment path is integer-only; floats appear only
//! where the paper's fake-quantized training graph uses them.
//!
//! # Examples
//!
//! ```
//! use mixq_quant::{BitWidth, QuantParams};
//!
//! // Quantize weights spanning [-1, 1] to 4 bits (UINT4 + zero-point).
//! let q = QuantParams::from_min_max(-1.0, 1.0, BitWidth::W4);
//! let code = q.quantize(0.0);
//! let back = q.dequantize(code);
//! assert!(back.abs() < q.scale()); // within one step of zero
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affine;
mod bitwidth;
pub mod fixedpoint;
pub mod observer;
pub mod packing;

pub use affine::{ChannelParams, Granularity, QuantParams, RoundingMode};
pub use bitwidth::BitWidth;
pub use fixedpoint::FixedPointMultiplier;
pub use packing::PackedTensor;
