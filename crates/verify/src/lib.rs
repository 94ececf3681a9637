//! # mixq-verify
//!
//! Static verification of lowered integer graphs: the machine-checked
//! version of the informal proofs the kernels rely on (`MAX_DOT_LEN`
//! comments, scattered `debug_assert`s). One pass over a deployed
//! [`QGraph`] — or a shape-level [`NetworkSpec`] before training — proves,
//! per node and per resolved kernel choice:
//!
//! * **(a) No intermediate overflows its width for any input.** Interval
//!   (abstract-interpretation) range analysis follows each kernel's exact
//!   dataflow: u8 code ranges from the tensor plan's bit widths →
//!   unsigned dot-product partial sums → the blocked GEMM's one `i32`
//!   accumulator run over the whole patch (`k ≤ MAX_DOT_LEN`, odd-`k`
//!   tails included) or the direct loop's `i64` accumulation → hoisted
//!   zero-point corrections → the requantizer's saturating `Φ + Bq`
//!   input; for depthwise layers, the
//!   core's `i16` operands (`x − Zx`, `w − Zw`) and its `i32`
//!   accumulator, widened from the actual weights whenever a zero-point
//!   lies outside its code range. Conv `Φ` bounds are computed **tightly
//!   from the actual weight codes** (achievable by an adversarial input),
//!   not from the generic `±k·qx·qw` hull.
//! * **(b) Every `RequantPlan` is SIMD-expressible or correctly gated to
//!   scalar.** The `M0·2^N0` shift gate (`31 − N0 ≥ 0`) and the
//!   threshold-table regularity gate (`qmax ≤ 15`, uniform lengths,
//!   monotone tables) are recomputed from the requantizer parameters and
//!   cross-checked against the stored plan — a divergence in either
//!   direction (silent wrong SIMD results, or silent scalar fallback) is
//!   a [`Violation::PlanGateMismatch`].
//! * **(c) The liveness schedule never aliases two live tensors** and the
//!   planned scratch suffices: [`check_schedule`] proves no step reads a
//!   tensor the arena has already reclaimed, the terminal tensor
//!   survives, and an independent Eq. 7 live-set walk reproduces the
//!   planner's peak exactly.
//! * **(d) Scales and zero-points agree at every `QAdd` join and graph
//!   edge.** Producer zero-points are propagated statically along edges
//!   and compared against what each consumer subtracts; declared branch
//!   scales are checked against the baked fixed-point multipliers.
//!
//! The result is a [`VerifyReport`]: per-node [`NodeCert`] certificates
//! (the proven bounds — `k`, chunk length, accumulator and `Φ`
//! intervals, plan gates) plus structured [`Violation`]s with precise
//! diagnostics. An empty violation list is a proof over *all* inputs,
//! not a test over samples.
//!
//! # Abstract domain
//!
//! The only domain is the closed integer interval ([`Interval`]) with
//! `i128` endpoints — wide enough that the analysis itself can never
//! wrap, so a forged graph's true range is always representable and the
//! `fits_i32`/`fits_i64` predicates decide each width soundly. All
//! transfer functions (sum, product, fixed-point `apply`) are
//! endpoint-exact on the monotone paths the kernels use.
//!
//! # Examples
//!
//! ```
//! use mixq_models::mobilenet::{MobileNetConfig, Resolution, WidthMultiplier};
//! use mixq_quant::BitWidth;
//! use mixq_verify::verify_spec_uniform;
//!
//! let spec = MobileNetConfig::new(Resolution::R224, WidthMultiplier::X1_0).build();
//! let report = verify_spec_uniform("224_1.0/w8a8", &spec, BitWidth::W8, BitWidth::W8);
//! assert!(report.ok(), "{}", report.render());
//! // The stem conv: k = 3·3·3 = 27 taps, all in one i32 chunk.
//! assert_eq!(report.nodes[0].k, 27);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod interval;
pub mod report;
pub mod spec;

pub use graph::{
    check_dot_geometry, check_schedule, conv_phi_intervals, requant_gate, verify_add_node,
    verify_graph,
};
pub use interval::Interval;
pub use report::{NodeCert, VerifyReport, Violation};
pub use spec::{verify_spec, verify_spec_uniform};

#[cfg(doc)]
use mixq_kernels::QGraph;
#[cfg(doc)]
use mixq_models::NetworkSpec;
