//! Channel-vectorized requantization epilogue.
//!
//! PR 6 vectorized the dot products; profiling the full graph walk showed the
//! remaining wall-clock was dominated by the *epilogue*: the per-element
//! [`Requantizer::apply`] loop that turns each `i32`/`i64` accumulator `Φ`
//! into an output code. This module vectorizes that stage across output
//! channels — the per-channel `M0·2^N0` fixed-point multipliers (or threshold
//! tables) become SIMD lanes — exactly the fused scale-clamp-pack epilogue
//! the paper's deployment stack relies on for MCU throughput (Bruschi et al.
//! 2020; Ottavi et al. 2020 bake the same epilogue into hardware).
//!
//! Everything here is **bit-identical** to the scalar [`Requantizer::apply`]
//! path and charges the *same* `requants`/`cmps` ledger totals, so modeled
//! Cortex-M7 cycles are invariant under the host SIMD level (the ledgers
//! model MCU work, not host work — see `tests/deployment_consistency.rs`).
//!
//! Layout: [`RequantPlan`] is a SIMD-friendly transposition of a
//! [`Requantizer`] built once per layer ([`crate::QConv2d::new`] owns one).
//! The entry points ([`apply_gemm_row`], [`apply_phi_block`],
//! [`apply_i32_block`], [`qadd_lut`]) take an explicit [`SimdLevel`] and fall
//! back to the scalar `Requantizer::apply` loop for remainder lanes, for
//! plans the vector kernels cannot express (`N0 > 31`, odd-length threshold
//! tables, 255-entry `W8` tables where 255×2 linear compares would lose to 8
//! binary-search probes), and for out-of-`i32`-range corrections.
//!
//! The two tricky scalar semantics reproduced in-vector:
//!
//! * `FixedPointMultiplier::apply` is `(m0 as i64 * v) >> (31 − n0)` with an
//!   `i32` clamp. x86 has no 64-bit arithmetic shift right, so we use the
//!   bias trick `asr(x, s) = ((x ^ 2^63) >>ᵤ s) − (2^63 >>ᵤ s)` (exact for
//!   `s ∈ [0, 63]`, wrapping subtract); NEON's `SSHL` with a negative count
//!   is already a truncating arithmetic right shift.
//! * `ThresholdChannel::eval` is a binary search whose result equals the
//!   number of thresholds `≤ Φ` (ascending) or `≥ Φ` (descending) — the
//!   tables are monotone, so a branchless compare-accumulate over all
//!   entries produces the same `lo`. Both compares are evaluated and blended
//!   by a per-channel flip mask, which avoids any negation of `i64::MIN`.

use crate::requant::Requantizer;
use crate::simd::SimdLevel;

/// Lanes staged per chunk when widening `i32` accumulators for
/// [`apply_i32_block`] (matches the depthwise block size).
const PHI_CHUNK: usize = 64;

/// SIMD-friendly transposition of a [`Requantizer`]: per-channel multiplier
/// mantissas/shift biases (or transposed threshold tables) laid out for
/// contiguous vector loads. Built once per layer; building never fails —
/// plans the vector kernels cannot express are marked non-vectorizable and
/// every entry point then takes the scalar path.
///
/// A plan's lanes are the requantizer's channels, or — for a
/// [`RequantPlan::tiled`] plan — those channels repeated, so lane `l`
/// requantizes like channel `l mod C`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequantPlan {
    kind: PlanKind,
    zy: i64,
    qmax: i64,
}

#[derive(Debug, Clone, PartialEq)]
enum PlanKind {
    /// FoldedPerLayer / ICN: `code = clamp(zy + (m0·sat32(Φ + bq)) >> (31 −
    /// n0), 0, qmax)` with per-channel `bq`/`m0`/shift (FoldedPerLayer
    /// broadcasts its single multiplier to every channel).
    Fixed {
        ok: bool,
        bq: Vec<i32>,
        m0: Vec<i32>,
        /// `min(31 − n0, 63)` — the scalar `apply` collapses any shift ≥ 63
        /// to `prod >> 63`, so the clamp is exact. Only valid when
        /// `31 − n0 ≥ 0`; a channel with `n0 > 31` marks the plan `ok=false`.
        shift: Vec<i64>,
        /// `(2^63 >>ᵤ shift)` as `i64` — the arithmetic-shift bias.
        sbias: Vec<i64>,
    },
    /// Threshold tables, transposed so threshold `t` of channels `c..c+W`
    /// is one contiguous vector load.
    Thresh {
        ok: bool,
        /// Entries per (non-empty) table — always `qmax` when `ok`.
        len: usize,
        /// `thr_t[t * channels + c]` = threshold `t` of channel `c`.
        thr_t: Vec<i64>,
        /// `-1` for descending (negative-multiplier) channels, `0` ascending.
        flip: Vec<i64>,
        /// `-1` for empty (constant) channels, `0` otherwise.
        empty: Vec<i64>,
        /// The constant code of empty channels (ignored otherwise).
        konst: Vec<i64>,
        /// Prefix sums of the per-channel `cmps` cost of the scalar binary
        /// search (0 for empty tables, `log2(len + 1)` otherwise), so vector
        /// blocks charge the ledger exactly what the scalar loop would.
        cost: Vec<u64>,
    },
}

impl RequantPlan {
    /// Builds the vector plan for `req`. Infallible: inexpressible
    /// requantizers yield a plan that always takes the scalar path.
    pub fn new(req: &Requantizer) -> Self {
        let zy = req.zero_point() as i64;
        let qmax = req.out_bits().qmax() as i64;
        let kind = match req {
            Requantizer::FoldedPerLayer { bq, mult, .. } => {
                Self::fixed_kind(bq, &vec![*mult; bq.len()])
            }
            Requantizer::Icn { bq, mult, .. } => Self::fixed_kind(bq, mult),
            Requantizer::Thresholds { channels, .. } => {
                let co = channels.len();
                let len = qmax as usize;
                // 255-entry W8 tables: 255×2 linear compares per element
                // would lose badly to the 8-probe binary search — stay
                // scalar there (no W8-threshold layer is on the measured
                // ICN walk anyway).
                let mut ok = qmax <= 15;
                for ch in channels {
                    if !ch.is_empty() && ch.len() != len {
                        ok = false;
                    }
                }
                let probes = if len > 0 {
                    (len + 1).trailing_zeros() as u64
                } else {
                    0
                };
                let mut thr_t = vec![0i64; if ok { len * co } else { 0 }];
                let mut flip = vec![0i64; co];
                let mut empty = vec![0i64; co];
                let mut konst = vec![0i64; co];
                let mut cost = vec![0u64; co + 1];
                for (c, ch) in channels.iter().enumerate() {
                    let per_elem = if ch.is_empty() {
                        empty[c] = -1;
                        konst[c] = ch.constant_code() as i64;
                        0
                    } else {
                        if !ch.is_ascending() {
                            flip[c] = -1;
                        }
                        if ok {
                            for (t, &thr) in ch.thresholds().iter().enumerate() {
                                thr_t[t * co + c] = thr;
                            }
                        }
                        probes
                    };
                    cost[c + 1] = cost[c] + per_elem;
                }
                PlanKind::Thresh {
                    ok,
                    len,
                    thr_t,
                    flip,
                    empty,
                    konst,
                    cost,
                }
            }
        };
        RequantPlan { kind, zy, qmax }
    }

    /// This plan repeated `reps` times over its channels: one call over
    /// `reps·C` lanes then requantizes `reps` consecutive NHWC pixels of a
    /// `C`-channel layer — bit-identical to `reps` per-pixel calls, with
    /// the same ledger totals.
    pub fn tiled(&self, reps: usize) -> RequantPlan {
        let kind = match &self.kind {
            PlanKind::Fixed {
                ok,
                bq,
                m0,
                shift,
                sbias,
            } => PlanKind::Fixed {
                ok: *ok,
                bq: bq.repeat(reps),
                m0: m0.repeat(reps),
                shift: shift.repeat(reps),
                sbias: sbias.repeat(reps),
            },
            PlanKind::Thresh {
                ok,
                len,
                thr_t,
                flip,
                empty,
                konst,
                cost,
            } => {
                let co = flip.len();
                // Threshold `t` of every lane stays one contiguous row.
                let thr_t = thr_t
                    .chunks_exact(co.max(1))
                    .flat_map(|row| row.repeat(reps))
                    .collect();
                let mut tiled_cost = Vec::with_capacity(co * reps + 1);
                tiled_cost.push(0);
                for r in 0..reps {
                    let offset = r as u64 * cost[co];
                    tiled_cost.extend(cost[1..].iter().map(|&c| offset + c));
                }
                PlanKind::Thresh {
                    ok: *ok,
                    len: *len,
                    thr_t,
                    flip: flip.repeat(reps),
                    empty: empty.repeat(reps),
                    konst: konst.repeat(reps),
                    cost: tiled_cost,
                }
            }
        };
        RequantPlan {
            kind,
            zy: self.zy,
            qmax: self.qmax,
        }
    }

    fn fixed_kind(bq: &[i32], mult: &[mixq_quant::FixedPointMultiplier]) -> PlanKind {
        let mut ok = true;
        let mut m0 = Vec::with_capacity(mult.len());
        let mut shift = Vec::with_capacity(mult.len());
        let mut sbias = Vec::with_capacity(mult.len());
        for m in mult {
            let raw = 31 - m.exponent() as i64;
            if raw < 0 {
                // `checked_shl` left-shift branch of the scalar apply —
                // never produced by `FixedPointMultiplier::from_real` for
                // sane scales; keep the whole layer scalar.
                ok = false;
            }
            let s = raw.clamp(0, 63);
            m0.push(m.mantissa());
            shift.push(s);
            sbias.push(((1u64 << 63) >> s) as i64);
        }
        PlanKind::Fixed {
            ok,
            bq: bq.to_vec(),
            m0,
            shift,
            sbias,
        }
    }

    /// Whether the vector kernels can express this plan at all (the entry
    /// points degrade to the scalar path per-call regardless, e.g. for
    /// remainder lanes).
    pub fn vectorizable(&self) -> bool {
        match &self.kind {
            PlanKind::Fixed { ok, .. } | PlanKind::Thresh { ok, .. } => *ok,
        }
    }

    /// Lanes covered: the requantizer's channels, times the repetitions of
    /// a [`RequantPlan::tiled`] plan.
    pub fn channels(&self) -> usize {
        match &self.kind {
            PlanKind::Fixed { bq, .. } => bq.len(),
            PlanKind::Thresh { flip, .. } => flip.len(),
        }
    }

    /// Charges the ledger for `n` vector-processed elements starting at
    /// channel `c0` — arithmetically identical to what the scalar
    /// per-element loop would have counted.
    fn charge(&self, c0: usize, n: usize, requants: &mut u64, cmps: &mut u64) {
        match &self.kind {
            PlanKind::Fixed { .. } => *requants += n as u64,
            PlanKind::Thresh { cost, .. } => *cmps += cost[c0 + n] - cost[c0],
        }
    }
}

/// Requantizes precomputed `Φ` values for lanes `c0..c0 + phis.len()`
/// into output codes. Bit-identical to calling
/// `req.apply((c0 + i) mod C, phis[i], ..)` per element (`C` the
/// requantizer's channels; the identity unless the plan is
/// [`RequantPlan::tiled`]), with identical ledger totals.
#[allow(clippy::too_many_arguments)]
pub fn apply_phi_block(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    c0: usize,
    phis: &[i64],
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) {
    assert_eq!(phis.len(), out.len(), "phi/out length mismatch");
    assert!(c0 + phis.len() <= plan.channels(), "channel range overflow");
    let done = vector_phi(plan, level, c0, phis, out);
    plan.charge(c0, done, requants, cmps);
    for i in done..phis.len() {
        out[i] = req.apply(channel_of(c0 + i, req.channels()), phis[i], requants, cmps);
    }
}

/// The channel of a `channels`-channel requantizer that plan lane `lane`
/// stands for (`lane mod channels`, without a division on untiled plans).
#[inline]
fn channel_of(lane: usize, channels: usize) -> usize {
    if lane < channels {
        lane
    } else {
        lane % channels
    }
}

/// Requantizes a block of `i32` accumulators (`Φ = acc as i64`) for lanes
/// `c0..c0 + accs.len()` — the depthwise fast-path epilogue (see
/// [`apply_phi_block`] for the lane-to-channel map).
#[allow(clippy::too_many_arguments)]
pub fn apply_i32_block(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    c0: usize,
    accs: &[i32],
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) {
    assert_eq!(accs.len(), out.len(), "acc/out length mismatch");
    let mut phibuf = [0i64; PHI_CHUNK];
    let mut i = 0;
    while i < accs.len() {
        let n = (accs.len() - i).min(PHI_CHUNK);
        for (p, &a) in phibuf[..n].iter_mut().zip(&accs[i..i + n]) {
            *p = a as i64;
        }
        apply_phi_block(
            plan,
            req,
            level,
            c0 + i,
            &phibuf[..n],
            &mut out[i..i + n],
            requants,
            cmps,
        );
        i += n;
    }
}

/// The fused blocked-GEMM row epilogue: for every output channel `c`,
/// computes `Φ = acc[c] − zw[c]·sx − zx·wbase[c]` (the hoisted zero-point
/// correction of Eq. 4) and requantizes it, all in-vector — the single
/// overflow-proof widen-correct-requant entry point both GEMM epilogues
/// share (the long-`k` path reaches it via [`widen_accumulate`] +
/// [`fold_corrections`] + [`apply_phi_block`]).
///
/// Covers the full channel range (`accs.len() == plan.channels()`).
#[allow(clippy::too_many_arguments)]
pub fn apply_gemm_row(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    accs: &[i32],
    sx: i64,
    zx: i64,
    zw: &[i64],
    wbase: &[i64],
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) {
    let n = accs.len();
    assert_eq!(n, out.len(), "acc/out length mismatch");
    assert_eq!(n, zw.len(), "acc/zw length mismatch");
    assert_eq!(n, wbase.len(), "acc/wbase length mismatch");
    assert!(n <= plan.channels(), "channel range overflow");
    let done = vector_gemm(plan, level, accs, sx, zx, zw, wbase, out);
    plan.charge(0, done, requants, cmps);
    for c in done..n {
        let phi = accs[c] as i64 - zw[c] * sx - zx * wbase[c];
        out[c] = req.apply(c, phi, requants, cmps);
    }
}

/// Flushes a block of `i32` GEMV accumulators into `i64` wide totals — the
/// shared widening step of the hot epilogue (in-vector inside
/// [`apply_gemm_row`]) and the long-`k` chunked path.
pub fn widen_accumulate(wide: &mut [i64], acc: &[i32]) {
    debug_assert_eq!(wide.len(), acc.len());
    for (w, &a) in wide.iter_mut().zip(acc) {
        *w += a as i64;
    }
}

/// In-place hoisted zero-point correction over wide accumulators:
/// `phi[c] −= zw[c]·sx + zx·wbase[c]` (Eq. 4). Exact in `i64` for any `k`.
pub fn fold_corrections(phi: &mut [i64], sx: i64, zx: i64, zw: &[i64], wbase: &[i64]) {
    debug_assert_eq!(phi.len(), zw.len());
    debug_assert_eq!(phi.len(), wbase.len());
    for (c, p) in phi.iter_mut().enumerate() {
        *p -= zw[c] * sx + zx * wbase[c];
    }
}

/// The `QAdd` flat fast path: `out[i] = clamp(zy + lut_a[a[i]] + lut_b[b[i]],
/// 0, qmax)`. Pure compute — the caller charges the ledger (which models the
/// MCU's two per-element requants, not the host LUT strategy).
#[allow(clippy::too_many_arguments)]
pub fn qadd_lut(
    level: SimdLevel,
    lut_a: &[i64; 256],
    lut_b: &[i64; 256],
    a: &[u8],
    b: &[u8],
    zy: i64,
    qmax: i64,
    out: &mut [u8],
) {
    assert_eq!(a.len(), out.len(), "a/out length mismatch");
    assert_eq!(b.len(), out.len(), "b/out length mismatch");
    let done = match level {
        #[cfg(target_arch = "x86_64")]
        // 4×64-bit gathers only pay on AVX2; at 128 bits (SSE2/NEON) the
        // scalar LUT loop is already load-bound and branch-free.
        // SAFETY: AVX2 positively detected (`level` comes from runtime
        // feature detection); LUT indices are u8 into [i64; 256].
        SimdLevel::Avx2 => unsafe { x86::qadd_avx2(lut_a, lut_b, a, b, zy, qmax, out) },
        _ => 0,
    };
    for i in done..out.len() {
        out[i] = (zy + lut_a[a[i] as usize] + lut_b[b[i] as usize]).clamp(0, qmax) as u8;
    }
}

/// Dispatches the precomputed-`Φ` vector kernel; returns how many leading
/// elements were handled (0 → caller runs the scalar loop for everything).
fn vector_phi(
    plan: &RequantPlan,
    level: SimdLevel,
    c0: usize,
    phis: &[i64],
    out: &mut [u8],
) -> usize {
    if !plan.vectorizable() {
        return 0;
    }
    // SAFETY (all arms): the ISA is positively detected — `level` comes
    // from runtime feature detection. `plan.vectorizable()` (checked
    // above, and cross-checked per graph by `mixq-verify::requant_gate`)
    // guarantees the regime the kernels assume: fixed-point shifts in
    // [0, 63] and threshold tables of ≤ 15 entries.
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see above.
        SimdLevel::Avx2 => unsafe { x86::phi_avx2(plan, c0, phis, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see above.
        SimdLevel::Sse2 => unsafe { x86::phi_sse2(plan, c0, phis, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: see above; NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { neon::phi_neon(plan, c0, phis, out) },
        _ => 0,
    }
}

/// Dispatches the fused GEMM-row vector kernel (see [`apply_gemm_row`]).
#[allow(clippy::too_many_arguments)]
fn vector_gemm(
    plan: &RequantPlan,
    level: SimdLevel,
    accs: &[i32],
    sx: i64,
    zx: i64,
    zw: &[i64],
    wbase: &[i64],
    out: &mut [u8],
) -> usize {
    if !plan.vectorizable() || !corrections_fit_i32(sx, zx, zw, wbase) {
        return 0;
    }
    // SAFETY (all arms): the ISA is positively detected — `level` comes
    // from runtime feature detection. `plan.vectorizable()` and
    // `corrections_fit_i32` (both checked above; the latter recomputed per
    // graph by `mixq-verify`) guarantee expressible shifts/tables and that
    // every 32×32→64 correction operand fits `i32`.
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see above.
        SimdLevel::Avx2 => unsafe { x86::gemm_avx2(plan, accs, sx, zx, zw, wbase, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see above.
        SimdLevel::Sse2 => unsafe { x86::gemm_sse2(plan, accs, sx, zx, zw, wbase, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: see above; NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { neon::gemm_neon(plan, accs, sx, zx, zw, wbase, out) },
        _ => 0,
    }
}

/// The fused kernels compute `zw·sx` and `zx·wbase` as 32×32→64
/// multiplies, so every operand must fit `i32`. Always true on the blocked
/// path (`k ≤ MAX_DOT_LEN` bounds `sx ≤ 255k` and `|wbase| ≤ 2^15·k`; `zw`
/// is a widened `u8`/`i16`; `zx` a `u8`) — the scan keeps an exotic caller
/// correct by falling back to scalar instead of silently wrapping.
fn corrections_fit_i32(sx: i64, zx: i64, zw: &[i64], wbase: &[i64]) -> bool {
    let fits = |v: i64| v >= i32::MIN as i64 && v <= i32::MAX as i64;
    fits(sx) && fits(zx) && zw.iter().copied().all(fits) && wbase.iter().copied().all(fits)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PlanKind, RequantPlan};
    use std::arch::x86_64::*;

    /// `a > b` per 64-bit lane without SSE4.2's `pcmpgtq`: lanes are equal
    /// on the high dword ⇒ borrow sign of `b − a`; otherwise the signed
    /// high-dword compare decides. Broadcast dwords 1,3 over each qword.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn cmpgt64_sse2(a: __m128i, b: __m128i) -> __m128i {
        let r = _mm_and_si128(_mm_cmpeq_epi32(a, b), _mm_sub_epi64(b, a));
        let r = _mm_or_si128(r, _mm_cmpgt_epi32(a, b));
        _mm_shuffle_epi32(_mm_srai_epi32(r, 31), 0b11_11_01_01)
    }

    /// Lane-masked select: `mask ? b : a` (mask lanes all-ones or all-zero).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn blend64_sse2(a: __m128i, b: __m128i, mask: __m128i) -> __m128i {
        _mm_or_si128(_mm_and_si128(mask, b), _mm_andnot_si128(mask, a))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn clamp64_sse2(x: __m128i, lo: __m128i, hi: __m128i) -> __m128i {
        let x = blend64_sse2(x, hi, cmpgt64_sse2(x, hi));
        blend64_sse2(x, lo, cmpgt64_sse2(lo, x))
    }

    /// Signed 32×32→64 multiply of the low dwords of each qword:
    /// unsigned `pmuludq` plus the two's-complement correction
    /// `(a·sign(b) + b·sign(a)) << 32` (the slli discards the garbage the
    /// sign masks leave in odd dwords).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn mul_lo32_sse2(a: __m128i, b: __m128i) -> __m128i {
        let prod = _mm_mul_epu32(a, b);
        let corr = _mm_add_epi32(
            _mm_and_si128(a, _mm_srai_epi32(b, 31)),
            _mm_and_si128(b, _mm_srai_epi32(a, 31)),
        );
        _mm_sub_epi64(prod, _mm_slli_epi64(corr, 32))
    }

    /// Per-lane logical right shift (SSE2's `psrlq` only takes one count).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn srl64_var_sse2(x: __m128i, s0: i64, s1: i64) -> __m128i {
        let r0 = _mm_srl_epi64(x, _mm_cvtsi32_si128(s0 as i32));
        let r1 = _mm_srl_epi64(x, _mm_cvtsi32_si128(s1 as i32));
        _mm_castpd_si128(_mm_shuffle_pd(
            _mm_castsi128_pd(r0),
            _mm_castsi128_pd(r1),
            0b10,
        ))
    }

    /// Widens 2 consecutive `i32`s to 2 `i64` lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn widen2_sse2(p: *const i32) -> __m128i {
        let v = _mm_loadl_epi64(p as *const __m128i);
        _mm_unpacklo_epi32(v, _mm_srai_epi32(v, 31))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clamp64_avx2(x: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
        let x = _mm256_blendv_epi8(x, hi, _mm256_cmpgt_epi64(x, hi));
        _mm256_blendv_epi8(x, lo, _mm256_cmpgt_epi64(lo, x))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4_codes(v: __m256i, out: *mut u8) {
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        for (j, &l) in lanes.iter().enumerate() {
            *out.add(j) = l as u8;
        }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn store2_codes(v: __m128i, out: *mut u8) {
        let mut lanes = [0i64; 2];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, v);
        *out = lanes[0] as u8;
        *out.add(1) = lanes[1] as u8;
    }

    /// One 4-lane fixed-point requant: `clamp(zy + asr(m0·sat32(Φ + bq),
    /// 31 − n0), 0, qmax)` with the xor-bias arithmetic shift emulation.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn fixed_lanes_avx2(
        phi: __m256i,
        bq: *const i32,
        m0: *const i32,
        shift: *const i64,
        sbias: *const i64,
        zyv: __m256i,
        qmaxv: __m256i,
    ) -> __m256i {
        let i32lo = _mm256_set1_epi64x(i32::MIN as i64);
        let i32hi = _mm256_set1_epi64x(i32::MAX as i64);
        let minv = _mm256_set1_epi64x(i64::MIN);
        let bqv = _mm256_cvtepi32_epi64(_mm_loadu_si128(bq as *const __m128i));
        let v = clamp64_avx2(_mm256_add_epi64(phi, bqv), i32lo, i32hi);
        // The clamped lane fits i32, so its low dword IS the value —
        // `pmuldq` sign-extends exactly the operand we want.
        let m0v = _mm256_cvtepi32_epi64(_mm_loadu_si128(m0 as *const __m128i));
        let prod = _mm256_mul_epi32(v, m0v);
        let shv = _mm256_loadu_si256(shift as *const __m256i);
        let sbv = _mm256_loadu_si256(sbias as *const __m256i);
        let shifted = _mm256_sub_epi64(_mm256_srlv_epi64(_mm256_xor_si256(prod, minv), shv), sbv);
        let r = clamp64_avx2(shifted, i32lo, i32hi);
        clamp64_avx2(_mm256_add_epi64(zyv, r), _mm256_setzero_si256(), qmaxv)
    }

    /// One 4-lane threshold requant: branchless compare-accumulate over the
    /// transposed tables, both compare directions blended by the flip mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn thresh_lanes_avx2(
        phi: __m256i,
        c: usize,
        co: usize,
        len: usize,
        thr_t: *const i64,
        flip: *const i64,
        empty: *const i64,
        konst: *const i64,
    ) -> __m256i {
        let ones = _mm256_set1_epi64x(-1);
        let flipv = _mm256_loadu_si256(flip.add(c) as *const __m256i);
        let mut cnt = _mm256_setzero_si256();
        for t in 0..len {
            let thr = _mm256_loadu_si256(thr_t.add(t * co + c) as *const __m256i);
            let le = _mm256_xor_si256(_mm256_cmpgt_epi64(thr, phi), ones);
            let ge = _mm256_xor_si256(_mm256_cmpgt_epi64(phi, thr), ones);
            let sel = _mm256_blendv_epi8(le, ge, flipv);
            cnt = _mm256_sub_epi64(cnt, sel);
        }
        let emptyv = _mm256_loadu_si256(empty.add(c) as *const __m256i);
        let konstv = _mm256_loadu_si256(konst.add(c) as *const __m256i);
        _mm256_blendv_epi8(cnt, konstv, emptyv)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn fixed_lanes_sse2(
        phi: __m128i,
        bq: *const i32,
        m0: *const i32,
        shift: *const i64,
        sbias: *const i64,
        zyv: __m128i,
        qmaxv: __m128i,
    ) -> __m128i {
        let i32lo = _mm_set1_epi64x(i32::MIN as i64);
        let i32hi = _mm_set1_epi64x(i32::MAX as i64);
        let minv = _mm_set1_epi64x(i64::MIN);
        let v = clamp64_sse2(_mm_add_epi64(phi, widen2_sse2(bq)), i32lo, i32hi);
        let prod = mul_lo32_sse2(v, widen2_sse2(m0));
        let (s0, s1) = (*shift, *shift.add(1));
        let shifted = _mm_sub_epi64(
            srl64_var_sse2(_mm_xor_si128(prod, minv), s0, s1),
            _mm_loadu_si128(sbias as *const __m128i),
        );
        let r = clamp64_sse2(shifted, i32lo, i32hi);
        clamp64_sse2(_mm_add_epi64(zyv, r), _mm_setzero_si128(), qmaxv)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn thresh_lanes_sse2(
        phi: __m128i,
        c: usize,
        co: usize,
        len: usize,
        thr_t: *const i64,
        flip: *const i64,
        empty: *const i64,
        konst: *const i64,
    ) -> __m128i {
        let ones = _mm_set1_epi64x(-1);
        let flipv = _mm_loadu_si128(flip.add(c) as *const __m128i);
        let mut cnt = _mm_setzero_si128();
        for t in 0..len {
            let thr = _mm_loadu_si128(thr_t.add(t * co + c) as *const __m128i);
            let le = _mm_xor_si128(cmpgt64_sse2(thr, phi), ones);
            let ge = _mm_xor_si128(cmpgt64_sse2(phi, thr), ones);
            let sel = blend64_sse2(le, ge, flipv);
            cnt = _mm_sub_epi64(cnt, sel);
        }
        let emptyv = _mm_loadu_si128(empty.add(c) as *const __m128i);
        let konstv = _mm_loadu_si128(konst.add(c) as *const __m128i);
        blend64_sse2(cnt, konstv, emptyv)
    }

    /// Precomputed-`Φ` entry, AVX2 (4 channels per iteration).
    pub unsafe fn phi_avx2(plan: &RequantPlan, c0: usize, phis: &[i64], out: &mut [u8]) -> usize {
        phi_avx2_impl(plan, c0, phis, out)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn phi_avx2_impl(plan: &RequantPlan, c0: usize, phis: &[i64], out: &mut [u8]) -> usize {
        let n = phis.len() & !3;
        let zyv = _mm256_set1_epi64x(plan.zy);
        let qmaxv = _mm256_set1_epi64x(plan.qmax);
        let co = plan.channels();
        match &plan.kind {
            PlanKind::Fixed {
                bq,
                m0,
                shift,
                sbias,
                ..
            } => {
                for i in (0..n).step_by(4) {
                    let c = c0 + i;
                    let phi = _mm256_loadu_si256(phis.as_ptr().add(i) as *const __m256i);
                    let code = fixed_lanes_avx2(
                        phi,
                        bq.as_ptr().add(c),
                        m0.as_ptr().add(c),
                        shift.as_ptr().add(c),
                        sbias.as_ptr().add(c),
                        zyv,
                        qmaxv,
                    );
                    store4_codes(code, out.as_mut_ptr().add(i));
                }
            }
            PlanKind::Thresh {
                len,
                thr_t,
                flip,
                empty,
                konst,
                ..
            } => {
                for i in (0..n).step_by(4) {
                    let phi = _mm256_loadu_si256(phis.as_ptr().add(i) as *const __m256i);
                    let code = thresh_lanes_avx2(
                        phi,
                        c0 + i,
                        co,
                        *len,
                        thr_t.as_ptr(),
                        flip.as_ptr(),
                        empty.as_ptr(),
                        konst.as_ptr(),
                    );
                    store4_codes(code, out.as_mut_ptr().add(i));
                }
            }
        }
        n
    }

    /// Precomputed-`Φ` entry, SSE2 (2 channels per iteration).
    pub unsafe fn phi_sse2(plan: &RequantPlan, c0: usize, phis: &[i64], out: &mut [u8]) -> usize {
        phi_sse2_impl(plan, c0, phis, out)
    }

    #[target_feature(enable = "sse2")]
    unsafe fn phi_sse2_impl(plan: &RequantPlan, c0: usize, phis: &[i64], out: &mut [u8]) -> usize {
        let n = phis.len() & !1;
        let zyv = _mm_set1_epi64x(plan.zy);
        let qmaxv = _mm_set1_epi64x(plan.qmax);
        let co = plan.channels();
        match &plan.kind {
            PlanKind::Fixed {
                bq,
                m0,
                shift,
                sbias,
                ..
            } => {
                for i in (0..n).step_by(2) {
                    let c = c0 + i;
                    let phi = _mm_loadu_si128(phis.as_ptr().add(i) as *const __m128i);
                    let code = fixed_lanes_sse2(
                        phi,
                        bq.as_ptr().add(c),
                        m0.as_ptr().add(c),
                        shift.as_ptr().add(c),
                        sbias.as_ptr().add(c),
                        zyv,
                        qmaxv,
                    );
                    store2_codes(code, out.as_mut_ptr().add(i));
                }
            }
            PlanKind::Thresh {
                len,
                thr_t,
                flip,
                empty,
                konst,
                ..
            } => {
                for i in (0..n).step_by(2) {
                    let phi = _mm_loadu_si128(phis.as_ptr().add(i) as *const __m128i);
                    let code = thresh_lanes_sse2(
                        phi,
                        c0 + i,
                        co,
                        *len,
                        thr_t.as_ptr(),
                        flip.as_ptr(),
                        empty.as_ptr(),
                        konst.as_ptr(),
                    );
                    store2_codes(code, out.as_mut_ptr().add(i));
                }
            }
        }
        n
    }

    /// Fused GEMM-row entry, AVX2: `Φ` lanes are built in-register from the
    /// `i32` accumulators and the hoisted corrections (all proven to fit
    /// `i32`, so `pmuldq` on the low dwords is exact).
    pub unsafe fn gemm_avx2(
        plan: &RequantPlan,
        accs: &[i32],
        sx: i64,
        zx: i64,
        zw: &[i64],
        wbase: &[i64],
        out: &mut [u8],
    ) -> usize {
        gemm_avx2_impl(plan, accs, sx, zx, zw, wbase, out)
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_avx2_impl(
        plan: &RequantPlan,
        accs: &[i32],
        sx: i64,
        zx: i64,
        zw: &[i64],
        wbase: &[i64],
        out: &mut [u8],
    ) -> usize {
        let n = accs.len() & !3;
        let zyv = _mm256_set1_epi64x(plan.zy);
        let qmaxv = _mm256_set1_epi64x(plan.qmax);
        let sxv = _mm256_set1_epi64x(sx);
        let zxv = _mm256_set1_epi64x(zx);
        let co = plan.channels();
        for i in (0..n).step_by(4) {
            let acc =
                _mm256_cvtepi32_epi64(_mm_loadu_si128(accs.as_ptr().add(i) as *const __m128i));
            let zwv = _mm256_loadu_si256(zw.as_ptr().add(i) as *const __m256i);
            let bv = _mm256_loadu_si256(wbase.as_ptr().add(i) as *const __m256i);
            let phi = _mm256_sub_epi64(
                _mm256_sub_epi64(acc, _mm256_mul_epi32(zwv, sxv)),
                _mm256_mul_epi32(bv, zxv),
            );
            let code = match &plan.kind {
                PlanKind::Fixed {
                    bq,
                    m0,
                    shift,
                    sbias,
                    ..
                } => fixed_lanes_avx2(
                    phi,
                    bq.as_ptr().add(i),
                    m0.as_ptr().add(i),
                    shift.as_ptr().add(i),
                    sbias.as_ptr().add(i),
                    zyv,
                    qmaxv,
                ),
                PlanKind::Thresh {
                    len,
                    thr_t,
                    flip,
                    empty,
                    konst,
                    ..
                } => thresh_lanes_avx2(
                    phi,
                    i,
                    co,
                    *len,
                    thr_t.as_ptr(),
                    flip.as_ptr(),
                    empty.as_ptr(),
                    konst.as_ptr(),
                ),
            };
            store4_codes(code, out.as_mut_ptr().add(i));
        }
        n
    }

    /// Fused GEMM-row entry, SSE2. The `pmuludq` + sign-correction pair
    /// multiplies the low dwords of the widened correction lanes.
    pub unsafe fn gemm_sse2(
        plan: &RequantPlan,
        accs: &[i32],
        sx: i64,
        zx: i64,
        zw: &[i64],
        wbase: &[i64],
        out: &mut [u8],
    ) -> usize {
        gemm_sse2_impl(plan, accs, sx, zx, zw, wbase, out)
    }

    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_sse2_impl(
        plan: &RequantPlan,
        accs: &[i32],
        sx: i64,
        zx: i64,
        zw: &[i64],
        wbase: &[i64],
        out: &mut [u8],
    ) -> usize {
        let n = accs.len() & !1;
        let zyv = _mm_set1_epi64x(plan.zy);
        let qmaxv = _mm_set1_epi64x(plan.qmax);
        let sxv = _mm_set1_epi64x(sx);
        let zxv = _mm_set1_epi64x(zx);
        let co = plan.channels();
        for i in (0..n).step_by(2) {
            let acc = widen2_sse2(accs.as_ptr().add(i));
            let zwv = _mm_loadu_si128(zw.as_ptr().add(i) as *const __m128i);
            let bv = _mm_loadu_si128(wbase.as_ptr().add(i) as *const __m128i);
            let phi = _mm_sub_epi64(
                _mm_sub_epi64(acc, mul_lo32_sse2(zwv, sxv)),
                mul_lo32_sse2(bv, zxv),
            );
            let code = match &plan.kind {
                PlanKind::Fixed {
                    bq,
                    m0,
                    shift,
                    sbias,
                    ..
                } => fixed_lanes_sse2(
                    phi,
                    bq.as_ptr().add(i),
                    m0.as_ptr().add(i),
                    shift.as_ptr().add(i),
                    sbias.as_ptr().add(i),
                    zyv,
                    qmaxv,
                ),
                PlanKind::Thresh {
                    len,
                    thr_t,
                    flip,
                    empty,
                    konst,
                    ..
                } => thresh_lanes_sse2(
                    phi,
                    i,
                    co,
                    *len,
                    thr_t.as_ptr(),
                    flip.as_ptr(),
                    empty.as_ptr(),
                    konst.as_ptr(),
                ),
            };
            store2_codes(code, out.as_mut_ptr().add(i));
        }
        n
    }

    /// `QAdd` LUT kernel: widen 4 codes to qword indices, gather both
    /// per-operand LUTs, add, clamp.
    pub unsafe fn qadd_avx2(
        lut_a: &[i64; 256],
        lut_b: &[i64; 256],
        a: &[u8],
        b: &[u8],
        zy: i64,
        qmax: i64,
        out: &mut [u8],
    ) -> usize {
        qadd_avx2_impl(lut_a, lut_b, a, b, zy, qmax, out)
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn qadd_avx2_impl(
        lut_a: &[i64; 256],
        lut_b: &[i64; 256],
        a: &[u8],
        b: &[u8],
        zy: i64,
        qmax: i64,
        out: &mut [u8],
    ) -> usize {
        let n = out.len() & !3;
        let zyv = _mm256_set1_epi64x(zy);
        let qmaxv = _mm256_set1_epi64x(qmax);
        let zero = _mm256_setzero_si256();
        for i in (0..n).step_by(4) {
            let qa = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(i32::from_le_bytes([
                a[i],
                a[i + 1],
                a[i + 2],
                a[i + 3],
            ])));
            let qb = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(i32::from_le_bytes([
                b[i],
                b[i + 1],
                b[i + 2],
                b[i + 3],
            ])));
            let ga = _mm256_i64gather_epi64::<8>(lut_a.as_ptr(), qa);
            let gb = _mm256_i64gather_epi64::<8>(lut_b.as_ptr(), qb);
            let s = _mm256_add_epi64(_mm256_add_epi64(zyv, ga), gb);
            store4_codes(clamp64_avx2(s, zero, qmaxv), out.as_mut_ptr().add(i));
        }
        n
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{PlanKind, RequantPlan};
    use std::arch::aarch64::*;

    #[inline]
    unsafe fn clamp64_neon(x: int64x2_t, lo: int64x2_t, hi: int64x2_t) -> int64x2_t {
        let x = vbslq_s64(vcgtq_s64(x, hi), hi, x);
        vbslq_s64(vcgtq_s64(lo, x), lo, x)
    }

    #[inline]
    unsafe fn store2_codes(v: int64x2_t, out: *mut u8) {
        *out = vgetq_lane_s64::<0>(v) as u8;
        *out.add(1) = vgetq_lane_s64::<1>(v) as u8;
    }

    /// One 2-lane fixed-point requant. `SSHL` with a negated count is a
    /// truncating arithmetic right shift — no bias trick needed on NEON.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn fixed_lanes_neon(
        phi: int64x2_t,
        bq: *const i32,
        m0: *const i32,
        shift: *const i64,
        zyv: int64x2_t,
        qmaxv: int64x2_t,
    ) -> int64x2_t {
        let i32lo = vdupq_n_s64(i32::MIN as i64);
        let i32hi = vdupq_n_s64(i32::MAX as i64);
        let v = clamp64_neon(vaddq_s64(phi, vmovl_s32(vld1_s32(bq))), i32lo, i32hi);
        // The clamped lane fits i32: narrow to the value, widen-multiply.
        let prod = vmull_s32(vmovn_s64(v), vld1_s32(m0));
        let shifted = vshlq_s64(prod, vnegq_s64(vld1q_s64(shift)));
        let r = clamp64_neon(shifted, i32lo, i32hi);
        clamp64_neon(vaddq_s64(zyv, r), vdupq_n_s64(0), qmaxv)
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn thresh_lanes_neon(
        phi: int64x2_t,
        c: usize,
        co: usize,
        len: usize,
        thr_t: *const i64,
        flip: *const i64,
        empty: *const i64,
        konst: *const i64,
    ) -> int64x2_t {
        let flipv = vreinterpretq_u64_s64(vld1q_s64(flip.add(c)));
        let mut cnt = vdupq_n_s64(0);
        for t in 0..len {
            let thr = vld1q_s64(thr_t.add(t * co + c));
            let le = vcleq_s64(thr, phi);
            let ge = vcgeq_s64(thr, phi);
            let sel = vbslq_u64(flipv, ge, le);
            cnt = vsubq_s64(cnt, vreinterpretq_s64_u64(sel));
        }
        let emptyv = vreinterpretq_u64_s64(vld1q_s64(empty.add(c)));
        let konstv = vld1q_s64(konst.add(c));
        vbslq_s64(emptyv, konstv, cnt)
    }

    /// Precomputed-`Φ` entry, NEON (2 channels per iteration).
    pub unsafe fn phi_neon(plan: &RequantPlan, c0: usize, phis: &[i64], out: &mut [u8]) -> usize {
        let n = phis.len() & !1;
        let zyv = vdupq_n_s64(plan.zy);
        let qmaxv = vdupq_n_s64(plan.qmax);
        let co = plan.channels();
        match &plan.kind {
            PlanKind::Fixed { bq, m0, shift, .. } => {
                for i in (0..n).step_by(2) {
                    let c = c0 + i;
                    let phi = vld1q_s64(phis.as_ptr().add(i));
                    let code = fixed_lanes_neon(
                        phi,
                        bq.as_ptr().add(c),
                        m0.as_ptr().add(c),
                        shift.as_ptr().add(c),
                        zyv,
                        qmaxv,
                    );
                    store2_codes(code, out.as_mut_ptr().add(i));
                }
            }
            PlanKind::Thresh {
                len,
                thr_t,
                flip,
                empty,
                konst,
                ..
            } => {
                for i in (0..n).step_by(2) {
                    let phi = vld1q_s64(phis.as_ptr().add(i));
                    let code = thresh_lanes_neon(
                        phi,
                        c0 + i,
                        co,
                        *len,
                        thr_t.as_ptr(),
                        flip.as_ptr(),
                        empty.as_ptr(),
                        konst.as_ptr(),
                    );
                    store2_codes(code, out.as_mut_ptr().add(i));
                }
            }
        }
        n
    }

    /// Fused GEMM-row entry, NEON: corrections fit `i32` (dispatcher
    /// guarantees it), so narrow-then-`vmull_s32` is exact.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_neon(
        plan: &RequantPlan,
        accs: &[i32],
        sx: i64,
        zx: i64,
        zw: &[i64],
        wbase: &[i64],
        out: &mut [u8],
    ) -> usize {
        let n = accs.len() & !1;
        let zyv = vdupq_n_s64(plan.zy);
        let qmaxv = vdupq_n_s64(plan.qmax);
        let sx32 = vdup_n_s32(sx as i32);
        let zx32 = vdup_n_s32(zx as i32);
        let co = plan.channels();
        for i in (0..n).step_by(2) {
            let acc = vmovl_s32(vld1_s32(accs.as_ptr().add(i)));
            let zwv = vld1q_s64(zw.as_ptr().add(i));
            let bv = vld1q_s64(wbase.as_ptr().add(i));
            let phi = vsubq_s64(
                vsubq_s64(acc, vmull_s32(vmovn_s64(zwv), sx32)),
                vmull_s32(vmovn_s64(bv), zx32),
            );
            let code = match &plan.kind {
                PlanKind::Fixed { bq, m0, shift, .. } => fixed_lanes_neon(
                    phi,
                    bq.as_ptr().add(i),
                    m0.as_ptr().add(i),
                    shift.as_ptr().add(i),
                    zyv,
                    qmaxv,
                ),
                PlanKind::Thresh {
                    len,
                    thr_t,
                    flip,
                    empty,
                    konst,
                    ..
                } => thresh_lanes_neon(
                    phi,
                    i,
                    co,
                    *len,
                    thr_t.as_ptr(),
                    flip.as_ptr(),
                    empty.as_ptr(),
                    konst.as_ptr(),
                ),
            };
            store2_codes(code, out.as_mut_ptr().add(i));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requant::ThresholdChannel;
    use mixq_quant::{BitWidth, FixedPointMultiplier};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn levels() -> Vec<SimdLevel> {
        [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ]
        .into_iter()
        .filter(|l| l.available())
        .collect()
    }

    fn random_icn(seed: u64, co: usize, bits: BitWidth) -> Requantizer {
        let mut s = seed;
        let bq: Vec<i32> = (0..co).map(|_| lcg(&mut s) as i32 % 100_000).collect();
        let mult: Vec<FixedPointMultiplier> = (0..co)
            .map(|_| {
                let m = (lcg(&mut s) % 2_000_000) as f64 / 1e8 + 1e-6;
                FixedPointMultiplier::from_real(m)
            })
            .collect();
        let zy = (lcg(&mut s) % (bits.qmax() as u64 + 1)) as i32;
        Requantizer::icn(bq, mult, zy, bits)
    }

    fn random_thresholds(seed: u64, co: usize, bits: BitWidth) -> Requantizer {
        let mut s = seed;
        let zy = (lcg(&mut s) % (bits.qmax() as u64 + 1)) as i32;
        let channels: Vec<ThresholdChannel> = (0..co)
            .map(|c| {
                let m = if c % 3 == 2 {
                    // Negative multipliers: descending tables.
                    -((lcg(&mut s) % 1_000_000) as f64 / 1e8 + 1e-6)
                } else if c % 7 == 6 {
                    0.0 // constant channel
                } else {
                    (lcg(&mut s) % 1_000_000) as f64 / 1e8 + 1e-6
                };
                let bq = (lcg(&mut s) % 20_000) as i64 - 10_000;
                ThresholdChannel::from_affine(m, bq, zy, bits)
            })
            .collect();
        Requantizer::thresholds(channels, zy, bits)
    }

    fn check_phi_all_levels(req: &Requantizer, phis: &[i64]) {
        let plan = RequantPlan::new(req);
        let co = req.channels();
        for lv in levels() {
            for c0 in [0usize, 1, 3] {
                if c0 + phis.len().min(co - c0) > co {
                    continue;
                }
                let n = (co - c0).min(phis.len());
                let (mut r_ref, mut c_ref) = (7u64, 11u64);
                let mut want = vec![0u8; n];
                for (i, w) in want.iter_mut().enumerate() {
                    *w = req.apply(c0 + i, phis[i], &mut r_ref, &mut c_ref);
                }
                let (mut r_got, mut c_got) = (7u64, 11u64);
                let mut got = vec![0u8; n];
                apply_phi_block(
                    &plan,
                    req,
                    lv,
                    c0,
                    &phis[..n],
                    &mut got,
                    &mut r_got,
                    &mut c_got,
                );
                assert_eq!(got, want, "codes differ at level {lv:?}, c0={c0}");
                assert_eq!((r_got, c_got), (r_ref, c_ref), "ledger differs at {lv:?}");
            }
        }
    }

    #[test]
    fn fixed_phi_matches_scalar_apply_all_levels() {
        for (seed, co, bits) in [
            (1u64, 37, BitWidth::W8),
            (2, 16, BitWidth::W4),
            (3, 9, BitWidth::W2),
        ] {
            let req = random_icn(seed, co, bits);
            let mut s = seed ^ 0xabcdef;
            // Extremes stay shy of i64::MAX/MIN: the scalar `apply` adds
            // `bq` before saturating, so ±(2^62) is the supported domain —
            // still far past the i32 clamp both paths must hit identically.
            let phis: Vec<i64> = (0..co)
                .map(|i| match i % 5 {
                    0 => lcg(&mut s) as i64 % 1_000_000 - 500_000,
                    1 => (1i64 << 62) - lcg(&mut s) as i64 % 1000,
                    2 => -(1i64 << 62) + lcg(&mut s) as i64 % 1000,
                    3 => (lcg(&mut s) as i64 % 3_000_000_000) - 1_500_000_000,
                    _ => 0,
                })
                .collect();
            check_phi_all_levels(&req, &phis);
        }
    }

    #[test]
    fn threshold_phi_matches_scalar_apply_all_levels() {
        for (seed, co, bits) in [
            (4u64, 23, BitWidth::W4),
            (5, 14, BitWidth::W2),
            (6, 8, BitWidth::W4),
        ] {
            let req = random_thresholds(seed, co, bits);
            let mut s = seed ^ 0x1234;
            let phis: Vec<i64> = (0..co)
                .map(|i| match i % 4 {
                    0 => lcg(&mut s) as i64 % 100_000 - 50_000,
                    1 => i64::MAX - lcg(&mut s) as i64 % 3,
                    2 => i64::MIN + lcg(&mut s) as i64 % 3,
                    _ => lcg(&mut s) as i64 % 100 - 50,
                })
                .collect();
            check_phi_all_levels(&req, &phis);
            // The saturated-i16 ablation path produces duplicate clamped
            // thresholds — the compare-accumulate must still match.
            check_phi_all_levels(&req.saturated_i16(), &phis);
        }
    }

    #[test]
    fn w8_threshold_plan_stays_scalar_but_correct() {
        let req = random_thresholds(9, 10, BitWidth::W8);
        let plan = RequantPlan::new(&req);
        assert!(!plan.vectorizable(), "255-entry tables must stay scalar");
        let phis: Vec<i64> = (0..10).map(|i| i as i64 * 7 - 31).collect();
        check_phi_all_levels(&req, &phis);
    }

    #[test]
    fn gemm_row_matches_reference_all_levels() {
        for (seed, co, bits) in [(10u64, 29, BitWidth::W4), (11, 12, BitWidth::W8)] {
            let req = random_icn(seed, co, bits);
            let plan = RequantPlan::new(&req);
            let mut s = seed ^ 0x55;
            let accs: Vec<i32> = (0..co).map(|_| lcg(&mut s) as i32).collect();
            let zw: Vec<i64> = (0..co)
                .map(|_| lcg(&mut s) as i64 % 65536 - 32768)
                .collect();
            let wbase: Vec<i64> = (0..co)
                .map(|_| lcg(&mut s) as i64 % 2_000_000 - 1_000_000)
                .collect();
            let (sx, zx) = ((lcg(&mut s) % 8_000_000) as i64, (lcg(&mut s) % 256) as i64);
            let (mut r_ref, mut c_ref) = (0u64, 0u64);
            let mut want = vec![0u8; co];
            for c in 0..co {
                let phi = accs[c] as i64 - zw[c] * sx - zx * wbase[c];
                want[c] = req.apply(c, phi, &mut r_ref, &mut c_ref);
            }
            for lv in levels() {
                let (mut r_got, mut c_got) = (0u64, 0u64);
                let mut got = vec![0u8; co];
                apply_gemm_row(
                    &plan, &req, lv, &accs, sx, zx, &zw, &wbase, &mut got, &mut r_got, &mut c_got,
                );
                assert_eq!(got, want, "gemm row differs at {lv:?}");
                assert_eq!((r_got, c_got), (r_ref, c_ref), "ledger differs at {lv:?}");
            }
        }
    }

    #[test]
    fn gemm_row_out_of_range_corrections_fall_back() {
        let req = random_icn(21, 6, BitWidth::W8);
        let plan = RequantPlan::new(&req);
        let accs = vec![1i32; 6];
        let zw = vec![i32::MAX as i64 + 5; 6]; // cannot fit the 32×32 path
        let wbase = vec![0i64; 6];
        let (mut r0, mut c0) = (0u64, 0u64);
        let mut want = vec![0u8; 6];
        for c in 0..6 {
            let phi = accs[c] as i64 - zw[c] * 3;
            want[c] = req.apply(c, phi, &mut r0, &mut c0);
        }
        for lv in levels() {
            let (mut r1, mut c1) = (0u64, 0u64);
            let mut got = vec![0u8; 6];
            apply_gemm_row(
                &plan, &req, lv, &accs, 3, 0, &zw, &wbase, &mut got, &mut r1, &mut c1,
            );
            assert_eq!(got, want);
            assert_eq!((r1, c1), (r0, c0));
        }
    }

    #[test]
    fn i32_block_matches_scalar_apply() {
        let req = random_icn(31, 130, BitWidth::W4); // > PHI_CHUNK to cross chunks
        let plan = RequantPlan::new(&req);
        let mut s = 99u64;
        let accs: Vec<i32> = (0..130).map(|_| lcg(&mut s) as i32).collect();
        let (mut r_ref, mut c_ref) = (0u64, 0u64);
        let mut want = vec![0u8; 130];
        for (c, w) in want.iter_mut().enumerate() {
            *w = req.apply(c, accs[c] as i64, &mut r_ref, &mut c_ref);
        }
        for lv in levels() {
            let (mut r_got, mut c_got) = (0u64, 0u64);
            let mut got = vec![0u8; 130];
            apply_i32_block(&plan, &req, lv, 0, &accs, &mut got, &mut r_got, &mut c_got);
            assert_eq!(got, want, "i32 block differs at {lv:?}");
            assert_eq!((r_got, c_got), (r_ref, c_ref));
        }
    }

    #[test]
    fn tiled_plan_matches_per_pixel_calls() {
        // A tiled plan over `reps` pixels of a `co`-channel layer must
        // reproduce `reps` untiled per-pixel calls: codes and ledger, for
        // fixed-point and threshold (vector and scalar-only) plans.
        for (req, co) in [
            (random_icn(5, 3, BitWidth::W8), 3),
            (random_icn(6, 8, BitWidth::W4), 8),
            (random_thresholds(7, 5, BitWidth::W4), 5),
            (random_thresholds(8, 16, BitWidth::W2), 16),
            (random_thresholds(9, 4, BitWidth::W8), 4),
        ] {
            let plan = RequantPlan::new(&req);
            let reps = 64 / co;
            let tiled = plan.tiled(reps);
            assert_eq!(tiled.channels(), reps * co);
            assert_eq!(tiled.vectorizable(), plan.vectorizable());
            let mut s = co as u64;
            let accs: Vec<i32> = (0..reps * co)
                .map(|_| (lcg(&mut s) % 400_000) as i32 - 200_000)
                .collect();
            for lv in levels() {
                let (mut r_ref, mut c_ref) = (0u64, 0u64);
                let mut want = vec![0u8; accs.len()];
                for (a, w) in accs.chunks(co).zip(want.chunks_mut(co)) {
                    apply_i32_block(&plan, &req, lv, 0, a, w, &mut r_ref, &mut c_ref);
                }
                // Whole groups, and a trailing partial group.
                for pixels in [reps, reps - 1] {
                    let n = pixels * co;
                    let (mut r_got, mut c_got) = (0u64, 0u64);
                    let mut got = vec![0u8; n];
                    apply_i32_block(
                        &tiled,
                        &req,
                        lv,
                        0,
                        &accs[..n],
                        &mut got,
                        &mut r_got,
                        &mut c_got,
                    );
                    assert_eq!(got, want[..n], "{lv:?} co={co} pixels={pixels}");
                    if pixels == reps {
                        assert_eq!((r_got, c_got), (r_ref, c_ref), "{lv:?} co={co}");
                    }
                }
            }
        }
    }

    #[test]
    fn qadd_lut_matches_scalar() {
        let mut s = 77u64;
        let mut lut_a = [0i64; 256];
        let mut lut_b = [0i64; 256];
        for i in 0..256 {
            lut_a[i] = lcg(&mut s) as i64 % 1000 - 500;
            lut_b[i] = lcg(&mut s) as i64 % 1000 - 500;
        }
        let a: Vec<u8> = (0..103).map(|_| lcg(&mut s) as u8).collect();
        let b: Vec<u8> = (0..103).map(|_| lcg(&mut s) as u8).collect();
        let (zy, qmax) = (17i64, 255i64);
        let mut want = vec![0u8; 103];
        for i in 0..103 {
            want[i] = (zy + lut_a[a[i] as usize] + lut_b[b[i] as usize]).clamp(0, qmax) as u8;
        }
        for lv in levels() {
            let mut got = vec![0u8; 103];
            qadd_lut(lv, &lut_a, &lut_b, &a, &b, zy, qmax, &mut got);
            assert_eq!(got, want, "qadd differs at {lv:?}");
        }
    }

    #[test]
    fn n0_overflow_plan_is_not_vectorizable() {
        // A multiplier with n0 > 31 would hit apply's checked_shl branch.
        let m = FixedPointMultiplier::from_real(2f64.powi(40));
        if m.exponent() as i32 > 31 {
            let req = Requantizer::icn(vec![0; 4], vec![m; 4], 0, BitWidth::W8);
            assert!(!RequantPlan::new(&req).vectorizable());
            let phis = [1i64, -1, 1 << 20, i64::MAX];
            check_phi_all_levels(&req, &phis);
        }
    }

    #[test]
    fn folded_per_layer_plan_broadcasts_multiplier() {
        let mult = FixedPointMultiplier::from_real(0.0042);
        let req = Requantizer::folded(vec![5, -9, 100, 0, 77], mult, 3, BitWidth::W4);
        let phis = [0i64, 999, -4096, 1 << 30, -(1 << 30)];
        check_phi_all_levels(&req, &phis);
    }
}
