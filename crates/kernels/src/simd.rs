//! Runtime-dispatched SIMD primitives for the blocked GEMM's u8×u8
//! inner kernel — the host-side analogue of the PULP-NN vectorized dot
//! products (arXiv:2007.07759) that give mixed-precision conv kernels
//! their throughput on real silicon.
//!
//! Three facts make an **exact** (bit-identical) SIMD path possible:
//!
//! * the blocked kernel's double zero-point hoisting (see
//!   [`crate::blocked`]) reduces the inner loop to plain `Σ X·W` and
//!   `Σ X` over `u8` operands — no per-element offsets, no rounding;
//! * integer addition is associative and commutative, so *any* summation
//!   order (vector lanes, horizontal reductions, scalar tails) produces
//!   the same integer as the scalar loop;
//! * `u8·u8 ≤ 255²` products accumulate safely in 32-bit lanes for the
//!   whole patch: `k ≤ MAX_DOT_LEN` keeps even an all-255 row inside
//!   `i32` (bounds proven per backend below).
//!
//! The core primitive is a **channel-vectorized dual-row GEMV**
//! ([`gemv2`]): instead of vectorizing along the patch (`k`) axis — which
//! starves on the small `k ∈ {4..128}` patches a width-scaled MobileNet
//! actually has — it broadcasts two activation codes at a time and
//! multiply-accumulates them against *all output channels at once*, using
//! the pair-interleaved panel layout of
//! [`PackedPanels`](crate::PackedPanels). Eight (or four) channels
//! advance per vector op regardless of how small `k` is.
//!
//! The dispatched backends:
//!
//! | level | arch | widening multiply-accumulate |
//! |---|---|---|
//! | [`SimdLevel::Scalar`] | any | portable dual-row channel loop (always available) |
//! | [`SimdLevel::Sse2`] | x86_64 | `punpck*` zero-extend + `pmaddwd`, `psadbw` row sums |
//! | [`SimdLevel::Avx2`] | x86_64 | `vpmovzxbw` + `vpmaddwd` (the `maddubs`-family widening multiply-add, minus its signed-saturating hazard: both operands are zero-extended to `i16`, so every pairwise product is exact) |
//! | [`SimdLevel::Neon`] | aarch64 | `vld2` de-interleave + `vmull_u8` widening multiply |
//!
//! The level is detected once per process ([`detected_level`]), can be
//! pinned down with the `MIXQ_FORCE_SCALAR=1` environment variable (CI's
//! fallback-coverage leg), and can be narrowed programmatically with
//! [`set_forced`] (the scaling bench measures scalar and SIMD in one
//! process). Forcing a level the CPU does not support is rejected —
//! every reachable `unsafe` call is guarded by the detection.
//!
//! None of this touches the abstract [`OpCounts`](crate::OpCounts)
//! ledger: SIMD reorganizes host arithmetic, not the modeled MCU work,
//! so modeled Cortex-M7 cycles are invariant under the level (asserted
//! by the cycle-model tests).

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod depthwise;
pub mod quantize;
pub mod requant;

/// Largest patch length [`gemv2`] accepts per call: every channel's
/// accumulator holds `Σ u8·u8` in `i32`, and `32768 · 255² < 2³¹`.
pub const MAX_DOT_LEN: usize = 32768;

/// A vector instruction level the GEMV primitives can run at.
///
/// Ordered from the always-available scalar fallback up; the enum is
/// defined on every architecture (so labels, CLI flags and JSON stamps
/// are portable) while the non-native variants simply fail
/// [`SimdLevel::available`] and fall back to scalar if dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar dual-row channel loop — always available.
    Scalar,
    /// x86_64 SSE2: 128-bit `pmaddwd` over zero-extended bytes.
    Sse2,
    /// x86_64 AVX2: 256-bit `vpmaddwd` over zero-extended bytes.
    Avx2,
    /// aarch64 NEON: `vld2`/`vmull_u8` widening multiply-accumulate.
    Neon,
}

impl SimdLevel {
    /// Stable lowercase label (bench JSON, `--help` text, log lines).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// Whether the *running* CPU can execute this level.
    pub fn available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn to_code(self) -> u8 {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 2,
            SimdLevel::Avx2 => 3,
            SimdLevel::Neon => 4,
        }
    }

    fn from_code(code: u8) -> Option<SimdLevel> {
        match code {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Sse2),
            3 => Some(SimdLevel::Avx2),
            4 => Some(SimdLevel::Neon),
            _ => None,
        }
    }
}

/// Process-wide programmatic override (0 = none); see [`set_forced`].
static FORCED: AtomicU8 = AtomicU8::new(0);

static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

/// The level runtime feature detection picked for this process: the
/// widest available backend, or [`SimdLevel::Scalar`] when the
/// `MIXQ_FORCE_SCALAR` environment variable is set to anything but `0`
/// (the escape hatch CI uses to keep the fallback path exercised).
/// Detected once and cached.
pub fn detected_level() -> SimdLevel {
    *DETECTED.get_or_init(|| {
        let forced_scalar =
            std::env::var_os("MIXQ_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
        if forced_scalar {
            return SimdLevel::Scalar;
        }
        if SimdLevel::Avx2.available() {
            SimdLevel::Avx2
        } else if SimdLevel::Sse2.available() {
            SimdLevel::Sse2
        } else if SimdLevel::Neon.available() {
            SimdLevel::Neon
        } else {
            SimdLevel::Scalar
        }
    })
}

/// Pins the active level for the whole process (`None` restores
/// detection). Benches and tests use this to measure forced-scalar and
/// auto-detected paths in one run; all levels are bit-identical, so a
/// mid-inference switch changes timing, never results. Sub-byte
/// pack/unpack (`mixq_quant::packing`) has no level to pin: it runs one
/// portable loop on every host.
///
/// # Panics
///
/// Panics if the CPU cannot execute `level` — the guard that keeps every
/// `unsafe` backend call behind a positive feature detection.
pub fn set_forced(level: Option<SimdLevel>) {
    if let Some(l) = level {
        assert!(
            l.available(),
            "SIMD level {:?} not available on this CPU",
            l
        );
    }
    FORCED.store(level.map_or(0, SimdLevel::to_code), Ordering::Release);
}

/// The level kernels should dispatch to *now*: the [`set_forced`]
/// override when present, otherwise [`detected_level`].
pub fn active_level() -> SimdLevel {
    SimdLevel::from_code(FORCED.load(Ordering::Acquire)).unwrap_or_else(detected_level)
}

/// `Σ x[i]` as an exact `i64` (the hoisted `Σ X` row term). Any length.
#[inline]
pub fn row_sum(level: SimdLevel, x: &[u8]) -> i64 {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` was asserted when the level was forced, or
        // the level came from runtime detection on this CPU.
        SimdLevel::Sse2 => unsafe { x86::row_sum_sse2(x) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2 is positively detected before dispatch.
        SimdLevel::Avx2 => unsafe { x86::row_sum_avx2(x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { neon::row_sum_neon(x) },
        #[allow(unreachable_patterns)]
        _ => x.iter().map(|&v| v as i64).sum(),
    }
}

/// The channel-vectorized dual-row GEMV over one pair-interleaved weight
/// panel: adds `Σ_i x_r[i] · w[co][i]` into `acc_r[co]` for both rows
/// and **every** output channel.
///
/// Operand layout (built by
/// [`QConv2d::prepack_panels`](crate::QConv2d::prepack_panels)):
/// `pairs[(p·c_o + co)·2 + s]` holds `w[co][2p + s]` — column pairs
/// interleaved per channel, so a 16-byte load covers 8 channels' pairs
/// and one widening multiply-add (`pmaddwd` against the broadcast
/// activation pair) advances all of them one column pair. `tail[co]`
/// holds the last column when `k` is odd.
///
/// Exactness: products are `≤ 255²`, each accumulator gathers `k ≤`
/// [`MAX_DOT_LEN`] of them, and `32768·255² < 2³¹` keeps the `i32` lanes
/// from wrapping — so every backend returns the same integers and the
/// caller's `i64` math sees exact sums.
///
/// # Panics
///
/// Debug-asserts the layout invariants (`x0.len() == x1.len() == k ≤
/// MAX_DOT_LEN`, `pairs.len() == (k/2)·c_o·2`, `tail.len() == c_o·(k&1)`,
/// `acc0.len() == acc1.len() == c_o`).
#[inline]
pub fn gemv2(
    level: SimdLevel,
    x0: &[u8],
    x1: &[u8],
    pairs: &[u8],
    tail: &[u8],
    acc0: &mut [i32],
    acc1: &mut [i32],
) {
    let k = x0.len();
    let co_n = acc0.len();
    debug_assert!(k <= MAX_DOT_LEN);
    debug_assert_eq!(x1.len(), k);
    debug_assert_eq!(acc1.len(), co_n);
    debug_assert_eq!(pairs.len(), (k / 2) * co_n * 2);
    debug_assert_eq!(tail.len(), co_n * (k & 1));
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level is positively feature-detected (see `row_sum`).
        SimdLevel::Sse2 => unsafe { x86::gemv2_sse2(x0, x1, pairs, tail, acc0, acc1) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx2 => unsafe { x86::gemv2_avx2(x0, x1, pairs, tail, acc0, acc1) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { neon::gemv2_neon(x0, x1, pairs, tail, acc0, acc1) },
        #[allow(unreachable_patterns)]
        _ => gemv2_scalar(x0, x1, pairs, tail, acc0, acc1),
    }
}

/// The portable GEMV: one column pair broadcast over all channels, two
/// rows sharing each weight load — the exact arithmetic every vector
/// backend must reproduce (and a shape LLVM can auto-vectorize).
fn gemv2_scalar(
    x0: &[u8],
    x1: &[u8],
    pairs: &[u8],
    tail: &[u8],
    acc0: &mut [i32],
    acc1: &mut [i32],
) {
    let k = x0.len();
    let co_n = acc0.len();
    for (p, wrow) in pairs.chunks_exact(co_n * 2).enumerate() {
        let xa0 = x0[2 * p] as i32;
        let xa1 = x0[2 * p + 1] as i32;
        let xb0 = x1[2 * p] as i32;
        let xb1 = x1[2 * p + 1] as i32;
        for ((w, a0), a1) in wrow
            .chunks_exact(2)
            .zip(acc0.iter_mut())
            .zip(acc1.iter_mut())
        {
            let w0 = w[0] as i32;
            let w1 = w[1] as i32;
            *a0 += xa0 * w0 + xa1 * w1;
            *a1 += xb0 * w0 + xb1 * w1;
        }
    }
    if k & 1 == 1 {
        let xa = x0[k - 1] as i32;
        let xb = x1[k - 1] as i32;
        for ((&w, a0), a1) in tail.iter().zip(acc0.iter_mut()).zip(acc1.iter_mut()) {
            *a0 += xa * w as i32;
            *a1 += xb * w as i32;
        }
    }
}

/// Scalar channel-remainder helper for the vector backends: channels
/// `[co_lo, co_n)` of the same pair-interleaved panel.
fn gemv2_channel_tail(
    x0: &[u8],
    x1: &[u8],
    pairs: &[u8],
    tail: &[u8],
    co_lo: usize,
    acc0: &mut [i32],
    acc1: &mut [i32],
) {
    let k = x0.len();
    let co_n = acc0.len();
    for p in 0..k / 2 {
        let xa0 = x0[2 * p] as i32;
        let xa1 = x0[2 * p + 1] as i32;
        let xb0 = x1[2 * p] as i32;
        let xb1 = x1[2 * p + 1] as i32;
        let base = p * co_n * 2;
        for co in co_lo..co_n {
            let w0 = pairs[base + co * 2] as i32;
            let w1 = pairs[base + co * 2 + 1] as i32;
            acc0[co] += xa0 * w0 + xa1 * w1;
            acc1[co] += xb0 * w0 + xb1 * w1;
        }
    }
    if k & 1 == 1 {
        let xa = x0[k - 1] as i32;
        let xb = x1[k - 1] as i32;
        for co in co_lo..co_n {
            let w = tail[co] as i32;
            acc0[co] += xa * w;
            acc1[co] += xb * w;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2/AVX2 backends. Overflow bound (per `i32` accumulator lane,
    //! `k ≤ 32768`): each `pmaddwd` adds one column pair
    //! `≤ 2·255² = 130050`, so a full-length row contributes
    //! `16384 · 130050 < 2³¹`. `psadbw` partials (`≤ 8·255`) accumulate
    //! in 64-bit lanes.

    use super::gemv2_channel_tail;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must have detected AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_sum_avx2(x: &[u8]) -> i64 {
        let n = x.len();
        let mut acc = _mm256_setzero_si256();
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i + 32 <= n {
            let v = _mm256_loadu_si256(x.as_ptr().add(i) as *const __m256i);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
            i += 32;
        }
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut total: i64 = lanes.iter().sum();
        for &v in &x[i..] {
            total += v as i64;
        }
        total
    }

    /// # Safety
    /// Caller must have detected SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn row_sum_sse2(x: &[u8]) -> i64 {
        let n = x.len();
        let mut acc = _mm_setzero_si128();
        let zero = _mm_setzero_si128();
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm_loadu_si128(x.as_ptr().add(i) as *const __m128i);
            acc = _mm_add_epi64(acc, _mm_sad_epu8(v, zero));
            i += 16;
        }
        let mut lanes = [0i64; 2];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, acc);
        let mut total = lanes[0] + lanes[1];
        for &v in &x[i..] {
            total += v as i64;
        }
        total
    }

    /// Column pairs per splat-buffer chunk: both rows' pre-packed
    /// broadcast words fit comfortably on the stack (2 × 256 × 4 bytes).
    const PAIR_CHUNK: usize = 256;

    /// # Safety
    /// Caller must have detected AVX2; layout invariants as in [`super::gemv2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv2_avx2(
        x0: &[u8],
        x1: &[u8],
        pairs: &[u8],
        tail: &[u8],
        acc0: &mut [i32],
        acc1: &mut [i32],
    ) {
        let k = x0.len();
        let co_n = acc0.len();
        let co8 = co_n & !7;
        let wp = pairs.as_ptr();
        // Pack each row's activation pairs into broadcast-ready i32 words
        // once per chunk (not once per channel tile): the inner loop is
        // then pure vpbroadcastd-from-memory + vpmaddwd + vpaddd, with the
        // weight load shared by both rows. Accumulators live in registers
        // across each chunk (safe — see the module overflow bound) and in
        // `acc` between chunks.
        let mut xs0 = [0i32; PAIR_CHUNK];
        let mut xs1 = [0i32; PAIR_CHUNK];
        let mut p0 = 0usize;
        while p0 < k / 2 {
            let pn = (k / 2 - p0).min(PAIR_CHUNK);
            for p in 0..pn {
                let i = (p0 + p) * 2;
                xs0[p] = (x0[i] as i32) | ((x0[i + 1] as i32) << 16);
                xs1[p] = (x1[i] as i32) | ((x1[i + 1] as i32) << 16);
            }
            let mut ct = 0;
            while ct < co8 {
                let mut a0 = _mm256_loadu_si256(acc0.as_ptr().add(ct) as *const __m256i);
                let mut a1 = _mm256_loadu_si256(acc1.as_ptr().add(ct) as *const __m256i);
                for p in 0..pn {
                    // 16 bytes = 8 channels' (w₂ₚ, w₂ₚ₊₁) pairs,
                    // zero-extended to 16 i16 lanes; pmaddwd against the
                    // broadcast activation pair yields one i32 per channel.
                    let w = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                        wp.add(((p0 + p) * co_n + ct) * 2) as *const __m128i,
                    ));
                    a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(_mm256_set1_epi32(xs0[p]), w));
                    a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(_mm256_set1_epi32(xs1[p]), w));
                }
                _mm256_storeu_si256(acc0.as_mut_ptr().add(ct) as *mut __m256i, a0);
                _mm256_storeu_si256(acc1.as_mut_ptr().add(ct) as *mut __m256i, a1);
                ct += 8;
            }
            p0 += pn;
        }
        if k & 1 == 1 {
            // Odd last column: zero-extend 8 tail weights to i32 lanes and
            // multiply by the broadcast activation.
            let xa = _mm256_set1_epi32(x0[k - 1] as i32);
            let xb = _mm256_set1_epi32(x1[k - 1] as i32);
            let mut ct = 0;
            while ct < co8 {
                let wt =
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(tail.as_ptr().add(ct) as *const __m128i));
                let a0 = _mm256_loadu_si256(acc0.as_ptr().add(ct) as *const __m256i);
                let a1 = _mm256_loadu_si256(acc1.as_ptr().add(ct) as *const __m256i);
                _mm256_storeu_si256(
                    acc0.as_mut_ptr().add(ct) as *mut __m256i,
                    _mm256_add_epi32(a0, _mm256_mullo_epi32(wt, xa)),
                );
                _mm256_storeu_si256(
                    acc1.as_mut_ptr().add(ct) as *mut __m256i,
                    _mm256_add_epi32(a1, _mm256_mullo_epi32(wt, xb)),
                );
                ct += 8;
            }
        }
        if co8 < co_n {
            gemv2_channel_tail(x0, x1, pairs, tail, co8, acc0, acc1);
        }
    }

    /// # Safety
    /// Caller must have detected SSE2; layout invariants as in [`super::gemv2`].
    #[target_feature(enable = "sse2")]
    pub unsafe fn gemv2_sse2(
        x0: &[u8],
        x1: &[u8],
        pairs: &[u8],
        tail: &[u8],
        acc0: &mut [i32],
        acc1: &mut [i32],
    ) {
        let k = x0.len();
        let co_n = acc0.len();
        let co4 = co_n & !3;
        let zero = _mm_setzero_si128();
        let wp = pairs.as_ptr();
        // Same splat-buffer chunking as the AVX2 backend, at 128-bit width.
        let mut xs0 = [0i32; PAIR_CHUNK];
        let mut xs1 = [0i32; PAIR_CHUNK];
        let mut p0 = 0usize;
        while p0 < k / 2 {
            let pn = (k / 2 - p0).min(PAIR_CHUNK);
            for p in 0..pn {
                let i = (p0 + p) * 2;
                xs0[p] = (x0[i] as i32) | ((x0[i + 1] as i32) << 16);
                xs1[p] = (x1[i] as i32) | ((x1[i + 1] as i32) << 16);
            }
            let mut ct = 0;
            while ct < co4 {
                let mut a0 = _mm_loadu_si128(acc0.as_ptr().add(ct) as *const __m128i);
                let mut a1 = _mm_loadu_si128(acc1.as_ptr().add(ct) as *const __m128i);
                for p in 0..pn {
                    // 8 bytes = 4 channels' pairs; punpcklbw against zero
                    // is the SSE2 zero-extension to 8 i16 lanes.
                    let wb = _mm_loadl_epi64(wp.add(((p0 + p) * co_n + ct) * 2) as *const __m128i);
                    let w = _mm_unpacklo_epi8(wb, zero);
                    a0 = _mm_add_epi32(a0, _mm_madd_epi16(_mm_set1_epi32(xs0[p]), w));
                    a1 = _mm_add_epi32(a1, _mm_madd_epi16(_mm_set1_epi32(xs1[p]), w));
                }
                _mm_storeu_si128(acc0.as_mut_ptr().add(ct) as *mut __m128i, a0);
                _mm_storeu_si128(acc1.as_mut_ptr().add(ct) as *mut __m128i, a1);
                ct += 4;
            }
            p0 += pn;
        }
        // Odd last column (no SSE2 32-bit mullo: scalar, once per call)
        // and the channel remainder.
        if k & 1 == 1 {
            let xa = x0[k - 1] as i32;
            let xb = x1[k - 1] as i32;
            for co in 0..co4 {
                let w = tail[co] as i32;
                acc0[co] += xa * w;
                acc1[co] += xb * w;
            }
        }
        if co4 < co_n {
            gemv2_channel_tail(x0, x1, pairs, tail, co4, acc0, acc1);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON backend. Overflow bound (per accumulator lane, `k ≤ 32768`):
    //! products are `≤ 255² = 65025` in `u16`; each column adds one into
    //! a 32-bit lane, so a full-length row contributes
    //! `32768 · 65025 < 2³¹`.

    use super::gemv2_channel_tail;
    #[allow(clippy::wildcard_imports)]
    use std::arch::aarch64::*;

    /// # Safety
    /// NEON is baseline on aarch64.
    #[target_feature(enable = "neon")]
    pub unsafe fn row_sum_neon(x: &[u8]) -> i64 {
        let n = x.len();
        let mut total = 0i64;
        let mut i = 0;
        while i + 16 <= n {
            let v = vld1q_u8(x.as_ptr().add(i));
            total += vaddlvq_u8(v) as i64;
            i += 16;
        }
        for &v in &x[i..] {
            total += v as i64;
        }
        total
    }

    /// # Safety
    /// NEON is baseline on aarch64; layout invariants as in [`super::gemv2`].
    #[target_feature(enable = "neon")]
    pub unsafe fn gemv2_neon(
        x0: &[u8],
        x1: &[u8],
        pairs: &[u8],
        tail: &[u8],
        acc0: &mut [i32],
        acc1: &mut [i32],
    ) {
        let k = x0.len();
        let co_n = acc0.len();
        let kp = k / 2;
        let co8 = co_n & !7;
        let wp = pairs.as_ptr();
        let mut ct = 0;
        while ct < co8 {
            let mut a0_lo = vld1q_u32(acc0.as_ptr().add(ct) as *const u32);
            let mut a0_hi = vld1q_u32(acc0.as_ptr().add(ct + 4) as *const u32);
            let mut a1_lo = vld1q_u32(acc1.as_ptr().add(ct) as *const u32);
            let mut a1_hi = vld1q_u32(acc1.as_ptr().add(ct + 4) as *const u32);
            for p in 0..kp {
                // vld2 de-interleaves 16 bytes into the 8 channels' first
                // and second column weights.
                let w = vld2_u8(wp.add((p * co_n + ct) * 2));
                // One u8×u8 product per u16 lane: chaining the pair's two
                // products via `vmlal_u8` would overflow u16
                // (2 · 255² = 130050 > 65535), so each product widens into
                // the u32 accumulators on its own.
                let pa0 = vmull_u8(w.0, vdup_n_u8(x0[2 * p]));
                let pa1 = vmull_u8(w.1, vdup_n_u8(x0[2 * p + 1]));
                let pb0 = vmull_u8(w.0, vdup_n_u8(x1[2 * p]));
                let pb1 = vmull_u8(w.1, vdup_n_u8(x1[2 * p + 1]));
                a0_lo = vaddw_u16(a0_lo, vget_low_u16(pa0));
                a0_hi = vaddw_high_u16(a0_hi, pa0);
                a0_lo = vaddw_u16(a0_lo, vget_low_u16(pa1));
                a0_hi = vaddw_high_u16(a0_hi, pa1);
                a1_lo = vaddw_u16(a1_lo, vget_low_u16(pb0));
                a1_hi = vaddw_high_u16(a1_hi, pb0);
                a1_lo = vaddw_u16(a1_lo, vget_low_u16(pb1));
                a1_hi = vaddw_high_u16(a1_hi, pb1);
            }
            if k & 1 == 1 {
                let wt = vld1_u8(tail.as_ptr().add(ct));
                let pa = vmull_u8(wt, vdup_n_u8(x0[k - 1]));
                let pb = vmull_u8(wt, vdup_n_u8(x1[k - 1]));
                a0_lo = vaddw_u16(a0_lo, vget_low_u16(pa));
                a0_hi = vaddw_high_u16(a0_hi, pa);
                a1_lo = vaddw_u16(a1_lo, vget_low_u16(pb));
                a1_hi = vaddw_high_u16(a1_hi, pb);
            }
            vst1q_u32(acc0.as_mut_ptr().add(ct) as *mut u32, a0_lo);
            vst1q_u32(acc0.as_mut_ptr().add(ct + 4) as *mut u32, a0_hi);
            vst1q_u32(acc1.as_mut_ptr().add(ct) as *mut u32, a1_lo);
            vst1q_u32(acc1.as_mut_ptr().add(ct + 4) as *mut u32, a1_hi);
            ct += 8;
        }
        if co8 < co_n {
            gemv2_channel_tail(x0, x1, pairs, tail, co8, acc0, acc1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (no external RNG dependency).
    fn lcg_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    fn levels_to_test() -> Vec<SimdLevel> {
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

    /// Builds the pair-interleaved panel from row-major weights.
    fn interleave(w: &[Vec<u8>], k: usize) -> (Vec<u8>, Vec<u8>) {
        let co_n = w.len();
        let mut pairs = Vec::with_capacity((k / 2) * co_n * 2);
        for p in 0..k / 2 {
            for wc in w {
                pairs.push(wc[2 * p]);
                pairs.push(wc[2 * p + 1]);
            }
        }
        let tail = if k & 1 == 1 {
            w.iter().map(|wc| wc[k - 1]).collect()
        } else {
            Vec::new()
        };
        (pairs, tail)
    }

    fn reference(x: &[u8], w: &[Vec<u8>]) -> Vec<i64> {
        w.iter()
            .map(|wc| {
                x.iter()
                    .zip(wc)
                    .map(|(&a, &b)| a as i64 * b as i64)
                    .sum::<i64>()
            })
            .collect()
    }

    #[test]
    fn all_available_levels_match_reference() {
        // k hits: empty, odd tails, exact pair counts; co_n hits: below
        // one vector tile, exact tiles, tile remainders of 1–7.
        for k in [0, 1, 2, 3, 4, 7, 9, 16, 27, 64, 100, 255] {
            for co_n in [1, 3, 4, 5, 8, 11, 16, 37] {
                let x0 = lcg_bytes(3 + (k * co_n) as u64, k);
                let x1 = lcg_bytes(5 + (k * co_n) as u64, k);
                let w: Vec<Vec<u8>> = (0..co_n)
                    .map(|co| lcg_bytes(11 + co as u64 + k as u64, k))
                    .collect();
                let (pairs, tail) = interleave(&w, k);
                let want0 = reference(&x0, &w);
                let want1 = reference(&x1, &w);
                for level in levels_to_test() {
                    let mut acc0 = vec![1i32; co_n]; // nonzero: gemv2 adds
                    let mut acc1 = vec![2i32; co_n];
                    gemv2(level, &x0, &x1, &pairs, &tail, &mut acc0, &mut acc1);
                    for co in 0..co_n {
                        assert_eq!(
                            acc0[co] as i64,
                            want0[co] + 1,
                            "{level:?} k={k} co_n={co_n} co={co}"
                        );
                        assert_eq!(
                            acc1[co] as i64,
                            want1[co] + 2,
                            "{level:?} k={k} co_n={co_n}"
                        );
                    }
                    let want_sum: i64 = x0.iter().map(|&v| v as i64).sum();
                    assert_eq!(row_sum(level, &x0), want_sum, "{level:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn saturating_values_stay_exact() {
        // All-255 operands at a long odd length: the case a maddubs-style
        // saturating path (or a u16 accumulator) would corrupt — the
        // zero-extended formulation must stay exact.
        let k = 8193;
        let co_n = 16;
        let x = vec![255u8; k];
        let w: Vec<Vec<u8>> = (0..co_n).map(|_| vec![255u8; k]).collect();
        let (pairs, tail) = interleave(&w, k);
        let want = (k as i64) * 255 * 255;
        for level in levels_to_test() {
            let mut acc0 = vec![0i32; co_n];
            let mut acc1 = vec![0i32; co_n];
            gemv2(level, &x, &x, &pairs, &tail, &mut acc0, &mut acc1);
            for co in 0..co_n {
                assert_eq!(acc0[co] as i64, want, "{level:?} co={co}");
                assert_eq!(acc1[co] as i64, want, "{level:?} co={co}");
            }
            assert_eq!(row_sum(level, &x), k as i64 * 255, "{level:?}");
        }
    }

    #[test]
    fn forced_level_round_trips() {
        set_forced(Some(SimdLevel::Scalar));
        assert_eq!(active_level(), SimdLevel::Scalar);
        set_forced(None);
        assert_eq!(active_level(), detected_level());
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn forcing_unavailable_level_panics() {
        #[cfg(target_arch = "x86_64")]
        set_forced(Some(SimdLevel::Neon));
        #[cfg(not(target_arch = "x86_64"))]
        set_forced(Some(SimdLevel::Avx2));
    }
}
