//! Channel-vectorized depthwise multiply-accumulate — the one fast core
//! every depthwise node with a kernel of at most [`MAX_TAPS`] taps runs,
//! whatever its input width (sub-byte inputs are decoded to one code per
//! byte ahead of it, as PULP-NN unpacks sub-byte operands ahead of one
//! SIMD core, arXiv:2007.07759) or channel count.
//!
//! A depthwise output pixel is, per channel `j` of a block,
//! `acc[j] = Σ_t (x_t[j] − Zx)·(w_t[j] − Zw_j)`: the input codes of each
//! tap are contiguous over the channels (NHWC), so the channel axis is the
//! vector axis. Taps are consumed **two at a time**: the two taps' codes
//! are byte-interleaved per channel, zero-extended to `i16` and offset by
//! `Zx`, and one `pmaddwd` against the `(w − Zw)` operands — laid out
//! tap-pair-major and channel-interleaved once per channel block by the
//! caller — adds both products of a channel into its `i32` lane. One call
//! covers a run of output pixels whose taps all move by the same input
//! stride (the interior of an output row), so the per-pixel cost is the
//! arithmetic alone.
//!
//! | level | arch | per tap pair |
//! |---|---|---|
//! | [`SimdLevel::Avx2`] | x86_64 | `vpunpck*bw` + `vpmovzxbw` + `vpmaddwd`, 16 channels per step |
//! | [`SimdLevel::Sse2`] | x86_64 | `punpck*bw` zero-extension + `pmaddwd`, 8 channels per step |
//! | [`SimdLevel::Neon`], [`SimdLevel::Scalar`] | any | the portable channel loop (on aarch64 the compiler lowers it to NEON multiply-accumulates, which are baseline there) |
//!
//! Exactness: `|x − Zx| ≤ 255` and `|w − Zw| ≤ 2¹⁵` (the `i16` operand
//! contract, checked by the caller per layer and certified by
//! `mixq-verify`'s `depthwise-i16` stage), so each product is below
//! `2²³` and at most [`MAX_TAPS`] of them stay below `2²⁸` — the `i32`
//! lanes hold the exact sum the `i64` oracle loop computes, at every
//! partial sum, whatever the summation order (`mixq-verify`'s
//! `depthwise-i32` stage bounds the same accumulator from the layer's
//! actual zero-points).

use super::SimdLevel;

/// Most kernel taps the core covers (`5×5` and every smaller kernel).
pub const MAX_TAPS: usize = 32;

/// Tap offset marking a padded tap (or the missing partner of an odd
/// last tap): it reads the row of `Zx` codes and so contributes zero.
pub const PAD: usize = usize::MAX;

/// Writes, for every output pixel `q < acc.len() / n` and channel `j < n`,
/// `acc[q·n + j] = Σ_t (x_t[j] − zx) · w[(t/2)·w_stride + 2j + t%2]` at
/// `level`, where tap `t`'s codes are `x[taps[t] + q·step ..]` — or `zrow`
/// when `taps[t] == PAD` — and `w` holds the `(w − Zw)` operands
/// tap-pair-major and channel-interleaved (`2n` entries per pair of taps,
/// pairs `w_stride` apart).
///
/// # Panics
///
/// Panics unless `taps` has an even length of at most [`MAX_TAPS`],
/// `acc.len()` is a multiple of `n`, `w` holds every pair's `2n`
/// operands, `zrow` at least `n` codes, and every non-pad tap of every
/// pixel lies inside `x` — the bounds every vector load relies on.
#[allow(clippy::too_many_arguments)]
pub fn mac_pixels(
    level: SimdLevel,
    x: &[u8],
    zrow: &[u8],
    taps: &[usize],
    step: usize,
    w: &[i16],
    w_stride: usize,
    zx: u8,
    n: usize,
    acc: &mut [i32],
) {
    let pixels = acc.len().checked_div(n).unwrap_or(0);
    assert_eq!(acc.len(), pixels * n, "accumulators per pixel");
    assert!(
        taps.len() % 2 == 0 && taps.len() <= MAX_TAPS,
        "tap count must be even and at most MAX_TAPS"
    );
    let pairs = taps.len() / 2;
    assert!(
        pairs == 0 || (pairs - 1) * w_stride + 2 * n <= w.len(),
        "operands per tap pair"
    );
    assert!(zrow.len() >= n, "zero-point row shorter than the block");
    if pixels == 0 {
        return;
    }
    let span = (pixels - 1) * step + n;
    for &t in taps {
        assert!(
            t == PAD || t.checked_add(span).is_some_and(|end| end <= x.len()),
            "tap row outside the input"
        );
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 is positively detected (`level` comes from runtime
        // feature detection or a checked `set_forced`); every tap row of
        // every pixel lies inside `x` or is `zrow`, and `w`/`acc` hold the
        // operands and lanes the loads and stores touch (asserted above).
        // Lane values stay exact under the `depthwise-i16` operand and
        // `depthwise-i32` accumulator stages of `mixq-verify`.
        SimdLevel::Avx2 => unsafe {
            let (rows, steps) = resolve(x, zrow, taps, step);
            x86::mac_avx2(&rows[..taps.len()], &steps, w, w_stride, zx, n, acc)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for SSE2.
        SimdLevel::Sse2 => unsafe {
            let (rows, steps) = resolve(x, zrow, taps, step);
            x86::mac_sse2(&rows[..taps.len()], &steps, w, w_stride, zx, n, acc)
        },
        #[allow(unreachable_patterns)]
        _ => mac_portable(x, zrow, taps, step, w, w_stride, zx, n, acc),
    }
}

/// Tap row pointers and per-pixel strides (0 for pad rows) of the first
/// pixel. Only computes addresses; the caller has bounds-checked them.
#[cfg(target_arch = "x86_64")]
fn resolve(
    x: &[u8],
    zrow: &[u8],
    taps: &[usize],
    step: usize,
) -> ([*const u8; MAX_TAPS], [usize; MAX_TAPS]) {
    let mut rows = [zrow.as_ptr(); MAX_TAPS];
    let mut steps = [0usize; MAX_TAPS];
    for ((r, s), &t) in rows.iter_mut().zip(&mut steps).zip(taps) {
        if t != PAD {
            *r = x.as_ptr().wrapping_add(t);
            *s = step;
        }
    }
    (rows, steps)
}

/// The portable core: the exact arithmetic every vector backend must
/// reproduce, in a shape the compiler auto-vectorizes.
#[allow(clippy::too_many_arguments)]
fn mac_portable(
    x: &[u8],
    zrow: &[u8],
    taps: &[usize],
    step: usize,
    w: &[i16],
    w_stride: usize,
    zx: u8,
    n: usize,
    acc: &mut [i32],
) {
    let zx = zx as i32;
    for (q, a) in acc.chunks_exact_mut(n).enumerate() {
        a.fill(0);
        let row = |t: usize| match taps[t] {
            PAD => &zrow[..n],
            off => &x[off + q * step..off + q * step + n],
        };
        for p in 0..taps.len() / 2 {
            let (x0, x1) = (row(2 * p), row(2 * p + 1));
            let wp = &w[p * w_stride..p * w_stride + 2 * n];
            for (((a, &xa), &xb), wj) in a.iter_mut().zip(x0).zip(x1).zip(wp.chunks_exact(2)) {
                *a += (xa as i32 - zx) * wj[0] as i32 + (xb as i32 - zx) * wj[1] as i32;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2/AVX2 backends. `pmaddwd` multiplies `i16` pairs into one
    //! `i32` per channel: `|x − Zx| ≤ 255` and `|w − Zw| ≤ 2¹⁵` keep every
    //! pair sum below `2²⁴` and every accumulator below `2²⁸` (see the
    //! module docs). Channel remainders below the narrowest vector step
    //! run a scalar loop over the same rows.

    use super::MAX_TAPS;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Scalar remainder: channels `[j0, acc.len())` of one pixel whose
    /// tap rows start at `cur`.
    ///
    /// # Safety
    /// Every `cur` row must be readable for `acc.len()` bytes.
    unsafe fn tail(
        cur: &[*const u8],
        w: &[i16],
        w_stride: usize,
        zx: u8,
        j0: usize,
        acc: &mut [i32],
    ) {
        let zx = zx as i32;
        for (j, a) in acc.iter_mut().enumerate().skip(j0) {
            let mut sum = 0i32;
            for (p, pair) in cur.chunks_exact(2).enumerate() {
                let wp = &w[p * w_stride + 2 * j..];
                sum += (*pair[0].add(j) as i32 - zx) * wp[0] as i32
                    + (*pair[1].add(j) as i32 - zx) * wp[1] as i32;
            }
            *a = sum;
        }
    }

    /// # Safety
    /// Caller must have detected AVX2. For every pixel `q < acc.len()/n`,
    /// `rows[t] + q·steps[t]` must be readable for `n` bytes; `w` must
    /// hold `2n` operands at every multiple of `w_stride` below
    /// `rows.len()/2 · w_stride`, and `acc` a multiple of `n` lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mac_avx2(
        rows: &[*const u8],
        steps: &[usize; MAX_TAPS],
        w: &[i16],
        w_stride: usize,
        zx: u8,
        n: usize,
        acc: &mut [i32],
    ) {
        let zx16 = _mm256_set1_epi16(zx as i16);
        let zx16x = _mm_set1_epi16(zx as i16);
        let taps = rows.len();
        let mut cur = [std::ptr::null::<u8>(); MAX_TAPS];
        cur[..taps].copy_from_slice(rows);
        for a in acc.chunks_exact_mut(n) {
            let out = a.as_mut_ptr();
            let mut j = 0;
            while j + 16 <= n {
                let mut a0 = _mm256_setzero_si256();
                let mut a1 = _mm256_setzero_si256();
                for (p, pair) in cur[..taps].chunks_exact(2).enumerate() {
                    let xa = _mm_loadu_si128(pair[0].add(j) as *const __m128i);
                    let xb = _mm_loadu_si128(pair[1].add(j) as *const __m128i);
                    // (x₀[j], x₁[j]) byte pairs → i16 pairs, minus Zx.
                    let lo =
                        _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm_unpacklo_epi8(xa, xb)), zx16);
                    let hi =
                        _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm_unpackhi_epi8(xa, xb)), zx16);
                    let wp = w.as_ptr().add(p * w_stride + 2 * j);
                    let w0 = _mm256_loadu_si256(wp as *const __m256i);
                    let w1 = _mm256_loadu_si256(wp.add(16) as *const __m256i);
                    a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(lo, w0));
                    a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(hi, w1));
                }
                _mm256_storeu_si256(out.add(j) as *mut __m256i, a0);
                _mm256_storeu_si256(out.add(j + 8) as *mut __m256i, a1);
                j += 16;
            }
            if j + 8 <= n {
                let mut a0 = _mm256_setzero_si256();
                for (p, pair) in cur[..taps].chunks_exact(2).enumerate() {
                    let xa = _mm_loadl_epi64(pair[0].add(j) as *const __m128i);
                    let xb = _mm_loadl_epi64(pair[1].add(j) as *const __m128i);
                    let v = _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm_unpacklo_epi8(xa, xb)), zx16);
                    let wv =
                        _mm256_loadu_si256(w.as_ptr().add(p * w_stride + 2 * j) as *const __m256i);
                    a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(v, wv));
                }
                _mm256_storeu_si256(out.add(j) as *mut __m256i, a0);
                j += 8;
            }
            if j + 4 <= n {
                let mut a0 = _mm_setzero_si128();
                for (p, pair) in cur[..taps].chunks_exact(2).enumerate() {
                    let xa = load4(pair[0].add(j));
                    let xb = load4(pair[1].add(j));
                    let v = _mm_sub_epi16(_mm_cvtepu8_epi16(_mm_unpacklo_epi8(xa, xb)), zx16x);
                    let wv =
                        _mm_loadu_si128(w.as_ptr().add(p * w_stride + 2 * j) as *const __m128i);
                    a0 = _mm_add_epi32(a0, _mm_madd_epi16(v, wv));
                }
                _mm_storeu_si128(out.add(j) as *mut __m128i, a0);
                j += 4;
            }
            if j < n {
                tail(&cur[..taps], w, w_stride, zx, j, a);
            }
            for (c, &s) in cur[..taps].iter_mut().zip(steps) {
                *c = c.wrapping_add(s);
            }
        }
    }

    /// # Safety
    /// Caller must have detected SSE2; layout as in [`mac_avx2`].
    #[target_feature(enable = "sse2")]
    pub unsafe fn mac_sse2(
        rows: &[*const u8],
        steps: &[usize; MAX_TAPS],
        w: &[i16],
        w_stride: usize,
        zx: u8,
        n: usize,
        acc: &mut [i32],
    ) {
        let zero = _mm_setzero_si128();
        let zx16 = _mm_set1_epi16(zx as i16);
        let taps = rows.len();
        let mut cur = [std::ptr::null::<u8>(); MAX_TAPS];
        cur[..taps].copy_from_slice(rows);
        for a in acc.chunks_exact_mut(n) {
            let out = a.as_mut_ptr();
            let mut j = 0;
            while j + 8 <= n {
                let mut a0 = _mm_setzero_si128();
                let mut a1 = _mm_setzero_si128();
                for (p, pair) in cur[..taps].chunks_exact(2).enumerate() {
                    let xa = _mm_loadl_epi64(pair[0].add(j) as *const __m128i);
                    let xb = _mm_loadl_epi64(pair[1].add(j) as *const __m128i);
                    // Byte-interleave the taps, then zero-extend by
                    // unpacking against zero (SSE2 has no pmovzx).
                    let il = _mm_unpacklo_epi8(xa, xb);
                    let lo = _mm_sub_epi16(_mm_unpacklo_epi8(il, zero), zx16);
                    let hi = _mm_sub_epi16(_mm_unpackhi_epi8(il, zero), zx16);
                    let wp = w.as_ptr().add(p * w_stride + 2 * j);
                    let w0 = _mm_loadu_si128(wp as *const __m128i);
                    let w1 = _mm_loadu_si128(wp.add(8) as *const __m128i);
                    a0 = _mm_add_epi32(a0, _mm_madd_epi16(lo, w0));
                    a1 = _mm_add_epi32(a1, _mm_madd_epi16(hi, w1));
                }
                _mm_storeu_si128(out.add(j) as *mut __m128i, a0);
                _mm_storeu_si128(out.add(j + 4) as *mut __m128i, a1);
                j += 8;
            }
            if j + 4 <= n {
                let mut a0 = _mm_setzero_si128();
                for (p, pair) in cur[..taps].chunks_exact(2).enumerate() {
                    let xa = load4(pair[0].add(j));
                    let xb = load4(pair[1].add(j));
                    let v = _mm_sub_epi16(_mm_unpacklo_epi8(_mm_unpacklo_epi8(xa, xb), zero), zx16);
                    let wv =
                        _mm_loadu_si128(w.as_ptr().add(p * w_stride + 2 * j) as *const __m128i);
                    a0 = _mm_add_epi32(a0, _mm_madd_epi16(v, wv));
                }
                _mm_storeu_si128(out.add(j) as *mut __m128i, a0);
                j += 4;
            }
            if j < n {
                tail(&cur[..taps], w, w_stride, zx, j, a);
            }
            for (c, &s) in cur[..taps].iter_mut().zip(steps) {
                *c = c.wrapping_add(s);
            }
        }
    }

    /// Four codes into the low dword of a vector.
    ///
    /// # Safety
    /// `p` must be readable for 4 bytes.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load4(p: *const u8) -> __m128i {
        _mm_cvtsi32_si128(std::ptr::read_unaligned(p as *const i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Deterministic pseudo-random values in `[lo, hi]`.
    fn lcg(seed: &mut u64, lo: i32, hi: i32) -> i32 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + ((*seed >> 33) % (hi - lo + 1) as u64) as i32
    }

    #[test]
    fn every_level_matches_the_i64_reference() {
        // Channel counts hit every step width and remainder; tap counts
        // run from none to the maximum, with padded taps mixed in; runs
        // of several pixels move every real tap by `step`; operand pairs
        // sit `w_stride > 2n` apart, as in a block of a wider layer.
        for n in [1usize, 3, 4, 5, 8, 12, 15, 16, 17, 31, 33, 64] {
            for taps in [0usize, 2, 4, 10, MAX_TAPS] {
                for pixels in [1usize, 3] {
                    let mut seed = (n * 131 + taps * 7 + pixels) as u64;
                    let zx = lcg(&mut seed, 0, 255) as u8;
                    let step = n + 2;
                    let x: Vec<u8> = (0..taps * n + pixels * step + n)
                        .map(|_| lcg(&mut seed, 0, 255) as u8)
                        .collect();
                    let zrow = vec![zx; n];
                    let offs: Vec<usize> = (0..taps)
                        .map(|t| if t % 3 == 2 { PAD } else { t * n })
                        .collect();
                    let w_stride = 2 * n + 6;
                    let w: Vec<i16> = (0..taps / 2 * w_stride)
                        .map(|_| lcg(&mut seed, -32768, 32767) as i16)
                        .collect();
                    let want: Vec<i64> = (0..pixels * n)
                        .map(|i| {
                            let (q, j) = (i / n, i % n);
                            (0..taps)
                                .map(|t| {
                                    let xv = match offs[t] {
                                        PAD => zx,
                                        off => x[off + q * step + j],
                                    };
                                    (xv as i64 - zx as i64)
                                        * w[(t / 2) * w_stride + 2 * j + t % 2] as i64
                                })
                                .sum()
                        })
                        .collect();
                    for level in levels() {
                        let mut acc = vec![7i32; pixels * n]; // overwritten
                        mac_pixels(level, &x, &zrow, &offs, step, &w, w_stride, zx, n, &mut acc);
                        let got: Vec<i64> = acc.iter().map(|&a| a as i64).collect();
                        assert_eq!(got, want, "{level:?} n={n} taps={taps} pixels={pixels}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tap row outside the input")]
    fn rows_past_the_input_are_rejected() {
        let x = [0u8; 10];
        let zrow = [0u8; 4];
        let w = [0i16; 8];
        // The second pixel of the run would read x[8..12].
        mac_pixels(
            SimdLevel::Scalar,
            &x,
            &zrow,
            &[0, 4],
            4,
            &w,
            8,
            0,
            4,
            &mut [0i32; 8],
        );
    }
}
