//! Vectorized input quantization (Eq. 1): the `f32 → code` map every
//! input image goes through once before the integer graph walk.
//!
//! [`quantize_codes`] is bit-identical to [`QuantParams::quantize`] for
//! every `f32`, NaN and ±∞ included. Per element, the branchless loop
//! computes:
//!
//! 1. `t = x / S + Z`: the oracle's two IEEE operations in the oracle's
//!    order (no reciprocal multiply, and Rust never fuses them into an
//!    FMA), so `t` equals the oracle's `t` bit for bit;
//! 2. `t = min(max(t, −1), qmax + 1)`: `f32::max` maps a NaN to −1, which
//!    ends at code 0 as the oracle's `max(0.0)` does, ±∞ become finite, and
//!    every `t` the clamp moves already rounds to a saturated code;
//! 3. `i = trunc(t)`, which `i32` holds on that finite range, and
//!    `f = t − i`, which is exact (the fraction of a float is a float);
//! 4. round to nearest, ties away from zero (`f32::round`):
//!    `i + [f ≥ ½] − [f ≤ −½]`; or floor: `i − [i > t]`;
//! 5. clamp to `[0, qmax]`.
//!
//! `floor(t + ½)` would not do for step 4: the addition rounds
//! `0.49999997 + 0.5` up to 1.
//!
//! | level | loop |
//! |---|---|
//! | [`SimdLevel::Scalar`] | [`QuantParams::quantize`] per element, the oracle |
//! | [`SimdLevel::Sse2`], [`SimdLevel::Neon`] | the branchless loop, vectorized by the compiler at the baseline ISA |
//! | [`SimdLevel::Avx2`] | the same loop compiled with AVX2 enabled |

use mixq_quant::{QuantParams, RoundingMode};

use super::SimdLevel;

/// Writes `out[i] = params.quantize(x[i])` for every element at `level`.
///
/// # Panics
///
/// Panics if `out` and `x` differ in length.
pub fn quantize_codes(level: SimdLevel, params: &QuantParams, x: &[f32], out: &mut [u8]) {
    assert_eq!(x.len(), out.len(), "one code per input element");
    match level {
        SimdLevel::Scalar => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = params.quantize(v) as u8;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 is positively detected before dispatch (see
        // `super::row_sum`).
        SimdLevel::Avx2 => unsafe { quantize_avx2(params, x, out) },
        _ => quantize_branchless(params, x, out),
    }
}

/// # Safety
/// Caller must have detected AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2(params: &QuantParams, x: &[f32], out: &mut [u8]) {
    quantize_branchless(params, x, out);
}

/// The branchless loop of the [module docs](self), inlined into each
/// level's entry so it vectorizes at that level's ISA.
#[inline(always)]
fn quantize_branchless(params: &QuantParams, x: &[f32], out: &mut [u8]) {
    let s = params.scale();
    let z = params.zero_point() as f32;
    let qmax = params.bits().qmax() as i32;
    let hi = (qmax + 1) as f32;
    match params.rounding() {
        RoundingMode::Nearest => {
            for (o, &v) in out.iter_mut().zip(x) {
                let (t, i) = clamp_trunc(v / s + z, hi);
                let f = t - i as f32;
                let q = i + (f >= 0.5) as i32 - (f <= -0.5) as i32;
                *o = q.clamp(0, qmax) as u8;
            }
        }
        RoundingMode::Floor => {
            for (o, &v) in out.iter_mut().zip(x) {
                let (t, i) = clamp_trunc(v / s + z, hi);
                let q = i - ((i as f32) > t) as i32;
                *o = q.clamp(0, qmax) as u8;
            }
        }
    }
}

/// `t` clamped to `[−1, hi]` (NaN to −1) and its truncation toward zero.
#[inline(always)]
fn clamp_trunc(t: f32, hi: f32) -> (f32, i32) {
    let t = t.max(-1.0).min(hi);
    // SAFETY: `t` is finite and lies in [−1, hi] with `hi = qmax + 1 ≤
    // 256`: `max` maps NaN to −1 and both bounds are finite. `i32` holds
    // the truncation of every such value. A plain `as i32` would keep its
    // saturation checks and block vectorization.
    (t, unsafe { t.to_int_unchecked::<i32>() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_quant::BitWidth;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Checks `levels` against the oracle on `x`, returning the number of
    /// mismatching elements (and printing the first few).
    fn mismatches(levels: &[SimdLevel], params: &QuantParams, x: &[f32]) -> u64 {
        let want: Vec<u8> = x.iter().map(|&v| params.quantize(v) as u8).collect();
        let mut out = vec![0u8; x.len()];
        let mut bad = 0;
        for &level in levels {
            quantize_codes(level, params, x, &mut out);
            for (i, (&got, &w)) in out.iter().zip(&want).enumerate() {
                if got != w {
                    if bad < 4 {
                        eprintln!(
                            "{level:?} {params:?}: x = {:e} ({:#010x}) -> {got}, oracle {w}",
                            x[i],
                            x[i].to_bits()
                        );
                    }
                    bad += 1;
                }
            }
        }
        bad
    }

    #[test]
    fn edge_values_match_the_oracle() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MAX,
            f32::MIN,
            0.49999997,
            0.5,
            -0.5,
            1.5,
            254.5,
            255.49998,
            255.5,
            256.0,
            -1.0,
            -0.99999994,
        ];
        for params in [
            QuantParams::from_parts(1.0, 0, BitWidth::W8, RoundingMode::Nearest),
            QuantParams::from_parts(1.0, 0, BitWidth::W8, RoundingMode::Floor),
            QuantParams::from_parts(0.25, 3, BitWidth::W4, RoundingMode::Nearest),
            QuantParams::from_parts(1e-30, 17, BitWidth::W2, RoundingMode::Floor),
            QuantParams::from_parts(3.0e38, 128, BitWidth::W8, RoundingMode::Nearest),
            QuantParams::from_parts(0.5, -40_000, BitWidth::W8, RoundingMode::Nearest),
            QuantParams::from_parts(0.5, 1 << 30, BitWidth::W8, RoundingMode::Floor),
        ] {
            assert_eq!(mismatches(&levels(), &params, &specials), 0, "{params:?}");
        }
    }

    #[test]
    fn odd_lengths_cover_the_vector_tails() {
        let params = QuantParams::from_parts(0.037, 29, BitWidth::W8, RoundingMode::Nearest);
        for n in [0, 1, 3, 7, 8, 9, 15, 31, 33, 65] {
            let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.61 - 2.0).collect();
            assert_eq!(mismatches(&levels(), &params, &x), 0, "n = {n}");
        }
    }

    /// Every `f32` bit pattern through every available vector level (the
    /// scalar level is the oracle itself), sharded over the host's threads.
    fn exhaustive(params: QuantParams) {
        const CHUNK: u64 = 1 << 20;
        let vector: Vec<SimdLevel> = levels()
            .into_iter()
            .filter(|&l| l != SimdLevel::Scalar)
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u64;
        let bad = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (bad, vector) = (&bad, &vector);
                s.spawn(move || {
                    let mut x = vec![0f32; CHUNK as usize];
                    let mut c = t;
                    while c < (1u64 << 32) / CHUNK {
                        for (j, v) in x.iter_mut().enumerate() {
                            *v = f32::from_bits((c * CHUNK + j as u64) as u32);
                        }
                        bad.fetch_add(mismatches(vector, &params, &x), Ordering::Relaxed);
                        c += threads;
                    }
                });
            }
        });
        assert_eq!(bad.load(Ordering::Relaxed), 0, "{params:?}");
    }

    #[test]
    #[ignore = "sweeps all 2^32 f32 bit patterns; run with --release -- --ignored"]
    fn every_f32_matches_the_oracle_nearest() {
        exhaustive(QuantParams::from_parts(
            0.0235,
            128,
            BitWidth::W8,
            RoundingMode::Nearest,
        ));
    }

    #[test]
    #[ignore = "sweeps all 2^32 f32 bit patterns; run with --release -- --ignored"]
    fn every_f32_matches_the_oracle_floor() {
        exhaustive(QuantParams::from_parts(
            0.0171,
            3,
            BitWidth::W8,
            RoundingMode::Floor,
        ));
    }
}
