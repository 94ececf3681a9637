//! The abstract domain: closed integer intervals.
//!
//! Every quantity the kernels compute — u8 codes, zero-point-subtracted
//! products, `i32` accumulator chunks, `i64` flushed totals, fixed-point
//! requantization inputs — is abstracted as a closed interval `[lo, hi]`.
//! Endpoints are `i128`, two widths above the widest machine value the
//! kernels hold (`i64`), so the *analysis itself* can never overflow: a
//! forged graph whose true range exceeds `i64` widens the interval instead
//! of wrapping, and the `fits_*` predicates then report the violation.

use mixq_quant::{BitWidth, FixedPointMultiplier};

/// A closed integer interval `[lo, hi]` over `i128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    lo: i128,
    hi: i128,
}

// `add`/`sub`/`mul` deliberately take self by value like the std ops but
// stay inherent methods: the transfer functions read better chained
// (`a.add(b).mul_const(k)`) and operator sugar would hide that these are
// abstract-domain transformers, not exact arithmetic.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The point interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0, hi: 0 };

    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i128, hi: i128) -> Self {
        assert!(lo <= hi, "interval endpoints out of order: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The point interval `[v, v]`.
    pub fn point(v: i128) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The code range of a `Q`-bit unsigned tensor: `[0, 2^Q − 1]`.
    pub fn code(bits: BitWidth) -> Self {
        Interval::new(0, bits.qmax() as i128)
    }

    /// Lower endpoint.
    pub fn lo(&self) -> i128 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> i128 {
        self.hi
    }

    /// Interval sum `[a.lo + b.lo, a.hi + b.hi]`.
    pub fn add(self, o: Interval) -> Interval {
        Interval::new(self.lo + o.lo, self.hi + o.hi)
    }

    /// Interval difference `a − b = [a.lo − b.hi, a.hi − b.lo]`.
    pub fn sub(self, o: Interval) -> Interval {
        Interval::new(self.lo - o.hi, self.hi - o.lo)
    }

    /// Interval product: the hull of the four endpoint products.
    pub fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        Interval::new(
            c.iter().copied().min().expect("four candidates"),
            c.iter().copied().max().expect("four candidates"),
        )
    }

    /// Shifts both endpoints by a constant.
    pub fn add_const(self, v: i128) -> Interval {
        Interval::new(self.lo + v, self.hi + v)
    }

    /// Scales by a constant (which may be negative, swapping endpoints).
    pub fn mul_const(self, v: i128) -> Interval {
        if v >= 0 {
            Interval::new(self.lo * v, self.hi * v)
        } else {
            Interval::new(self.hi * v, self.lo * v)
        }
    }

    /// The sum of `n` independent draws from this interval.
    pub fn sum_of(self, n: usize) -> Interval {
        self.mul_const(n as i128)
    }

    /// Smallest interval containing both.
    pub fn hull(self, o: Interval) -> Interval {
        Interval::new(self.lo.min(o.lo), self.hi.max(o.hi))
    }

    /// Whether `v` lies inside.
    pub fn contains(&self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether every value fits an `i16` — the operand width of the
    /// depthwise core's `pmaddwd`-style multiply-accumulate.
    pub fn fits_i16(&self) -> bool {
        self.lo >= i16::MIN as i128 && self.hi <= i16::MAX as i128
    }

    /// Whether every value fits an `i32` — the bound the SIMD accumulator
    /// chunks and the requantizer's saturating `Φ + Bq` input must satisfy
    /// for the kernels to be exact (not merely non-UB).
    pub fn fits_i32(&self) -> bool {
        self.lo >= i32::MIN as i128 && self.hi <= i32::MAX as i128
    }

    /// Whether every value fits an `i64` — the widened flush/threshold
    /// domain.
    pub fn fits_i64(&self) -> bool {
        self.lo >= i64::MIN as i128 && self.hi <= i64::MAX as i128
    }

    /// Endpoints clamped to `i64` for compact reporting (report fields are
    /// `i64`; an interval that actually exceeds them has already raised a
    /// violation).
    pub fn clamped_i64(&self) -> (i64, i64) {
        (
            self.lo.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
            self.hi.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
        )
    }

    /// Image of the interval under a fixed-point multiplier's `apply`.
    ///
    /// `FixedPointMultiplier::apply` is monotone non-decreasing for
    /// non-negative mantissas and non-increasing for negative ones, so the
    /// image of an interval is the (possibly swapped) image of its
    /// endpoints. Inputs are clamped to `i32` first — exactly the
    /// `saturate_i32` the scalar requantizer performs.
    pub fn apply_fixed(self, m: FixedPointMultiplier) -> Interval {
        let sat = |v: i128| v.clamp(i32::MIN as i128, i32::MAX as i128) as i32;
        let a = m.apply(sat(self.lo)) as i128;
        let b = m.apply(sat(self.hi)) as i128;
        Interval::new(a.min(b), a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_endpoints() {
        let a = Interval::new(-2, 3);
        let b = Interval::new(5, 7);
        assert_eq!(a.add(b), Interval::new(3, 10));
        assert_eq!(a.sub(b), Interval::new(-9, -2));
        assert_eq!(a.mul(b), Interval::new(-14, 21));
        assert_eq!(a.mul_const(-3), Interval::new(-9, 6));
        assert_eq!(a.sum_of(4), Interval::new(-8, 12));
        assert_eq!(a.hull(b), Interval::new(-2, 7));
    }

    #[test]
    fn code_ranges() {
        assert_eq!(Interval::code(BitWidth::W2), Interval::new(0, 3));
        assert_eq!(Interval::code(BitWidth::W8), Interval::new(0, 255));
    }

    #[test]
    fn fits_predicates() {
        assert!(Interval::new(0, i32::MAX as i128).fits_i32());
        assert!(!Interval::new(0, i32::MAX as i128 + 1).fits_i32());
        assert!(Interval::new(i64::MIN as i128, 0).fits_i64());
        assert!(!Interval::new(0, i64::MAX as i128 + 1).fits_i64());
        let (lo, hi) = Interval::new(-1, i64::MAX as i128 + 7).clamped_i64();
        assert_eq!((lo, hi), (-1, i64::MAX));
    }

    #[test]
    fn apply_fixed_is_endpoint_exact() {
        let m = FixedPointMultiplier::from_real(0.37);
        let iv = Interval::new(-1000, 1000).apply_fixed(m);
        // Spot-check containment and endpoint achievement.
        for v in [-1000i32, -1, 0, 1, 999, 1000] {
            assert!(iv.contains(m.apply(v) as i128));
        }
        assert_eq!(iv.lo(), m.apply(-1000) as i128);
        assert_eq!(iv.hi(), m.apply(1000) as i128);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_interval_rejected() {
        let _ = Interval::new(1, 0);
    }
}
