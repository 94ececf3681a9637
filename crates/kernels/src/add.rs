use mixq_quant::{BitWidth, FixedPointMultiplier};
use mixq_tensor::Shape;

use crate::{OpCounts, QActivation};

/// The requantizing residual add that joins two graph branches — the
/// integer lowering of a MobileNetV2-style skip connection
/// `y = quant(a + b)` where `a` and `b` live on different quantization
/// grids.
///
/// With `a = S_a·(q_a − Z_a)` and `b = S_b·(q_b − Z_b)`, the output code at
/// scale `S_y` is
///
/// ```text
/// q_y = clamp(Z_y + M_a·(q_a − Z_a) + M_b·(q_b − Z_b), 0, 2^Q − 1),
/// M_a = S_a/S_y,  M_b = S_b/S_y
/// ```
///
/// with each branch multiplier realized as an `M0·2^N0` fixed-point
/// product (Eq. 5's decomposition), exactly as the extended CMSIS-NN add
/// kernel would — two widening multiplies and shifts per element, no
/// floats.
///
/// # Examples
///
/// ```
/// use mixq_kernels::{OpCounts, QActivation, QAdd};
/// use mixq_quant::BitWidth;
/// use mixq_tensor::Shape;
///
/// // Both branches on the same unit grid: plain saturating code addition.
/// let add = QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8);
/// let a = QActivation::from_codes(Shape::feature_map(1, 2, 1), &[3, 250], BitWidth::W8, 0);
/// let b = QActivation::from_codes(Shape::feature_map(1, 2, 1), &[4, 10], BitWidth::W8, 0);
/// let mut ops = OpCounts::default();
/// let y = add.execute(&a, &b, &mut ops);
/// assert_eq!(y.codes(), vec![7, 255]); // 3+4, 250+10 saturates
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QAdd {
    ma: FixedPointMultiplier,
    mb: FixedPointMultiplier,
    za: u8,
    zb: u8,
    zy: i32,
    out_bits: BitWidth,
    /// The real scales `(S_a, S_b, S_y)` this add was derived from, when
    /// built via [`QAdd::from_scales`] — kept so a static pass can check
    /// the fixed-point multipliers actually realize `S_a/S_y`, `S_b/S_y`
    /// (a mismatched join scale is otherwise invisible at the integer
    /// level). `None` for adds assembled from raw multipliers.
    declared_scales: Option<(f64, f64, f64)>,
}

impl QAdd {
    /// Assembles an add from already-decomposed branch multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `zy` is not a representable output code (`0 ≤ zy ≤
    /// 2^Q − 1`) — downstream ops read the zero-point back from the output
    /// activation, so an out-of-range value would silently shift every
    /// consumer.
    pub fn new(
        ma: FixedPointMultiplier,
        mb: FixedPointMultiplier,
        za: u8,
        zb: u8,
        zy: i32,
        out_bits: BitWidth,
    ) -> Self {
        assert!(
            (0..=out_bits.qmax() as i32).contains(&zy),
            "output zero-point {zy} is not a {out_bits:?} code"
        );
        QAdd {
            ma,
            mb,
            za,
            zb,
            zy,
            out_bits,
            declared_scales: None,
        }
    }

    /// Builds the add from the real scales of both branches and the output:
    /// `M_a = S_a/S_y`, `M_b = S_b/S_y`.
    ///
    /// # Panics
    ///
    /// Panics if `s_out` is not positive.
    pub fn from_scales(
        s_a: f64,
        s_b: f64,
        s_out: f64,
        za: u8,
        zb: u8,
        zy: i32,
        out_bits: BitWidth,
    ) -> Self {
        assert!(s_out > 0.0, "output scale must be positive");
        let mut add = QAdd::new(
            FixedPointMultiplier::from_real(s_a / s_out),
            FixedPointMultiplier::from_real(s_b / s_out),
            za,
            zb,
            zy,
            out_bits,
        );
        add.declared_scales = Some((s_a, s_b, s_out));
        add
    }

    /// Overrides the recorded real scales (testing hook: lets a verifier
    /// test forge a join whose declared scales disagree with the baked
    /// multipliers, the failure mode `from_scales` can never produce).
    pub fn with_declared_scales(mut self, s_a: f64, s_b: f64, s_out: f64) -> Self {
        self.declared_scales = Some((s_a, s_b, s_out));
        self
    }

    /// The real scales `(S_a, S_b, S_y)` recorded at construction, if any.
    pub fn declared_scales(&self) -> Option<(f64, f64, f64)> {
        self.declared_scales
    }

    /// The branch zero-points `(Z_a, Z_b)`.
    pub fn input_zero_points(&self) -> (u8, u8) {
        (self.za, self.zb)
    }

    /// Output precision `Q`.
    pub fn out_bits(&self) -> BitWidth {
        self.out_bits
    }

    /// Output zero-point `Z_y`.
    pub fn zero_point(&self) -> i32 {
        self.zy
    }

    /// The branch multipliers `(M_a, M_b)`.
    pub fn multipliers(&self) -> (FixedPointMultiplier, FixedPointMultiplier) {
        (self.ma, self.mb)
    }

    /// Flash bytes of the stored parameters: two `M0`/`N0` pairs (5 bytes
    /// each, §4.1 datatypes) plus `Z_a`, `Z_b`, `Z_y` (UINT8 each).
    pub fn flash_bytes(&self) -> usize {
        2 * 5 + 3
    }

    /// Runs the add, allocating the output tensor.
    ///
    /// # Panics
    ///
    /// Panics if the branch shapes disagree.
    pub fn execute(&self, a: &QActivation, b: &QActivation, ops: &mut OpCounts) -> QActivation {
        let mut codes = Vec::new();
        let shape = self.execute_codes(a, b, &mut codes, ops);
        QActivation::from_codes(shape, &codes, self.out_bits, self.zy as u8)
    }

    /// The codes-only core: writes output codes into `out_codes` (cleared
    /// and resized in place), returning the output shape.
    ///
    /// # Panics
    ///
    /// Panics if the branch shapes disagree.
    pub fn execute_codes(
        &self,
        a: &QActivation,
        b: &QActivation,
        out_codes: &mut Vec<u8>,
        ops: &mut OpCounts,
    ) -> Shape {
        let shape = a.shape();
        assert_eq!(shape, b.shape(), "residual branches must agree in shape");
        let n = shape.volume();
        let qmax = self.out_bits.qmax() as i64;
        let (za, zb, zy) = (self.za as i32, self.zb as i32, self.zy as i64);
        out_codes.clear();
        out_codes.resize(n, 0);
        if !a.needs_unpack() && !b.needs_unpack() {
            // Flat fast path: both branches store one code per byte, and
            // each branch's fixed-point product is a pure function of its
            // ≤ 256 possible codes — so two stack lookup tables replace
            // the per-element multiplies *exactly* (same `apply` results,
            // bit-identical output), and the element loop is a linear
            // table-gather over the raw byte storage.
            let mut lut_a = [0i64; 256];
            let mut lut_b = [0i64; 256];
            for q in 0..256 {
                lut_a[q] = self.ma.apply(q as i32 - za) as i64;
                lut_b[q] = self.mb.apply(q as i32 - zb) as i64;
            }
            let pairs = a.as_bytes().iter().zip(b.as_bytes());
            for (out, (&qa, &qb)) in out_codes.iter_mut().zip(pairs) {
                *out = (zy + lut_a[qa as usize] + lut_b[qb as usize]).clamp(0, qmax) as u8;
            }
        } else {
            let mut i = 0usize;
            for n_ in 0..shape.n {
                for y in 0..shape.h {
                    for x in 0..shape.w {
                        for c in 0..shape.c {
                            let va = self.ma.apply(a.get(n_, y, x, c) as i32 - za) as i64;
                            let vb = self.mb.apply(b.get(n_, y, x, c) as i32 - zb) as i64;
                            out_codes[i] = (zy + va + vb).clamp(0, qmax) as u8;
                            i += 1;
                        }
                    }
                }
            }
        }
        // Abstract ledger: the modeled work is per-element regardless of
        // the host dataflow (the LUT build is host bookkeeping).
        ops.requants += 2 * n as u64; // one fixed-point multiply per branch
        ops.act_loads += 2 * n as u64;
        ops.act_stores += n as u64;
        ops.unpacks += (a.needs_unpack() as u64 + b.needs_unpack() as u64) * n as u64;
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(codes: &[u8], bits: BitWidth, z: u8) -> QActivation {
        QActivation::from_codes(Shape::feature_map(1, codes.len(), 1), codes, bits, z)
    }

    #[test]
    fn matches_real_arithmetic_within_one_lsb() {
        // S_a = 0.3, S_b = 0.7, S_y = 0.5; zero-points 2, 0, 1.
        let (sa, sb, sy) = (0.3f64, 0.7, 0.5);
        let add = QAdd::from_scales(sa, sb, sy, 2, 0, 1, BitWidth::W8);
        let a = act(&[0, 2, 7, 100, 255], BitWidth::W8, 2);
        let b = act(&[0, 5, 3, 50, 255], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = add.execute(&a, &b, &mut ops);
        for i in 0..5 {
            let real = sa * (a.codes()[i] as f64 - 2.0) + sb * b.codes()[i] as f64;
            let exact = (1.0 + real / sy).floor().clamp(0.0, 255.0);
            let got = y.codes()[i] as f64;
            assert!(
                (got - exact).abs() <= 1.0,
                "element {i}: {got} vs exact {exact}"
            );
        }
        assert_eq!(y.zero_point(), 1);
        assert_eq!(y.bits(), BitWidth::W8);
    }

    #[test]
    fn ledger_charges_two_requants_per_element() {
        let add = QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W4);
        let a = act(&[1, 2, 3], BitWidth::W4, 0);
        let b = act(&[3, 2, 1], BitWidth::W4, 0);
        let mut ops = OpCounts::default();
        let y = add.execute(&a, &b, &mut ops);
        assert_eq!(y.codes(), vec![4, 4, 4]);
        assert_eq!(ops.requants, 6);
        assert_eq!(ops.act_loads, 6);
        assert_eq!(ops.act_stores, 3);
        assert_eq!(ops.unpacks, 6, "both 4-bit branches unpack");
        assert_eq!(ops.macs, 0, "adds are MAC-free");
    }

    #[test]
    fn lut_path_matches_per_element_oracle() {
        // Every pair of 4-bit codes, once as W4 activations (the per-element
        // `apply` path) and once as W8 activations (the LUT loop).
        let qa: Vec<u8> = (0..256).map(|i| (i % 16) as u8).collect();
        let qb: Vec<u8> = (0..256).map(|i| (i / 16) as u8).collect();
        // (S_a, S_b, S_y, Z_y, Q, whether the unclamped sums leave
        // [0, qmax] on both sides).
        let cases = [
            (1.0, 1.0, 1.0, 0, BitWidth::W8, false),
            (0.3, 0.7, 0.5, 1, BitWidth::W8, false),
            (6.0, 9.0, 0.25, 128, BitWidth::W8, true),
            (0.9, 1.7, 0.3, 7, BitWidth::W4, true),
            (0.5, 0.25, 1.0, 2, BitWidth::W2, true),
        ];
        for (sa, sb, sy, zy, bits, saturates) in cases {
            let (mut lo, mut hi) = (i32::MAX, i32::MIN);
            for (za, zb) in [(0, 0), (15, 3), (8, 15)] {
                let add = QAdd::from_scales(sa, sb, sy, za, zb, zy, bits);
                let (ma, mb) = add.multipliers();
                for (&a, &b) in qa.iter().zip(&qb) {
                    let v = zy + ma.apply(a as i32 - za as i32) + mb.apply(b as i32 - zb as i32);
                    (lo, hi) = (lo.min(v), hi.max(v));
                }
                let (mut ops4, mut ops8) = (OpCounts::default(), OpCounts::default());
                let y4 = add.execute(
                    &act(&qa, BitWidth::W4, za),
                    &act(&qb, BitWidth::W4, zb),
                    &mut ops4,
                );
                let y8 = add.execute(
                    &act(&qa, BitWidth::W8, za),
                    &act(&qb, BitWidth::W8, zb),
                    &mut ops8,
                );
                assert_eq!(y8.codes(), y4.codes(), "{bits} ({za}, {zb})");
                assert_eq!(ops8.unpacks, 0);
                assert_eq!(OpCounts { unpacks: 0, ..ops4 }, ops8, "{bits} ({za}, {zb})");
            }
            if saturates {
                assert!(
                    lo < 0 && hi > bits.qmax() as i32,
                    "{bits}: sums {lo}..={hi} do not saturate at both ends"
                );
            }
        }
    }

    #[test]
    fn saturates_at_code_range() {
        let add = QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W2);
        let a = act(&[3], BitWidth::W2, 0);
        let b = act(&[3], BitWidth::W2, 0);
        let mut ops = OpCounts::default();
        assert_eq!(add.execute(&a, &b, &mut ops).codes(), vec![3]);
    }

    #[test]
    fn accessors_and_flash() {
        let add = QAdd::from_scales(0.25, 0.5, 1.0, 0, 0, 3, BitWidth::W8);
        assert_eq!(add.out_bits(), BitWidth::W8);
        assert_eq!(add.zero_point(), 3);
        assert_eq!(add.flash_bytes(), 13);
        let (ma, mb) = add.multipliers();
        assert!((ma.to_real() - 0.25).abs() < 1e-9);
        assert!((mb.to_real() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not a W4 code")]
    fn out_of_range_zero_point_rejected() {
        let _ = QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 20, BitWidth::W4);
    }

    #[test]
    #[should_panic(expected = "agree in shape")]
    fn shape_mismatch_panics() {
        let add = QAdd::from_scales(1.0, 1.0, 1.0, 0, 0, 0, BitWidth::W8);
        let a = act(&[1, 2], BitWidth::W8, 0);
        let b = act(&[1], BitWidth::W8, 0);
        let _ = add.execute(&a, &b, &mut OpCounts::default());
    }
}
