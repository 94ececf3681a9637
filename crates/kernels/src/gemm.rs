//! The im2col + GEMM convolution path — the dataflow CMSIS-NN's `conv`
//! kernels actually use on the Cortex-M (§6's library lowers convolutions
//! to an image-to-column expansion followed by a matrix product so the
//! dual-MAC `SMLAD` can stream through contiguous operands).
//!
//! Functionally identical to [`QConv2d::execute`]; the reorganized loop
//! exposes the im2col buffer cost that the cycle model charges. Padded
//! taps are materialized as the input zero-point `Zx`, which contributes
//! exactly zero to `Σ (X − Zx)(W − Zw)` — the same trick the real kernels
//! use so the inner loop stays branch-free.

use mixq_tensor::Shape;

use crate::{OpCounts, QActivation, QConv2d};

/// The im2col expansion of one input: a `rows × k` matrix of input codes
/// where `rows = out_h·out_w` and `k = k_h·k_w·c_i`, with `Zx` at padded
/// taps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Im2Col {
    data: Vec<u8>,
    rows: usize,
    k: usize,
}

impl Im2Col {
    /// Number of output pixels (matrix rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Patch length `k_h·k_w·c_i` (matrix columns).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The matrix row for output pixel `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.k..(r + 1) * self.k]
    }

    /// Buffer size in bytes (charged to RAM by a real deployment; the
    /// paper's Eq. 7 accounting keeps activations packed instead, which is
    /// why CMSIS-NN expands only one row at a time).
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Consumes the matrix, returning its backing row-major code buffer
    /// (`rows × k`).
    pub fn into_data(self) -> Vec<u8> {
        self.data
    }
}

impl QConv2d {
    /// Expands the input into its im2col matrix (standard convolutions
    /// only).
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers (CMSIS-NN lowers those directly) or on a
    /// channel mismatch.
    pub fn im2col(&self, x: &QActivation, ops: &mut OpCounts) -> Im2Col {
        let mut data = Vec::new();
        let (rows, k) = self.im2col_into(x, &mut data, ops);
        Im2Col { data, rows, k }
    }

    /// [`QConv2d::im2col`] writing the expansion into a caller-owned buffer
    /// (cleared and resized in place) and returning `(rows, k)` — the
    /// pooled form the graph executor feeds from its arena so GEMM-lowered
    /// nodes allocate nothing in steady state.
    ///
    /// # Panics
    ///
    /// See [`QConv2d::im2col`].
    pub fn im2col_into(
        &self,
        x: &QActivation,
        data: &mut Vec<u8>,
        ops: &mut OpCounts,
    ) -> (usize, usize) {
        assert!(
            !self.weights().is_depthwise(),
            "im2col path applies to standard convolutions"
        );
        let in_shape = x.shape();
        assert_eq!(in_shape.c, self.weights().in_channels(), "input channels");
        let out_shape = self.output_shape(in_shape);
        let k = self.geometry().kernel_area() * in_shape.c;
        let rows = out_shape.pixels() * out_shape.n;
        data.clear();
        data.resize(rows * k, 0);
        let loads = if x.needs_unpack() {
            // Sub-byte staging: decode the whole input once (SIMD unpack)
            // into the slack of the scratch buffer, then gather rows from
            // the flat decode instead of extracting bits per element. Same
            // bytes and the same abstract ledger — `unpacks` still charges
            // the per-element model the microcontroller would pay.
            let vol = in_shape.volume();
            data.resize(rows * k + vol, 0);
            let (head, tail) = data.split_at_mut(rows * k);
            x.unpack_into(&mut tail[..vol]);
            let loads = self.im2col_rows(x, out_shape, head, &tail[..vol]);
            data.truncate(rows * k);
            loads
        } else {
            // One code per byte already: every valid tap is a straight
            // `memcpy` from the input bytes.
            self.im2col_rows(x, out_shape, data.as_mut_slice(), x.as_bytes())
        };
        ops.act_loads += loads;
        if x.needs_unpack() {
            ops.unpacks += loads;
        }
        (rows, k)
    }

    /// Gathers every im2col row into `out` and returns the non-padded load
    /// tally.
    ///
    /// `flat` holds the input codes decoded to one per byte in NHWC order
    /// (either the 8-bit tensor's own bytes or a staged sub-byte decode):
    /// each valid tap copies one contiguous channel span, and padded taps
    /// fill with `Zx`.
    fn im2col_rows(&self, x: &QActivation, out_shape: Shape, out: &mut [u8], flat: &[u8]) -> u64 {
        let in_shape = x.shape();
        let g = self.geometry();
        let (pt, pl) = g.pad_top_left(in_shape.h, in_shape.w);
        let k = g.kernel_area() * in_shape.c;
        let c = in_shape.c;
        let zx = x.zero_point();
        let mut loads = 0u64;
        for (row, row_out) in out.chunks_exact_mut(k).enumerate() {
            let ox = row % out_shape.w;
            let oy = (row / out_shape.w) % out_shape.h;
            let n = row / (out_shape.w * out_shape.h);
            let mut col = 0usize;
            for ky in 0..g.kh {
                let iy = (oy * g.stride + ky) as isize - pt as isize;
                let y_ok = iy >= 0 && iy < in_shape.h as isize;
                for kx in 0..g.kw {
                    let ix = (ox * g.stride + kx) as isize - pl as isize;
                    let span = &mut row_out[col..col + c];
                    if !y_ok || ix < 0 || ix >= in_shape.w as isize {
                        span.fill(zx);
                    } else {
                        loads += c as u64;
                        let base = ((n * in_shape.h + iy as usize) * in_shape.w + ix as usize) * c;
                        span.copy_from_slice(&flat[base..base + c]);
                    }
                    col += c;
                }
            }
        }
        loads
    }

    /// Runs the layer through the im2col + GEMM path. Bit-identical to
    /// [`QConv2d::execute`].
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers.
    pub fn execute_gemm(&self, x: &QActivation, ops: &mut OpCounts) -> QActivation {
        let mut out_codes = Vec::new();
        let out_shape = self.execute_gemm_codes(x, &mut out_codes, ops);
        QActivation::from_codes(
            out_shape,
            &out_codes,
            self.requant().out_bits(),
            self.requant().zero_point().clamp(0, 255) as u8,
        )
    }

    /// The codes-only core of [`QConv2d::execute_gemm`]: writes the
    /// unpacked output codes into `out_codes` (cleared and resized in
    /// place) and returns the output shape — the hook the graph executor
    /// dispatches to when a node selected
    /// [`KernelChoice::Im2colGemm`](crate::KernelChoice::Im2colGemm).
    ///
    /// The im2col matrix and the flattened weight panel are transient
    /// buffers allocated per call (the scratch the memory model prices via
    /// [`im2col_scratch_bytes`]); GEMM-lowered nodes are therefore not part
    /// of the zero-allocation steady-state guarantee the direct path has.
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers.
    pub fn execute_gemm_codes(
        &self,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        ops: &mut OpCounts,
    ) -> Shape {
        self.execute_gemm_codes_pooled(None, x, &mut Vec::new(), out_codes, ops)
    }

    /// [`QConv2d::execute_gemm_codes`] with prepacked operands and pooled
    /// scratch: `wcodes`, when given, is the weight matrix already decoded
    /// to one code per byte in `(c_o, k_h, k_w, c_i)` order (the
    /// [`PrepackedWeights::Codes`](crate::PrepackedWeights::Codes) cache a
    /// graph node builds once), and the im2col expansion is written into
    /// `im2col_scratch` (cleared and resized in place) instead of a fresh
    /// buffer — together they make GEMM-lowered graph nodes allocation-free
    /// in steady state. Bit-identical to the uncached path, including the
    /// abstract [`OpCounts`] ledger.
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers, or if `wcodes` has the wrong length.
    pub fn execute_gemm_codes_pooled(
        &self,
        wcodes: Option<&[u8]>,
        x: &QActivation,
        im2col_scratch: &mut Vec<u8>,
        out_codes: &mut Vec<u8>,
        ops: &mut OpCounts,
    ) -> Shape {
        let (rows, k) = self.im2col_into(x, im2col_scratch, ops);
        let in_shape = x.shape();
        let out_shape = self.output_shape(in_shape);
        let weights = self.weights();
        let zx = x.zero_point() as i64;
        let per_channel = weights.offset().is_per_channel();
        let w_unpack = weights.needs_unpack() as u64;
        let co_n = weights.out_channels();
        // The weight matrix of the GEMM: the flattened (c_o, k_h, k_w, c_i)
        // layout matches the im2col column order exactly, so 8-bit weights
        // are borrowed straight from their packed bytes, a prepacked cache
        // is consumed as-is, and only the uncached sub-byte case decodes
        // per call.
        let owned_w: Vec<u8>;
        let wflat: &[u8] = match wcodes {
            Some(w) => {
                assert_eq!(w.len(), co_n * k, "prepacked weight matrix length");
                w
            }
            None if !weights.needs_unpack() => weights.as_bytes(),
            None => {
                owned_w = weights.codes();
                &owned_w
            }
        };
        out_codes.clear();
        out_codes.resize(out_shape.volume(), 0);
        self.gemm_rows(
            wflat,
            im2col_scratch,
            k,
            zx,
            out_codes.as_mut_slice(),
            &mut ops.requants,
            &mut ops.threshold_cmps,
        );
        let macs = (rows * k * co_n) as u64;
        ops.macs += macs;
        ops.unpacks += w_unpack * macs;
        ops.act_stores += out_shape.volume() as u64;
        ops.bias_adds += out_shape.volume() as u64;
        if per_channel {
            ops.offset_subs += macs;
        }
        out_shape
    }

    /// The naive GEMM over every im2col row, with per-element zero-point
    /// subtraction exactly as the reference kernel does it.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows(
        &self,
        wflat: &[u8],
        data: &[u8],
        k: usize,
        zx: i64,
        out: &mut [u8],
        requants: &mut u64,
        threshold_cmps: &mut u64,
    ) {
        let weights = self.weights();
        let co_n = weights.out_channels();
        for (out_row, row) in out.chunks_exact_mut(co_n).zip(data.chunks_exact(k)) {
            for (co, out_code) in out_row.iter_mut().enumerate() {
                let zw = weights.offset().at(co) as i64;
                let wrow = &wflat[co * k..(co + 1) * k];
                let mut acc = 0i64;
                for (xv, wv) in row.iter().zip(wrow) {
                    acc += (*xv as i64 - zx) * (*wv as i64 - zw);
                }
                *out_code = self.requant().apply(co, acc, requants, threshold_cmps);
            }
        }
    }
}

/// Size in bytes of the im2col scratch buffer for a layer over an input
/// shape, at the input's bit precision (used by deployments that expand
/// whole rows).
pub fn im2col_scratch_bytes(conv: &QConv2d, input: Shape) -> usize {
    let g = conv.geometry();
    let k = g.kernel_area() * input.c;
    let out = conv.output_shape(input);
    out.pixels() * out.n * k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QConvWeights, Requantizer, WeightOffset};
    use mixq_quant::{BitWidth, FixedPointMultiplier};
    use mixq_tensor::{ConvGeometry, Padding};

    fn make_conv(
        co: usize,
        ci: usize,
        k: usize,
        stride: usize,
        wbits: BitWidth,
        per_channel: bool,
    ) -> QConv2d {
        let wshape = Shape::new(co, k, k, ci);
        let codes: Vec<u8> = (0..wshape.volume())
            .map(|i| ((i * 7 + 3) % wbits.levels() as usize) as u8)
            .collect();
        let offset = if per_channel {
            WeightOffset::PerChannel((0..co).map(|c| c as i16 % 3).collect())
        } else {
            WeightOffset::PerLayer(1)
        };
        let weights = QConvWeights::new(wshape, false, &codes, wbits, offset);
        let requant = Requantizer::icn(
            (0..co).map(|c| c as i32 * 3 - 2).collect(),
            (0..co)
                .map(|c| FixedPointMultiplier::from_real(0.01 + c as f64 * 0.003))
                .collect(),
            0,
            BitWidth::W4,
        );
        QConv2d::new(
            weights,
            ConvGeometry::new(k, k, stride, Padding::Same),
            requant,
        )
    }

    fn make_input(h: usize, w: usize, c: usize, bits: BitWidth, zx: u8) -> QActivation {
        let shape = Shape::feature_map(h, w, c);
        let codes: Vec<u8> = (0..shape.volume())
            .map(|i| ((i * 5 + 1) % bits.levels() as usize) as u8)
            .collect();
        QActivation::from_codes(shape, &codes, bits, zx)
    }

    #[test]
    fn gemm_matches_direct_execution() {
        for (co, ci, k, stride) in [(4, 3, 3, 1), (2, 2, 3, 2), (5, 4, 1, 1)] {
            for per_channel in [false, true] {
                let conv = make_conv(co, ci, k, stride, BitWidth::W4, per_channel);
                let x = make_input(6, 6, ci, BitWidth::W8, 3);
                let mut ops_a = OpCounts::default();
                let mut ops_b = OpCounts::default();
                let direct = conv.execute(&x, &mut ops_a);
                let gemm = conv.execute_gemm(&x, &mut ops_b);
                assert_eq!(
                    direct, gemm,
                    "co={co} ci={ci} k={k} s={stride} pc={per_channel}"
                );
                assert_eq!(ops_a.requants, ops_b.requants);
                // Same mathematical MAC work modulo padded-tap counting
                // (GEMM multiplies padded zero-contributions too).
                assert!(ops_b.macs >= ops_a.macs);
            }
        }
    }

    #[test]
    fn gemm_matches_direct_on_sub_byte_activations() {
        let conv = make_conv(3, 2, 3, 1, BitWidth::W2, true);
        let x = make_input(5, 5, 2, BitWidth::W4, 0);
        let mut oa = OpCounts::default();
        let mut ob = OpCounts::default();
        assert_eq!(conv.execute(&x, &mut oa), conv.execute_gemm(&x, &mut ob));
    }

    #[test]
    fn im2col_geometry() {
        let conv = make_conv(2, 3, 3, 2, BitWidth::W8, false);
        let x = make_input(8, 8, 3, BitWidth::W8, 5);
        let mut ops = OpCounts::default();
        let m = conv.im2col(&x, &mut ops);
        assert_eq!(m.rows(), 4 * 4);
        assert_eq!(m.k(), 9 * 3);
        assert_eq!(m.byte_len(), 16 * 27);
        assert_eq!(im2col_scratch_bytes(&conv, x.shape()), 16 * 27);
    }

    #[test]
    fn im2col_pads_with_zero_point() {
        // 1x1 input, 3x3 kernel: every tap except the centre is padding.
        let conv = make_conv(1, 1, 3, 1, BitWidth::W8, false);
        let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[9], BitWidth::W8, 7);
        let mut ops = OpCounts::default();
        let m = conv.im2col(&x, &mut ops);
        let row = m.row(0);
        assert_eq!(row.len(), 9);
        assert_eq!(row[4], 9, "centre tap is the real value");
        for (i, &v) in row.iter().enumerate() {
            if i != 4 {
                assert_eq!(v, 7, "padded taps carry Zx");
            }
        }
    }

    #[test]
    #[should_panic(expected = "standard convolutions")]
    fn depthwise_rejected() {
        let w = QConvWeights::new(
            Shape::new(2, 3, 3, 1),
            true,
            &[0; 18],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 1, Padding::Same),
            Requantizer::icn(
                vec![0, 0],
                vec![FixedPointMultiplier::ZERO; 2],
                0,
                BitWidth::W8,
            ),
        );
        let x = make_input(4, 4, 2, BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let _ = conv.im2col(&x, &mut ops);
    }
}
