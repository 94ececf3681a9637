use mixq_tensor::{ConvGeometry, Shape};

use crate::simd::depthwise as dw;
use crate::simd::{self, requant::RequantPlan};
use crate::{OpCounts, QActivation, QConvWeights, Requantizer};

/// Channels per block of the depthwise fast core: the block's `(w − Zw)`
/// operands are laid out once on the stack, and one epilogue call
/// requantizes its accumulators.
const DW_BLOCK: usize = 64;

/// Lanes one epilogue call of a narrow depthwise layer covers: a layer of
/// `c ≤ DW_GROUP_LANES / 2` channels requantizes `⌊DW_GROUP_LANES / c⌋`
/// pixels per call through a plan tiled that many times.
const DW_GROUP_LANES: usize = 32;

/// An integer-only quantized convolution layer: packed weights, geometry and
/// a requantization stage (Eq. 5 evaluates the whole
/// `conv → batch-norm → quant-act` sub-graph in integer arithmetic).
///
/// The dataflow is output-stationary, as in the paper's extended CMSIS-NN
/// kernels: each output accumulator is produced to completion before moving
/// on, so the `i32` accumulator never spills.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, PartialEq)]
pub struct QConv2d {
    weights: QConvWeights,
    geometry: ConvGeometry,
    requant: Requantizer,
    /// SIMD transposition of `requant`, rebuilt with it in `new` (so
    /// requantizer rewrites like `with_saturated_thresholds` can never
    /// leave a stale plan behind).
    plan: RequantPlan,
    /// The depthwise fast core's operands, built with `plan`; `None` for
    /// layers that run the generic loop.
    dw: Option<Box<DwOperands>>,
}

/// Host-side operands of the depthwise fast core, a transposition of the
/// weights and requantizer built once per layer (like [`RequantPlan`]).
#[derive(Debug, Clone, PartialEq)]
struct DwOperands {
    /// `w − Zw` as `i16`, tap-pair-major and channel-interleaved over all
    /// `C` channels — `wpairs[(p·C + co)·2 + s]` belongs to tap `2p + s` of
    /// channel `co`, zero past the last tap — so every channel block's
    /// operands of a tap pair are one contiguous run.
    wpairs: Vec<i16>,
    /// For a layer of at most `DW_GROUP_LANES / 2` channels, the plan
    /// tiled over the `⌊DW_GROUP_LANES / C⌋` output pixels one epilogue
    /// call requantizes, so narrow layers stop paying one call per pixel.
    pixel_plan: Option<RequantPlan>,
}

impl DwOperands {
    /// The operands of a layer that takes the fast core — a depthwise
    /// kernel of at most [`dw::MAX_TAPS`] taps whose every `w − Zw` is an
    /// `i16` — or `None`.
    fn new(weights: &QConvWeights, geometry: ConvGeometry, plan: &RequantPlan) -> Option<Self> {
        let c = weights.out_channels();
        let taps = geometry.kernel_area();
        // `w − Zw ≤ qw − Zw` is the only side that can leave `i16`.
        let qw = weights.bits().qmax() as i32;
        if !weights.is_depthwise()
            || taps == 0
            || taps > dw::MAX_TAPS
            || (0..c).any(|co| weights.offset().at(co) < qw - i16::MAX as i32)
        {
            return None;
        }
        let codes = weights.codes();
        let slots = taps.next_multiple_of(2);
        let mut wpairs = vec![0i16; slots * c];
        for (co, row) in codes.chunks_exact(taps).enumerate() {
            let zw = weights.offset().at(co);
            for (t, &w) in row.iter().enumerate() {
                wpairs[((t / 2) * c + co) * 2 + t % 2] = (w as i32 - zw) as i16;
            }
        }
        let pixel_plan = (c > 0 && c <= DW_GROUP_LANES / 2).then(|| plan.tiled(DW_GROUP_LANES / c));
        Some(DwOperands { wpairs, pixel_plan })
    }
}

impl QConv2d {
    /// Assembles a layer.
    ///
    /// # Panics
    ///
    /// Panics if the requantizer does not cover exactly the weight tensor's
    /// output channels.
    pub fn new(weights: QConvWeights, geometry: ConvGeometry, requant: Requantizer) -> Self {
        assert_eq!(
            requant.channels(),
            weights.out_channels(),
            "requantizer channels must match output channels"
        );
        assert_eq!(
            weights.shape().h,
            geometry.kh,
            "weight kernel height vs geometry"
        );
        assert_eq!(
            weights.shape().w,
            geometry.kw,
            "weight kernel width vs geometry"
        );
        let plan = RequantPlan::new(&requant);
        let dw = DwOperands::new(&weights, geometry, &plan).map(Box::new);
        QConv2d {
            weights,
            geometry,
            requant,
            plan,
            dw,
        }
    }

    /// The packed weights.
    pub fn weights(&self) -> &QConvWeights {
        &self.weights
    }

    /// The geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geometry
    }

    /// The requantization stage.
    pub fn requant(&self) -> &Requantizer {
        &self.requant
    }

    /// The vectorized-epilogue plan for [`QConv2d::requant`] (see
    /// [`crate::simd::requant`]).
    pub fn plan(&self) -> &RequantPlan {
        &self.plan
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, input: Shape) -> Shape {
        let (h, w) = self.geometry.output_size(input.h, input.w);
        Shape::new(input.n, h, w, self.weights.out_channels())
    }

    /// Runs the layer on a quantized activation, producing the quantized
    /// output activation and charging `ops`.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the weights.
    pub fn execute(&self, x: &QActivation, ops: &mut OpCounts) -> QActivation {
        let mut out_codes = Vec::new();
        let out_shape = self.execute_codes_pooled(x, &mut out_codes, &mut Vec::new(), ops);
        QActivation::from_codes(
            out_shape,
            &out_codes,
            self.requant.out_bits(),
            self.out_zero_point(),
        )
    }

    /// The direct-kernel core behind
    /// [`KernelChoice::DirectConv`](crate::KernelChoice::DirectConv): writes
    /// the unpacked output codes into `out_codes` (cleared and resized in
    /// place) and returns the output shape.
    ///
    /// 8-bit weights are read from their packed bytes and sub-byte ones
    /// extracted in place ([`QConvWeights::code_at`]), as the
    /// microcontroller reads them. `aux` is caller-owned staging: a
    /// depthwise layer on the fast core
    /// ([`crate::simd::depthwise::mac_pixels`]) decodes a 2- or 4-bit input
    /// into it once, so every tap reads plain bytes. That host copy is not
    /// charged: the [`OpCounts`] ledger keeps charging one unpack per
    /// sub-byte operand per MAC, as the microcontroller pays.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the weights.
    pub(crate) fn execute_codes_pooled(
        &self,
        x: &QActivation,
        out_codes: &mut Vec<u8>,
        aux: &mut Vec<u8>,
        ops: &mut OpCounts,
    ) -> Shape {
        let wbytes = (!self.weights.needs_unpack()).then(|| self.weights.as_bytes());
        let out_shape = self.output_shape(x.shape());
        out_codes.clear();
        out_codes.resize(out_shape.volume(), 0);
        let (rq, tc) = (&mut ops.requants, &mut ops.threshold_cmps);
        let macs = if let Some(dw_ops) = self.dw.as_deref() {
            // The fast core reads its input one code per byte: a staged
            // decode, or an 8-bit tensor's own bytes.
            let xcodes: &[u8] = if x.needs_unpack() {
                let staged = x.shape().volume();
                // Every staged byte is overwritten: grow, never clear.
                if aux.len() < staged {
                    aux.resize(staged, 0);
                }
                x.unpack_into(&mut aux[..staged]);
                &aux[..staged]
            } else {
                x.as_bytes()
            };
            self.depthwise_taps(dw_ops, x, xcodes, out_codes, rq, tc)
        } else if let Some(w) = wbytes {
            self.direct_channels(x, out_codes, rq, tc, |i| w[i])
        } else {
            self.direct_channels(x, out_codes, rq, tc, |i| self.weights.code_at(i))
        };
        self.charge_direct_ledger(x, out_shape, macs, ops);
        out_shape
    }

    /// The tail ledger of the direct kernel: per-MAC loads and unpack
    /// charges are proportional to the MAC tally.
    fn charge_direct_ledger(
        &self,
        x: &QActivation,
        out_shape: Shape,
        macs: u64,
        ops: &mut OpCounts,
    ) {
        let w_unpack = self.weights.needs_unpack() as u64;
        let x_unpack = x.needs_unpack() as u64;
        ops.macs += macs;
        ops.act_loads += macs;
        ops.unpacks += (w_unpack + x_unpack) * macs;
        ops.act_stores += out_shape.volume() as u64;
        ops.bias_adds += out_shape.volume() as u64;
        if self.weights.offset().is_per_channel() {
            // One extra in-loop subtraction per MAC (§6's ≈ 20% overhead).
            ops.offset_subs += macs;
        }
    }

    /// The depthwise fast core, writing NHWC output codes into `out`.
    /// `xb` holds the input codes one per byte in NHWC order. Returns the
    /// MAC tally.
    ///
    /// Channels are swept in blocks of ≤ `DW_BLOCK` — the innermost,
    /// vector axis, contiguous in NHWC — over the layer's prepared
    /// tap-pair-major `(w − Zw)` operands. Pixels go to
    /// [`dw::mac_pixels`] at the host's SIMD level: the interior columns of
    /// each output row in one call (their real taps all advance by
    /// `stride·c` input bytes), each edge column on its own; padded taps
    /// read a row of `Zx` codes, which adds zero. Every
    /// product and partial sum is exact in `i32` (`|x − Zx| ≤ 255`,
    /// `|w − Zw| ≤ 2¹⁵` by the `DwOperands` gate, ≤ [`dw::MAX_TAPS`]
    /// taps: the `depthwise-i16` and `depthwise-i32` stages of
    /// `mixq-verify`), and integer sums are order-free, so the accumulators
    /// equal the generic loop's `i64` ones. The vectorized epilogue then requantizes one
    /// pixel's block per call — or, when the block is a whole layer of at
    /// most `DW_GROUP_LANES / 2` channels, up to `⌊DW_GROUP_LANES / c⌋`
    /// pixels at once through the tiled `pixel_plan` — bit-identical to
    /// per-element `Requantizer::apply`, with the same ledger totals.
    fn depthwise_taps(
        &self,
        ops: &DwOperands,
        x: &QActivation,
        xb: &[u8],
        out: &mut [u8],
        requants: &mut u64,
        threshold_cmps: &mut u64,
    ) -> u64 {
        let in_shape = x.shape();
        assert_eq!(
            in_shape.c,
            self.weights.out_channels(),
            "depthwise input channels"
        );
        let out_shape = self.output_shape(in_shape);
        let (pt, pl) = self.geometry.pad_top_left(in_shape.h, in_shape.w);
        let s = self.geometry.stride;
        let (kh, kw) = (self.geometry.kh, self.geometry.kw);
        let (ih, iw) = (in_shape.h as isize, in_shape.w as isize);
        let taps = kh * kw;
        // Taps in pairs; an odd last tap's partner is a pad row.
        let slots = taps.next_multiple_of(2);
        let zx = x.zero_point();
        let c = in_shape.c;
        let npix = out_shape.pixels() * out_shape.n;
        let level = simd::active_level();
        // Output columns whose taps all lie inside the input row: along
        // a row, their padded taps (top/bottom rows) stay the same.
        let ox_lo = pl.div_ceil(s).min(out_shape.w);
        let ox_hi = if in_shape.w + pl >= kw {
            ((in_shape.w + pl - kw) / s + 1).min(out_shape.w)
        } else {
            0
        };
        let zrow = [zx; DW_BLOCK];
        let mut offs = [dw::PAD; dw::MAX_TAPS];
        let mut acc = [0i32; DW_BLOCK];
        let mut codes = [0u8; DW_BLOCK];
        let mut macs = 0u64;
        let mut blk_lo = 0;
        while blk_lo < c {
            let n = DW_BLOCK.min(c - blk_lo);
            // The block's operands: pair p at wp[p·2c ..][..2n].
            let wp = &ops.wpairs[2 * blk_lo..];
            // One epilogue call per pixel group: several pixels when the
            // block is a whole narrow layer (lane r·c + j is channel j).
            let (group, rplan, rc0) = match &ops.pixel_plan {
                Some(tiled) if n == c => (DW_GROUP_LANES / c, tiled, 0),
                _ => (1, &self.plan, blk_lo),
            };
            let (mut b, mut oy, mut ox) = (0usize, 0usize, 0usize);
            let mut pix = 0;
            while pix < npix {
                let g_n = group.min(npix - pix);
                let mut g = 0;
                while g < g_n {
                    // A run of the row's interior columns shares one set of
                    // real taps, advancing together; an edge column runs
                    // alone.
                    let run = if ox >= ox_lo && ox < ox_hi {
                        (ox_hi - ox).min(g_n - g)
                    } else {
                        1
                    };
                    let iy0 = (oy * s) as isize - pt as isize;
                    let ix0 = (ox * s) as isize - pl as isize;
                    let mut real = 0;
                    for ky in 0..kh {
                        let iy = iy0 + ky as isize;
                        for kx in 0..kw {
                            let ix = ix0 + kx as isize;
                            offs[ky * kw + kx] = if iy >= 0 && iy < ih && ix >= 0 && ix < iw {
                                real += 1;
                                ((b * in_shape.h + iy as usize) * in_shape.w + ix as usize) * c
                                    + blk_lo
                            } else {
                                dw::PAD
                            };
                        }
                    }
                    macs += (real * n * run) as u64;
                    dw::mac_pixels(
                        level,
                        xb,
                        &zrow,
                        &offs[..slots],
                        s * c,
                        wp,
                        2 * c,
                        zx,
                        n,
                        &mut acc[g * n..(g + run) * n],
                    );
                    g += run;
                    ox += run;
                    if ox == out_shape.w {
                        ox = 0;
                        oy += 1;
                        if oy == out_shape.h {
                            oy = 0;
                            b += 1;
                        }
                    }
                }
                let m = g_n * n;
                simd::requant::apply_i32_block(
                    rplan,
                    &self.requant,
                    level,
                    rc0,
                    &acc[..m],
                    &mut codes[..m],
                    requants,
                    threshold_cmps,
                );
                for (g, px_codes) in codes[..m].chunks_exact(n).enumerate() {
                    let o = (pix + g) * c + blk_lo;
                    out[o..o + n].copy_from_slice(px_codes);
                }
                pix += g_n;
            }
            blk_lo += n;
        }
        macs
    }

    /// The generic direct-loop core — the scalar oracle every fast path is
    /// checked against — writing NHWC output codes into `out`. Returns the
    /// MAC tally.
    fn direct_channels(
        &self,
        x: &QActivation,
        out: &mut [u8],
        requants: &mut u64,
        threshold_cmps: &mut u64,
        wget: impl Fn(usize) -> u8,
    ) -> u64 {
        let in_shape = x.shape();
        let depthwise = self.weights.is_depthwise();
        if depthwise {
            assert_eq!(
                in_shape.c,
                self.weights.out_channels(),
                "depthwise input channels"
            );
        } else {
            assert_eq!(in_shape.c, self.weights.in_channels(), "input channels");
        }
        let out_shape = self.output_shape(in_shape);
        let (pt, pl) = self.geometry.pad_top_left(in_shape.h, in_shape.w);
        let s = self.geometry.stride;
        let (kh, kw) = (self.geometry.kh, self.geometry.kw);
        let zx = x.zero_point() as i64;
        let wshape = self.weights.shape();

        let mut macs = 0u64;
        for n in 0..out_shape.n {
            for oy in 0..out_shape.h {
                for ox in 0..out_shape.w {
                    let pix = (n * out_shape.h + oy) * out_shape.w + ox;
                    for co in 0..out_shape.c {
                        let zw = self.weights.offset().at(co) as i64;
                        let mut acc: i64 = 0;
                        for ky in 0..kh {
                            let iy = (oy * s + ky) as isize - pt as isize;
                            if iy < 0 || iy >= in_shape.h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * s + kx) as isize - pl as isize;
                                if ix < 0 || ix >= in_shape.w as isize {
                                    continue;
                                }
                                let (iy, ix) = (iy as usize, ix as usize);
                                if depthwise {
                                    let xv = x.get(n, iy, ix, co) as i64;
                                    let wv = wget(wshape.index(co, ky, kx, 0)) as i64;
                                    acc += (xv - zx) * (wv - zw);
                                    macs += 1;
                                } else {
                                    for ci in 0..in_shape.c {
                                        let xv = x.get(n, iy, ix, ci) as i64;
                                        let wv = wget(wshape.index(co, ky, kx, ci)) as i64;
                                        acc += (xv - zx) * (wv - zw);
                                        macs += 1;
                                    }
                                }
                            }
                        }
                        out[pix * out_shape.c + co] =
                            self.requant.apply(co, acc, requants, threshold_cmps);
                    }
                }
            }
        }
        macs
    }

    /// Output zero-point of the layer as an activation code.
    pub(crate) fn out_zero_point(&self) -> u8 {
        self.requant.zero_point().clamp(0, 255) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightOffset;
    use mixq_quant::{BitWidth, FixedPointMultiplier};
    use mixq_tensor::Padding;

    fn identity_requant(channels: usize, bits: BitWidth) -> Requantizer {
        Requantizer::icn(
            vec![0; channels],
            vec![FixedPointMultiplier::from_real(1.0); channels],
            0,
            bits,
        )
    }

    #[test]
    fn pointwise_identity() {
        // 1x1 conv, weight code 1, Zw = 0 → output = input code.
        let w = QConvWeights::new(
            Shape::new(1, 1, 1, 1),
            false,
            &[1],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(1, BitWidth::W8),
        );
        let x =
            QActivation::from_codes(Shape::feature_map(2, 2, 1), &[5, 6, 7, 8], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.codes(), vec![5, 6, 7, 8]);
        assert_eq!(ops.macs, 4);
        assert_eq!(ops.offset_subs, 0, "per-layer Zw costs nothing in-loop");
    }

    #[test]
    fn zero_points_are_subtracted() {
        // X = 10 with Zx = 10 means real zero → output must be Zy exactly.
        let w = QConvWeights::new(
            Shape::new(1, 1, 1, 1),
            false,
            &[3],
            BitWidth::W4,
            WeightOffset::PerLayer(1),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            Requantizer::icn(
                vec![0],
                vec![FixedPointMultiplier::from_real(1.0)],
                4,
                BitWidth::W8,
            ),
        );
        let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[10], BitWidth::W8, 10);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.codes(), vec![4]); // zy only
        assert_eq!(y.zero_point(), 4);
    }

    #[test]
    fn same_padding_contributes_nothing() {
        // 3x3 all-ones weights (Zw=0) over all-ones input (Zx=0): corner
        // outputs see 4 pixels, centre 9 — padded taps add zero.
        let w = QConvWeights::new(
            Shape::new(1, 3, 3, 1),
            false,
            &[1; 9],
            BitWidth::W2,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 1, Padding::Same),
            identity_requant(1, BitWidth::W8),
        );
        let x = QActivation::from_codes(Shape::feature_map(3, 3, 1), &[1; 9], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.get(0, 1, 1, 0), 9);
        assert_eq!(y.get(0, 0, 0, 0), 4);
        assert_eq!(y.get(0, 0, 1, 0), 6);
    }

    #[test]
    fn depthwise_keeps_channels_separate() {
        let w = QConvWeights::new(
            Shape::new(2, 1, 1, 1),
            true,
            &[2, 3],
            BitWidth::W4,
            WeightOffset::PerChannel(vec![0, 0]),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(2, BitWidth::W8),
        );
        let x = QActivation::from_codes(Shape::feature_map(1, 1, 2), &[4, 5], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.codes(), vec![8, 15]);
        assert_eq!(ops.offset_subs, ops.macs, "PC offsets charged per MAC");
    }

    #[test]
    fn sub_byte_operands_charge_unpacks() {
        let w = QConvWeights::new(
            Shape::new(1, 1, 1, 1),
            false,
            &[1],
            BitWidth::W4, // sub-byte weights
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(1, BitWidth::W8),
        );
        let x = QActivation::from_codes(
            Shape::feature_map(2, 2, 1),
            &[1, 2, 3, 0],
            BitWidth::W2, // sub-byte activations
            0,
        );
        let mut ops = OpCounts::default();
        let _ = conv.execute(&x, &mut ops);
        assert_eq!(ops.macs, 4);
        assert_eq!(ops.unpacks, 8, "one per operand per MAC");
    }

    #[test]
    fn stride_two_output_shape() {
        let w = QConvWeights::new(
            Shape::new(4, 3, 3, 2),
            false,
            &[0; 72],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let conv = QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 2, Padding::Same),
            identity_requant(4, BitWidth::W4),
        );
        let x = QActivation::from_codes(Shape::feature_map(8, 8, 2), &[0; 128], BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let y = conv.execute(&x, &mut ops);
        assert_eq!(y.shape(), Shape::feature_map(4, 4, 4));
        assert_eq!(y.bits(), BitWidth::W4);
    }

    #[test]
    #[should_panic(expected = "requantizer channels")]
    fn requant_channel_mismatch_panics() {
        let w = QConvWeights::new(
            Shape::new(2, 1, 1, 1),
            false,
            &[0, 0],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let _ = QConv2d::new(
            w,
            ConvGeometry::pointwise(),
            identity_requant(3, BitWidth::W8),
        );
    }
}
