//! The register-blocked, cache-tiled GEMM convolution path — the fast
//! dense kernel behind
//! [`KernelChoice::BlockedGemm`](crate::KernelChoice::BlockedGemm) — and
//! the im2col expansion that feeds it. This is the dataflow CMSIS-NN's
//! `conv` kernels use on the Cortex-M (§6 lowers convolutions to an
//! image-to-column expansion followed by a matrix product, so the
//! dual-MAC `SMLAD` streams through contiguous operands). Padded taps are
//! materialized as the input zero-point `Zx`, which contributes exactly
//! zero to `Σ (X − Zx)(W − Zw)`, so the inner loop stays branch-free.
//!
//! The GEMM is restructured the way a production GEMM inner kernel is:
//!
//! * **double zero-point hoisting** — `Σ (X − Zx)(W − Zw)` expands to
//!   `Σ X·W − Zw·Σ X − Zx·Σ W + k·Zx·Zw`, with `Σ X` computed once per
//!   matrix row and `Σ W` once per output channel, so the inner loop is a
//!   bare **u8 × u8** multiply–accumulate with no per-element offset
//!   arithmetic (exact in integers: the expansion is algebraic identity,
//!   making the path **bit-identical** to the direct kernel);
//! * **channel-vectorized dual-row GEMV** — two im2col rows at a time run
//!   [`simd::gemv2`] against the pair-interleaved weight panel, producing
//!   *every* output channel's 32-bit accumulator in one sweep: the vector
//!   axis is the output-channel dimension, so the kernel reaches full
//!   SIMD width even on the tiny `k ∈ {4..128}` patches of a
//!   width-scaled MobileNet (a `k`-axis formulation starves there), and
//!   every weight byte loaded serves two rows;
//! * **one accumulation regime** — the whole patch accumulates in one
//!   `i32` run, exact because the kernel's contract is `k ≤`
//!   [`MAX_DOT_LEN`] (`32768·255² < 2³¹`), as on the Cortex-M's
//!   32-bit `SMLAD` accumulators.
//!   [`QOp::supported_kernels`](crate::QOp::supported_kernels) offers the
//!   blocked GEMM only within that bound; a longer patch runs the direct
//!   loop's `i64` accumulation;
//! * **runtime-dispatched SIMD** — [`crate::simd`] picks AVX2/SSE2
//!   widening `pmaddwd` on x86_64 or NEON widening multiply-accumulate on
//!   aarch64, with the portable scalar loop as the always-available
//!   fallback. Integer sums are order-independent, so every level is
//!   bit-identical;
//! * **pointwise identity fast path** — for 1×1 stride-1 convolutions the
//!   im2col matrix *is* the input in NHWC order, so the expansion is a
//!   borrow of the packed bytes (8-bit input) or one linear unpack
//!   (sub-byte) instead of a per-element gather;
//! * **fused `i32` epilogue** — each row's accumulators go straight to
//!   [`simd::requant::apply_gemm_row`], which adds
//!   `(Bq − Zx·base) − Zw·Σ X` (the first term staged once per call) and
//!   requantizes eight channels per AVX2 iteration in `i32` lanes; a
//!   layer whose [`PackedPanels::weight_bound`] plus `max |Bq|` exceeds
//!   `i32` takes the scalar oracle;
//! * **the classifier head on the same GEMV** — as PULP-NN runs its
//!   linear layers on the matmul core of its convolutions
//!   (arXiv:2007.07759), the head's batch items are GEMV rows against its
//!   own panels (`k = c_i`), and a scalar `i64` epilogue adds `Bq` and the
//!   hoisted corrections per class, exact for any input.
//!
//! The abstract [`OpCounts`] ledger prices the padded GEMM: `rows·k·c_o`
//! MACs for `rows` output pixels (over the batch), patch length
//! `k = k_h·k_w·c_i` and `c_o` output channels; one `act_load` per
//! non-padded input code the expansion reads (the direct loop's MACs over
//! `c_o`); one `unpack` per MAC for sub-byte weights plus one per load for
//! a sub-byte input; one `offset_sub` per MAC under per-channel `Zw`; and
//! the direct loop's requantization, comparison, store and bias counts.
//! The head charges its direct oracle's ledger unchanged.
//! The per-choice rates of the Cortex-M7 cycle model express the dataflow
//! difference, and the host SIMD level never changes modeled cycles.

use mixq_tensor::Shape;

use crate::simd::requant::{GemmTerms, RequantPlan};
use crate::simd::{self, SimdLevel, MAX_DOT_LEN};
use crate::{OpCounts, QActivation, QConv2d, QConvWeights, QLinear, Requantizer};

/// The prepacked operand of the blocked GEMM: the layer's decoded u8
/// weight codes in the pair-interleaved order [`simd::gemv2`] streams,
/// plus the per-channel hoisted zero-point terms — built **once** from a
/// layer's packed weights instead of on every call.
///
/// The paper's deployment target is steady-state inference over immutable
/// flash-resident weights, so — following the prepacked-operand design of
/// production int8 GEMMs (gemmlowp's `PackedSideBlock`, CMSIS-NN's
/// reordered kernel weights) — [`QGraph::select_kernels`](crate::QGraph::select_kernels)
/// builds this artifact once for each node it resolves to the blocked
/// GEMM and stores it on the node, and every inference (and every sample
/// of a batch) streams it directly. It is the node's only weight cache: no
/// call decodes, interleaves or sums the weights.
///
/// The panel layout is **k-major over column pairs, channel-interleaved
/// within each pair**: `pairs[(p·c_o + co)·2 + s]` holds channel `co`'s
/// code for im2col column `2p + s` (and `tail[co]` the last column when
/// `k` is odd). One 16-byte load therefore covers eight consecutive
/// channels' column pairs — exactly the operand shape the
/// channel-vectorized GEMV wants, independent of how small `k` is. The
/// byte footprint is identical to any dense ordering (`c_o · k` codes),
/// so the goldened `prepacked_bytes` accounting is unchanged across the
/// layout generations.
///
/// Accounting: the artifact is a *read-only* copy of the weights in the
/// panel order the microkernel wants. A deployment stores it in flash next
/// to the packed codes (or builds it into RAM once at boot); it is **not**
/// part of the Eq. 7 activation live set, and [`PackedPanels::bytes`]
/// reports its footprint separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPanels {
    /// Pair-interleaved weight codes: `pairs[(p·c_o + co)·2 + s]` holds
    /// `w[co][2p + s]` for column pairs `p ∈ 0..k/2`.
    pairs: Vec<u8>,
    /// The odd last column (`tail[co] = w[co][k−1]`); empty if `k` even.
    tail: Vec<u8>,
    /// Per-channel weight zero-points `Zw`.
    zw: Vec<i64>,
    /// Per-channel `Σ W − k·Zw`: the hoisted correction is
    /// `Zx · base[c]`, so no per-call correction vector is needed.
    base: Vec<i64>,
    /// `255 · max_c Σ_i |w_ci − Zw_c|`: bounds `|Σ (X − Zx)(W − Zw)|` for
    /// any `u8` row (see [`PackedPanels::weight_bound`]).
    bound: i64,
    /// GEMM depth the panels were built for: a convolution's patch length
    /// `k_h·k_w·c_i`, the head's `c_i`.
    k: usize,
}

impl PackedPanels {
    /// GEMM depth: a convolution's patch length `k_h·k_w·c_i`, the head's
    /// input features `c_i`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output channels covered.
    pub fn out_channels(&self) -> usize {
        self.base.len()
    }

    /// Read-only footprint of the artifact in bytes: the `c_o · k`
    /// interleaved codes plus the two per-channel `i64` tables.
    /// Reported separately from the Table-1 flash model (which prices the
    /// packed codes the panels were derived from) and from Eq. 7 RAM
    /// (activations only).
    pub fn bytes(&self) -> usize {
        self.pairs.len() + self.tail.len() + 8 * (self.zw.len() + self.base.len())
    }

    /// `255 · max_c Σ_i |w_ci − Zw_c|`, a bound on `|Σ (X − Zx)(W − Zw)|`
    /// for every row of `u8` codes and every `u8` input zero-point, since
    /// `|X − Zx| ≤ 255`. It depends on the weights only, so it stays valid
    /// under any requantizer rewrite that keeps the panels. The fused
    /// epilogue ([`simd::requant::apply_gemm_row`]) runs in `i32` lanes
    /// only when this bound plus `max |Bq|` is `≤ i32::MAX`.
    pub fn weight_bound(&self) -> i64 {
        self.bound
    }

    /// Per-channel weight zero-points `Zw`.
    pub(crate) fn zw(&self) -> &[i64] {
        &self.zw
    }

    /// Per-channel `Σ W − k·Zw`.
    pub(crate) fn base(&self) -> &[i64] {
        &self.base
    }

    /// Builds the panels for dense weights whose flattened per-channel
    /// rows are `k` codes long: `k_h·k_w·c_i` for a standard convolution,
    /// `c_i` for the classifier head. Sub-byte weights are decoded once
    /// here; the decode, the `Σ W − k·Zw` table and the pair-interleave
    /// reorder all happen at build time, never per call.
    pub(crate) fn build(weights: &QConvWeights, k: usize) -> PackedPanels {
        let co_n = weights.out_channels();
        // The flattened (c_o, k_h, k_w, c_i) code order is channel-row-
        // major: 8-bit codes are read in place, sub-byte ones decoded once.
        let decoded;
        let rows: &[u8] = if weights.needs_unpack() {
            decoded = weights.codes();
            &decoded
        } else {
            weights.as_bytes()
        };
        // Cold setup path — a hard assert here means the hot row loops
        // below (and `blocked_rows`' pair indexing) never run on
        // mis-sized panels; release builds don't trust the geometry.
        assert_eq!(
            rows.len(),
            co_n * k,
            "decoded weight rows must be out_channels × k"
        );
        let mut pairs = vec![0u8; (k / 2) * co_n * 2];
        let mut tail = vec![0u8; co_n * (k & 1)];
        let zw: Vec<i64> = (0..co_n).map(|co| weights.offset().at(co) as i64).collect();
        let mut base = Vec::with_capacity(co_n);
        let mut bound = 0;
        // One pass per channel row, in the rows' own order: the row is read
        // sequentially, and the panel bytes it scatters to stay cached for
        // the next channels, which write the neighbouring bytes.
        for co in 0..co_n {
            let row = &rows[co * k..(co + 1) * k];
            for (p, pair) in row.chunks_exact(2).enumerate() {
                let at = (p * co_n + co) * 2;
                pairs[at..at + 2].copy_from_slice(pair);
            }
            if k & 1 == 1 {
                tail[co] = row[k - 1];
            }
            // Σ W and Σ |W − Zw| in i32 lanes, over chunks too short to
            // overflow them: |w − Zw| ≤ 255 + 2¹⁵ for an i16 `Zw`.
            let z = zw[co] as i32;
            let (mut sumw, mut dev) = (0i64, 0i64);
            for c in row.chunks(1 << 15) {
                sumw += c.iter().map(|&w| w as i32).sum::<i32>() as i64;
                dev += c.iter().map(|&w| (w as i32 - z).abs()).sum::<i32>() as i64;
            }
            base.push(sumw - k as i64 * zw[co]);
            bound = bound.max(255 * dev);
        }
        PackedPanels {
            pairs,
            tail,
            zw,
            base,
            bound,
            k,
        }
    }
}

impl QConv2d {
    /// Builds the [`PackedPanels`] prepack artifact for this layer, with
    /// the patch length `k = k_h·k_w·c_i` as the GEMM depth.
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers.
    pub fn prepack_panels(&self) -> PackedPanels {
        let weights = self.weights();
        assert!(
            !weights.is_depthwise(),
            "im2col path applies to standard convolutions"
        );
        PackedPanels::build(
            weights,
            self.geometry().kernel_area() * weights.in_channels(),
        )
    }

    /// Whether the blocked kernel would borrow the input's packed storage
    /// **zero-copy** instead of materializing an im2col (or linear-unpack)
    /// scratch buffer: a standard 1×1 stride-1 convolution over an 8-bit
    /// input, whose NHWC bytes already *are* the GEMM matrix. The scratch
    /// model ([`QOp::scratch_bytes`](crate::QOp::scratch_bytes)) and the
    /// [`TiledBackend`](crate::TiledBackend)'s selection cost share this
    /// predicate so they price exactly what the kernel does.
    pub fn blocked_borrows_input(&self, in_bits: mixq_quant::BitWidth) -> bool {
        !self.weights().is_depthwise()
            && self.geometry().kernel_area() == 1
            && self.geometry().stride == 1
            && in_bits == mixq_quant::BitWidth::W8
    }

    /// Expands the input into its im2col matrix, written into a
    /// caller-owned buffer (cleared and resized in place), and returns
    /// `(rows, k)`: a `rows × k` matrix of input codes where
    /// `rows = n·out_h·out_w` and `k = k_h·k_w·c_i`, with `Zx` at padded
    /// taps. The graph executor feeds the buffer from its arena, so
    /// GEMM-lowered nodes allocate nothing in steady state.
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers (CMSIS-NN lowers those directly) or on a
    /// channel mismatch.
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
            // Sub-byte staging: decode the whole input once (word unpack)
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

    /// The blocked-GEMM core behind
    /// [`KernelChoice::BlockedGemm`](crate::KernelChoice::BlockedGemm):
    /// runs the layer against a prepacked weight panel built once by
    /// [`QConv2d::prepack_panels`], writing the unpacked output codes into
    /// `out_codes` (cleared and resized in place) and returning the output
    /// shape. The im2col (or sub-byte linear-unpack) expansion is drawn
    /// from `data_scratch`, and the `2·c_o` accumulators plus the
    /// epilogue's staged [`GemmTerms`] from `acc_scratch` — the arena's
    /// buffers on the graph path — so the call
    /// is allocation-free once the buffers reach steady capacity. See the
    /// [module docs](self) for the dataflow and the ledger it charges.
    ///
    /// # Panics
    ///
    /// Panics on depthwise layers, on an input channel mismatch, on a
    /// patch longer than [`MAX_DOT_LEN`] (the kernel's contract, see the
    /// [module docs](self)), or if the panels were built for a different
    /// patch length or channel count.
    // Out of line, as it was while public: inlined into its one caller,
    // `QOp::execute_kernel`, it cost the perfbench `serve_saturate`
    // workload ~4% of its samples/s on a 2-vCPU x86_64 Xeon host.
    #[inline(never)]
    pub(crate) fn execute_blocked_prepacked_pooled(
        &self,
        panels: &PackedPanels,
        x: &QActivation,
        data_scratch: &mut Vec<u8>,
        acc_scratch: &mut Vec<i32>,
        out_codes: &mut Vec<u8>,
        ops: &mut OpCounts,
    ) -> Shape {
        assert!(
            !self.weights().is_depthwise(),
            "im2col path applies to standard convolutions"
        );
        let in_shape = x.shape();
        assert_eq!(in_shape.c, self.weights().in_channels(), "input channels");
        let out_shape = self.output_shape(in_shape);
        let weights = self.weights();
        let g = self.geometry();
        let k = g.kernel_area() * in_shape.c;
        let rows = out_shape.pixels() * out_shape.n;
        let zx = x.zero_point();
        let per_channel = weights.offset().is_per_channel();
        let w_unpack = weights.needs_unpack() as u64;
        let co_n = weights.out_channels();
        assert!(
            k <= MAX_DOT_LEN,
            "patch length {k} exceeds the blocked GEMM's MAX_DOT_LEN"
        );
        assert_eq!(panels.k, k, "panels built for a different patch length");
        assert_eq!(
            panels.out_channels(),
            co_n,
            "panels built for a different channel count"
        );

        // The row-major `rows × k` input matrix. For 1×1 stride-1 layers
        // the im2col expansion is the identity: the NHWC codes are already
        // the matrix, so an 8-bit input is borrowed straight from its
        // packed storage and a sub-byte one linearly unpacked — no
        // per-element gather (same ledger charges as the gather).
        let borrowed: bool = g.kernel_area() == 1 && g.stride == 1 && !x.needs_unpack();
        let data: &[u8] = if borrowed {
            ops.act_loads += in_shape.volume() as u64;
            x.as_bytes()
        } else if g.kernel_area() == 1 && g.stride == 1 {
            let loads = in_shape.volume() as u64;
            ops.act_loads += loads;
            ops.unpacks += loads;
            x.codes_into(data_scratch);
            data_scratch
        } else {
            self.im2col_into(x, data_scratch, ops);
            data_scratch
        };
        // Per-walk setup (not per-row): this is the last gate before the
        // row loops index `data[r·k..]` unchecked-by-construction, so it
        // stays a hard assert in release builds.
        assert_eq!(data.len(), rows * k, "staged input matrix must be rows × k");

        out_codes.clear();
        out_codes.resize(out_shape.volume(), 0);
        let requant = self.requant();
        let plan = self.plan();
        let level = simd::active_level();

        acc_scratch.clear();
        acc_scratch.resize(2 * co_n + GemmTerms::scratch_len(co_n), 0);
        blocked_rows(
            requant,
            plan,
            panels,
            data,
            zx,
            level,
            rows,
            out_codes.as_mut_slice(),
            acc_scratch.as_mut_slice(),
            &mut ops.requants,
            &mut ops.threshold_cmps,
        );

        // The padded GEMM's ledger (see the module docs).
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
}

impl QLinear {
    /// The classifier head on the blocked GEMV, behind
    /// [`KernelChoice::BlockedGemm`](crate::KernelChoice::BlockedGemm):
    /// the batch items are the GEMV rows and [`simd::gemv2`] runs them in
    /// pairs against the head's [`PackedPanels`] (GEMM depth `k = c_i`),
    /// so the weights stream once per pair of items instead of once per
    /// item. Writes the `n · classes` logits into `logits` (cleared in
    /// place) in row-major `(n, classes)` order. An 8-bit input is
    /// borrowed from its packed storage and a sub-byte one unpacked once
    /// into `data_scratch`; `acc_scratch` holds the two rows'
    /// accumulators.
    ///
    /// The epilogue is the oracle's arithmetic, per class in `i64`:
    /// `Σ X·W + Bq − Zw·Σ X − Zx·base` equals `Bq + Σ (X − Zx)(W − Zw)`
    /// exactly, so after the same `i32` clamp and optional rescale the
    /// logits are [`QLinear::execute_into`]'s for any input, with no
    /// overflow gate. The ledger is the oracle's too: `n·c_i·c_o` MACs and
    /// activation loads, one unpack per MAC for each sub-byte operand, one
    /// offset subtraction per MAC under per-channel `Zw`, and one bias add,
    /// store and (with a rescale) requantization per logit.
    ///
    /// # Panics
    ///
    /// Panics if the input feature count disagrees, on more than
    /// [`MAX_DOT_LEN`] input features (the kernel's contract), or if the
    /// panels were built for another shape.
    pub(crate) fn execute_blocked_into(
        &self,
        panels: &PackedPanels,
        x: &QActivation,
        data_scratch: &mut Vec<u8>,
        acc_scratch: &mut Vec<i32>,
        logits: &mut Vec<i32>,
        ops: &mut OpCounts,
    ) {
        let k = self.in_features();
        let co_n = self.out_features();
        assert_eq!(x.shape().item_volume(), k, "input features");
        assert!(
            k <= MAX_DOT_LEN,
            "{k} input features exceed the blocked GEMM's MAX_DOT_LEN"
        );
        assert_eq!(panels.k, k, "panels built for a different input length");
        assert_eq!(
            panels.out_channels(),
            co_n,
            "panels built for a different class count"
        );
        let n = x.shape().n;
        let data: &[u8] = if x.needs_unpack() {
            x.codes_into(data_scratch);
            data_scratch
        } else {
            x.as_bytes()
        };
        assert_eq!(data.len(), n * k, "staged input matrix must be n × c_i");
        let zx = x.zero_point() as i64;
        let (zw, base, bq) = (panels.zw(), panels.base(), self.bq());
        acc_scratch.clear();
        acc_scratch.resize(2 * co_n, 0);
        logits.clear();
        gemv_rows(
            simd::active_level(),
            panels,
            data,
            n,
            acc_scratch,
            |_, accs, sx| {
                for (o, &a) in accs.iter().enumerate() {
                    let logit = a as i64 + bq[o] as i64 - zw[o] * sx - zx * base[o];
                    let v = logit.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                    logits.push(match self.rescale() {
                        Some(mults) => mults[o].apply(v),
                        None => v,
                    });
                }
            },
        );
        let macs = (n * k * co_n) as u64;
        let outputs = (n * co_n) as u64;
        ops.macs += macs;
        ops.act_loads += macs;
        ops.unpacks += (self.weights().needs_unpack() as u64 + x.needs_unpack() as u64) * macs;
        if self.weights().offset().is_per_channel() {
            ops.offset_subs += macs;
        }
        ops.bias_adds += outputs;
        ops.act_stores += outputs;
        if self.rescale().is_some() {
            ops.requants += outputs;
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

/// The dual-row GEMV sweep over the `rows` im2col rows of `data`,
/// writing their `rows × c_o` output codes into `out`; `acc` is the
/// caller's scratch: `2·c_o` accumulators, then the epilogue's
/// [`GemmTerms`].
#[allow(clippy::too_many_arguments)]
fn blocked_rows(
    requant: &Requantizer,
    plan: &RequantPlan,
    panels: &PackedPanels,
    data: &[u8],
    zx: u8,
    level: SimdLevel,
    rows: usize,
    out: &mut [u8],
    acc: &mut [i32],
    requants: &mut u64,
    threshold_cmps: &mut u64,
) {
    let co_n = panels.out_channels();
    // Hot per-block path: these stay `debug_assert` because both lengths
    // and `k ≤ MAX_DOT_LEN` are established on the cold setup path above
    // (the hard asserts in `execute_blocked_prepacked_pooled` and
    // `prepack_panels`); `mixq-verify` re-checks the same geometry
    // statically per graph (`check_dot_geometry`).
    debug_assert_eq!(out.len(), rows * co_n);
    debug_assert_eq!(acc.len(), 2 * co_n + GemmTerms::scratch_len(co_n));

    // Per-channel hoisted terms: acc = Σ X·W − Zw·Σ X − Zx·(Σ W − k·Zw),
    // the exact expansion of Σ (X − Zx)(W − Zw). `Σ W − k·Zw` is the
    // prepacked `base` table, so the epilogue stages `Bq − Zx·base` once
    // per call and only `Zw·Σ X` varies by row.
    let (acc, stage) = acc.split_at_mut(2 * co_n);
    let terms = GemmTerms::stage(plan, panels, zx, stage);
    gemv_rows(level, panels, data, rows, acc, |r, accs, sx| {
        // Fused vectorized epilogue: fold the hoisted corrections and
        // requantize in-vector (bit-identical to the per-element
        // `Requantizer::apply` loop, same ledger totals).
        simd::requant::apply_gemm_row(
            requant,
            level,
            &terms,
            accs,
            sx,
            &mut out[r * co_n..(r + 1) * co_n],
            requants,
            threshold_cmps,
        );
    });
}

/// The dual-row GEMV sweep shared by the convolution and the head: runs
/// [`simd::gemv2`] over the `rows` rows of `data` (`panels.k()` codes
/// each) two at a time, and hands each row's `Σ X·W` accumulators and
/// its `Σ X` to `epilogue(row, accs, sx)`, in row order. `acc` is the
/// two rows' `2·c_o` accumulator scratch.
fn gemv_rows(
    level: SimdLevel,
    panels: &PackedPanels,
    data: &[u8],
    rows: usize,
    acc: &mut [i32],
    mut epilogue: impl FnMut(usize, &[i32], i64),
) {
    let k = panels.k;
    let (acc0, acc1) = acc.split_at_mut(panels.out_channels());
    let mut r = 0;
    while r < rows {
        let pair = r + 1 < rows;
        let x0 = &data[r * k..r * k + k];
        let x1 = if pair {
            &data[(r + 1) * k..(r + 1) * k + k]
        } else {
            x0
        };
        acc0.fill(0);
        acc1.fill(0);
        simd::gemv2(level, x0, x1, &panels.pairs, &panels.tail, acc0, acc1);
        epilogue(r, acc0, simd::row_sum(level, x0));
        if pair {
            epilogue(r + 1, acc1, simd::row_sum(level, x1));
        }
        r += if pair { 2 } else { 1 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ActivationArena, AnyOp, Backend, KernelChoice, OpOutput, QGraph, QOp, TiledBackend,
        WeightOffset,
    };
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

    fn depthwise_conv() -> QConv2d {
        let w = QConvWeights::new(
            Shape::new(2, 3, 3, 1),
            true,
            &[0; 18],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        QConv2d::new(
            w,
            ConvGeometry::new(3, 3, 1, Padding::Same),
            Requantizer::icn(
                vec![0, 0],
                vec![FixedPointMultiplier::ZERO; 2],
                0,
                BitWidth::W8,
            ),
        )
    }

    /// Runs the layer on the blocked kernel through the graph's dispatch
    /// point, against freshly built panels.
    fn blocked(conv: &QConv2d, x: &QActivation, ops: &mut OpCounts) -> QActivation {
        let out = conv.execute_kernel(
            KernelChoice::BlockedGemm,
            Some(&conv.prepack_panels()),
            &[x],
            &mut ActivationArena::new(),
            ops,
        );
        let OpOutput::Act(y) = out else {
            unreachable!("a convolution yields an activation")
        };
        y
    }

    /// The ledger the blocked kernel charges (see the module docs), in
    /// closed form from the direct oracle's ledger `od` on the same input.
    fn blocked_ledger(conv: &QConv2d, x: &QActivation, od: &OpCounts) -> OpCounts {
        let out = conv.output_shape(x.shape());
        let co = out.c as u64;
        let k = (conv.geometry().kernel_area() * x.shape().c) as u64;
        let macs = (out.pixels() * out.n) as u64 * k * co;
        let act_loads = od.macs / co;
        OpCounts {
            macs,
            act_loads,
            unpacks: conv.weights().needs_unpack() as u64 * macs
                + x.needs_unpack() as u64 * act_loads,
            offset_subs: conv.weights().offset().is_per_channel() as u64 * macs,
            ..*od
        }
    }

    #[test]
    fn blocked_matches_direct() {
        // Shapes chosen to exercise the GEMV's vector-tile remainders:
        // co ∈ {1..6} covers sub-tile channel counts and odd remainders;
        // k ∈ {1, 3} kernels give odd and even patch lengths; odd row
        // counts exercise the single-row tail.
        for (co, ci, k, stride) in [
            (4, 3, 3, 1),
            (2, 2, 3, 2),
            (5, 4, 1, 1),
            (6, 1, 3, 1),
            (1, 3, 1, 1),
            (4, 3, 1, 2),
        ] {
            for (h, per_channel) in [(5, false), (5, true), (6, false), (6, true)] {
                let conv = make_conv(co, ci, k, stride, BitWidth::W4, per_channel);
                let x = make_input(h, h, ci, BitWidth::W8, 3);
                let mut od = OpCounts::default();
                let mut ob = OpCounts::default();
                let direct = conv.execute(&x, &mut od);
                let blocked = blocked(&conv, &x, &mut ob);
                let case = format!("co={co} ci={ci} k={k} s={stride} h={h} pc={per_channel}");
                assert_eq!(direct, blocked, "{case}");
                assert_eq!(ob, blocked_ledger(&conv, &x, &od), "{case}");
            }
        }
    }

    #[test]
    fn blocked_matches_on_sub_byte_operands() {
        for (k, h) in [(3, 5), (3, 6), (1, 6)] {
            let conv = make_conv(3, 2, k, 1, BitWidth::W2, true);
            let x = make_input(h, 5, 2, BitWidth::W4, 0);
            let mut od = OpCounts::default();
            let mut ob = OpCounts::default();
            assert_eq!(conv.execute(&x, &mut od), blocked(&conv, &x, &mut ob));
            assert_eq!(ob, blocked_ledger(&conv, &x, &od), "k={k} h={h}");
        }
    }

    #[test]
    fn blocked_handles_nonzero_input_zero_point() {
        // The hoisted Zx·ΣW' correction must reproduce the padded taps'
        // zero contribution exactly.
        let conv = make_conv(4, 2, 3, 1, BitWidth::W8, true);
        let x = make_input(4, 4, 2, BitWidth::W8, 7);
        let mut od = OpCounts::default();
        let mut ob = OpCounts::default();
        assert_eq!(conv.execute(&x, &mut od), blocked(&conv, &x, &mut ob));
    }

    #[test]
    fn weight_bound_past_i32_takes_the_oracle() {
        // Per-channel Zw = −32768 on W8 weights with k = 3·3·32 = 288:
        // 255·Σ|w − Zw| ≈ 2.4·10^9 exceeds i32, so the epilogue's i32
        // lanes could not hold Φ + Bq. The layer requantizes through the
        // scalar oracle and still equals the direct kernel.
        let (co, ci) = (5, 32);
        let wshape = Shape::new(co, 3, 3, ci);
        let codes: Vec<u8> = (0..wshape.volume())
            .map(|i| ((i * 37 + 11) % 256) as u8)
            .collect();
        let weights = QConvWeights::new(
            wshape,
            false,
            &codes,
            BitWidth::W8,
            WeightOffset::PerChannel(vec![i16::MIN; co]),
        );
        let requant = Requantizer::icn(
            (0..co).map(|c| c as i32 * 1000 - 2000).collect(),
            (0..co)
                .map(|c| FixedPointMultiplier::from_real(2e-9 * (c + 1) as f64))
                .collect(),
            2,
            BitWidth::W8,
        );
        let conv = QConv2d::new(weights, ConvGeometry::new(3, 3, 1, Padding::Same), requant);
        assert!(conv.prepack_panels().weight_bound() > i32::MAX as i64);
        let x = make_input(5, 5, ci, BitWidth::W8, 4);
        let (mut od, mut ob) = (OpCounts::default(), OpCounts::default());
        let direct = conv.execute(&x, &mut od);
        let codes = direct.codes();
        assert!(codes.iter().any(|&c| c != codes[0]), "codes must vary");
        assert_eq!(direct, blocked(&conv, &x, &mut ob));
        assert_eq!(ob, blocked_ledger(&conv, &x, &od));
    }

    /// A 1×1 dense conv over `ci` input channels whose multipliers keep
    /// the codes of patches near [`MAX_DOT_LEN`] off the clamp rails.
    fn long_pointwise(ci: usize) -> QConv2d {
        let conv = make_conv(3, ci, 1, 1, BitWidth::W8, true);
        let requant = Requantizer::icn(
            vec![0, -1000, 1000],
            (1..=3)
                .map(|c| FixedPointMultiplier::from_real(1e-8 * c as f64))
                .collect(),
            2,
            BitWidth::W4,
        );
        QConv2d::new(conv.weights().clone(), conv.geometry(), requant)
    }

    #[test]
    fn contract_length_patch_runs_blocked() {
        // k = MAX_DOT_LEN, the longest patch the one i32 run takes.
        let conv = long_pointwise(MAX_DOT_LEN);
        assert!(conv
            .supported_kernels()
            .contains(&KernelChoice::BlockedGemm));
        let x = make_input(1, 1, MAX_DOT_LEN, BitWidth::W8, 3);
        let (mut od, mut ob) = (OpCounts::default(), OpCounts::default());
        let direct = conv.execute(&x, &mut od);
        let codes = direct.codes();
        assert!(codes.iter().any(|&c| c != codes[0]), "codes must vary");
        assert_eq!(direct, blocked(&conv, &x, &mut ob));
        assert_eq!(ob, blocked_ledger(&conv, &x, &od));
    }

    #[test]
    fn past_contract_patch_runs_direct() {
        // k = MAX_DOT_LEN + 1: only the direct loop's i64 accumulation is
        // offered, so even the tiled backend keeps the layer direct.
        let k = MAX_DOT_LEN + 1;
        let conv = long_pointwise(k);
        assert_eq!(conv.supported_kernels(), &[KernelChoice::DirectConv]);
        let x = make_input(1, 1, k, BitWidth::W8, 3);
        let backend = TiledBackend::default();
        let op = AnyOp::Conv(conv.clone());
        assert_eq!(
            backend.select(&op, &[x.shape()], &[BitWidth::W8]),
            KernelChoice::DirectConv
        );
        let mut g = QGraph::with_input(x.shape(), BitWidth::W8);
        g.push("pw", conv.clone());
        g.select_kernels(&backend);
        assert_eq!(g.kernel_choices(), vec![KernelChoice::DirectConv]);
        let mut ops = OpCounts::default();
        let direct = conv.execute(&x, &mut ops);
        let run = g.run(x);
        assert_eq!(run.total_ops(), ops);
        assert_eq!(run.output, Some(direct));
    }

    #[test]
    #[should_panic(expected = "MAX_DOT_LEN")]
    fn blocked_rejects_past_contract_patch() {
        let k = MAX_DOT_LEN + 1;
        let x = make_input(1, 1, k, BitWidth::W8, 3);
        let _ = blocked(&long_pointwise(k), &x, &mut OpCounts::default());
    }

    /// A `classes × ci` head with codes from `seed`, a per-layer or
    /// per-channel (negative) `Zw`, biases `bq` and an optional rescale.
    fn make_head(
        classes: usize,
        ci: usize,
        wbits: BitWidth,
        per_channel: bool,
        bq: i32,
        rescale: bool,
    ) -> QLinear {
        let codes: Vec<u8> = (0..classes * ci)
            .map(|i| ((i * 37 + 11) % wbits.levels() as usize) as u8)
            .collect();
        let offset = if per_channel {
            WeightOffset::PerChannel((0..classes).map(|c| c as i16 % 7 - 3).collect())
        } else {
            WeightOffset::PerLayer(2)
        };
        QLinear::new(
            QConvWeights::new(Shape::new(classes, 1, 1, ci), false, &codes, wbits, offset),
            (0..classes as i32)
                .map(|c| bq.saturating_add(c * 5 - 7))
                .collect(),
            rescale.then(|| {
                (0..classes)
                    .map(|c| FixedPointMultiplier::from_real(0.3 + c as f64 * 0.05))
                    .collect()
            }),
        )
    }

    /// The ledger of both head kernels in closed form (see
    /// [`QLinear::execute_blocked_into`]).
    fn head_ledger(head: &QLinear, x: &QActivation) -> OpCounts {
        let n = x.shape().n as u64;
        let (ci, co) = (head.in_features() as u64, head.out_features() as u64);
        let macs = n * ci * co;
        OpCounts {
            macs,
            act_loads: macs,
            unpacks: (head.weights().needs_unpack() as u64 + x.needs_unpack() as u64) * macs,
            offset_subs: head.weights().offset().is_per_channel() as u64 * macs,
            bias_adds: n * co,
            act_stores: n * co,
            requants: head.rescale().is_some() as u64 * n * co,
            ..OpCounts::default()
        }
    }

    /// Runs the head's blocked GEMV through its dispatch point, against
    /// the panels a graph node caches ([`QOp::prepack`]).
    fn blocked_head(head: &QLinear, x: &QActivation) -> (Vec<i32>, OpCounts) {
        let (panels, _) = head.prepack(KernelChoice::BlockedGemm);
        let (mut logits, mut ops) = (Vec::new(), OpCounts::default());
        head.execute_kernel_into(
            KernelChoice::BlockedGemm,
            panels.as_ref(),
            x,
            &mut ActivationArena::new(),
            &mut logits,
            &mut ops,
        );
        (logits, ops)
    }

    #[test]
    fn blocked_head_matches_the_oracle_and_its_ledger() {
        // Classes below, at and past one 8-lane vector; odd and even
        // feature counts; odd and even batches (the single-row tail);
        // sub-byte operands on either side; biases at the i32 rails, so
        // the exact i64 epilogue must clamp as the oracle does.
        for (classes, ci, n, wbits, xbits, per_channel, bq, rescale) in [
            (3, 4, 1, BitWidth::W4, BitWidth::W8, false, 0, false),
            (8, 7, 2, BitWidth::W8, BitWidth::W8, true, -50, true),
            (13, 16, 3, BitWidth::W2, BitWidth::W4, true, 100, false),
            (40, 9, 5, BitWidth::W4, BitWidth::W2, false, 7, true),
            (1, 33, 4, BitWidth::W8, BitWidth::W4, true, i32::MAX, false),
            (11, 64, 2, BitWidth::W8, BitWidth::W8, true, i32::MIN, true),
        ] {
            let head = make_head(classes, ci, wbits, per_channel, bq, rescale);
            let shape = Shape::new(n, 1, 1, ci);
            let codes: Vec<u8> = (0..shape.volume())
                .map(|i| ((i * 5 + 1) % xbits.levels() as usize) as u8)
                .collect();
            let x = QActivation::from_codes(shape, &codes, xbits, 1);
            let (mut want, mut od) = (Vec::new(), OpCounts::default());
            head.execute_into(&x, &mut want, &mut od);
            let case = format!("classes={classes} ci={ci} n={n} {wbits:?}/{xbits:?}");
            assert_eq!(od, head_ledger(&head, &x), "oracle: {case}");
            if bq == i32::MAX {
                assert!(want.contains(&i32::MAX), "{case}: must clamp at the rail");
            }
            let (got, ob) = blocked_head(&head, &x);
            assert_eq!(got, want, "{case}");
            assert_eq!(ob, od, "{case}");
        }
    }

    #[test]
    fn contract_length_head_runs_blocked() {
        // c_i = MAX_DOT_LEN with all-max codes: the GEMV's i32 lanes hold
        // 32768·255² exactly, and the i64 epilogue adds the corrections.
        let ci = MAX_DOT_LEN;
        let head = QLinear::new(
            QConvWeights::new(
                Shape::new(2, 1, 1, ci),
                false,
                &vec![255; 2 * ci],
                BitWidth::W8,
                WeightOffset::PerChannel(vec![-3, 200]),
            ),
            vec![-1000, 1000],
            None,
        );
        assert!(head
            .supported_kernels()
            .contains(&KernelChoice::BlockedGemm));
        let x = QActivation::from_codes(Shape::vector(ci), &vec![255; ci], BitWidth::W8, 0);
        let (mut want, mut od) = (Vec::new(), OpCounts::default());
        head.execute_into(&x, &mut want, &mut od);
        let (got, ob) = blocked_head(&head, &x);
        assert_eq!(got, want);
        assert_eq!(ob, od);
    }

    #[test]
    #[should_panic(expected = "MAX_DOT_LEN")]
    fn blocked_head_rejects_past_contract_features() {
        let ci = MAX_DOT_LEN + 1;
        let head = make_head(1, ci, BitWidth::W8, false, 0, false);
        assert_eq!(head.supported_kernels(), &[KernelChoice::DirectConv]);
        let x = make_input(1, 1, ci, BitWidth::W8, 0);
        let _ = blocked_head(&head, &x);
    }

    #[test]
    fn im2col_geometry() {
        let conv = make_conv(2, 3, 3, 2, BitWidth::W8, false);
        let x = make_input(8, 8, 3, BitWidth::W8, 5);
        let mut ops = OpCounts::default();
        let mut data = Vec::new();
        let (rows, k) = conv.im2col_into(&x, &mut data, &mut ops);
        assert_eq!(rows, 4 * 4);
        assert_eq!(k, 9 * 3);
        assert_eq!(data.len(), 16 * 27);
        assert_eq!(im2col_scratch_bytes(&conv, x.shape()), 16 * 27);
    }

    #[test]
    fn im2col_pads_with_zero_point() {
        // 1x1 input, 3x3 kernel: every tap except the centre is padding.
        let conv = make_conv(1, 1, 3, 1, BitWidth::W8, false);
        let x = QActivation::from_codes(Shape::feature_map(1, 1, 1), &[9], BitWidth::W8, 7);
        let mut ops = OpCounts::default();
        let mut data = Vec::new();
        let (_, k) = conv.im2col_into(&x, &mut data, &mut ops);
        let row = &data[..k];
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
    fn im2col_depthwise_rejected() {
        let x = make_input(4, 4, 2, BitWidth::W8, 0);
        let mut ops = OpCounts::default();
        let _ = depthwise_conv().im2col_into(&x, &mut Vec::new(), &mut ops);
    }

    #[test]
    #[should_panic(expected = "standard convolutions")]
    fn depthwise_rejected() {
        let _ = depthwise_conv().prepack_panels();
    }
}
