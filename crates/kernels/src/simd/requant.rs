//! Channel-vectorized requantization epilogue.
//!
//! Every convolution ends in the per-element [`Requantizer::apply`] step
//! that turns an accumulator `Φ` into an output code. This module
//! vectorizes that stage across output channels — the per-channel
//! `M0·2^N0` fixed-point multipliers (or threshold tables) become SIMD
//! lanes — the fused scale-clamp-pack epilogue the paper's deployment
//! stack relies on for MCU throughput (Bruschi et al. 2020; Ottavi et al.
//! 2020 bake the same epilogue into hardware).
//!
//! Everything here is **bit-identical** to the scalar [`Requantizer::apply`]
//! path and charges the *same* `requants`/`cmps` ledger totals, so modeled
//! Cortex-M7 cycles are invariant under the host SIMD level (the ledgers
//! model MCU work, not host work — see `tests/deployment_consistency.rs`).
//!
//! Layout: [`RequantPlan`] is a SIMD-friendly transposition of a
//! [`Requantizer`] built once per layer ([`crate::QConv2d::new`] owns one).
//! The entry points take an explicit [`SimdLevel`] and fall back to the
//! scalar `Requantizer::apply` loop for whatever the vector kernels cannot
//! prove exact. Both requantizing entries take `i32` accumulators:
//! [`apply_gemm_row`] the blocked GEMM's rows, [`apply_i32_block`] the
//! depthwise core's blocks. The residual add's table loop lives in
//! [`crate::QAdd::execute_codes`].
//!
//! # The 8 × i32 fixed-point kernel (AVX2)
//!
//! The scalar oracle computes `clamp(Zy + sat32((M0·sat32(Φ + Bq)) >> s),
//! 0, qmax)` with `s = 31 − N0` (any `s ≥ 63` acts as 63). The AVX2 kernel
//! does the same in eight `i32` lanes, the way the Cortex-M7 does it with
//! one `SMULL` per output:
//!
//! 1. `v = Φ + Bq` in wrapping `i32` lanes;
//! 2. `v` is clamped per channel to `±L`, `L = ⌈B·2^s / |M0|⌉` saturated at
//!    `i32::MAX`, with `B = qmax + |Zy| + 1`;
//! 3. `pmuldq` multiplies even and odd lanes to 64 bits;
//! 4. the arithmetic shift is the xor-bias logical shift
//!    `asr(x, s) = ((x ⊕ 2^63) >>ᵤ s) − (2^63 >>ᵤ s)` (`srlv`), whose bias
//!    is subtracted after narrowing back to `i32`;
//! 5. `clamp(r, −Zy, qmax − Zy) + Zy` (`pmaxsd`/`pminsd`), then `packus`
//!    narrows eight codes per iteration.
//!
//! Both entry points run the same loop; they differ only in the addend `b`
//! with `acc + b = Φ + Bq`. [`apply_i32_block`] adds the plan's `Bq`; the
//! blocked GEMM's [`apply_gemm_row`] adds `(Bq − Zx·base) − Zw·ΣX`, the
//! hoisted corrections of Eq. 4 with the first term staged once per node
//! call ([`GemmTerms`]). Three gates make each step exact:
//!
//! * **`Φ + Bq` fits `i32`.** `b` is exact in `i32`: for a GEMM row,
//!   [`GemmTerms`] bounds `|Bq − Zx·base| + max|Zw|·|ΣX|` per row, and a
//!   row past `i32` takes the oracle. The loop then detects `acc + b`
//!   overflow in-vector and hands that vector to the scalar oracle, so both
//!   entries take any accumulators. On genuine GEMV rows the overflow never
//!   fires: `|Σ (X − Zx)(W − Zw)| ≤ 255·Σ |W − Zw|`, and a layer whose
//!   [`PackedPanels::weight_bound`](crate::PackedPanels::weight_bound) plus
//!   `max |Bq|` exceeds `i32::MAX` takes the oracle whole.
//! * **The shifted product fits `i32`.** Past `±L` every code is already
//!   saturated (`|r| ≥ B > qmax + |Zy|`), so the clamp in step 2 changes no
//!   code; inside `±L`, `|M0·v| >> s < 2^31`. This holds for every shift in
//!   `[0, 63]`, so [`RequantPlan::vectorizable`] stays "every shift ≥ 0".
//! * **`Zy` is a sane zero-point.** `|Zy| ≤ 2^24` keeps `B`, `−Zy` and
//!   `qmax − Zy` inside `i32`; plans past it take the oracle.
//!
//! Lanes past the last multiple of 8 stay in-vector: the plan's tables are
//! padded cyclically (lane `l` holds channel `l mod C`), so a tail loads a
//! full vector and keeps only its codes; a 4-channel GEMM row is one
//! vector.
//!
//! # Thresholds
//!
//! `ThresholdChannel::eval` is a binary search whose result equals the
//! number of thresholds `≤ Φ` (ascending) or `≥ Φ` (descending) — the
//! tables are monotone, so a branchless compare-accumulate over all
//! entries produces the same `lo`. Both compares are evaluated and blended
//! by a per-channel flip mask, which avoids any negation of `i64::MIN`.
//! The AVX2 kernel runs 4 × `i64` lanes.
//!
//! SSE2 hosts requantize through the scalar oracle: their 64-bit-lane
//! emulation lost to it. NEON keeps its 2 × `i64` lane kernels.

use crate::requant::Requantizer;
use crate::simd::SimdLevel;
use crate::PackedPanels;

/// Lanes each per-lane table carries past the plan's last lane, so a
/// vector starting at any lane reads 8 valid entries.
const PAD: usize = 7;

/// Largest `|Zy|` the 8 × `i32` fixed-point kernel takes (see the module
/// docs); real zero-points lie in `[0, qmax]`.
const ZY_MAX: i64 = 1 << 24;

/// Lanes staged per chunk when NEON widens `i32` accumulators to the
/// `i64` lanes of its kernels.
#[cfg(target_arch = "aarch64")]
const PHI_CHUNK: usize = 64;

/// SIMD-friendly transposition of a [`Requantizer`]: per-channel multiplier
/// mantissas, shifts and saturation limits (or transposed threshold tables)
/// laid out for contiguous vector loads. Built once per layer; building
/// never fails — plans the vector kernels cannot express are marked
/// non-vectorizable and every entry point then takes the scalar path.
///
/// A plan's lanes are the requantizer's channels, or — for a
/// [`RequantPlan::tiled`] plan — those channels repeated, so lane `l`
/// requantizes like channel `l mod C`. The fixed-point tables carry 7
/// cyclic padding entries past the last lane, so a vector that starts at
/// any lane loads 8 valid entries.
///
/// Measured epilogue cost per output element on a 2-vCPU x86_64 AVX2 host
/// (`kernel_microbench`'s `epilogue` group, ICN W4): `apply_gemm_row`
/// 0.8–1.5 ns at c_o ≥ 32, 1.5–2.3 ns at c_o ∈ {8, 16} and 5.8 ns at
/// c_o = 4, where one vector per call is latency-bound; `apply_i32_block`
/// 0.7–1.0, 1.4–2.2 and 4.5 ns; the scalar oracle 6.1–11.7 ns.
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
    /// broadcasts its single multiplier to every channel). Every table is
    /// cyclically padded by [`PAD`] lanes.
    Fixed {
        /// Every shift `31 − n0 ≥ 0`; a channel with `n0 > 31` (the scalar
        /// `apply`'s saturating left shift) keeps the layer scalar.
        ok: bool,
        bq: Vec<i32>,
        /// `max |bq|`, the plan's share of the blocked GEMM's `i32` gate.
        bq_max: i64,
        m0: Vec<i32>,
        /// `min(31 − n0, 63)` — the scalar `apply` collapses any shift ≥ 63
        /// to `prod >> 63`, so the clamp is exact.
        shift: Vec<i32>,
        /// The saturation limit `L` of each channel (see the module docs).
        lim: Vec<i32>,
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

/// `v` followed by its first [`PAD`] entries again (cyclically): entry `l`
/// is `v[l mod v.len()]`.
fn cyclic<T: Copy>(v: &[T]) -> Vec<T> {
    v.iter().copied().cycle().take(v.len() + PAD).collect()
}

/// The saturation limit `L = ⌈B·2^s / |M0|⌉`, saturated at `i32::MAX`:
/// for `|v| ≥ L` the code is already `0` or `qmax`.
fn saturation_limit(m0: i32, shift: u32, b: u128) -> i32 {
    let m = m0.unsigned_abs() as u128;
    if m == 0 {
        return i32::MAX;
    }
    (b << shift).div_ceil(m).min(i32::MAX as u128) as i32
}

impl RequantPlan {
    /// Builds the vector plan for `req`. Infallible: inexpressible
    /// requantizers yield a plan that always takes the scalar path.
    pub fn new(req: &Requantizer) -> Self {
        let zy = req.zero_point() as i64;
        let qmax = req.out_bits().qmax() as i64;
        let kind = match req {
            Requantizer::FoldedPerLayer { bq, mult, .. } => {
                Self::fixed_kind(bq, &vec![*mult; bq.len()], zy, qmax)
            }
            Requantizer::Icn { bq, mult, .. } => Self::fixed_kind(bq, mult, zy, qmax),
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
        let n = self.channels();
        let kind = match &self.kind {
            PlanKind::Fixed {
                ok,
                bq,
                bq_max,
                m0,
                shift,
                lim,
            } => PlanKind::Fixed {
                ok: *ok,
                bq: cyclic(&bq[..n].repeat(reps)),
                bq_max: *bq_max,
                m0: cyclic(&m0[..n].repeat(reps)),
                shift: cyclic(&shift[..n].repeat(reps)),
                lim: cyclic(&lim[..n].repeat(reps)),
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
                // Threshold `t` of every lane stays one contiguous row.
                let thr_t = thr_t
                    .chunks_exact(n.max(1))
                    .flat_map(|row| row.repeat(reps))
                    .collect();
                let mut tiled_cost = Vec::with_capacity(n * reps + 1);
                tiled_cost.push(0);
                for r in 0..reps {
                    let offset = r as u64 * cost[n];
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

    fn fixed_kind(
        bq: &[i32],
        mult: &[mixq_quant::FixedPointMultiplier],
        zy: i64,
        qmax: i64,
    ) -> PlanKind {
        // B > qmax + |Zy|: past ±L every code is saturated.
        let b = (qmax + zy.abs() + 1) as u128;
        let mut ok = true;
        let mut m0 = Vec::with_capacity(mult.len());
        let mut shift = Vec::with_capacity(mult.len());
        let mut lim = Vec::with_capacity(mult.len());
        for m in mult {
            if m.shift() < 0 {
                // `checked_shl` left-shift branch of the scalar apply —
                // never produced by `FixedPointMultiplier::from_real` for
                // sane scales; keep the whole layer scalar.
                ok = false;
            }
            let s = m.shift().clamp(0, 63);
            m0.push(m.mantissa());
            shift.push(s);
            lim.push(saturation_limit(m.mantissa(), s as u32, b));
        }
        PlanKind::Fixed {
            ok,
            bq: cyclic(bq),
            bq_max: bq.iter().map(|&b| (b as i64).abs()).max().unwrap_or(0),
            m0: cyclic(&m0),
            shift: cyclic(&shift),
            lim: cyclic(&lim),
        }
    }

    /// Whether the vector kernels can express this plan at all: every
    /// fixed-point shift `31 − N0 ≥ 0`, or threshold tables of ≤ 15
    /// entries (the entry points degrade to the scalar path per call
    /// regardless, e.g. for an `i32` overflow).
    pub fn vectorizable(&self) -> bool {
        match &self.kind {
            PlanKind::Fixed { ok, .. } | PlanKind::Thresh { ok, .. } => *ok,
        }
    }

    /// Whether the AVX2 kernels can run this plan: it is vectorizable and,
    /// for fixed point, `|Zy| ≤ 2^24` (see the module docs).
    fn avx2_ok(&self) -> bool {
        match &self.kind {
            PlanKind::Fixed { ok, .. } => *ok && self.zy.abs() <= ZY_MAX,
            PlanKind::Thresh { ok, .. } => *ok,
        }
    }

    /// `Bq` of channel `c` (0 for threshold plans, whose tables fold it in).
    fn bias(&self, c: usize) -> i64 {
        match &self.kind {
            PlanKind::Fixed { bq, .. } => bq[c] as i64,
            PlanKind::Thresh { .. } => 0,
        }
    }

    /// `max |Bq|` over the channels (0 for threshold plans).
    fn bias_max(&self) -> i64 {
        match &self.kind {
            PlanKind::Fixed { bq_max, .. } => *bq_max,
            PlanKind::Thresh { .. } => 0,
        }
    }

    /// Lanes covered: the requantizer's channels, times the repetitions of
    /// a [`RequantPlan::tiled`] plan.
    pub fn channels(&self) -> usize {
        match &self.kind {
            PlanKind::Fixed { bq, .. } => bq.len().saturating_sub(PAD),
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

/// `req.apply` on plan lane `lane`, ledger discarded: the fixed-point
/// kernels that fall back per vector charge one requant per element for
/// the whole block, as the scalar loop does.
#[cfg(target_arch = "x86_64")]
fn oracle(req: &Requantizer, lane: usize, phi: i64) -> u8 {
    let (mut requants, mut cmps) = (0, 0);
    req.apply(
        channel_of(lane, req.channels()),
        phi,
        &mut requants,
        &mut cmps,
    )
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

/// Requantizes a block of `i32` accumulators (`Φ = acc`) for lanes
/// `c0..c0 + accs.len()` — the depthwise fast core's epilogue.
/// Bit-identical to calling `req.apply((c0 + i) mod C, accs[i], ..)` per
/// element (`C` the requantizer's channels; the identity unless the plan
/// is [`RequantPlan::tiled`]), with identical ledger totals. Takes any
/// accumulators: a vector whose `acc + Bq` overflows `i32` is handed to
/// the scalar oracle.
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
    assert!(c0 + accs.len() <= plan.channels(), "channel range overflow");
    let done = vector_i32(plan, req, level, c0, accs, out);
    plan.charge(c0, done, requants, cmps);
    for i in done..accs.len() {
        out[i] = req.apply(
            channel_of(c0 + i, req.channels()),
            accs[i] as i64,
            requants,
            cmps,
        );
    }
}

/// The row-invariant operands of the blocked GEMM's fused epilogue,
/// staged once per node call from a layer's plan and panels: `Zw` and
/// `Bq − Zx·base` per channel as `i32`, cyclically padded like the plan's
/// tables, and the largest `|ΣX|` whose row addend
/// `(Bq − Zx·base) − Zw·ΣX` still fits `i32` (see the module docs).
#[derive(Debug)]
pub struct GemmTerms<'a> {
    plan: &'a RequantPlan,
    panels: &'a PackedPanels,
    zx: i64,
    zw: &'a [i32],
    cterm: &'a [i32],
    /// `None` when the layer fails the `i32` gate, else the largest `|ΣX|`
    /// a row may have to take the vector path.
    sx_max: Option<u64>,
}

impl<'a> GemmTerms<'a> {
    /// The `i32` scratch [`GemmTerms::stage`] needs for `channels` output
    /// channels.
    pub fn scratch_len(channels: usize) -> usize {
        2 * (channels + PAD)
    }

    /// Stages the terms of `plan` over `panels` for input zero-point `zx`
    /// into `scratch` (at least [`GemmTerms::scratch_len`] long).
    ///
    /// # Panics
    ///
    /// Panics if the plan and the panels cover different channel counts
    /// or `scratch` is too short.
    pub fn stage(
        plan: &'a RequantPlan,
        panels: &'a PackedPanels,
        zx: u8,
        scratch: &'a mut [i32],
    ) -> Self {
        let co = panels.out_channels();
        assert_eq!(plan.channels(), co, "plan/panels channel mismatch");
        assert!(
            scratch.len() >= Self::scratch_len(co),
            "GEMM term scratch too short"
        );
        let fast =
            co > 0 && plan.avx2_ok() && panels.weight_bound() + plan.bias_max() <= i32::MAX as i64;
        let (zw, rest) = scratch.split_at_mut(co + PAD);
        let cterm = &mut rest[..co + PAD];
        let zx = zx as i64;
        let mut sx_max = None;
        if fast {
            // `|Zx·base| ≤ weight_bound`, so the gate above keeps every
            // `Bq − Zx·base` and `Zw` (`|Zw| ≤ 2^15`) inside `i32`.
            let (mut zw_max, mut cterm_max) = (0u64, 0u64);
            for l in 0..co + PAD {
                let c = l % co;
                let ct = plan.bias(c) - zx * panels.base()[c];
                zw[l] = panels.zw()[c] as i32;
                cterm[l] = ct as i32;
                zw_max = zw_max.max(panels.zw()[c].unsigned_abs());
                cterm_max = cterm_max.max(ct.unsigned_abs());
            }
            sx_max = Some((i32::MAX as u64 - cterm_max) / zw_max.max(1));
        }
        GemmTerms {
            plan,
            panels,
            zx,
            zw,
            cterm,
            sx_max,
        }
    }

    /// Whether a row with code sum `sx` takes the AVX2 kernel: the layer
    /// passed the `i32` gate and the row's addend fits `i32`.
    fn row_fits(&self, sx: i64) -> bool {
        self.sx_max.is_some_and(|m| sx.unsigned_abs() <= m)
    }

    /// `Φ` of channel `c` for accumulator `acc` of a row with sum `sx`,
    /// exact in `i64` (the scalar oracle's operand).
    fn phi(&self, c: usize, acc: i32, sx: i64) -> i64 {
        acc as i64 - self.panels.zw()[c] * sx - self.zx * self.panels.base()[c]
    }
}

/// The fused blocked-GEMM epilogue: for every output channel `c` of one
/// row with code sum `sx`, computes `Φ = acc[c] − Zw[c]·sx − Zx·base[c]`
/// (the hoisted zero-point correction of Eq. 4) and requantizes it.
/// Bit-identical to `req.apply(c, Φ, ..)` per element, with identical
/// ledger totals, for any accumulators and any row sum whose `Zw·sx`
/// fits `i64`; `req` is the requantizer whose plan the terms were staged
/// with.
///
/// # Panics
///
/// Panics unless `accs` and `out` hold the terms' `c_o` channels.
#[allow(clippy::too_many_arguments)]
pub fn apply_gemm_row(
    req: &Requantizer,
    level: SimdLevel,
    terms: &GemmTerms<'_>,
    accs: &[i32],
    sx: i64,
    out: &mut [u8],
    requants: &mut u64,
    cmps: &mut u64,
) {
    let co = terms.panels.out_channels();
    assert_eq!(accs.len(), co, "acc/channel length mismatch");
    assert_eq!(out.len(), co, "acc/out length mismatch");
    let done = vector_gemm(req, level, terms, accs, sx, out);
    terms.plan.charge(0, done, requants, cmps);
    for c in done..co {
        out[c] = req.apply(c, terms.phi(c, accs[c], sx), requants, cmps);
    }
}

/// Dispatches the `i32`-accumulator vector kernel (see
/// [`apply_i32_block`]); returns how many leading elements were handled.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn vector_i32(
    plan: &RequantPlan,
    req: &Requantizer,
    level: SimdLevel,
    c0: usize,
    accs: &[i32],
    out: &mut [u8],
) -> usize {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 positively detected (`level` comes from runtime
        // feature detection); `avx2_ok` is the kernel's gate (shifts in
        // [0, 63], `|Zy| ≤ 2^24`, tables of ≤ 15 entries) and the caller
        // checked `c0 + accs.len() ≤ plan.channels()`, so every table
        // load stays inside the padded tables.
        SimdLevel::Avx2 if plan.avx2_ok() => unsafe {
            x86::block_avx2(plan, req, c0, accs, x86::Addend::Bias, out)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon if plan.vectorizable() => {
            // NEON's kernels run `i64` lanes: widen chunk by chunk. Every
            // chunk but the last is even, so the handled lanes stay a
            // prefix.
            let mut phis = [0i64; PHI_CHUNK];
            let mut done = 0;
            for (i, (a, o)) in accs
                .chunks(PHI_CHUNK)
                .zip(out.chunks_mut(PHI_CHUNK))
                .enumerate()
            {
                for (p, &x) in phis.iter_mut().zip(a) {
                    *p = x as i64;
                }
                // SAFETY: NEON is baseline on aarch64; the plan is
                // vectorizable and the lanes lie inside it.
                done += unsafe { neon::phi_neon(plan, c0 + i * PHI_CHUNK, &phis[..a.len()], o) };
            }
            done
        }
        _ => 0,
    }
}

/// Dispatches the fused GEMM-row vector kernel (see [`apply_gemm_row`]);
/// returns how many leading channels were handled.
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(unused_variables)
)]
fn vector_gemm(
    req: &Requantizer,
    level: SimdLevel,
    terms: &GemmTerms<'_>,
    accs: &[i32],
    sx: i64,
    out: &mut [u8],
) -> usize {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 positively detected; `row_fits` implies the layer
        // passed the `i32` gate (which includes `avx2_ok`) and that the
        // row's addend fits `i32`; `accs` covers exactly the staged
        // channels, so every load stays inside the cyclic padding.
        SimdLevel::Avx2 if terms.row_fits(sx) => unsafe {
            x86::block_avx2(
                terms.plan,
                req,
                0,
                accs,
                x86::Addend::Row {
                    cterm: terms.cterm,
                    zw: terms.zw,
                    sx: sx as i32,
                },
                out,
            )
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon
            if terms.plan.vectorizable()
                && corrections_fit_i32(sx, terms.zx, terms.panels.zw(), terms.panels.base()) =>
        {
            // SAFETY: NEON is baseline on aarch64; the plan is vectorizable
            // and every 32×32→64 correction operand fits `i32`.
            unsafe {
                neon::gemm_neon(
                    terms.plan,
                    accs,
                    sx,
                    terms.zx,
                    terms.panels.zw(),
                    terms.panels.base(),
                    out,
                )
            }
        }
        _ => 0,
    }
}

/// The NEON GEMM kernel computes `zw·sx` and `zx·wbase` as 32×32→64
/// multiplies, so every operand must fit `i32` — always true on the
/// blocked path; the scan keeps an exotic caller correct by falling back
/// to scalar instead of silently wrapping.
#[cfg(target_arch = "aarch64")]
fn corrections_fit_i32(sx: i64, zx: i64, zw: &[i64], wbase: &[i64]) -> bool {
    let fits = |v: i64| v >= i32::MIN as i64 && v <= i32::MAX as i64;
    fits(sx) && fits(zx) && zw.iter().copied().all(fits) && wbase.iter().copied().all(fits)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{oracle, PlanKind, RequantPlan};
    use crate::requant::Requantizer;
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4_codes(v: __m256i, out: *mut u8) {
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        for (j, &l) in lanes.iter().enumerate() {
            *out.add(j) = l as u8;
        }
    }

    /// Loads up to 8 lanes; missing lanes read 0. A short `src` takes a
    /// masked load, which touches no memory past it.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_lanes(src: &[i32]) -> __m256i {
        if src.len() == 8 {
            _mm256_loadu_si256(src.as_ptr() as *const __m256i)
        } else {
            let mask = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(src.len() as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            _mm256_maskload_epi32(src.as_ptr(), mask)
        }
    }

    /// Narrows 8 codes in `[0, 255]` with two `packus` and stores the
    /// first `out.len() ≤ 8` of them.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_codes(codes: __m256i, out: &mut [u8]) {
        let w = _mm256_packus_epi32(codes, codes);
        let b = _mm256_packus_epi16(w, w);
        // Each 128-bit half holds its four codes in its first dword.
        let lanes = _mm_unpacklo_epi32(_mm256_castsi256_si128(b), _mm256_extracti128_si256::<1>(b));
        if out.len() == 8 {
            _mm_storel_epi64(out.as_mut_ptr() as *mut __m128i, lanes);
        } else {
            // A short tail: fixed-width stores from the low qword.
            let mut bits = _mm_cvtsi128_si64(lanes) as u64;
            let mut rest = out;
            if rest.len() >= 4 {
                rest[..4].copy_from_slice(&(bits as u32).to_le_bytes());
                bits >>= 32;
                rest = &mut rest[4..];
            }
            for o in rest {
                *o = bits as u8;
                bits >>= 8;
            }
        }
    }

    /// The per-plan constants of [`fixed8`]: `−Zy`, `qmax − Zy`, `Zy`.
    #[derive(Clone, Copy)]
    struct OutRange {
        lo: __m256i,
        hi: __m256i,
        zy: __m256i,
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn out_range(plan: &RequantPlan) -> OutRange {
        // `avx2_ok` bounds |Zy| by 2^24, so all three fit i32.
        OutRange {
            lo: _mm256_set1_epi32(-plan.zy as i32),
            hi: _mm256_set1_epi32((plan.qmax - plan.zy) as i32),
            zy: _mm256_set1_epi32(plan.zy as i32),
        }
    }

    /// The 8 × `i32` fixed-point requant of `v = Φ + Bq` (exact in `i32`)
    /// on lanes whose tables start at `m0`/`shift`/`lim`: the steps and
    /// their exactness are in the module docs. Returns codes in `[0, qmax]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fixed8(
        v: __m256i,
        m0: *const i32,
        shift: *const i32,
        lim: *const i32,
        range: OutRange,
    ) -> __m256i {
        let lim = _mm256_loadu_si256(lim as *const __m256i);
        let neg_lim = _mm256_sub_epi32(_mm256_setzero_si256(), lim);
        let v = _mm256_min_epi32(_mm256_max_epi32(v, neg_lim), lim);
        let m0 = _mm256_loadu_si256(m0 as *const __m256i);
        let sh = _mm256_loadu_si256(shift as *const __m256i);
        // `pmuldq` reads the low dword of each qword: even lanes as they
        // are, odd lanes moved down.
        let even = _mm256_mul_epi32(v, m0);
        let odd = _mm256_mul_epi32(_mm256_srli_epi64::<32>(v), _mm256_srli_epi64::<32>(m0));
        let sign = _mm256_set1_epi64x(i64::MIN);
        let low = _mm256_set1_epi64x(0xFFFF_FFFF);
        let even = _mm256_srlv_epi64(_mm256_xor_si256(even, sign), _mm256_and_si256(sh, low));
        let odd = _mm256_srlv_epi64(_mm256_xor_si256(odd, sign), _mm256_srli_epi64::<32>(sh));
        let r = _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd));
        // The bias `2^63 >> s` reduced mod 2^32: `1 << (63 − s)` for
        // s ≥ 32, and 0 below (a count ≥ 32 shifts everything out).
        let bias = _mm256_sllv_epi32(
            _mm256_set1_epi32(1),
            _mm256_sub_epi32(_mm256_set1_epi32(63), sh),
        );
        let r = _mm256_sub_epi32(r, bias);
        _mm256_add_epi32(
            _mm256_min_epi32(_mm256_max_epi32(r, range.lo), range.hi),
            range.zy,
        )
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

    /// Where [`block_avx2`]'s per-lane addend `b`, with `acc + b = Φ + Bq`,
    /// comes from.
    #[derive(Clone, Copy)]
    pub enum Addend<'a> {
        /// The plan's `Bq` ([`super::apply_i32_block`]).
        Bias,
        /// A GEMM row's `cterm − Zw·sx`, from the [`super::GemmTerms`] tables
        /// (`cterm = Bq − Zx·base`) and the row's code sum
        /// ([`super::apply_gemm_row`]); lanes start at channel 0.
        Row {
            cterm: &'a [i32],
            zw: &'a [i32],
            sx: i32,
        },
    }

    /// `cterm − Zw·sx` over the 8 lanes from lane `i` (wrapping; exact
    /// where [`Addend::Row`]'s contract holds).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn row_addend(cterm: &[i32], zw: &[i32], sxv: __m256i, i: usize) -> __m256i {
        let ct = _mm256_loadu_si256(cterm.as_ptr().add(i) as *const __m256i);
        let zw = _mm256_loadu_si256(zw.as_ptr().add(i) as *const __m256i);
        _mm256_sub_epi32(ct, _mm256_mullo_epi32(zw, sxv))
    }

    /// The AVX2 epilogue of both `i32` entry points: fixed point 8 lanes
    /// per iteration (tail included), with a vector whose `acc + b`
    /// overflows handed to the scalar oracle; thresholds 4 lanes.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `plan.avx2_ok()` hold; `out` is as long
    /// as `accs` and `c0 + accs.len() ≤ plan.channels()`. For
    /// [`Addend::Row`], `c0 = 0`, the tables are the staged terms of this
    /// plan, and `cterm − Zw·sx` fits `i32` on every lane.
    #[target_feature(enable = "avx2")]
    pub unsafe fn block_avx2(
        plan: &RequantPlan,
        req: &Requantizer,
        c0: usize,
        accs: &[i32],
        addend: Addend<'_>,
        out: &mut [u8],
    ) -> usize {
        let n = accs.len();
        let (row, cterm, zw, sxv) = match addend {
            Addend::Bias => (false, &[][..], &[][..], _mm256_setzero_si256()),
            Addend::Row { cterm, zw, sx } => (true, cterm, zw, _mm256_set1_epi32(sx)),
        };
        match &plan.kind {
            PlanKind::Fixed {
                bq, m0, shift, lim, ..
            } => {
                let range = out_range(plan);
                let mut i = 0;
                while i < n {
                    let m = (n - i).min(8);
                    let c = c0 + i;
                    let a = load_lanes(&accs[i..i + m]);
                    let b = if row {
                        row_addend(cterm, zw, sxv, i)
                    } else {
                        _mm256_loadu_si256(bq.as_ptr().add(c) as *const __m256i)
                    };
                    let v = _mm256_add_epi32(a, b);
                    // `acc + b` overflowed where the sum's sign differs
                    // from both operands'.
                    let ovf = _mm256_and_si256(_mm256_xor_si256(a, v), _mm256_xor_si256(b, v));
                    if _mm256_movemask_ps(_mm256_castsi256_ps(ovf)) != 0 {
                        let mut bs = [0i32; 8];
                        _mm256_storeu_si256(bs.as_mut_ptr() as *mut __m256i, b);
                        for j in 0..m {
                            let phi = accs[i + j] as i64 + bs[j] as i64 - bq[c + j] as i64;
                            out[i + j] = oracle(req, c + j, phi);
                        }
                    } else {
                        let codes = fixed8(
                            v,
                            m0.as_ptr().add(c),
                            shift.as_ptr().add(c),
                            lim.as_ptr().add(c),
                            range,
                        );
                        store_codes(codes, &mut out[i..i + m]);
                    }
                    i += m;
                }
                n
            }
            PlanKind::Thresh {
                len,
                thr_t,
                flip,
                empty,
                konst,
                ..
            } => {
                let n = n & !3;
                for i in (0..n).step_by(4) {
                    let mut phi = _mm256_cvtepi32_epi64(_mm_loadu_si128(
                        accs.as_ptr().add(i) as *const __m128i
                    ));
                    if row {
                        // Threshold plans carry no `Bq`: `Φ = acc + b`,
                        // exact in `i64`.
                        let b = _mm256_castsi256_si128(row_addend(cterm, zw, sxv, i));
                        phi = _mm256_add_epi64(phi, _mm256_cvtepi32_epi64(b));
                    }
                    let code = thresh_lanes_avx2(
                        phi,
                        c0 + i,
                        plan.channels(),
                        *len,
                        thr_t.as_ptr(),
                        flip.as_ptr(),
                        empty.as_ptr(),
                        konst.as_ptr(),
                    );
                    store4_codes(code, out.as_mut_ptr().add(i));
                }
                n
            }
        }
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
        shift: *const i32,
        zyv: int64x2_t,
        qmaxv: int64x2_t,
    ) -> int64x2_t {
        let i32lo = vdupq_n_s64(i32::MIN as i64);
        let i32hi = vdupq_n_s64(i32::MAX as i64);
        let v = clamp64_neon(vaddq_s64(phi, vmovl_s32(vld1_s32(bq))), i32lo, i32hi);
        // The clamped lane fits i32: narrow to the value, widen-multiply.
        let prod = vmull_s32(vmovn_s64(v), vld1_s32(m0));
        let shifted = vshlq_s64(prod, vnegq_s64(vmovl_s32(vld1_s32(shift))));
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

    /// Requantizes `i64` `Φ` lanes, 2 channels per iteration: the kernel
    /// behind [`super::apply_i32_block`]'s NEON arm, which widens its
    /// accumulators chunk by chunk.
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
    use crate::{QConv2d, QConvWeights, WeightOffset};
    use mixq_quant::{BitWidth, FixedPointMultiplier};
    use mixq_tensor::{ConvGeometry, Padding, Shape};

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

    #[test]
    fn fixed_phi_matches_scalar_apply_all_levels() {
        for (seed, co, bits) in [
            (1u64, 37, BitWidth::W8),
            (2, 16, BitWidth::W4),
            (3, 9, BitWidth::W2),
        ] {
            let req = random_icn(seed, co, bits);
            let mut s = seed ^ 0xabcdef;
            // Per-channel `Bq` on accumulators up to the `i32` edges, where
            // `acc + Bq` leaves `i32` and the vector must take the oracle.
            let accs: Vec<i32> = (0..co)
                .map(|i| match i % 5 {
                    0 => lcg(&mut s) as i32 % 1_000_000 - 500_000,
                    1 => i32::MAX - lcg(&mut s) as i32 % 1000,
                    2 => i32::MIN + lcg(&mut s) as i32 % 1000,
                    3 => (lcg(&mut s) as i64 % 3_000_000_000 - 1_500_000_000) as i32,
                    _ => 0,
                })
                .collect();
            check_i32_all_levels(&req, &accs);
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
            let accs: Vec<i32> = (0..co)
                .map(|i| match i % 4 {
                    0 => lcg(&mut s) as i32 % 100_000 - 50_000,
                    1 => i32::MAX - lcg(&mut s) as i32 % 3,
                    2 => i32::MIN + lcg(&mut s) as i32 % 3,
                    _ => lcg(&mut s) as i32 % 100 - 50,
                })
                .collect();
            check_i32_all_levels(&req, &accs);
            // The saturated-i16 ablation path produces duplicate clamped
            // thresholds — the compare-accumulate must still match.
            check_i32_all_levels(&req.saturated_i16(), &accs);
        }
    }

    #[test]
    fn w8_threshold_plan_stays_scalar_but_correct() {
        let req = random_thresholds(9, 10, BitWidth::W8);
        let plan = RequantPlan::new(&req);
        assert!(!plan.vectorizable(), "255-entry tables must stay scalar");
        let accs: Vec<i32> = (0..10)
            .map(|i| match i {
                0 => i32::MIN,
                9 => i32::MAX,
                _ => i * 7 - 31,
            })
            .collect();
        check_i32_all_levels(&req, &accs);
    }

    /// A 1×1 convolution of `ci` inputs over `req`'s channels with
    /// per-channel weight zero-points `zw`: its panels feed the GEMM-row
    /// tests genuine rows.
    fn gemm_layer(req: Requantizer, ci: usize, bits: BitWidth, zw: Vec<i16>, seed: u64) -> QConv2d {
        let co = req.channels();
        let mut s = seed;
        let codes: Vec<u8> = (0..co * ci)
            .map(|_| (lcg(&mut s) % bits.levels() as u64) as u8)
            .collect();
        let w = QConvWeights::new(
            Shape::new(co, 1, 1, ci),
            false,
            &codes,
            bits,
            WeightOffset::PerChannel(zw),
        );
        QConv2d::new(w, ConvGeometry::new(1, 1, 1, Padding::Same), req)
    }

    /// One GEMM row for [`check_gemm_rows`]: accumulators and code sum.
    type GemmCase = (Vec<i32>, i64);

    /// The genuine rows of `rows` against `conv`'s weights: GEMV
    /// accumulators and code sums, with the hoisted expansion checked
    /// against `Σ (x − Zx)(w − Zw)` summed directly.
    fn genuine_cases(conv: &QConv2d, rows: &[Vec<u8>], zx: u8) -> Vec<GemmCase> {
        let panels = conv.prepack_panels();
        let w = conv.weights().codes();
        let co = conv.requant().channels();
        let ci = w.len() / co;
        rows.iter()
            .map(|x| {
                let sx = x.iter().map(|&v| v as i64).sum::<i64>();
                let accs: Vec<i32> = (0..co)
                    .map(|c| {
                        let wc = &w[c * ci..(c + 1) * ci];
                        let zw = panels.zw()[c];
                        let direct = x
                            .iter()
                            .zip(wc)
                            .map(|(&a, &b)| (a as i64 - zx as i64) * (b as i64 - zw))
                            .sum::<i64>();
                        let acc = x.iter().zip(wc).map(|(&a, &b)| a as i32 * b as i32).sum();
                        let hoisted = acc as i64 - zw * sx - zx as i64 * panels.base()[c];
                        assert_eq!(hoisted, direct, "hoisted expansion");
                        acc
                    })
                    .collect();
                (accs, sx)
            })
            .collect()
    }

    /// Accumulators and row sums no input row produces: the whole `i32`
    /// range, its edges (`acc + b` past `i32` must take the oracle, e.g.
    /// `i32::MAX` with `ΣX = 0` and `Bq > 0` saturates rather than wraps),
    /// and row sums up to 8M of either sign (a `Zw·ΣX` past `i32` sends
    /// the row to the oracle).
    fn arbitrary_cases(seed: u64, co: usize, n: usize) -> Vec<GemmCase> {
        let mut s = seed;
        (0..n)
            .map(|r| {
                let accs = (0..co)
                    .map(|c| match (r + c) % 4 {
                        0 => (lcg(&mut s) ^ (lcg(&mut s) << 16)) as u32 as i32,
                        1 => i32::MAX - (lcg(&mut s) % 5) as i32,
                        2 => i32::MIN + (lcg(&mut s) % 5) as i32,
                        _ => (lcg(&mut s) % 2_000_000) as i32 - 1_000_000,
                    })
                    .collect();
                let sx = match r % 4 {
                    0 => 0,
                    1 => (lcg(&mut s) % 8_000_000) as i64,
                    2 => -((lcg(&mut s) % 70_000) as i64),
                    _ => (lcg(&mut s) % 70_000) as i64,
                };
                (accs, sx)
            })
            .collect()
    }

    /// Runs [`apply_gemm_row`] at every level on each case against
    /// `conv`'s terms staged for `zx`, and checks codes and ledger against
    /// `req.apply` of `acc − Zw·sx − Zx·base` in `i64`. Returns how many
    /// cases the AVX2 kernel takes (0 when the layer fails the `i32` gate).
    fn check_gemm_rows(conv: &QConv2d, cases: &[GemmCase], zx: u8) -> usize {
        let (req, plan) = (conv.requant(), conv.plan());
        let panels = conv.prepack_panels();
        let co = req.channels();
        let mut scratch = vec![0i32; GemmTerms::scratch_len(co)];
        let terms = GemmTerms::stage(plan, &panels, zx, &mut scratch);
        for (accs, sx) in cases {
            let (mut r_ref, mut c_ref) = (0u64, 0u64);
            let want: Vec<u8> = (0..co)
                .map(|c| {
                    let phi = accs[c] as i64 - panels.zw()[c] * sx - zx as i64 * panels.base()[c];
                    req.apply(c, phi, &mut r_ref, &mut c_ref)
                })
                .collect();
            for lv in levels() {
                let (mut r, mut t) = (0u64, 0u64);
                let mut got = vec![0u8; co];
                apply_gemm_row(req, lv, &terms, accs, *sx, &mut got, &mut r, &mut t);
                assert_eq!(got, want, "co={co} {lv:?} sx={sx} zx={zx}");
                assert_eq!((r, t), (r_ref, c_ref), "co={co} {lv:?} ledger");
            }
        }
        cases.iter().filter(|(_, sx)| terms.row_fits(*sx)).count()
    }

    fn random_rows(seed: u64, n: usize, ci: usize) -> Vec<Vec<u8>> {
        let mut s = seed;
        (0..n)
            .map(|_| (0..ci).map(|_| lcg(&mut s) as u8).collect())
            .collect()
    }

    #[test]
    fn gemm_row_matches_reference_all_levels() {
        // Channel counts on both sides of 8 and 16 (in-vector tails), fixed
        // point and thresholds, small and ±32768 weight zero-points, on
        // genuine GEMV rows and on arbitrary accumulators and row sums.
        for (seed, co, bits, wide_zw) in [
            (10u64, 29, BitWidth::W4, false),
            (11, 12, BitWidth::W8, true),
            (12, 4, BitWidth::W4, false),
            (13, 1, BitWidth::W8, true),
            (14, 3, BitWidth::W2, false),
            (15, 8, BitWidth::W4, true),
            (16, 17, BitWidth::W8, false),
        ] {
            let mut s = seed;
            let zw: Vec<i16> = (0..co)
                .map(|_| {
                    if wide_zw {
                        (lcg(&mut s) % 65536) as i64 - 32768
                    } else {
                        (lcg(&mut s) % (bits.levels() as u64 + 6)) as i64 - 3
                    }
                })
                .map(|z| z as i16)
                .collect();
            let rows = random_rows(seed, 5, 7);
            for zx in [0, lcg(&mut s) as u8] {
                for req in [
                    random_icn(seed, co, bits),
                    random_thresholds(seed, co, BitWidth::W4),
                ] {
                    let conv = gemm_layer(req, 7, bits, zw.clone(), seed);
                    let mut cases = genuine_cases(&conv, &rows, zx);
                    cases.extend(arbitrary_cases(seed ^ zx as u64, co, 16));
                    let fast = check_gemm_rows(&conv, &cases, zx);
                    assert!(fast >= rows.len(), "genuine rows take the kernel");
                }
            }
        }
    }

    #[test]
    fn gemm_row_out_of_range_corrections_fall_back() {
        // Zw = −32768 on W8 weights over k = 288 puts the weight bound
        // 255·Σ|w − Zw| near 2.4·10^9, past i32: the layer takes the
        // scalar oracle, still bit-identical.
        let co = 6;
        let req = random_icn(21, co, BitWidth::W8);
        let conv = gemm_layer(req, 288, BitWidth::W8, vec![i16::MIN; co], 21);
        assert!(conv.prepack_panels().weight_bound() > i32::MAX as i64);
        let rows = random_rows(22, 3, 288);
        for zx in [0, 255] {
            assert_eq!(
                check_gemm_rows(&conv, &genuine_cases(&conv, &rows, zx), zx),
                0
            );
        }
    }

    #[test]
    fn four_channel_row_is_one_vector() {
        // Serve's 4-channel stem: a row's 4 channels are one partial AVX2
        // vector over the padded tables, with no scalar tail.
        let co = 4;
        let req = Requantizer::icn(
            vec![10, -10, 500, 0],
            vec![FixedPointMultiplier::from_real(5e-4); co],
            128,
            BitWidth::W8,
        );
        let conv = gemm_layer(req, 27, BitWidth::W8, vec![120; co], 31);
        let rows = vec![vec![3u8; 27], vec![250u8; 27], vec![90u8; 27]];
        let cases = genuine_cases(&conv, &rows, 9);
        assert_eq!(check_gemm_rows(&conv, &cases, 9), rows.len());
        if SimdLevel::Avx2.available() {
            let panels = conv.prepack_panels();
            let mut scratch = vec![0i32; GemmTerms::scratch_len(co)];
            let terms = GemmTerms::stage(conv.plan(), &panels, 9, &mut scratch);
            for (accs, sx) in &cases {
                let mut out = [0u8; 4];
                let done =
                    vector_gemm(conv.requant(), SimdLevel::Avx2, &terms, accs, *sx, &mut out);
                assert_eq!(done, co);
            }
        }
    }
    #[test]
    fn fixed_kernel_matches_fixed_point_apply_on_every_shift() {
        // Every shift 0..63 (and past it), both multiplier signs, the
        // zero multiplier, zero-points outside [0, qmax] and accumulators
        // of every magnitude, including the ±L saturation edges.
        let mut s = 41u64;
        for shift in (0..=66).chain([80, 95]) {
            for sign in [1.0, -1.0, 0.0] {
                let f = 0.5 + (lcg(&mut s) % 1000) as f64 / 2000.0;
                let m = FixedPointMultiplier::from_real(sign * f * 2f64.powi(31 - shift));
                for zy in [-20, 0, 7, 279, 1 << 24, i32::MIN, i32::MAX] {
                    for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
                        let req = Requantizer::icn(vec![0; 8], vec![m; 8], zy, bits);
                        let accs: Vec<i32> = (0..64)
                            .map(|i| match i % 4 {
                                0 => lcg(&mut s) as i32,
                                1 => (lcg(&mut s) as i32) >> (lcg(&mut s) % 32),
                                2 => i32::MAX - (lcg(&mut s) % 3) as i32,
                                _ => i32::MIN + (lcg(&mut s) % 3) as i32,
                            })
                            .collect();
                        check_i32_all_levels(&req, &accs);
                    }
                }
            }
        }
    }

    #[test]
    fn i32_block_overflow_falls_back() {
        // `acc + Bq` past ±2^31 must take the scalar oracle, vector by
        // vector; lanes of the same block that fit stay exact too.
        let mut s = 51u64;
        let bq: Vec<i32> = (0..19)
            .map(|c| {
                if c % 2 == 0 {
                    i32::MAX - c
                } else {
                    i32::MIN + c
                }
            })
            .collect();
        let mult = vec![FixedPointMultiplier::from_real(3e-9); 19];
        let req = Requantizer::icn(bq, mult, 3, BitWidth::W4);
        let accs: Vec<i32> = (0..19)
            .map(|i| match i % 3 {
                0 => i32::MAX - (lcg(&mut s) % 5) as i32,
                1 => i32::MIN + (lcg(&mut s) % 5) as i32,
                _ => lcg(&mut s) as i32 % 1000,
            })
            .collect();
        check_i32_all_levels(&req, &accs);
    }

    /// [`apply_i32_block`] at every level and several `c0` against
    /// `req.apply`, codes and ledger.
    fn check_i32_all_levels(req: &Requantizer, accs: &[i32]) {
        let plan = RequantPlan::new(req);
        let co = req.channels();
        for lv in levels() {
            for c0 in [0usize, 3] {
                let n = (co - c0).min(accs.len());
                let (mut r_ref, mut c_ref) = (0u64, 0u64);
                let want: Vec<u8> = (0..n)
                    .map(|i| req.apply(c0 + i, accs[i] as i64, &mut r_ref, &mut c_ref))
                    .collect();
                for chunk in [n, 8, 5] {
                    let (mut r, mut t) = (0u64, 0u64);
                    let mut got = vec![0u8; n];
                    for (j, (a, o)) in accs[..n]
                        .chunks(chunk.max(1))
                        .zip(got.chunks_mut(chunk.max(1)))
                        .enumerate()
                    {
                        apply_i32_block(&plan, req, lv, c0 + j * chunk, a, o, &mut r, &mut t);
                    }
                    assert_eq!(got, want, "{lv:?} c0={c0} chunk={chunk}");
                    assert_eq!((r, t), (r_ref, c_ref), "{lv:?} ledger");
                }
            }
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
    fn n0_overflow_plan_is_not_vectorizable() {
        // A multiplier with n0 > 31 would hit apply's checked_shl branch.
        let m = FixedPointMultiplier::from_real(2f64.powi(40));
        if m.exponent() as i32 > 31 {
            let req = Requantizer::icn(vec![0; 4], vec![m; 4], 0, BitWidth::W8);
            assert!(!RequantPlan::new(&req).vectorizable());
            check_i32_all_levels(&req, &[-1, 1 << 20, i32::MIN, i32::MAX]);
        }
    }

    #[test]
    fn folded_per_layer_plan_broadcasts_multiplier() {
        let mult = FixedPointMultiplier::from_real(0.0042);
        let req = Requantizer::folded(vec![5, -9, 100, 0, 77], mult, 3, BitWidth::W4);
        check_i32_all_levels(&req, &[999, -4096, 1 << 30, i32::MAX, i32::MIN]);
    }
}
