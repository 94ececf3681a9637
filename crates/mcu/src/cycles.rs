use std::fmt;

use mixq_core::memory::QuantScheme;
use mixq_core::mixed::BitAssignment;
use mixq_kernels::{KernelChoice, LayerRun, OpCounts, OpKind};
use mixq_models::{LayerKind, LayerSpec, NetworkSpec};
use mixq_quant::BitWidth;

/// Cycle cost model of a Cortex-M7 running the extended CMSIS-NN kernels
/// (§6's measurement substrate).
///
/// Constants are cycles per abstract operation, calibrated against public
/// CMSIS-NN throughput figures and the paper's end-to-end anchors (see the
/// crate docs). The defaults model:
///
/// * dual-issue `SMLAD` MACs with im2col overhead → ≈ 2 cycles/MAC on
///   dense (standard/pointwise) convolutions;
/// * depthwise convolutions' poor data reuse → ≈ 7 cycles/MAC (CMSIS-NN
///   depthwise kernels are several times less efficient than `conv`);
/// * mask+shift unpacking of 4/2-bit operands;
/// * the per-channel `Zw` subtraction the paper measures as ≈ 20%
///   end-to-end overhead for PC quantization;
/// * one fixed-point multiply+shift+saturate per output for ICN
///   requantization, or `Q` binary-search comparisons for thresholds.
///
/// The Cortex-M7 is a single-issue scalar core for these integer kernels
/// (`SMLAD`'s dual 16-bit MAC is already folded into the per-MAC rates).
/// Host SIMD levels and batch-sharding worker counts never feed this
/// model, so modeled cycles are invariant under every `MIXQ_FORCE_SCALAR`
/// setting and worker count. That invariance extends to the vectorized
/// requantization epilogue (`mixq_kernels::simd::requant`) and the
/// residual add's lookup-table loop: they charge the abstract per-element
/// ledger — `requants`, `threshold_cmps`, `unpacks` — exactly as the
/// scalar reference does, and sub-byte pack/unpack (`mixq_quant::packing`)
/// runs one portable loop on every host, so the modeled MCU cost never
/// sees how the host computed the codes.
#[derive(Debug, Clone, PartialEq)]
pub struct CortexM7CycleModel {
    /// Cycles per MAC, standard/pointwise convolution (8-bit operands,
    /// direct output-stationary loop).
    pub conv_cycles_per_mac: f64,
    /// Cycles per MAC for the register-blocked, cache-tiled GEMM
    /// ([`KernelChoice::BlockedGemm`]): operand reuse across the microtile
    /// removes most per-MAC load traffic.
    pub blocked_gemm_cycles_per_mac: f64,
    /// Cycles per MAC, depthwise convolution.
    pub dw_cycles_per_mac: f64,
    /// Cycles per MAC, fully connected.
    pub fc_cycles_per_mac: f64,
    /// Extra cycles per sub-byte operand read (mask + shift).
    pub unpack_cycles: f64,
    /// Extra cycles per sub-byte output written (pack).
    pub pack_cycles: f64,
    /// Extra cycles per MAC for the in-loop per-channel `Zw` subtraction.
    pub pc_offset_cycles: f64,
    /// Cycles per ICN/folded requantization (multiply, shift, clamp).
    pub requant_cycles: f64,
    /// Cycles per threshold comparison.
    pub threshold_cmp_cycles: f64,
    /// Cycles per output element stored (write-back of the result code).
    pub act_store_cycles: f64,
    /// Fixed per-layer scheduling overhead.
    pub layer_overhead: u64,
}

impl Default for CortexM7CycleModel {
    fn default() -> Self {
        CortexM7CycleModel {
            conv_cycles_per_mac: 2.1,
            blocked_gemm_cycles_per_mac: 1.4,
            dw_cycles_per_mac: 7.0,
            fc_cycles_per_mac: 2.0,
            unpack_cycles: 0.8,
            pack_cycles: 1.0,
            pc_offset_cycles: 0.45,
            requant_cycles: 8.0,
            threshold_cmp_cycles: 3.0,
            act_store_cycles: 0.5,
            layer_overhead: 1500,
        }
    }
}

/// Per-layer latency contribution (for Figure-2-style breakdowns).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerLatency {
    /// Layer name.
    pub name: String,
    /// Estimated steady-state cycles per inference.
    pub cycles: u64,
    /// One-time prepack cycles (weight decode + panel build at graph
    /// build, amortized over the deployment's lifetime — **not** part of
    /// `cycles`). Zero for layers that cache nothing and for breakdowns
    /// computed from shape-level specs.
    pub one_time_cycles: u64,
    /// MAC count.
    pub macs: usize,
}

impl fmt::Display for LayerLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cycles ({} MACs)",
            self.name, self.cycles, self.macs
        )
    }
}

impl CortexM7CycleModel {
    /// Estimated cycles for one layer under the given precisions and
    /// deployment scheme.
    pub fn layer_cycles(
        &self,
        layer: &LayerSpec,
        weight_bits: BitWidth,
        act_in_bits: BitWidth,
        act_out_bits: BitWidth,
        scheme: QuantScheme,
    ) -> u64 {
        let macs = layer.macs() as f64;
        let out_elems = layer.out_act_elements() as f64;
        let per_mac = match layer.kind() {
            LayerKind::Conv => self.conv_cycles_per_mac,
            LayerKind::DepthwiseConv => self.dw_cycles_per_mac,
            LayerKind::Linear => self.fc_cycles_per_mac,
        };
        let mut cycles = macs * per_mac;
        // Sub-byte operand unpacking in the inner loop.
        let mut unpacked_operands = 0.0;
        if weight_bits != BitWidth::W8 {
            unpacked_operands += 1.0;
        }
        if act_in_bits != BitWidth::W8 {
            unpacked_operands += 1.0;
        }
        cycles += macs * self.unpack_cycles * unpacked_operands;
        if act_out_bits != BitWidth::W8 {
            cycles += out_elems * self.pack_cycles;
        }
        // Per-channel Zw subtraction (§6: ≈ 20% end-to-end).
        if scheme.is_per_channel() {
            cycles += macs * self.pc_offset_cycles;
        }
        // Requantization of every output element.
        cycles += match scheme {
            QuantScheme::PerChannelThresholds => {
                out_elems * self.threshold_cmp_cycles * act_out_bits.bits() as f64
            }
            _ => out_elems * self.requant_cycles,
        };
        cycles as u64 + self.layer_overhead
    }

    /// Estimated cycles for a whole network under a bit assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment lengths disagree with the spec.
    pub fn network_cycles(
        &self,
        spec: &NetworkSpec,
        assignment: &BitAssignment,
        scheme: QuantScheme,
    ) -> u64 {
        assert_eq!(assignment.weight_bits.len(), spec.num_layers());
        assert_eq!(assignment.act_bits.len(), spec.num_layers() + 1);
        self.layer_breakdown(spec, assignment, scheme)
            .iter()
            .map(|l| l.cycles)
            .sum()
    }

    /// Per-layer latency breakdown.
    pub fn layer_breakdown(
        &self,
        spec: &NetworkSpec,
        assignment: &BitAssignment,
        scheme: QuantScheme,
    ) -> Vec<LayerLatency> {
        spec.layers()
            .iter()
            .enumerate()
            .map(|(i, l)| LayerLatency {
                name: l.name().to_owned(),
                cycles: self.layer_cycles(
                    l,
                    assignment.weight_bits[i],
                    assignment.act_bits[i],
                    assignment.act_bits[i + 1],
                    scheme,
                ),
                one_time_cycles: 0,
                macs: l.macs(),
            })
            .collect()
    }

    /// Cycles of one executed layer from its measured [`OpCounts`] ledger,
    /// priced for the direct reference kernel —
    /// [`CortexM7CycleModel::kernel_cycles`] with
    /// [`KernelChoice::DirectConv`].
    pub fn op_cycles(&self, kind: OpKind, ops: &OpCounts) -> u64 {
        self.kernel_cycles(kind, KernelChoice::DirectConv, ops)
    }

    /// Cycles of one executed layer from its measured [`OpCounts`] ledger
    /// and the kernel implementation the node actually selected.
    ///
    /// Unlike [`CortexM7CycleModel::cycles_from_counts`], the operator
    /// class is known, so the right per-MAC rate applies — and the
    /// [`KernelChoice`] picks between the direct and blocked-GEMM rates
    /// for dense convolutions, so a backend's selection and the
    /// latency model always agree. A [`OpKind::Linear`] head costs
    /// `fc_cycles_per_mac` whatever its choice: both head kernels charge
    /// the same ledger, and the MCU runs the head as one dot-product sweep
    /// either way. This is the path the `QGraph` executor's per-layer
    /// records feed.
    pub fn kernel_cycles(&self, kind: OpKind, choice: KernelChoice, ops: &OpCounts) -> u64 {
        let per_mac = match (kind, choice) {
            (OpKind::Conv, KernelChoice::BlockedGemm) => self.blocked_gemm_cycles_per_mac,
            // Residual adds are MAC-free; their cost is the per-element
            // requantization and load/store traffic priced below.
            (OpKind::Conv | OpKind::Pool | OpKind::Add, _) => self.conv_cycles_per_mac,
            (OpKind::DepthwiseConv, _) => self.dw_cycles_per_mac,
            (OpKind::Linear, _) => self.fc_cycles_per_mac,
        };
        (ops.macs as f64 * per_mac
            + ops.unpacks as f64 * self.unpack_cycles
            + ops.offset_subs as f64 * self.pc_offset_cycles
            + ops.requants as f64 * self.requant_cycles
            + ops.threshold_cmps as f64 * self.threshold_cmp_cycles
            + ops.act_stores as f64 * self.act_store_cycles) as u64
            + self.layer_overhead
    }

    /// Per-layer latency breakdown from a `QGraph` execution ledger — the
    /// measured twin of [`CortexM7CycleModel::layer_breakdown`], which
    /// works from shape-level specs instead. Each layer is priced for the
    /// kernel its node actually selected ([`LayerRun::choice`]); the
    /// one-time packing work of the node's prepack cache
    /// ([`LayerRun::prepack`]) is reported separately in
    /// [`LayerLatency::one_time_cycles`], never folded into the
    /// steady-state per-inference cost — prepacking moved that work from
    /// every inference to graph build, and the model reflects exactly
    /// that.
    pub fn breakdown_from_runs(&self, runs: &[LayerRun]) -> Vec<LayerLatency> {
        runs.iter()
            .map(|r| LayerLatency {
                name: r.name.clone(),
                cycles: self.kernel_cycles(r.kind, r.choice, &r.ops),
                one_time_cycles: self.prepack_cycles(&r.prepack),
                macs: r.ops.macs as usize,
            })
            .collect()
    }

    /// Total steady-state cycles of a `QGraph` execution ledger, priced
    /// per selected kernel (one-time packing excluded — see
    /// [`CortexM7CycleModel::one_time_packing_cycles`]).
    pub fn cycles_from_runs(&self, runs: &[LayerRun]) -> u64 {
        runs.iter()
            .map(|r| self.kernel_cycles(r.kind, r.choice, &r.ops))
            .sum()
    }

    /// Cycles of one-time prepack work from its [`OpCounts`] ledger:
    /// sub-byte decodes and panel stores, with no per-layer scheduling
    /// overhead (packing happens once at graph build, outside the
    /// inference loop).
    pub fn prepack_cycles(&self, ops: &OpCounts) -> u64 {
        (ops.unpacks as f64 * self.unpack_cycles + ops.act_stores as f64 * self.act_store_cycles)
            as u64
    }

    /// Total one-time packing cycles of a run's prepack caches — the
    /// build-time cost that PR-4's kernels paid on **every** inference and
    /// the prepacked graph pays once.
    pub fn one_time_packing_cycles(&self, runs: &[LayerRun]) -> u64 {
        runs.iter().map(|r| self.prepack_cycles(&r.prepack)).sum()
    }

    /// Per-sample steady-state cycles of a **batch-N** execution ledger:
    /// each layer's counts are divided back to one sample
    /// ([`OpCounts::per_sample`] — exact, since every kernel is
    /// batch-linear) before pricing, so the result equals
    /// [`CortexM7CycleModel::cycles_from_runs`] of a single-sample run of
    /// the same graph. The difference between `cycles_from_runs(batch_run)`
    /// and `batch × cycles_from_runs_per_sample(batch_run, batch)` is
    /// exactly the `(N−1) × layers × layer_overhead` dispatch saving a
    /// batched walk earns.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn cycles_from_runs_per_sample(&self, runs: &[LayerRun], batch: u64) -> u64 {
        runs.iter()
            .map(|r| self.kernel_cycles(r.kind, r.choice, &r.ops.per_sample(batch)))
            .sum()
    }

    /// Coarse cycle estimate from measured kernel op counts (the
    /// instrumentation path; cannot distinguish depthwise from dense MACs,
    /// so it uses a blended MAC rate).
    pub fn cycles_from_counts(&self, ops: &OpCounts) -> u64 {
        let blended_mac = (self.conv_cycles_per_mac + self.dw_cycles_per_mac) / 3.0;
        (ops.macs as f64 * blended_mac
            + ops.unpacks as f64 * self.unpack_cycles
            + ops.offset_subs as f64 * self.pc_offset_cycles
            + ops.requants as f64 * self.requant_cycles
            + ops.threshold_cmps as f64 * self.threshold_cmp_cycles
            + ops.act_stores as f64 * self.act_store_cycles) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;
    use mixq_core::memory::MemoryBudget;
    use mixq_core::mixed::{assign_bits, MixedPrecisionConfig};
    use mixq_models::mobilenet::{MobileNetConfig, Resolution, WidthMultiplier};

    fn model() -> CortexM7CycleModel {
        CortexM7CycleModel::default()
    }

    #[test]
    fn paper_anchor_fastest_model_near_10_fps() {
        // §6: "the fastest inference model (128_0.25 MixQ-PL), which
        // features a homogeneous 8 bit quantization, runs at 10fps".
        let spec = MobileNetConfig::new(Resolution::R128, WidthMultiplier::X0_25).build();
        let bits = BitAssignment::uniform8(&spec);
        let cycles = model().network_cycles(&spec, &bits, QuantScheme::PerLayerFolded);
        let fps = Device::stm32h7().fps(cycles);
        assert!((7.0..14.0).contains(&fps), "expected ≈10 fps, got {fps:.2}");
    }

    #[test]
    fn paper_anchor_most_accurate_model_about_20x_slower() {
        // §6: 224_0.75 PC+ICN is ≈ 20× slower than 128_0.25 MixQ-PL.
        let fast_spec = MobileNetConfig::new(Resolution::R128, WidthMultiplier::X0_25).build();
        let fast = model().network_cycles(
            &fast_spec,
            &BitAssignment::uniform8(&fast_spec),
            QuantScheme::PerLayerFolded,
        );
        let slow_spec = MobileNetConfig::new(Resolution::R224, WidthMultiplier::X0_75).build();
        let cfg = MixedPrecisionConfig::new(MemoryBudget::stm32h7(), QuantScheme::PerChannelIcn);
        let slow_bits = assign_bits(&slow_spec, &cfg).expect("feasible");
        let slow = model().network_cycles(&slow_spec, &slow_bits, QuantScheme::PerChannelIcn);
        let ratio = slow as f64 / fast as f64;
        assert!(
            (14.0..32.0).contains(&ratio),
            "expected ≈20x, got {ratio:.1}x"
        );
        let fps = Device::stm32h7().fps(slow);
        assert!((0.3..0.8).contains(&fps), "≈0.5 fps, got {fps:.2}");
    }

    #[test]
    fn paper_anchor_pc_overhead_near_20_percent() {
        // §6: "MixQ-PC-ICN quantization introduces a latency overhead of
        // approx. 20% with respect to the MixQ-PL setting".
        let spec = MobileNetConfig::new(Resolution::R192, WidthMultiplier::X0_5).build();
        let bits = BitAssignment::uniform8(&spec);
        let pl = model().network_cycles(&spec, &bits, QuantScheme::PerLayerIcn);
        let pc = model().network_cycles(&spec, &bits, QuantScheme::PerChannelIcn);
        let overhead = pc as f64 / pl as f64 - 1.0;
        assert!(
            (0.10..0.30).contains(&overhead),
            "expected ≈20%, got {:.0}%",
            overhead * 100.0
        );
    }

    #[test]
    fn sub_byte_kernels_cost_more_per_mac() {
        let spec = MobileNetConfig::new(Resolution::R160, WidthMultiplier::X0_5).build();
        let w8 = BitAssignment::uniform8(&spec);
        let mut w4 = w8.clone();
        for b in &mut w4.weight_bits {
            *b = BitWidth::W4;
        }
        let m = model();
        let c8 = m.network_cycles(&spec, &w8, QuantScheme::PerChannelIcn);
        let c4 = m.network_cycles(&spec, &w4, QuantScheme::PerChannelIcn);
        assert!(c4 > c8, "unpacking must cost cycles: {c4} vs {c8}");
    }

    #[test]
    fn depthwise_layers_are_less_efficient() {
        let m = model();
        let dense = LayerSpec::conv("pw", 1, 1, 64, 64, 16, 16);
        let dw = LayerSpec::depthwise("dw", 3, 1, 64, 16, 16);
        let cd = m.layer_cycles(
            &dense,
            BitWidth::W8,
            BitWidth::W8,
            BitWidth::W8,
            QuantScheme::PerLayerIcn,
        );
        let cw = m.layer_cycles(
            &dw,
            BitWidth::W8,
            BitWidth::W8,
            BitWidth::W8,
            QuantScheme::PerLayerIcn,
        );
        // Per MAC, depthwise is ~3x worse even though it has fewer MACs.
        let per_mac_dense = cd as f64 / dense.macs() as f64;
        let per_mac_dw = cw as f64 / dw.macs() as f64;
        assert!(per_mac_dw > 2.0 * per_mac_dense);
    }

    #[test]
    fn thresholds_requant_scales_with_bits() {
        let m = model();
        let l = LayerSpec::conv("pw", 1, 1, 32, 32, 8, 8);
        let t4 = m.layer_cycles(
            &l,
            BitWidth::W8,
            BitWidth::W8,
            BitWidth::W4,
            QuantScheme::PerChannelThresholds,
        );
        let t8 = m.layer_cycles(
            &l,
            BitWidth::W8,
            BitWidth::W8,
            BitWidth::W8,
            QuantScheme::PerChannelThresholds,
        );
        assert!(t8 > t4, "more output bits, more comparisons");
    }

    #[test]
    fn breakdown_sums_to_network_total() {
        let spec = MobileNetConfig::new(Resolution::R160, WidthMultiplier::X0_5).build();
        let bits = BitAssignment::uniform8(&spec);
        let m = model();
        let total = m.network_cycles(&spec, &bits, QuantScheme::PerChannelIcn);
        let breakdown = m.layer_breakdown(&spec, &bits, QuantScheme::PerChannelIcn);
        assert_eq!(breakdown.len(), spec.num_layers());
        assert_eq!(breakdown.iter().map(|l| l.cycles).sum::<u64>(), total);
        // Pointwise layers dominate MobileNet latency.
        let pw_cycles: u64 = breakdown
            .iter()
            .filter(|l| l.name.starts_with("pw"))
            .map(|l| l.cycles)
            .sum();
        assert!(pw_cycles * 2 > total, "pointwise majority");
        // Display is informative.
        assert!(breakdown[0].to_string().contains("cycles"));
    }

    #[test]
    fn kernel_choice_prices_dense_convs_only() {
        let m = model();
        let ops = OpCounts {
            macs: 100_000,
            requants: 1000,
            act_stores: 1000,
            ..OpCounts::default()
        };
        let direct = m.kernel_cycles(OpKind::Conv, KernelChoice::DirectConv, &ops);
        let blocked = m.kernel_cycles(OpKind::Conv, KernelChoice::BlockedGemm, &ops);
        assert!(
            blocked < direct,
            "per-MAC rates must order blocked < direct: {blocked} {direct}"
        );
        // op_cycles is the DirectConv special case — the pre-backend rate.
        assert_eq!(direct, m.op_cycles(OpKind::Conv, &ops));
        // Non-conv kinds are choice-insensitive (they have one kernel).
        for kind in [
            OpKind::DepthwiseConv,
            OpKind::Pool,
            OpKind::Linear,
            OpKind::Add,
        ] {
            assert_eq!(
                m.kernel_cycles(kind, KernelChoice::DirectConv, &ops),
                m.kernel_cycles(kind, KernelChoice::BlockedGemm, &ops),
            );
        }
    }

    #[test]
    fn prepack_cycles_are_reported_separately_from_steady_state() {
        let m = model();
        let ops = OpCounts {
            macs: 50_000,
            requants: 500,
            act_stores: 500,
            ..OpCounts::default()
        };
        let prepack = OpCounts {
            unpacks: 1152,
            act_stores: 1152,
            ..OpCounts::default()
        };
        let run = LayerRun {
            name: "pw".into(),
            kind: OpKind::Conv,
            choice: KernelChoice::BlockedGemm,
            ops,
            prepack,
            in_bytes: 0,
            out_bytes: 0,
            out_shape: mixq_tensor::Shape::feature_map(1, 1, 1),
        };
        let br = m.breakdown_from_runs(std::slice::from_ref(&run));
        // Steady-state cycles ignore the prepack ledger entirely...
        assert_eq!(
            br[0].cycles,
            m.kernel_cycles(OpKind::Conv, KernelChoice::BlockedGemm, &ops)
        );
        assert_eq!(m.cycles_from_runs(std::slice::from_ref(&run)), br[0].cycles);
        // ...and the one-time work is priced on its own, without the
        // per-layer scheduling overhead.
        assert_eq!(br[0].one_time_cycles, m.prepack_cycles(&prepack));
        assert_eq!(
            m.one_time_packing_cycles(std::slice::from_ref(&run)),
            br[0].one_time_cycles
        );
        assert!(br[0].one_time_cycles > 0);
        assert!(br[0].one_time_cycles < m.layer_overhead);
    }

    #[test]
    fn per_sample_pricing_inverts_batch_linearity() {
        let m = model();
        let single = OpCounts {
            macs: 10_000,
            requants: 100,
            act_stores: 100,
            unpacks: 300,
            ..OpCounts::default()
        };
        let batch = 8u64;
        let batched = (0..batch).map(|_| single).sum::<OpCounts>();
        let run = |ops| LayerRun {
            name: "c".into(),
            kind: OpKind::Conv,
            choice: KernelChoice::DirectConv,
            ops,
            prepack: OpCounts::default(),
            in_bytes: 0,
            out_bytes: 0,
            out_shape: mixq_tensor::Shape::feature_map(1, 1, 1),
        };
        let batched_run = [run(batched)];
        let single_run = [run(single)];
        assert_eq!(
            m.cycles_from_runs_per_sample(&batched_run, batch),
            m.cycles_from_runs(&single_run)
        );
        // The batched walk pays the per-layer overhead once instead of N
        // times: total batched cycles = N× the per-MAC work + 1× overhead.
        assert_eq!(
            m.cycles_from_runs(&batched_run) + (batch - 1) * m.layer_overhead,
            batch * m.cycles_from_runs(&single_run)
        );
    }

    #[test]
    fn counts_based_estimate_is_positive_and_monotone() {
        let m = model();
        let a = OpCounts {
            macs: 1000,
            ..OpCounts::default()
        };
        let b = OpCounts {
            macs: 1000,
            unpacks: 2000,
            offset_subs: 1000,
            ..OpCounts::default()
        };
        assert!(m.cycles_from_counts(&b) > m.cycles_from_counts(&a));
        assert!(m.cycles_from_counts(&a) > 0);
    }
}
