use crate::graph::NO_PANELS;
use crate::{ActivationArena, KernelChoice, OpCounts, PackedPanels, QActivation, QConvWeights};
use mixq_quant::FixedPointMultiplier;

/// An integer-only fully-connected classifier head.
///
/// Consumes pooled features `(1, 1, 1, c_i)` and produces `i32` logits.
/// With per-layer weight quantization the raw accumulators are already
/// argmax-consistent; with per-channel quantization an ICN-style rescale to
/// a common scale is applied first (one fixed-point multiply per class).
///
/// Two kernels compute the same logits and ledger: the scalar `i64` oracle
/// [`QLinear::execute_into`] ([`KernelChoice::DirectConv`]) and, for
/// at most [`MAX_DOT_LEN`](crate::simd::MAX_DOT_LEN) input features, the
/// blocked GEMV ([`KernelChoice::BlockedGemm`], see [`crate::blocked`]),
/// which a graph node selects through its backend.
#[derive(Debug, Clone, PartialEq)]
pub struct QLinear {
    weights: QConvWeights,
    bq: Vec<i32>,
    rescale: Option<Vec<FixedPointMultiplier>>,
}

impl QLinear {
    /// Assembles the head from packed `(c_o, 1, 1, c_i)` weights, quantized
    /// biases and an optional per-class rescale.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn new(
        weights: QConvWeights,
        bq: Vec<i32>,
        rescale: Option<Vec<FixedPointMultiplier>>,
    ) -> Self {
        assert_eq!(weights.shape().h, 1, "linear weights are (c_o,1,1,c_i)");
        assert_eq!(weights.shape().w, 1, "linear weights are (c_o,1,1,c_i)");
        assert_eq!(bq.len(), weights.out_channels(), "one Bq per class");
        if let Some(r) = &rescale {
            assert_eq!(r.len(), weights.out_channels(), "one rescale per class");
        }
        QLinear {
            weights,
            bq,
            rescale,
        }
    }

    /// The packed weights.
    pub fn weights(&self) -> &QConvWeights {
        &self.weights
    }

    /// Number of classes.
    pub fn out_features(&self) -> usize {
        self.weights.out_channels()
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weights.in_channels()
    }

    /// Quantized biases `Bq` (one per class).
    pub fn bq(&self) -> &[i32] {
        &self.bq
    }

    /// Per-class rescale multipliers, if any.
    pub fn rescale(&self) -> Option<&[FixedPointMultiplier]> {
        self.rescale.as_deref()
    }

    /// Computes the integer logits: `classes` per batch item, row-major
    /// `(n, classes)` for a batched input.
    ///
    /// # Panics
    ///
    /// Panics if the input feature count disagrees.
    pub fn execute(&self, x: &QActivation, ops: &mut OpCounts) -> Vec<i32> {
        let mut logits = Vec::with_capacity(x.shape().n * self.out_features());
        self.execute_into(x, &mut logits, ops);
        logits
    }

    /// [`QLinear::execute`] writing the logits into a caller-owned buffer
    /// (cleared in place), so steady-state inference reuses its capacity.
    /// This is the head's scalar oracle, the loop the blocked GEMV is
    /// checked against.
    /// A batched input `(n, 1, 1, c_i)` yields `n · classes` logits in
    /// row-major `(n, classes)` order — the head sweeps every sample of
    /// the batch in one call.
    ///
    /// 8-bit weights are read from their packed bytes and sub-byte ones
    /// extracted in place, as the microcontroller reads them, so the call
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the input feature count disagrees.
    pub fn execute_into(&self, x: &QActivation, logits: &mut Vec<i32>, ops: &mut OpCounts) {
        assert_eq!(
            x.shape().item_volume(),
            self.in_features(),
            "input features"
        );
        let ci = self.in_features();
        let co = self.out_features();
        // 8-bit operands are read from their bytes and sub-byte ones
        // extracted per element: no decode buffer, so nothing allocates.
        let wbytes = (!self.weights.needs_unpack()).then(|| self.weights.as_bytes());
        let xflat = (!x.needs_unpack()).then(|| x.as_bytes());
        let zx = x.zero_point() as i64;
        let batch = x.shape().n;
        let w_unpack = self.weights.needs_unpack() as u64;
        let x_unpack = x.needs_unpack() as u64;
        let per_channel = self.weights.offset().is_per_channel();
        logits.clear();
        for n in 0..batch {
            for o in 0..co {
                let zw = self.weights.offset().at(o) as i64;
                let mut acc: i64 = self.bq[o] as i64;
                for i in 0..ci {
                    let wi = o * ci + i;
                    let xv = xflat.map_or_else(|| x.get(n, 0, 0, i), |xb| xb[n * ci + i]);
                    let wv = wbytes.map_or_else(|| self.weights.code_at(wi), |w| w[wi]);
                    acc += (xv as i64 - zx) * (wv as i64 - zw);
                }
                ops.macs += ci as u64;
                ops.act_loads += ci as u64;
                ops.unpacks += (w_unpack + x_unpack) * ci as u64;
                if per_channel {
                    ops.offset_subs += ci as u64;
                }
                ops.bias_adds += 1;
                let logit = match &self.rescale {
                    Some(mults) => {
                        ops.requants += 1;
                        mults[o].apply(acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
                    }
                    None => acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
                };
                logits.push(logit);
            }
        }
        ops.act_stores += (batch * co) as u64;
    }

    /// Runs the head with the given kernel implementation, writing the
    /// logits into `logits` (cleared in place) — the one dispatch point
    /// of the graph walk and of [`QOp::execute_kernel`](crate::QOp::execute_kernel).
    /// [`KernelChoice::DirectConv`] runs the scalar oracle
    /// [`QLinear::execute_into`]; [`KernelChoice::BlockedGemm`] runs the
    /// blocked GEMV against the node's [`PackedPanels`], drawing its
    /// scratch from `arena`. Both choices produce the same logits and
    /// ledger.
    ///
    /// # Panics
    ///
    /// Panics if the input feature count disagrees, or if a blocked call
    /// gets no panels or panels built for another shape.
    pub(crate) fn execute_kernel_into(
        &self,
        choice: KernelChoice,
        panels: Option<&PackedPanels>,
        x: &QActivation,
        arena: &mut ActivationArena,
        logits: &mut Vec<i32>,
        ops: &mut OpCounts,
    ) {
        match choice {
            KernelChoice::DirectConv => self.execute_into(x, logits, ops),
            KernelChoice::BlockedGemm => {
                let panels = panels.expect(NO_PANELS);
                let mut aux = arena.take_aux();
                let mut acc = arena.take_acc();
                self.execute_blocked_into(panels, x, &mut aux, &mut acc, logits, ops);
                arena.put_acc(acc);
                arena.put_aux(aux);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightOffset;
    use mixq_quant::BitWidth;
    use mixq_tensor::Shape;

    fn feature(codes: &[u8], zx: u8) -> QActivation {
        QActivation::from_codes(Shape::vector(codes.len()), codes, BitWidth::W8, zx)
    }

    #[test]
    fn computes_integer_dot_products() {
        // W = [[1, 2], [3, 4]] (codes, Zw=0), x = [5, 6], bq = [10, 0].
        let w = QConvWeights::new(
            Shape::new(2, 1, 1, 2),
            false,
            &[1, 2, 3, 4],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let lin = QLinear::new(w, vec![10, 0], None);
        let mut ops = OpCounts::default();
        let logits = lin.execute(&feature(&[5, 6], 0), &mut ops);
        assert_eq!(logits, vec![5 + 12 + 10, 15 + 24]);
        assert_eq!(ops.macs, 4);
        assert_eq!(ops.bias_adds, 2);
    }

    #[test]
    fn zero_points_respected() {
        let w = QConvWeights::new(
            Shape::new(1, 1, 1, 1),
            false,
            &[0],
            BitWidth::W8,
            WeightOffset::PerChannel(vec![5]),
        );
        let lin = QLinear::new(w, vec![0], None);
        let mut ops = OpCounts::default();
        // (x - 3)(w - 5) = (7-3)(0-5) = -20.
        let logits = lin.execute(&feature(&[7], 3), &mut ops);
        assert_eq!(logits, vec![-20]);
        assert_eq!(ops.offset_subs, 1);
    }

    #[test]
    fn rescale_applies_per_class_multiplier() {
        let w = QConvWeights::new(
            Shape::new(2, 1, 1, 1),
            false,
            &[2, 2],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let lin = QLinear::new(
            w,
            vec![0, 0],
            Some(vec![
                FixedPointMultiplier::from_real(1.0),
                FixedPointMultiplier::from_real(0.5),
            ]),
        );
        let mut ops = OpCounts::default();
        let logits = lin.execute(&feature(&[10], 0), &mut ops);
        assert_eq!(logits, vec![20, 10]);
        assert_eq!(ops.requants, 2);
    }

    #[test]
    #[should_panic(expected = "one Bq per class")]
    fn bias_length_checked() {
        let w = QConvWeights::new(
            Shape::new(2, 1, 1, 1),
            false,
            &[0, 0],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
        let _ = QLinear::new(w, vec![0], None);
    }
}
