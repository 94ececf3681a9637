use crate::{
    ActivationArena, KernelChoice, OpCounts, PackedPanels, PrepackedWeights, QActivation,
    QConvWeights, Requantizer,
};
use mixq_quant::FixedPointMultiplier;

/// An integer-only fully-connected classifier head.
///
/// Consumes pooled features `(1, 1, 1, c_i)` and produces `i32` logits.
/// With per-layer weight quantization the raw accumulators are already
/// argmax-consistent; with per-channel quantization an ICN-style rescale to
/// a common scale is applied first (one fixed-point multiply per class).
///
/// Two kernels compute the same logits and ledger: the scalar `i64` oracle
/// [`QLinear::execute_into_with`] ([`KernelChoice::DirectConv`]) and, for
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
        self.execute_into_with(None, x, &mut logits, ops);
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
    /// `wcodes`, when given, is the prepacked weight cache: the codes
    /// decoded to one per byte in `(c_o, c_i)` order, so sub-byte weights
    /// skip the per-element mask-and-shift extraction (8-bit weights take
    /// the equivalent borrow of their packed bytes even without a cache).
    /// Bit-identical to the uncached path, including the abstract
    /// [`OpCounts`] ledger.
    ///
    /// # Panics
    ///
    /// Panics if the input feature count disagrees or `wcodes` has the
    /// wrong length.
    pub fn execute_into_with(
        &self,
        wcodes: Option<&[u8]>,
        x: &QActivation,
        logits: &mut Vec<i32>,
        ops: &mut OpCounts,
    ) {
        assert_eq!(
            x.shape().item_volume(),
            self.in_features(),
            "input features"
        );
        let ci = self.in_features();
        let co = self.out_features();
        let owned_w: Vec<u8>;
        let wflat: &[u8] = match wcodes {
            Some(w) => {
                assert_eq!(w.len(), co * ci, "decoded weight cache length");
                w
            }
            None if !self.weights.needs_unpack() => self.weights.as_bytes(),
            None => {
                owned_w = self.weights.codes();
                &owned_w
            }
        };
        let zx = x.zero_point() as i64;
        // 8-bit inputs expose their row bytes directly, so the dot product
        // runs over two flat slices (same order, same arithmetic — hence
        // bit-identical to the indexed gather). Sub-byte inputs keep the
        // per-element `get`: the head is a single tiny layer, so a decode
        // buffer is not worth an allocation here.
        let xflat: Option<&[u8]> = (!x.needs_unpack()).then(|| x.as_bytes());
        let batch = x.shape().n;
        let w_unpack = self.weights.needs_unpack() as u64;
        let x_unpack = x.needs_unpack() as u64;
        let per_channel = self.weights.offset().is_per_channel();
        logits.clear();
        for n in 0..batch {
            for o in 0..co {
                let zw = self.weights.offset().at(o) as i64;
                let wrow = &wflat[o * ci..(o + 1) * ci];
                let mut acc: i64 = self.bq[o] as i64;
                if let Some(xb) = xflat {
                    let xrow = &xb[n * ci..(n + 1) * ci];
                    for (&xv, &wv) in xrow.iter().zip(wrow) {
                        acc += (xv as i64 - zx) * (wv as i64 - zw);
                    }
                } else {
                    for (i, &wv) in wrow.iter().enumerate() {
                        let xv = x.get(n, 0, 0, i) as i64;
                        acc += (xv - zx) * (wv as i64 - zw);
                    }
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
    /// [`QLinear::execute_into_with`] against a decoded-code cache;
    /// [`KernelChoice::BlockedGemm`] runs the blocked GEMV against the
    /// node's [`PackedPanels`], drawing its scratch from `arena`. A `None`
    /// cache packs per call (bit-identical, slower). Both choices produce
    /// the same logits and ledger.
    ///
    /// # Panics
    ///
    /// Panics if the input feature count disagrees, or if the cached
    /// panels were built for another shape.
    pub(crate) fn execute_kernel_into(
        &self,
        choice: KernelChoice,
        cache: Option<&PrepackedWeights>,
        x: &QActivation,
        arena: &mut ActivationArena,
        logits: &mut Vec<i32>,
        ops: &mut OpCounts,
    ) {
        match choice {
            KernelChoice::DirectConv => {
                self.execute_into_with(cache.and_then(PrepackedWeights::codes), x, logits, ops);
            }
            KernelChoice::BlockedGemm => {
                let owned;
                let panels = match cache.and_then(PrepackedWeights::panels) {
                    Some(p) => p,
                    None => {
                        owned = PackedPanels::build(&self.weights, self.in_features());
                        &owned
                    }
                };
                let mut aux = arena.take_aux();
                let mut acc = arena.take_acc();
                self.execute_blocked_into(panels, x, &mut aux, &mut acc, logits, ops);
                arena.put_acc(acc);
                arena.put_aux(aux);
            }
        }
    }

    /// Predicted class (argmax of the logits).
    pub fn predict(&self, x: &QActivation, ops: &mut OpCounts) -> usize {
        let logits = self.execute(x, ops);
        logits
            .iter()
            .enumerate()
            .max_by_key(|&(_, v)| *v)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Builds a [`QLinear`] from an ICN-style requantizer's parts (helper for
/// conversions that treat the classifier like a 1×1 convolution).
///
/// Only [`Requantizer::Icn`] carries per-class multipliers; other variants
/// yield no rescale.
pub fn linear_rescale_of(requant: &Requantizer) -> Option<Vec<FixedPointMultiplier>> {
    match requant {
        Requantizer::Icn { mult, .. } => Some(mult.clone()),
        _ => None,
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
    fn predict_takes_argmax() {
        let w = QConvWeights::new(
            Shape::new(3, 1, 1, 1),
            false,
            &[0, 1, 3],
            BitWidth::W4,
            WeightOffset::PerLayer(0),
        );
        let lin = QLinear::new(w, vec![0; 3], None);
        let mut ops = OpCounts::default();
        assert_eq!(lin.predict(&feature(&[9], 0), &mut ops), 2);
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
