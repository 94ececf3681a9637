use mixq_quant::{BitWidth, PackedTensor};
use mixq_tensor::Shape;

/// The weight zero-point storage of a quantized layer (Table 1):
/// a single UINT8 `Zw` for per-layer quantization, or one INT16 per output
/// channel for per-channel quantization.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WeightOffset {
    /// Per-layer zero-point (UINT8).
    PerLayer(u8),
    /// Per-channel zero-points (INT16, one per output channel).
    PerChannel(Vec<i16>),
}

impl WeightOffset {
    /// Zero-point for output channel `c`.
    #[inline]
    pub fn at(&self, c: usize) -> i32 {
        match self {
            WeightOffset::PerLayer(z) => *z as i32,
            WeightOffset::PerChannel(zs) => zs[c] as i32,
        }
    }

    /// Whether this is the per-channel variant (costs one extra subtraction
    /// in the inner loop — the ≈ 20% overhead of §6).
    pub fn is_per_channel(&self) -> bool {
        matches!(self, WeightOffset::PerChannel(_))
    }

    /// Flash bytes of the stored zero-points (Table 1: UINT8 per layer,
    /// INT16 per output channel).
    pub fn flash_bytes(&self) -> usize {
        match self {
            WeightOffset::PerLayer(_) => 1,
            WeightOffset::PerChannel(zs) => 2 * zs.len(),
        }
    }
}

/// A bit-packed quantized activation tensor with its zero-point.
///
/// Activations on the deployment path are UINT-Q codes; PACT activations
/// have `Z = 0`, the network input keeps an asymmetric `Z`.
///
/// # Examples
///
/// ```
/// use mixq_kernels::QActivation;
/// use mixq_quant::BitWidth;
/// use mixq_tensor::Shape;
///
/// let a = QActivation::from_codes(Shape::feature_map(1, 2, 1), &[3, 9], BitWidth::W4, 0);
/// assert_eq!(a.get(0, 0, 1, 0), 9);
/// assert_eq!(a.byte_len(), 1); // two 4-bit codes in one byte
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QActivation {
    shape: Shape,
    packed: PackedTensor,
    zero_point: u8,
}

impl QActivation {
    /// Packs raw codes into an activation tensor.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != shape.volume()` or a code exceeds the
    /// precision.
    pub fn from_codes(shape: Shape, codes: &[u8], bits: BitWidth, zero_point: u8) -> Self {
        assert_eq!(codes.len(), shape.volume(), "code count vs shape");
        QActivation {
            shape,
            packed: PackedTensor::pack(codes, bits),
            zero_point,
        }
    }

    /// Packs raw codes reusing a recycled byte buffer for the packed
    /// storage — the arena-aware twin of [`QActivation::from_codes`], so
    /// steady-state inference performs no heap allocation (see
    /// [`crate::ActivationArena`]).
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != shape.volume()` or a code exceeds the
    /// precision.
    pub fn from_codes_in(
        shape: Shape,
        codes: &[u8],
        bits: BitWidth,
        zero_point: u8,
        storage: Vec<u8>,
    ) -> Self {
        assert_eq!(codes.len(), shape.volume(), "code count vs shape");
        QActivation {
            shape,
            packed: PackedTensor::pack_into(codes, bits, storage),
            zero_point,
        }
    }

    /// Consumes the activation, returning its packed byte buffer for
    /// recycling through a buffer pool.
    pub fn into_storage(self) -> Vec<u8> {
        self.packed.into_bytes()
    }

    /// Tensor shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Element precision.
    pub fn bits(&self) -> BitWidth {
        self.packed.bits()
    }

    /// Zero-point `Z` (0 for PACT activations).
    pub fn zero_point(&self) -> u8 {
        self.zero_point
    }

    /// RAM footprint in bytes (the `mem(t, Q)` of Eq. 7).
    pub fn byte_len(&self) -> usize {
        self.packed.byte_len()
    }

    /// Code at `(n, y, x, c)`.
    #[inline]
    pub fn get(&self, n: usize, y: usize, x: usize, c: usize) -> u8 {
        self.packed.get(self.shape.index(n, y, x, c))
    }

    /// All codes, unpacked.
    pub fn codes(&self) -> Vec<u8> {
        self.packed.unpack()
    }

    /// Unpacks all codes into a caller-owned buffer (cleared and resized in
    /// place) — the pooled twin of [`QActivation::codes`], so steady-state
    /// kernels can reuse one scratch buffer instead of allocating per call.
    pub fn codes_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.shape.volume(), 0);
        self.packed.unpack_into(out);
    }

    /// Unpacks all codes into the head of a caller-provided slice (which
    /// must hold at least `shape().volume()` bytes), returning the number
    /// of codes written. Unlike [`QActivation::codes_into`] this never
    /// reallocates, so the im2col staging path can decode into the slack
    /// of an already-sized scratch buffer.
    pub fn unpack_into(&self, out: &mut [u8]) -> usize {
        self.packed.unpack_into(out)
    }

    /// Whether reading an element costs an unpack (sub-byte precision).
    pub fn needs_unpack(&self) -> bool {
        self.bits() != BitWidth::W8
    }

    /// The raw packed storage bytes. For an 8-bit tensor these *are* the
    /// codes in NHWC order — the zero-copy fast path of the blocked GEMM
    /// kernel; sub-byte tensors must go through [`QActivation::codes`].
    pub fn as_bytes(&self) -> &[u8] {
        self.packed.as_bytes()
    }
}

/// Bit-packed quantized convolution weights `(c_o, k_h, k_w, c_i)`
/// (depthwise: `c_i = 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct QConvWeights {
    shape: Shape,
    depthwise: bool,
    packed: PackedTensor,
    offset: WeightOffset,
}

impl QConvWeights {
    /// Packs weight codes.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree, or a per-channel offset vector does not
    /// have one entry per output channel.
    pub fn new(
        shape: Shape,
        depthwise: bool,
        codes: &[u8],
        bits: BitWidth,
        offset: WeightOffset,
    ) -> Self {
        assert_eq!(codes.len(), shape.volume(), "code count vs shape");
        if depthwise {
            assert_eq!(shape.c, 1, "depthwise weights have c_i = 1");
        }
        if let WeightOffset::PerChannel(zs) = &offset {
            assert_eq!(zs.len(), shape.n, "one Zw per output channel");
        }
        QConvWeights {
            shape,
            depthwise,
            packed: PackedTensor::pack(codes, bits),
            offset,
        }
    }

    /// Weight shape `(c_o, k_h, k_w, c_i)`.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Whether these are depthwise weights.
    pub fn is_depthwise(&self) -> bool {
        self.depthwise
    }

    /// Element precision.
    pub fn bits(&self) -> BitWidth {
        self.packed.bits()
    }

    /// The zero-point storage.
    pub fn offset(&self) -> &WeightOffset {
        &self.offset
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.shape.n
    }

    /// Input channels (1 for depthwise).
    pub fn in_channels(&self) -> usize {
        self.shape.c
    }

    /// Flash footprint of the packed weights in bytes.
    pub fn byte_len(&self) -> usize {
        self.packed.byte_len()
    }

    /// Weight code at `(c_o, k_y, k_x, c_i)`.
    #[inline]
    pub fn get(&self, co: usize, ky: usize, kx: usize, ci: usize) -> u8 {
        self.packed.get(self.shape.index(co, ky, kx, ci))
    }

    /// Weight code at a linear `(c_o, k_h, k_w, c_i)` row-major index,
    /// extracted from the packed bytes in place — how the direct kernels
    /// read sub-byte weights.
    #[inline]
    pub(crate) fn code_at(&self, i: usize) -> u8 {
        self.packed.get(i)
    }

    /// Whether reading an element costs an unpack.
    pub fn needs_unpack(&self) -> bool {
        self.bits() != BitWidth::W8
    }

    /// The raw packed weight bytes, as they would be placed in flash. For
    /// 8-bit weights these are the codes themselves, in `(c_o, k_h, k_w,
    /// c_i)` order — exactly the flattened GEMM panel layout.
    pub fn as_bytes(&self) -> &[u8] {
        self.packed.as_bytes()
    }

    /// All weight codes, unpacked to one per byte in `(c_o, k_h, k_w,
    /// c_i)` order.
    pub fn codes(&self) -> Vec<u8> {
        self.packed.unpack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_roundtrip() {
        let shape = Shape::feature_map(2, 2, 2);
        let codes: Vec<u8> = (0..8).collect();
        let a = QActivation::from_codes(shape, &codes, BitWidth::W4, 3);
        assert_eq!(a.codes(), codes);
        assert_eq!(a.zero_point(), 3);
        assert_eq!(a.get(0, 1, 1, 1), 7);
        assert_eq!(a.byte_len(), 4);
        assert!(a.needs_unpack());
        let b = QActivation::from_codes(shape, &codes, BitWidth::W8, 0);
        assert!(!b.needs_unpack());
    }

    #[test]
    fn weights_roundtrip_per_channel() {
        let shape = Shape::new(2, 1, 1, 3);
        let codes = [1u8, 2, 3, 4, 5, 6];
        let w = QConvWeights::new(
            shape,
            false,
            &codes,
            BitWidth::W4,
            WeightOffset::PerChannel(vec![7, -2]),
        );
        assert_eq!(w.get(1, 0, 0, 2), 6);
        assert_eq!(w.offset().at(0), 7);
        assert_eq!(w.offset().at(1), -2);
        assert!(w.offset().is_per_channel());
        assert_eq!(w.byte_len(), 3);
    }

    #[test]
    fn per_layer_offset_broadcasts() {
        let off = WeightOffset::PerLayer(8);
        assert_eq!(off.at(0), 8);
        assert_eq!(off.at(99), 8);
        assert!(!off.is_per_channel());
    }

    #[test]
    #[should_panic(expected = "one Zw per output channel")]
    fn per_channel_offset_length_checked() {
        let _ = QConvWeights::new(
            Shape::new(2, 1, 1, 1),
            false,
            &[0, 0],
            BitWidth::W2,
            WeightOffset::PerChannel(vec![0]),
        );
    }

    #[test]
    #[should_panic(expected = "depthwise")]
    fn depthwise_weight_shape_checked() {
        let _ = QConvWeights::new(
            Shape::new(2, 3, 3, 2),
            true,
            &[0; 36],
            BitWidth::W8,
            WeightOffset::PerLayer(0),
        );
    }
}
