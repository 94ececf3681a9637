//! Sub-byte bit packing (§4.1: "weight-parameters are stored in memory as
//! UINT-Q").
//!
//! On the MCU, 4-bit tensors store two codes per byte and 2-bit tensors four
//! codes per byte, LSB-first within each byte. The integer kernels consume
//! [`PackedTensor`]s directly, paying the unpack cost the cycle model
//! accounts for.
//!
//! The pack/unpack loops are plain shifts and masks over whole bytes, the
//! host-side analogue of the PULP-NN `bitextract` unpacking
//! (arXiv:2007.07759): one portable loop per width, which the compiler
//! vectorizes at the baseline ISA of every target.

use std::fmt;

use crate::BitWidth;

/// A bit-packed buffer of unsigned `Q`-bit codes.
///
/// # Examples
///
/// ```
/// use mixq_quant::{BitWidth, PackedTensor};
///
/// let packed = PackedTensor::pack(&[1, 2, 3, 0, 1], BitWidth::W2);
/// assert_eq!(packed.byte_len(), 2); // 5 × 2 bits → 2 bytes
/// assert_eq!(packed.get(2), 3);
/// assert_eq!(packed.unpack(), vec![1, 2, 3, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedTensor {
    bytes: Vec<u8>,
    len: usize,
    bits: BitWidth,
}

impl PackedTensor {
    /// Packs unsigned codes into a bit-packed buffer.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds `2^Q − 1`.
    pub fn pack(codes: &[u8], bits: BitWidth) -> Self {
        let mut bytes = vec![0u8; bits.bytes_for(codes.len())];
        pack_codes(codes, bits, &mut bytes);
        PackedTensor {
            bytes,
            len: codes.len(),
            bits,
        }
    }

    /// Packs unsigned codes reusing a caller-provided byte buffer (resized
    /// in place and overwritten), so steady-state inference can recycle
    /// packed storage instead of allocating per tensor.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds `2^Q − 1`.
    pub fn pack_into(codes: &[u8], bits: BitWidth, mut storage: Vec<u8>) -> Self {
        // Packing overwrites every byte, so only growth needs a fill.
        let n = bits.bytes_for(codes.len());
        storage.truncate(n);
        storage.resize(n, 0);
        pack_codes(codes, bits, &mut storage);
        PackedTensor {
            bytes: storage,
            len: codes.len(),
            bits,
        }
    }

    /// Consumes the tensor, returning the packed byte buffer (for recycling
    /// through a buffer pool).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Number of logical elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element precision.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// Storage size in bytes — the quantity `mem(t, Q)` of Eq. 6–7.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Raw packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The `i`-th logical element.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        assert!(i < self.len, "index {i} out of range (len {})", self.len);
        if self.bits == BitWidth::W8 {
            return self.bytes[i];
        }
        let (byte, offset) = slot(i, self.bits);
        (self.bytes[byte] >> offset) & self.bits.qmax() as u8
    }

    /// Unpacks the whole buffer back to one code per byte.
    pub fn unpack(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        unpack_codes(&self.bytes, self.bits, &mut out);
        out
    }

    /// Unpacks into a caller-provided buffer, returning the element count.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `len()`.
    pub fn unpack_into(&self, out: &mut [u8]) -> usize {
        assert!(out.len() >= self.len, "output buffer too small");
        unpack_codes(&self.bytes, self.bits, &mut out[..self.len]);
        self.len
    }
}

/// Byte index and LSB-first bit offset of logical element `i`. A byte
/// holds `2^lg` codes (`lg` = 0, 1, 2 at W8, W4, W2), so both are a shift
/// and a mask.
#[inline]
fn slot(i: usize, bits: BitWidth) -> (usize, usize) {
    let lg = match bits {
        BitWidth::W8 => 0,
        BitWidth::W4 => 1,
        BitWidth::W2 => 2,
    };
    (i >> lg, (i & ((1 << lg) - 1)) << (3 - lg))
}

/// Packs `codes` into `bytes` (sized `bits.bytes_for(codes.len())`,
/// every byte overwritten): one loop per width over whole bytes
/// (W4 code pairs, W2 8-code `u64` words folded by shifts and masks), then
/// the sub-byte tail. Every code is ORed into one range byte; only when it
/// exceeds `qmax` does [`reject`] rescan, so the *first* out-of-range code
/// trips the assert.
fn pack_codes(codes: &[u8], bits: BitWidth, bytes: &mut [u8]) {
    debug_assert_eq!(bytes.len(), bits.bytes_for(codes.len()));
    let (whole, mut seen) = match bits {
        // One code per byte and qmax = 255: a straight copy, nothing to
        // validate.
        BitWidth::W8 => return bytes.copy_from_slice(codes),
        BitWidth::W4 => {
            let mut seen = 0u8;
            for (b, pair) in bytes.iter_mut().zip(codes.chunks_exact(2)) {
                // The fixed-size pair is what lets the loop vectorize.
                let [lo, hi]: [u8; 2] = pair.try_into().expect("code pair");
                *b = lo | hi << 4;
                seen |= lo | hi;
            }
            (codes.len() & !1, seen)
        }
        BitWidth::W2 => {
            let mut seen = 0u64;
            for (b, word) in bytes.chunks_exact_mut(2).zip(codes.chunks_exact(8)) {
                let v = u64::from_le_bytes(word.try_into().expect("8-code word"));
                seen |= v;
                // Code pairs into nibbles at u16, nibble pairs into bytes
                // at u32: bytes 0 and 4 of `u` hold the two packed bytes.
                let t = (v | v >> 6) & 0x000F_000F_000F_000F;
                let u = (t | t >> 12) & 0x0000_00FF_0000_00FF;
                b[0] = u as u8;
                b[1] = (u >> 32) as u8;
            }
            let seen = seen.to_le_bytes().into_iter().fold(0, |acc, v| acc | v);
            (codes.len() & !7, seen)
        }
    };
    bytes[slot(whole, bits).0..].fill(0);
    for (i, &code) in codes.iter().enumerate().skip(whole) {
        let (byte, offset) = slot(i, bits);
        bytes[byte] |= code << offset;
        seen |= code;
    }
    if seen > bits.qmax() as u8 {
        reject(codes, bits);
    }
}

/// The cold path of [`pack_codes`]: some code exceeds `qmax`, so rescan
/// in order and let the first offender trip the assert.
#[cold]
#[inline(never)]
fn reject(codes: &[u8], bits: BitWidth) -> ! {
    let qmax = bits.qmax() as u8;
    for &code in codes {
        assert!(
            code <= qmax,
            "code {code} exceeds {qmax} for {bits} packing"
        );
    }
    unreachable!("the codes' OR exceeds {qmax} but no code does")
}

/// Unpacks exactly `out.len()` codes from `bytes`: one loop per width over
/// whole bytes, then the sub-byte tail.
fn unpack_codes(bytes: &[u8], bits: BitWidth, out: &mut [u8]) {
    let whole = match bits {
        BitWidth::W8 => return out.copy_from_slice(&bytes[..out.len()]),
        BitWidth::W4 => {
            for (o, &b) in out.chunks_exact_mut(2).zip(bytes) {
                o.copy_from_slice(&[b & 15, b >> 4]);
            }
            out.len() & !1
        }
        BitWidth::W2 => {
            for (o, &b) in out.chunks_exact_mut(4).zip(bytes) {
                let v = b as u32;
                o.copy_from_slice(&((v | v << 6 | v << 12 | v << 18) & 0x0303_0303).to_le_bytes());
            }
            out.len() & !3
        }
    };
    let mask = bits.qmax() as u8;
    for (i, dst) in out.iter_mut().enumerate().skip(whole) {
        let (byte, offset) = slot(i, bits);
        *dst = (bytes[byte] >> offset) & mask;
    }
}

impl fmt::Display for PackedTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackedTensor({} elems @ {}, {} bytes)",
            self.len,
            self.bits,
            self.bytes.len()
        )
    }
}

/// Bytes required to store `elements` codes at `bits` precision.
///
/// Convenience alias for [`BitWidth::bytes_for`], used throughout the memory
/// model.
pub fn packed_size(elements: usize, bits: BitWidth) -> usize {
    bits.bytes_for(elements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        for bits in BitWidth::ALL {
            let levels = bits.levels();
            let codes: Vec<u8> = (0..37u32).map(|i| (i % levels) as u8).collect();
            let packed = PackedTensor::pack(&codes, bits);
            assert_eq!(packed.unpack(), codes, "{bits}");
            assert_eq!(packed.len(), 37);
            assert_eq!(packed.byte_len(), bits.bytes_for(37));
        }
    }

    /// The layout written element by element (LSB-first, `8 / Q` codes
    /// per byte), independent of the word loops under test.
    fn reference_pack(codes: &[u8], bits: BitWidth) -> Vec<u8> {
        let q = bits.bits() as usize;
        let per_byte = 8 / q;
        let mut bytes = vec![0u8; codes.len().div_ceil(per_byte)];
        for (i, &code) in codes.iter().enumerate() {
            bytes[i / per_byte] |= code << ((i % per_byte) * q);
        }
        bytes
    }

    #[test]
    fn pack_matches_reference_layout_across_lengths() {
        // Lengths straddling every W4 pair and W2 8-code word boundary,
        // with tails of every size.
        let lengths = (0..=9).chain([15, 16, 17, 31, 32, 33, 63, 64, 65, 1000]);
        for n in lengths {
            for bits in BitWidth::ALL {
                let levels = bits.levels();
                let codes: Vec<u8> = (0..n)
                    .map(|i| ((i * 2654435761) % levels as usize) as u8)
                    .collect();
                let packed = PackedTensor::pack(&codes, bits);
                assert_eq!(
                    packed.as_bytes(),
                    reference_pack(&codes, bits).as_slice(),
                    "{bits} n={n} pack drifted from the reference layout"
                );
                assert_eq!(packed.unpack(), codes, "{bits} n={n} round trip");
                let mut buf = vec![0u8; n + 3];
                assert_eq!(packed.unpack_into(&mut buf), n);
                assert_eq!(&buf[..n], codes.as_slice(), "{bits} n={n} unpack_into");
                for (i, &c) in codes.iter().enumerate() {
                    assert_eq!(packed.get(i), c, "{bits} n={n} get({i})");
                }
            }
        }
    }

    #[test]
    fn pack_into_matches_pack_and_recycles_storage() {
        let codes: Vec<u8> = (0..33u8).map(|i| i % 16).collect();
        let fresh = PackedTensor::pack(&codes, BitWidth::W4);
        // A dirty, over-sized recycled buffer must not leak into the result.
        let recycled = vec![0xFFu8; 64];
        let cap = recycled.capacity();
        let pooled = PackedTensor::pack_into(&codes, BitWidth::W4, recycled);
        assert_eq!(pooled, fresh);
        assert_eq!(pooled.unpack(), codes);
        // The buffer ownership round-trips without reallocating.
        let bytes = pooled.into_bytes();
        assert_eq!(bytes.capacity(), cap);
        assert_eq!(bytes.len(), BitWidth::W4.bytes_for(33));
    }

    #[test]
    fn get_matches_unpack() {
        let codes: Vec<u8> = vec![3, 0, 1, 2, 3, 3, 0, 1, 2];
        let packed = PackedTensor::pack(&codes, BitWidth::W2);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(packed.get(i), c);
        }
    }

    #[test]
    fn four_bit_layout_is_lsb_first() {
        let packed = PackedTensor::pack(&[0x1, 0x2], BitWidth::W4);
        // element 0 in low nibble, element 1 in high nibble
        assert_eq!(packed.as_bytes(), &[0x21]);
    }

    #[test]
    fn two_bit_layout_is_lsb_first() {
        let packed = PackedTensor::pack(&[1, 2, 3, 0], BitWidth::W2);
        // 0b00_11_10_01
        assert_eq!(packed.as_bytes(), &[0b0011_1001]);
    }

    #[test]
    fn eight_bit_is_identity() {
        let codes = vec![0u8, 127, 255];
        let packed = PackedTensor::pack(&codes, BitWidth::W8);
        assert_eq!(packed.as_bytes(), codes.as_slice());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overflowing_code_panics() {
        let _ = PackedTensor::pack(&[4], BitWidth::W2);
    }

    #[test]
    #[should_panic(expected = "code 16 exceeds 15")]
    fn overflowing_w4_code_in_whole_bytes_panics() {
        // Offender deep inside the whole-byte loop: the rescan must raise
        // the same first-bad-code assert.
        let mut codes = vec![1u8; 64];
        codes[40] = 16;
        let _ = PackedTensor::pack(&codes, BitWidth::W4);
    }

    #[test]
    #[should_panic(expected = "code 9 exceeds 3")]
    fn overflowing_w2_code_in_whole_words_panics() {
        let mut codes = vec![2u8; 130];
        codes[70] = 9;
        let _ = PackedTensor::pack(&codes, BitWidth::W2);
    }

    #[test]
    #[should_panic(expected = "code 17 exceeds 15")]
    fn overflowing_w4_code_in_tail_panics() {
        let mut codes = vec![3u8; 33];
        codes[32] = 17;
        let _ = PackedTensor::pack(&codes, BitWidth::W4);
    }

    #[test]
    #[should_panic(expected = "code 5 exceeds 3")]
    fn overflowing_w2_code_in_tail_panics() {
        let mut codes = vec![1u8; 15];
        codes[14] = 5;
        let _ = PackedTensor::pack(&codes, BitWidth::W2);
    }

    #[test]
    #[should_panic(expected = "code 4 exceeds 3")]
    fn first_of_two_overflowing_codes_is_reported() {
        // The later offender is larger and sits in the tail; the rescan
        // still reports the earlier one.
        let mut codes = vec![0u8; 21];
        codes[5] = 4;
        codes[20] = 255;
        let _ = PackedTensor::pack(&codes, BitWidth::W2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let packed = PackedTensor::pack(&[1], BitWidth::W4);
        let _ = packed.get(1);
    }

    #[test]
    fn unpack_into_buffer() {
        let packed = PackedTensor::pack(&[5, 10, 15], BitWidth::W4);
        let mut buf = [0u8; 8];
        assert_eq!(packed.unpack_into(&mut buf), 3);
        assert_eq!(&buf[..3], &[5, 10, 15]);
    }

    #[test]
    fn empty_tensor() {
        let packed = PackedTensor::pack(&[], BitWidth::W4);
        assert!(packed.is_empty());
        assert_eq!(packed.byte_len(), 0);
        assert_eq!(packed.unpack(), Vec::<u8>::new());
    }

    #[test]
    fn packed_size_helper() {
        assert_eq!(packed_size(1000, BitWidth::W4), 500);
        assert_eq!(packed_size(1001, BitWidth::W2), 251);
    }

    #[test]
    fn display() {
        let packed = PackedTensor::pack(&[1, 2, 3], BitWidth::W4);
        assert!(packed.to_string().contains("3 elems"));
    }
}
