//! The compiler's hasher for its own tables: one multiply per word.
//!
//! The keys it serves are numbers the compiler issues itself (value
//! numbers, interned ids, register and loop-variable numbers) or reads
//! off the formula (subscript terms and constants, the bits of a
//! constant), small and mostly distinct. SipHash's protection against
//! crafted collisions costs most of a lookup (in the optimizer's passes
//! and the packer it was most of their time), and what it protects is
//! the compile time of the formula that was crafted, which any input
//! can already spend up to the compiler's resource limits.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed through [`Mix`].
pub(crate) type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<Mix>>;

/// Folds each 64-bit word into the state with one multiply.
#[derive(Default, Clone, Copy)]
pub(crate) struct Mix(u64);

impl Mix {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..word.len()].copy_from_slice(word);
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's well-mixed high bits pick the bucket.
        self.0.rotate_left(26)
    }
}
