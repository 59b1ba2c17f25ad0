//! The hasher behind every id-keyed table on the traced path: the
//! engine's message headers and the journey book's indexes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiplicative step: message ids are handed out in sequence,
/// which a multiply by an odd constant spreads over the table, and the
/// tables need none of SipHash's defence against chosen keys. Every
/// integer write is one step, so a `(node, port, vc)` key costs three.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`IdHasher`]. Its iteration order is fixed
/// for a given history of inserts but meaningless, so nothing observable
/// may depend on it.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
