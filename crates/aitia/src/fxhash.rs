//! A fast, non-cryptographic hasher for the analysis hot paths.
//!
//! LIFS folds every executed trace into its knowledge base, hashing small
//! integer keys (addresses, instruction addresses, occurrence counters)
//! once or twice per step. The standard library's SipHash spends most of
//! that time resisting crafted collisions, but these keys are addresses and
//! instruction positions the simulator assigns, never bytes from outside
//! the program. This is the multiply-rotate hash rustc uses for the same
//! purpose; the final rotation moves the well-mixed high bits of the
//! product into the low bits the table indexes by, so aligned addresses
//! still spread.

use std::{
    collections::HashMap,
    hash::{
        BuildHasherDefault,
        Hasher, //
    },
};

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The multiply-rotate hasher behind [`FxHashMap`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}
