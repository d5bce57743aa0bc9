//! Output digests: a streaming 64-bit hash of everything a workload
//! renders or streams, and a writer that counts and hashes bytes and
//! then discards them.
//!
//! The hash consumes 8-byte little-endian words. For a fixed word the
//! per-word step `h -> rotl((h ^ w) * K, 29)` is a bijection of `h`,
//! and for a fixed `h` a bijection of `w`, so two inputs of the same
//! length that differ in a single word always finish with different
//! digests: any one flipped byte is detected, not just probably
//! detected. The result does not depend on how the input is split into
//! `update` calls, so a streamed sink and a rendered string hash alike.

use std::io;
use std::sync::{Arc, Mutex};

const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A streaming digest of a byte sequence.
#[derive(Debug, Clone)]
pub struct Digest {
    h: u64,
    tail: [u8; 8],
    tail_len: usize,
    len: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest {
            h: 0x6A09_E667_F3BC_C908,
            tail: [0; 8],
            tail_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(K).rotate_left(29);
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Absorb a 64-bit value (used to chain sub-digests).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Bytes absorbed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let mut d = self.clone();
        let mut last = [0u8; 8];
        last[..d.tail_len].copy_from_slice(&d.tail[..d.tail_len]);
        d.word(u64::from_le_bytes(last));
        d.word(d.len);
        // splitmix64 finalizer: a bijection that spreads every bit.
        let mut z = d.h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The digest of one byte string.
pub fn of(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

/// A `Write` sink that hashes and counts bytes, then drops them. Clones
/// share one digest, so the engine can own one clone (boxed into a
/// series stream) while the caller reads the result from another.
#[derive(Debug, Clone, Default)]
pub struct DigestWriter(Arc<Mutex<Digest>>);

impl DigestWriter {
    /// A writer with an empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(bytes written, digest of those bytes)`.
    pub fn result(&self) -> (u64, u64) {
        let d = self.0.lock().expect("digest writer poisoned");
        (d.len(), d.finish())
    }
}

impl io::Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("digest writer poisoned").update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn split_points_do_not_change_the_digest() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = of(&data);
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let mut d = Digest::new();
            d.update(&data[..split]);
            d.update(&data[split..]);
            assert_eq!(d.finish(), whole, "split at {split}");
        }
        let mut bytewise = Digest::new();
        for b in &data {
            bytewise.update(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), whole);
    }

    #[test]
    fn length_and_trailing_zeros_are_distinguished() {
        assert_ne!(of(b""), of(b"\0"));
        assert_ne!(of(b"abc"), of(b"abc\0"));
        assert_ne!(of(&[0u8; 8]), of(&[0u8; 16]));
    }

    #[test]
    fn writer_counts_and_hashes_what_passes_through() {
        let w = DigestWriter::new();
        let mut handle = w.clone();
        handle.write_all(b"hello, ").unwrap();
        handle.write_all(b"world").unwrap();
        assert_eq!(w.result(), (12, of(b"hello, world")));
    }
}
