//! Bloom filter for cold-miss detection (paper §4).
//!
//! PA-LRU must know, for every access, whether the block has ever been
//! seen before — without storing the full set of accessed blocks. The
//! paper uses a Bloom filter: for an estimated 10⁷ blocks, 4 hash
//! functions and a vector of a few megabits keep the false-positive
//! probability negligible.
//!
//! This implementation is *blocked* (Putze, Sanders & Singler, "Cache-,
//! hash- and space-efficient Bloom filters"): each key's probe bits all
//! land in one 512-bit line, so `insert_check` — called once per cache
//! access on PA-LRU's hot path — costs a single cache-line touch instead
//! of `hashes` scattered ones. The false-positive rate is marginally
//! higher than a fully scattered layout at the same size, which is
//! irrelevant at the sizing above.

use pc_units::BlockId;

/// Bits per probe line. One line = eight `u64` words = 64 bytes, one
/// hardware cache line.
const LINE_BITS: u64 = 512;

/// A fixed-size blocked Bloom filter over [`BlockId`]s.
///
/// `insert_check` returns whether the block was *possibly present*; a
/// `false` answer is definitive ("definitely never seen" → cold miss).
///
/// # Examples
///
/// ```
/// use pc_cache::BloomFilter;
/// use pc_units::{BlockId, BlockNo, DiskId};
///
/// let mut bloom = BloomFilter::new(1 << 16, 4);
/// let b = BlockId::new(DiskId::new(1), BlockNo::new(77));
/// assert!(!bloom.insert_check(b)); // first sighting: cold
/// assert!(bloom.insert_check(b)); // now known
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Number of 512-bit lines minus one (line count is a power of two).
    line_mask: u64,
    hashes: u32,
}

impl BloomFilter {
    /// Creates a filter with `bits` bits (rounded up to a power of two,
    /// minimum one 512-bit line) and `hashes` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `hashes` is zero.
    #[must_use]
    pub fn new(bits: usize, hashes: u32) -> Self {
        assert!(hashes > 0, "need at least one hash function");
        let bits = bits.next_power_of_two().max(LINE_BITS as usize);
        BloomFilter {
            bits: vec![0; bits / 64],
            line_mask: bits as u64 / LINE_BITS - 1,
            hashes,
        }
    }

    /// Returns `true` if `block` was possibly inserted before, then
    /// inserts it. A `false` return is a guaranteed first sighting.
    pub fn insert_check(&mut self, block: BlockId) -> bool {
        let (h1, h2) = self.base_hashes(block);
        let base = self.line_base(h1);
        if self.hashes == 4 {
            // Unrolled hot path (the paper's k = 4). With an odd stride
            // the four in-line positions are pairwise distinct mod 512,
            // so reading the pre-insert state with independent loads and
            // OR-storing afterwards is exactly the generic loop's result.
            let b0 = h1 % LINE_BITS;
            let b1 = h1.wrapping_add(h2) % LINE_BITS;
            let b2 = h1.wrapping_add(h2.wrapping_mul(2)) % LINE_BITS;
            let b3 = h1.wrapping_add(h2.wrapping_mul(3)) % LINE_BITS;
            let (i0, m0) = (base + (b0 / 64) as usize, 1u64 << (b0 % 64));
            let (i1, m1) = (base + (b1 / 64) as usize, 1u64 << (b1 % 64));
            let (i2, m2) = (base + (b2 / 64) as usize, 1u64 << (b2 % 64));
            let (i3, m3) = (base + (b3 / 64) as usize, 1u64 << (b3 % 64));
            let (w0, w1, w2, w3) = (self.bits[i0], self.bits[i1], self.bits[i2], self.bits[i3]);
            let present = (w0 & m0 != 0) & (w1 & m1 != 0) & (w2 & m2 != 0) & (w3 & m3 != 0);
            if !present {
                self.bits[i0] |= m0;
                self.bits[i1] |= m1;
                self.bits[i2] |= m2;
                self.bits[i3] |= m3;
            }
            return present;
        }
        let mut present = true;
        for k in 0..u64::from(self.hashes) {
            let bit = h1.wrapping_add(k.wrapping_mul(h2)) % LINE_BITS;
            let (word, shift) = (base + (bit / 64) as usize, bit % 64);
            if self.bits[word] & (1 << shift) == 0 {
                present = false;
                self.bits[word] |= 1 << shift;
            }
        }
        present
    }

    /// Queries without inserting.
    #[must_use]
    pub fn contains(&self, block: BlockId) -> bool {
        let (h1, h2) = self.base_hashes(block);
        let base = self.line_base(h1);
        (0..u64::from(self.hashes)).all(|k| {
            let bit = h1.wrapping_add(k.wrapping_mul(h2)) % LINE_BITS;
            self.bits[base + (bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// First word index of the probe line for `h1`. The line is chosen
    /// by h1's *high* bits; in-line positions use the low bits.
    #[inline]
    fn line_base(&self, h1: u64) -> usize {
        (((h1 >> 32) & self.line_mask) * (LINE_BITS / 64)) as usize
    }

    /// Double hashing: two independent 64-bit hashes of the block address.
    fn base_hashes(&self, block: BlockId) -> (u64, u64) {
        let key = (u64::from(block.disk().index()) << 48) ^ block.block().number();
        let h1 = splitmix(key);
        let h2 = splitmix(h1 ^ 0xA076_1D64_78BD_642F) | 1; // odd stride
        (h1, h2)
    }
}

/// SplitMix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_units::{BlockNo, DiskId};

    fn blk(disk: u32, no: u64) -> BlockId {
        BlockId::new(DiskId::new(disk), BlockNo::new(no))
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1 << 14, 4);
        for i in 0..1_000 {
            f.insert_check(blk(i % 7, u64::from(i)));
        }
        for i in 0..1_000 {
            assert!(f.contains(blk(i % 7, u64::from(i))));
            assert!(f.insert_check(blk(i % 7, u64::from(i))));
        }
    }

    #[test]
    fn low_false_positive_rate_when_sized_well() {
        // 10 000 blocks at four bits each (rounded up to 2^16), four hashes.
        let mut f = BloomFilter::new(40_000, 4);
        for i in 0..10_000u64 {
            f.insert_check(blk(0, i));
        }
        let mut fp = 0;
        let probes = 10_000u64;
        for i in 0..probes {
            if f.contains(blk(1, i)) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.05, "false positive rate {rate}");
    }

    #[test]
    fn disks_do_not_collide_trivially() {
        let mut f = BloomFilter::new(1 << 14, 4);
        f.insert_check(blk(0, 42));
        assert!(!f.contains(blk(1, 42)));
    }

    #[test]
    #[should_panic(expected = "hash")]
    fn rejects_zero_hashes() {
        let _ = BloomFilter::new(64, 0);
    }

    #[test]
    fn unrolled_four_hash_path_matches_the_generic_loop() {
        // Reference: the generic probe loop, replayed on a shadow bit
        // array. The unrolled fast path must produce identical bits and
        // identical return values.
        let mut f = BloomFilter::new(1 << 12, 4);
        let mut shadow = vec![0u64; (1usize << 12) / 64];
        let mut state = 0x5EEDu64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let block = blk((state % 5) as u32, state % 300);
            let (h1, h2) = f.base_hashes(block);
            let base = f.line_base(h1);
            let mut present = true;
            for k in 0..4u64 {
                let bit = h1.wrapping_add(k.wrapping_mul(h2)) % LINE_BITS;
                let (word, shift) = (base + (bit / 64) as usize, bit % 64);
                if shadow[word] & (1 << shift) == 0 {
                    present = false;
                    shadow[word] |= 1 << shift;
                }
            }
            assert_eq!(f.insert_check(block), present);
        }
        assert_eq!(f.bits, shadow);
    }

    #[test]
    fn probes_stay_within_one_line() {
        // The blocked layout's contract: all of a key's probe words fall
        // inside one 512-bit line, so an insert touches one cache line.
        let f = BloomFilter::new(1 << 14, 4);
        let mut state = 0xB10Cu64;
        for _ in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let block = blk((state % 9) as u32, state);
            let (h1, h2) = f.base_hashes(block);
            let base = f.line_base(h1);
            for k in 0..4u64 {
                let bit = h1.wrapping_add(k.wrapping_mul(h2)) % LINE_BITS;
                let word = base + (bit / 64) as usize;
                assert!(word >= base && word < base + 8);
                assert!(word < f.bits.len());
            }
        }
    }
}
