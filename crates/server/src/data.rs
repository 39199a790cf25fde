//! The payload data plane: a slot-indexed slab block store with CRC32C
//! integrity, plus the deterministic "virtual disk image" every block's
//! contents are derived from.
//!
//! # Slab layout
//!
//! The cache core already interns every resident block to a dense
//! [`Slot`](pc_cache::Slot), recycled through the `BlockTable`
//! free-list on eviction. The slab piggybacks on that numbering: one
//! contiguous `Vec<u8>` arena holds `block_bytes`-sized frames, and
//! slot *s* lives at byte offset `s × block_bytes` — data placement is
//! a multiply, no map lookup, no per-block allocation. Two parallel
//! vectors carry the per-slot checksum (`Vec<u32>`, computed on WRITE
//! ingest, verified on READ hit) and the owner tag that guards
//! free-list reuse: a recycled slot whose tag names the *previous*
//! tenant is treated as absent and refilled, so stale bytes can never
//! be served — the churn tests pin this.
//!
//! The slab grows lazily in `CHUNK_BLOCKS`-frame steps as data
//! requests touch higher slots, so a metadata-only server never
//! allocates payload memory at all.
//!
//! # The virtual disk image
//!
//! There is no physical backing store: the "disk image" of block
//! `(disk, block)` is the deterministic byte stream [`fill_block`]
//! derives from those coordinates (counter-mode SplitMix64 over a seed
//! mixed from both). The image is a definition, not stored data: the
//! server's miss path, `pc-loadgen` and the benchmark client all derive
//! it through that one function, and known-answer tests pin it so it
//! cannot change silently. A READ miss synthesizes the image into the
//! slab; any client can re-derive and verify the same bytes — which is
//! exactly what `pc-loadgen --payload` does on every READ reply. The
//! semantic caveat: a `WRITE_DATA` overwrites the *cached* copy (and
//! its CRC), but an evicted block's next read returns the image again,
//! because evictions write to a disk that exists only as a function.

use pc_crc::crc32c;

/// Slab growth quantum, in frames: 4 MiB steps at the default 4 KiB
/// block, coarse enough to keep growth rare and fine enough that a
/// small cache does not overallocate.
const CHUNK_BLOCKS: usize = 1024;

/// SplitMix64's counter increment (the golden-ratio "gamma").
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fills `buf` with the deterministic disk image of `(disk, block)`:
/// counter-mode SplitMix64 seeded from the coordinates, so little-endian
/// word *i* is `mix(seed + (i+1)·γ)` and a trailing partial word is the
/// prefix of the next one. Any reader can re-derive (and so verify) any
/// block's pristine contents, and a shorter fill is always a prefix of a
/// longer one.
pub fn fill_block(disk: u32, block: u64, buf: &mut [u8]) {
    // One multiplicative mix keeps neighbouring blocks' streams
    // unrelated even though their seeds differ by one.
    let mut counter = (u64::from(disk) << 32 | 0x5EED)
        .wrapping_mul(GAMMA)
        .wrapping_add(block.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    // Each word depends on the counter alone, never on the previous
    // word's mix, so consecutive words' multiplies overlap in the
    // pipeline instead of forming one serial chain.
    let mut chunks = buf.chunks_exact_mut(8);
    for chunk in &mut chunks {
        counter = counter.wrapping_add(GAMMA);
        chunk.copy_from_slice(&mix(counter).to_le_bytes());
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let bytes = mix(counter.wrapping_add(GAMMA)).to_le_bytes();
        tail.copy_from_slice(&bytes[..tail.len()]);
    }
}

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a verified slab read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The frame verified clean and its bytes were appended.
    Clean,
    /// The frame failed its CRC32C check: nothing was appended, the
    /// failure was counted, and the frame was refilled from the disk
    /// image so later reads recover.
    Corrupt,
}

/// Per-shard slab block store: slot-indexed frames + parallel CRC and
/// owner-tag vectors. Single-threaded by construction — each shard
/// thread owns its store, like its cache.
#[derive(Debug)]
pub struct BlockStore {
    block_bytes: usize,
    /// Flip one byte before every Nth verified read (0 = never): the
    /// deterministic corruption fault injection behind `--corrupt-rate`.
    corrupt_every: u64,
    /// Verified reads so far (drives the injection cadence).
    reads: u64,
    crc_failures: u64,
    /// The arena: frame `s` at `s × block_bytes`.
    data: Vec<u8>,
    /// CRC32C per frame, computed at store/fill time.
    crcs: Vec<u32>,
    /// Which `(disk, block)` the frame's bytes belong to. `None` for a
    /// never-written frame; a stale tag (slot recycled by the
    /// free-list) reads as absent, so stale bytes are never served.
    owners: Vec<Option<(u32, u64)>>,
}

impl BlockStore {
    /// An empty store serving `block_bytes`-sized frames.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    #[must_use]
    pub fn new(block_bytes: usize, corrupt_every: u64) -> Self {
        assert!(block_bytes > 0, "blocks must carry at least one byte");
        BlockStore {
            block_bytes,
            corrupt_every,
            reads: 0,
            crc_failures: 0,
            data: Vec::new(),
            crcs: Vec::new(),
            owners: Vec::new(),
        }
    }

    /// Payload bytes per block.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// CRC verification failures detected so far (the STATS counter).
    #[must_use]
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures
    }

    /// Slab bytes currently allocated (for footprint accounting).
    #[cfg(test)]
    #[must_use]
    pub fn slab_bytes(&self) -> usize {
        self.data.len()
    }

    /// Grows the arena (in whole chunks) until `slot` has a frame.
    fn ensure(&mut self, slot: usize) {
        if slot < self.owners.len() {
            return;
        }
        let frames = (slot + 1).div_ceil(CHUNK_BLOCKS) * CHUNK_BLOCKS;
        self.data.resize(frames * self.block_bytes, 0);
        self.crcs.resize(frames, 0);
        self.owners.resize(frames, None);
    }

    fn frame_range(&self, slot: usize) -> std::ops::Range<usize> {
        slot * self.block_bytes..(slot + 1) * self.block_bytes
    }

    /// Stores client-written `bytes` into `slot`'s frame, stamping the
    /// checksum and the owner tag. `bytes` must be one block.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly one block long.
    pub fn store(&mut self, slot: usize, disk: u32, block: u64, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.block_bytes, "store takes one block");
        self.ensure(slot);
        let range = self.frame_range(slot);
        self.data[range].copy_from_slice(bytes);
        self.crcs[slot] = crc32c(bytes);
        self.owners[slot] = Some((disk, block));
    }

    /// Synthesizes `(disk, block)`'s disk image into `slot`'s frame
    /// (the READ-miss fill path).
    pub fn fill(&mut self, slot: usize, disk: u32, block: u64) {
        self.ensure(slot);
        let range = self.frame_range(slot);
        fill_block(disk, block, &mut self.data[range.clone()]);
        self.crcs[slot] = crc32c(&self.data[range]);
        self.owners[slot] = Some((disk, block));
    }

    /// Serves one block into `out`.
    ///
    /// `slot == None` (the block is not resident — e.g. evicted by a
    /// later block of the same multi-block request) synthesizes the
    /// disk image straight into the reply. A resident slot is verified
    /// against its stored CRC first; an owner-tag mismatch (free-list
    /// reuse, prefetch-admitted block) refills the frame before
    /// serving, so stale bytes never leave the store.
    pub fn read_into(
        &mut self,
        slot: Option<usize>,
        disk: u32,
        block: u64,
        out: &mut Vec<u8>,
    ) -> ReadOutcome {
        let Some(slot) = slot else {
            let at = out.len();
            out.resize(at + self.block_bytes, 0);
            fill_block(disk, block, &mut out[at..]);
            return ReadOutcome::Clean;
        };
        self.ensure(slot);
        if self.owners[slot] != Some((disk, block)) {
            self.fill(slot, disk, block);
        } else {
            self.reads += 1;
            if self.corrupt_every > 0 && self.reads.is_multiple_of(self.corrupt_every) {
                // Deterministic fault injection: damage one byte, let
                // the verify below catch it.
                let at = slot * self.block_bytes;
                self.data[at] ^= 0xFF;
            }
            let range = self.frame_range(slot);
            if crc32c(&self.data[range]) != self.crcs[slot] {
                self.crc_failures += 1;
                // Recover: the pristine image replaces the damaged
                // frame so subsequent reads succeed.
                self.fill(slot, disk, block);
                return ReadOutcome::Corrupt;
            }
        }
        out.extend_from_slice(&self.data[self.frame_range(slot)]);
        ReadOutcome::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BB: usize = 512;

    fn image(disk: u32, block: u64) -> Vec<u8> {
        let mut buf = vec![0u8; BB];
        fill_block(disk, block, &mut buf);
        buf
    }

    #[test]
    fn fill_is_deterministic_and_distinct_across_blocks() {
        assert_eq!(image(1, 7), image(1, 7));
        assert_ne!(image(1, 7), image(1, 8));
        assert_ne!(image(1, 7), image(2, 7));
        // Short tails are filled too (no zero suffix).
        let mut small = [0u8; 13];
        fill_block(3, 3, &mut small);
        assert!(small.iter().any(|&b| b != 0));
    }

    /// Known answers for the first and last word of a 4 KiB image: the
    /// image is a definition shared by the server, `pc-loadgen` and the
    /// benchmark client, so it may only change on purpose (and with a
    /// CHANGELOG entry).
    #[test]
    fn fill_block_known_answers() {
        let word = |buf: &[u8], i: usize| u64::from_le_bytes(buf[i * 8..][..8].try_into().unwrap());
        for (disk, block, first, last) in [
            (0, 0, 0x0C15_0480_3D8B_A479, 0xA822_960B_9B01_D5A1),
            (
                u32::MAX,
                1 << 40,
                0xD132_66A9_3429_6FFA,
                0xE64B_F422_A772_AA5F,
            ),
        ] {
            let mut buf = vec![0u8; 4096];
            fill_block(disk, block, &mut buf);
            assert_eq!(
                (word(&buf, 0), word(&buf, 511)),
                (first, last),
                "fill_block({disk}, {block})"
            );
        }
    }

    #[test]
    fn shorter_fills_are_prefixes_of_longer_ones() {
        let mut full = vec![0u8; 4096];
        fill_block(6, 1 << 33, &mut full);
        for n in [0, 1, 7, 8, 13, 4095] {
            let mut short = vec![0u8; n];
            fill_block(6, 1 << 33, &mut short);
            assert_eq!(short, full[..n], "{n}-byte fill");
        }
    }

    #[test]
    fn store_then_read_roundtrips_with_crc() {
        let mut s = BlockStore::new(BB, 0);
        let payload = vec![0xC3u8; BB];
        s.store(5, 1, 42, &payload);
        let mut out = Vec::new();
        assert_eq!(s.read_into(Some(5), 1, 42, &mut out), ReadOutcome::Clean);
        assert_eq!(out, payload);
        assert_eq!(s.crc_failures(), 0);
    }

    #[test]
    fn nonresident_reads_synthesize_the_disk_image() {
        let mut s = BlockStore::new(BB, 0);
        let mut out = Vec::new();
        assert_eq!(s.read_into(None, 9, 100, &mut out), ReadOutcome::Clean);
        assert_eq!(out, image(9, 100));
        assert_eq!(s.slab_bytes(), 0, "a miss-through must not grow the slab");
    }

    /// The churn property: free-list slot reuse must never leak the
    /// previous tenant's bytes, across repeated eviction cycles.
    #[test]
    fn recycled_slots_never_alias_the_previous_tenant() {
        let mut s = BlockStore::new(BB, 0);
        for cycle in 0..10u64 {
            // Tenant A (distinct fill pattern per cycle) occupies slot 3…
            let a = vec![cycle as u8 | 0x40; BB];
            s.store(3, 0, cycle, &a);
            let mut out = Vec::new();
            assert_eq!(s.read_into(Some(3), 0, cycle, &mut out), ReadOutcome::Clean);
            assert_eq!(out, a);
            // …then is evicted and the slot recycled to tenant B: the
            // stale tag must force a refill from B's disk image, never
            // A's bytes.
            let b_block = 1_000 + cycle;
            let mut out = Vec::new();
            assert_eq!(
                s.read_into(Some(3), 0, b_block, &mut out),
                ReadOutcome::Clean
            );
            assert_eq!(out, image(0, b_block), "cycle {cycle}: stale bytes served");
            assert_ne!(out, a);
        }
        assert_eq!(s.crc_failures(), 0);
    }

    #[test]
    fn corruption_injection_is_detected_counted_and_recovered() {
        // Every 2nd verified read is damaged first.
        let mut s = BlockStore::new(BB, 2);
        s.fill(0, 4, 11);
        let mut out = Vec::new();
        assert_eq!(s.read_into(Some(0), 4, 11, &mut out), ReadOutcome::Clean);
        assert_eq!(s.read_into(Some(0), 4, 11, &mut out), ReadOutcome::Corrupt);
        assert_eq!(s.crc_failures(), 1);
        // The refill recovered the frame: the next clean read serves
        // the pristine image.
        let mut out = Vec::new();
        assert_eq!(s.read_into(Some(0), 4, 11, &mut out), ReadOutcome::Clean);
        assert_eq!(out, image(4, 11));
    }

    #[test]
    fn slab_grows_in_chunks_lazily() {
        let mut s = BlockStore::new(BB, 0);
        s.fill(0, 0, 0);
        assert_eq!(s.slab_bytes(), CHUNK_BLOCKS * BB);
        s.fill(CHUNK_BLOCKS, 0, 1);
        assert_eq!(s.slab_bytes(), 2 * CHUNK_BLOCKS * BB);
    }
}
