//! Storage addressing identifiers.
//!
//! A storage system is an array of disks; each disk is an array of
//! fixed-size blocks. [`DiskId`] and [`BlockNo`] are the two coordinates,
//! and [`BlockId`] is the pair — the key under which the storage cache
//! indexes data.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The index of a disk within the storage system's disk array.
///
/// # Examples
///
/// ```
/// use pc_units::DiskId;
///
/// let d = DiskId::new(14);
/// assert_eq!(d.index(), 14);
/// assert_eq!(d.to_string(), "disk14");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DiskId(u32);

/// The index of a block within one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockNo(u64);

/// A globally-unique block address: a `(disk, block)` pair.
///
/// The address is 12 bytes with 4-byte alignment, so a trace record
/// (`pc_trace::Record`: a time, this address, a block count and an
/// op) packs into 32 bytes instead of 40. The block number is stored
/// *first*. A 12-byte struct is passed by pointer; with the disk first,
/// the callee read the block with one 8-byte load at offset 4, which
/// straddled the caller's two separate stores. That store-forwarding
/// stall about doubled the cost of a Bloom probe and of a block-table
/// lookup. Block-first, the load lines up with the caller's 8-byte
/// store.
///
/// Storage order is not the logical order. Everything observable keeps
/// `(disk, block)` order, exactly as a derive over those two fields in
/// that order would: [`Hash`] writes the disk's `u32`, then the block's
/// `u64` (so every hash map iterates as before), [`Ord`] is
/// lexicographic on `(disk, block)` (flushes and OPG's heaps order by
/// it), and [`Debug`] prints `BlockId { disk: .., block: .. }`.
///
/// # Examples
///
/// ```
/// use pc_units::{BlockId, BlockNo, DiskId};
///
/// let id = BlockId::new(DiskId::new(2), BlockNo::new(4096));
/// assert_eq!(id.disk(), DiskId::new(2));
/// assert_eq!(id.block(), BlockNo::new(4096));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, packed(4))]
pub struct BlockId {
    block: BlockNo,
    disk: DiskId,
}

const _: () = assert!(std::mem::size_of::<BlockId>() == 12 && std::mem::align_of::<BlockId>() == 4);

impl DiskId {
    /// Creates a disk identifier from its array index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        DiskId(index)
    }

    /// Returns the disk's array index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the disk's array index as a `usize`, for direct slice
    /// indexing.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl BlockNo {
    /// Creates a block number.
    #[must_use]
    pub const fn new(number: u64) -> Self {
        BlockNo(number)
    }

    /// Returns the raw block number.
    #[must_use]
    pub const fn number(self) -> u64 {
        self.0
    }
}

impl BlockId {
    /// Creates a block address from its disk and block coordinates.
    #[must_use]
    pub const fn new(disk: DiskId, block: BlockNo) -> Self {
        BlockId { disk, block }
    }

    /// Returns the disk coordinate.
    #[must_use]
    pub const fn disk(self) -> DiskId {
        self.disk
    }

    /// Returns the block coordinate.
    #[must_use]
    pub const fn block(self) -> BlockNo {
        self.block
    }
}

impl Hash for BlockId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.disk().hash(state);
        self.block().hash(state);
    }
}

impl Ord for BlockId {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.disk(), self.block()).cmp(&(other.disk(), other.block()))
    }
}

impl PartialOrd for BlockId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockId")
            .field("disk", &self.disk())
            .field("block", &self.block())
            .finish()
    }
}

impl From<u32> for DiskId {
    fn from(index: u32) -> Self {
        DiskId(index)
    }
}

impl From<u64> for BlockNo {
    fn from(number: u64) -> Self {
        BlockNo(number)
    }
}

impl From<(DiskId, BlockNo)> for BlockId {
    fn from((disk, block): (DiskId, BlockNo)) -> Self {
        BlockId { disk, block }
    }
}

impl fmt::Display for DiskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk{}", self.0)
    }
}

impl fmt::Display for BlockNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.disk(), self.block())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_round_trip() {
        let id = BlockId::new(DiskId::new(3), BlockNo::new(77));
        assert_eq!(id.disk().index(), 3);
        assert_eq!(id.block().number(), 77);
        assert_eq!(BlockId::from((DiskId::new(3), BlockNo::new(77))), id);
    }

    #[test]
    fn ordering_groups_by_disk_first() {
        let a = BlockId::new(DiskId::new(0), BlockNo::new(999));
        let b = BlockId::new(DiskId::new(1), BlockNo::new(0));
        assert!(a < b);
    }

    #[test]
    fn display_is_compact() {
        let id = BlockId::new(DiskId::new(2), BlockNo::new(5));
        assert_eq!(id.to_string(), "disk2#5");
    }

    /// The address as `#[derive]` laid it out before it shrank to 12
    /// bytes: the reference every observable behaviour must match.
    mod derived {
        use super::{BlockNo, DiskId};

        #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct BlockId {
            pub disk: DiskId,
            pub block: BlockNo,
        }
    }

    /// Records every `Hasher` call, so two `Hash` impls can be compared
    /// write by write.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(format!("bytes {bytes:?}"));
        }
        fn write_u32(&mut self, i: u32) {
            self.0.push(format!("u32 {i}"));
        }
        fn write_u64(&mut self, i: u64) {
            self.0.push(format!("u64 {i}"));
        }
    }

    fn writes<T: Hash>(value: &T) -> Vec<String> {
        let mut recorder = Recorder::default();
        value.hash(&mut recorder);
        recorder.0
    }

    const EDGE_DISKS: [u32; 3] = [0, 1, u32::MAX];
    /// Both 32-bit halves of the block number at their limits.
    const EDGE_BLOCKS: [u64; 6] = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, u64::MAX];
    const EDGES: usize = EDGE_DISKS.len() * EDGE_BLOCKS.len();

    /// The edge coordinates crossed with each other, then 1 000 seeded
    /// pairs on four disks.
    fn samples() -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for disk in EDGE_DISKS {
            for block in EDGE_BLOCKS {
                out.push((disk, block));
            }
        }
        // SplitMix64: the seeded pairs need no dependency.
        let mut state = 0x1D5_B10C_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..1_000 {
            let disk = next() as u32 % 4;
            out.push((disk, next()));
        }
        out
    }

    #[test]
    fn layout_is_twelve_bytes_block_first() {
        assert_eq!(std::mem::size_of::<BlockId>(), 12);
        assert_eq!(std::mem::align_of::<BlockId>(), 4);
        const ID: BlockId = BlockId::new(DiskId::new(7), BlockNo::new(9));
        const DISK: DiskId = ID.disk();
        const BLOCK: BlockNo = ID.block();
        assert_eq!((DISK, BLOCK), (DiskId::new(7), BlockNo::new(9)));
        assert_eq!(
            BlockId::default(),
            BlockId::new(DiskId::new(0), BlockNo::new(0))
        );
    }

    #[test]
    fn behaves_exactly_like_the_derived_pair() {
        let samples = samples();
        for &(d, b) in &samples {
            let (disk, block) = (DiskId::new(d), BlockNo::new(b));
            let id = BlockId::new(disk, block);
            let old = derived::BlockId { disk, block };
            assert_eq!((id.disk(), id.block()), (disk, block));
            assert_eq!(BlockId::from((disk, block)), id);
            assert_eq!(writes(&id), writes(&(disk, block)));
            assert_eq!(writes(&id), writes(&old));
            assert_eq!(format!("{id:?}"), format!("{old:?}"));
            assert_eq!(format!("{id:#?}"), format!("{old:#?}"));
            assert_eq!(id.to_string(), format!("disk{d}#{b}"));
        }
        for (i, &(d1, b1)) in samples.iter().enumerate() {
            // Every edge value against every other, and each seeded
            // pair against its neighbours.
            let partners = if i < EDGES {
                0..samples.len()
            } else {
                i - 1..(i + 2).min(samples.len())
            };
            for &(d2, b2) in &samples[partners] {
                let (x, y) = (
                    BlockId::new(DiskId::new(d1), BlockNo::new(b1)),
                    BlockId::new(DiskId::new(d2), BlockNo::new(b2)),
                );
                assert_eq!(x.cmp(&y), (d1, b1).cmp(&(d2, b2)), "{x:?} vs {y:?}");
                assert_eq!(x.partial_cmp(&y), Some(x.cmp(&y)));
                assert_eq!(x == y, (d1, b1) == (d2, b2));
            }
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(DiskId::from(9u32), DiskId::new(9));
        assert_eq!(BlockNo::from(9u64), BlockNo::new(9));
        assert_eq!(DiskId::new(9).as_usize(), 9usize);
    }
}
