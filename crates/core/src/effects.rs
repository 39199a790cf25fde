//! Cache write policies and the disk-side effects the cache emits.

use pc_units::BlockId;

/// A storage-cache write policy (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write dirty data to disk immediately; the cache never holds dirty
    /// blocks.
    WriteThrough,
    /// Hold dirty blocks and write them back only on eviction.
    WriteBack,
    /// Write-back with eager update: additionally flush a disk's dirty
    /// blocks whenever that disk becomes active for a read miss, and
    /// force-flush once a disk accumulates more than `dirty_limit` dirty
    /// blocks.
    Wbeu {
        /// Maximum dirty blocks a single disk may accumulate before a
        /// forced flush (which wakes the disk).
        dirty_limit: usize,
    },
    /// Write-through with deferred update: writes to a sleeping disk go to
    /// a per-disk log region on an always-active persistent device and are
    /// replayed to their true destination when the disk next becomes
    /// active. Provides write-through-grade persistence (see
    /// [`wtdu`](crate::wtdu) for the recovery protocol).
    Wtdu,
}

impl WritePolicy {
    /// Every name [`parse`](WritePolicy::parse) accepts, for usage text
    /// (`wb` and `wt` are short for the first two).
    pub const NAMES: &'static str = "write-back write-through wbeu[:limit] wtdu";

    /// Short lowercase name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WritePolicy::WriteThrough => "write-through",
            WritePolicy::WriteBack => "write-back",
            WritePolicy::Wbeu { .. } => "wbeu",
            WritePolicy::Wtdu => "wtdu",
        }
    }

    /// Parses a write-policy name: a [`name`](WritePolicy::name), `wb`,
    /// `wt`, or `wbeu:LIMIT` (plain `wbeu` has a dirty limit of 64).
    ///
    /// # Errors
    ///
    /// An unknown name; the message lists the valid ones.
    pub fn parse(name: &str) -> Result<WritePolicy, String> {
        match name {
            "write-back" | "wb" => Ok(WritePolicy::WriteBack),
            "write-through" | "wt" => Ok(WritePolicy::WriteThrough),
            "wtdu" => Ok(WritePolicy::Wtdu),
            "wbeu" => Ok(WritePolicy::Wbeu { dirty_limit: 64 }),
            _ => name
                .strip_prefix("wbeu:")
                .and_then(|n| n.parse().ok())
                .map(|dirty_limit| WritePolicy::Wbeu { dirty_limit })
                .ok_or_else(|| {
                    format!(
                        "unknown write policy {name:?}; write policies: {}",
                        Self::NAMES
                    )
                }),
        }
    }
}

/// A disk-side action the cache asks its host (simulator or controller)
/// to perform, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Fetch a block from its disk (read miss).
    ReadDisk(BlockId),
    /// Write a block to its home disk (write-through, write-back eviction,
    /// or a flush).
    WriteDisk(BlockId),
    /// Append a block's new contents to the persistent log device (WTDU).
    WriteLog(BlockId),
}

impl Effect {
    /// The block the effect concerns.
    #[must_use]
    pub fn block(&self) -> BlockId {
        match *self {
            Effect::ReadDisk(b) | Effect::WriteDisk(b) | Effect::WriteLog(b) => b,
        }
    }
}

/// The outcome of one cache access (scratch-buffer API).
///
/// The disk-side effects of the access live in the caller-provided
/// scratch buffer, keeping the per-request hot path allocation-free;
/// this struct carries only the `Copy` summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// The block evicted to make room, if any (the first one, for
    /// multi-block requests).
    pub evicted: Option<BlockId>,
}

/// The outcome of one cache access with owned effects, returned by the
/// allocating convenience wrapper
/// [`BlockCache::access_alloc`](crate::BlockCache::access_alloc).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessResult {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// The block evicted to make room, if any.
    pub evicted: Option<BlockId>,
    /// Disk-side actions to perform, in order.
    pub effects: Vec<Effect>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_units::{BlockNo, DiskId};

    #[test]
    fn write_policy_names_round_trip() {
        for p in [
            WritePolicy::WriteThrough,
            WritePolicy::WriteBack,
            WritePolicy::Wtdu,
            WritePolicy::Wbeu { dirty_limit: 64 },
        ] {
            assert_eq!(WritePolicy::parse(p.name()), Ok(p));
        }
        assert_eq!(
            WritePolicy::parse("wbeu:8"),
            Ok(WritePolicy::Wbeu { dirty_limit: 8 })
        );
        assert_eq!(WritePolicy::parse("wb"), Ok(WritePolicy::WriteBack));
        assert_eq!(WritePolicy::parse("wt"), Ok(WritePolicy::WriteThrough));
        for bad in ["nope", "wbeu:", "wbeu:x", "WB"] {
            let err = WritePolicy::parse(bad).unwrap_err();
            for name in ["write-back", "write-through", "wbeu", "wtdu"] {
                assert!(err.contains(name), "{bad}: {err}");
            }
        }
    }

    #[test]
    fn effect_block_extraction() {
        let b = BlockId::new(DiskId::new(1), BlockNo::new(2));
        assert_eq!(Effect::ReadDisk(b).block(), b);
        assert_eq!(Effect::WriteDisk(b).block(), b);
        assert_eq!(Effect::WriteLog(b).block(), b);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(WritePolicy::WriteThrough.name(), "write-through");
        assert_eq!(WritePolicy::Wbeu { dirty_limit: 8 }.name(), "wbeu");
        assert_eq!(WritePolicy::Wtdu.name(), "wtdu");
        assert_eq!(WritePolicy::WriteBack.name(), "write-back");
    }
}
