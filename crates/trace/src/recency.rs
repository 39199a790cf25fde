//! The bounded per-disk recency stack every generator draws its Zipf
//! stack distances from.
//!
//! Each generator keeps one stack per disk: the most recently accessed
//! block numbers, unique, oldest first. A warm access promotes an entry
//! from a Zipf-drawn depth; a fresh access pushes a new block and evicts
//! the oldest one once the stack is full. The generators know which case
//! they are in, so only the one access kind that may hit an entry it
//! cannot locate pays for a scan (see DESIGN.md §7.6).

use std::collections::VecDeque;

/// A bounded most-recently-used stack of unique block numbers.
///
/// Entries are unique by construction: [`RecencyStack::promote`] moves an
/// entry, [`RecencyStack::touch`] removes any previous copy before pushing,
/// and [`RecencyStack::push_fresh`] is only handed absent blocks.
#[derive(Debug, Clone)]
pub(crate) struct RecencyStack {
    /// Oldest entry at the front, most recent at the back.
    entries: VecDeque<u64>,
    capacity: usize,
}

impl RecencyStack {
    /// An empty stack that holds at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a recency stack needs room for one block");
        RecencyStack {
            entries: VecDeque::new(),
            capacity,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Moves the `depth`-th most recent entry (1 = the top) to the top and
    /// returns it. Entries are unique, so the index is `len - depth` and no
    /// scan is needed; the deque shifts the `depth - 1` entries above it.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= depth <= len`.
    pub(crate) fn promote(&mut self, depth: usize) -> u64 {
        let index = self.entries.len().wrapping_sub(depth);
        let block = self.entries.remove(index).expect("depth within the stack");
        self.entries.push_back(block);
        block
    }

    /// Pushes a block the caller knows is not on the stack, evicting the
    /// oldest entry when full.
    pub(crate) fn push_fresh(&mut self, block: u64) {
        debug_assert!(
            !self.entries.contains(&block),
            "push_fresh given block {block} already on the stack"
        );
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(block);
    }

    /// Moves `block` to the top, whether or not it is already on the
    /// stack: the general case, one scan from the top.
    pub(crate) fn touch(&mut self, block: u64) {
        if let Some(pos) = self.entries.iter().rposition(|&b| b == block) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The `Vec` stack every generator kept before `RecencyStack`: one
    /// scan per access, `remove(0)` when full.
    fn oracle_touch(stack: &mut Vec<u64>, block: u64, depth: usize) {
        if let Some(pos) = stack.iter().rposition(|&b| b == block) {
            stack.remove(pos);
        } else if stack.len() == depth {
            stack.remove(0);
        }
        stack.push(block);
    }

    #[test]
    fn matches_the_vec_oracle_on_random_operation_sequences() {
        for capacity in [1, 2, 128, 4096] {
            let mut rng = StdRng::seed_from_u64(capacity as u64);
            let mut stack = RecencyStack::new(capacity);
            let mut oracle: Vec<u64> = Vec::new();
            // Fresh blocks come from a frontier above every block the
            // random touches can name.
            let universe = 2 * capacity as u64 + 2;
            let mut frontier = universe;
            for _ in 0..20_000 {
                match rng.gen_range(0..4u32) {
                    0 if !oracle.is_empty() => {
                        // Any depth, with the bottom entry (`len`) often.
                        let depth = if rng.gen_bool(0.2) {
                            oracle.len()
                        } else {
                            rng.gen_range(1..=oracle.len())
                        };
                        let want = oracle[oracle.len() - depth];
                        oracle_touch(&mut oracle, want, capacity);
                        assert_eq!(stack.promote(depth), want);
                    }
                    1 => {
                        frontier += 1;
                        oracle_touch(&mut oracle, frontier, capacity);
                        stack.push_fresh(frontier);
                    }
                    2 if !oracle.is_empty() => {
                        // A duplicate touch of a block already stacked.
                        let block = oracle[rng.gen_range(0..oracle.len())];
                        oracle_touch(&mut oracle, block, capacity);
                        stack.touch(block);
                    }
                    _ => {
                        let block = rng.gen_range(0..universe);
                        oracle_touch(&mut oracle, block, capacity);
                        stack.touch(block);
                    }
                }
                assert_eq!(stack.len(), oracle.len());
                assert!(stack.entries.iter().eq(oracle.iter()), "cap {capacity}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "already on the stack")]
    #[cfg(debug_assertions)]
    fn push_fresh_rejects_a_stacked_block() {
        let mut stack = RecencyStack::new(4);
        stack.push_fresh(7);
        stack.push_fresh(7);
    }
}
