//! The bounded per-disk recency stack every generator draws its Zipf
//! stack distances from.
//!
//! Each generator keeps one stack per disk: the most recently accessed
//! block numbers, unique, oldest first. A warm access promotes an entry
//! from a Zipf-drawn depth; a fresh access pushes a new block and evicts
//! the oldest one once the stack is full. The generators know which case
//! they are in, so only the one access kind that may hit an entry it
//! cannot locate pays for a scan (see DESIGN.md §7.6).

/// A bounded most-recently-used stack of unique block numbers.
///
/// Entries are unique by construction: [`RecencyStack::promote`] moves an
/// entry, [`RecencyStack::touch`] removes any previous copy before pushing,
/// and [`RecencyStack::push_fresh`] is only handed absent blocks.
///
/// The live entries are one contiguous window `buf[head..head + len]` of
/// a buffer twice the capacity, so a scan is a plain slice loop. Evicting
/// the oldest entry advances `head`; when a push finds the window at the
/// end of the buffer, the window is first copied back to the front, at
/// most once per `capacity` pushes.
#[derive(Debug, Clone)]
pub(crate) struct RecencyStack {
    /// `2 × capacity` slots; oldest live entry at `head`, most recent at
    /// `head + len - 1`.
    buf: Vec<u64>,
    head: usize,
    len: usize,
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
            buf: vec![0; 2 * capacity],
            head: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn capacity(&self) -> usize {
        self.buf.len() / 2
    }

    /// The live entries, oldest first.
    fn entries(&self) -> &[u64] {
        &self.buf[self.head..self.head + self.len]
    }

    /// Moves the `depth`-th most recent entry (1 = the top) to the top and
    /// returns it. Entries are unique, so the index is `len - depth` and no
    /// scan is needed; the `depth - 1` entries above it shift down one.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= depth <= len`.
    pub(crate) fn promote(&mut self, depth: usize) -> u64 {
        let index = self.len.wrapping_sub(depth);
        let entries = &mut self.buf[self.head..self.head + self.len];
        let block = entries[index];
        entries.copy_within(index + 1.., index);
        entries[entries.len() - 1] = block;
        block
    }

    /// Pushes a block the caller knows is not on the stack, evicting the
    /// oldest entry when full.
    pub(crate) fn push_fresh(&mut self, block: u64) {
        debug_assert!(
            !self.entries().contains(&block),
            "push_fresh given block {block} already on the stack"
        );
        if self.len == self.capacity() {
            self.head += 1;
            self.len -= 1;
        }
        if self.head + self.len == self.buf.len() {
            self.buf.copy_within(self.head..self.head + self.len, 0);
            self.head = 0;
        }
        self.buf[self.head + self.len] = block;
        self.len += 1;
    }

    /// Moves `block` to the top, whether or not it is already on the
    /// stack: the general case. A branch-free membership test covers the
    /// whole window; only a present block is then located.
    pub(crate) fn touch(&mut self, block: u64) {
        if holds(self.entries(), block) {
            let pos = self
                .entries()
                .iter()
                .rposition(|&b| b == block)
                .expect("a held block has a position");
            self.promote(self.len - pos);
        } else {
            self.push_fresh(block);
        }
    }
}

/// Whether `entries` holds `block`, OR-folding every comparison with no
/// early exit, so the loop vectorises (four entries per step on SSE2).
fn holds(entries: &[u64], block: u64) -> bool {
    entries.iter().fold(false, |any, &b| any | (b == block))
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
        // 3 and 7 are not powers of two; every capacity runs at least ten
        // capacities' worth of pushes, so the window slides off the end of
        // its buffer and is copied back to the front many times.
        for capacity in [1, 2, 3, 7, 128, 4096] {
            let mut rng = StdRng::seed_from_u64(capacity as u64);
            let mut stack = RecencyStack::new(capacity);
            let mut oracle: Vec<u64> = Vec::new();
            // Fresh blocks come from a frontier above every block the
            // random touches can name.
            let universe = 2 * capacity as u64 + 2;
            let mut frontier = universe;
            let (mut ops, mut pushes, mut copy_backs) = (0usize, 0usize, 0usize);
            while ops < 20_000 || pushes < 10 * capacity {
                ops += 1;
                let (head, len) = (stack.head, stack.len());
                match rng.gen_range(0..6u32) {
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
                    3 if !oracle.is_empty() => {
                        // The oldest entry, then the newest, both present.
                        let block = oracle[0];
                        oracle_touch(&mut oracle, block, capacity);
                        stack.touch(block);
                        let block = oracle[oracle.len() - 1];
                        oracle_touch(&mut oracle, block, capacity);
                        stack.touch(block);
                    }
                    _ => {
                        let block = rng.gen_range(0..universe);
                        oracle_touch(&mut oracle, block, capacity);
                        stack.touch(block);
                    }
                }
                if stack.head < head {
                    copy_backs += 1;
                }
                if stack.len() > len || stack.head != head {
                    pushes += 1;
                }
                assert_eq!(stack.len(), oracle.len());
                assert_eq!(stack.entries(), &oracle[..], "cap {capacity}");
            }
            assert!(copy_backs >= 5, "cap {capacity}: {copy_backs} copy-backs");
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
