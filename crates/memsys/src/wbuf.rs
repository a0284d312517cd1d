//! The coalescing write buffer (paper §4.1).
//!
//! Writes cost the processor one cycle and land here; entries retire in
//! FIFO order as coherence transactions (updates, or ownership requests
//! under DMON-I). Consecutive writes to the same *block* coalesce into one
//! entry carrying a word mask, so an update message carries only the words
//! actually modified — the paper's key mechanism for keeping update traffic
//! affordable. The processor stalls only when the buffer is full (release
//! consistency), and reads are allowed to bypass buffered writes.

use crate::addr::{Addr, BlockAddr, WordIdx};

/// One buffered (possibly coalesced) write: a block plus the mask of words
/// written. Blocks are at most 128 B in any configuration we simulate, so a
/// `u32` mask (32 words of 4 B) always suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEntry {
    /// Block number being written.
    pub block: BlockAddr,
    /// Representative byte address within the block (first write's target).
    pub addr: Addr,
    /// Bitmask of modified words within the block.
    pub mask: u32,
    /// True if the block is in the shared region (decided by the caller at
    /// push time so retirement needs no address map).
    pub shared: bool,
}

impl WriteEntry {
    /// Number of distinct words modified — the payload size of the update
    /// message this entry will generate.
    #[inline]
    pub fn words(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Outcome of pushing a write into the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Merged into an existing entry for the same block.
    Coalesced,
    /// Allocated a fresh entry.
    Allocated,
    /// Buffer full: the processor must stall until an entry retires.
    Full,
}

/// Key of a ring slot that holds no entry. Block numbers are byte
/// addresses shifted right by the block size, so no real block reaches it.
const FREE: BlockAddr = BlockAddr::MAX;

/// FIFO coalescing write buffer with a fixed entry count.
///
/// A fixed ring of `capacity` slots with a parallel key array: `keys[s]`
/// is the block of the entry in slot `s`, or `FREE`. Live blocks are
/// unique (a write to a buffered block always coalesces), so finding a
/// block is one scan of `keys` that needs no occupancy test and no early
/// exit. The scan is skipped when the block is the one last pushed, the
/// common case for a run of writes to one block. Public indices
/// ([`find_block`](Self::find_block), [`coalesce_at`](Self::coalesce_at))
/// count from the oldest entry.
#[derive(Debug, Clone)]
pub struct CoalescingWriteBuffer {
    keys: Vec<BlockAddr>,
    entries: Vec<WriteEntry>,
    /// Slot of the oldest entry.
    head: usize,
    len: usize,
    /// Slot of the newest entry (stale, never wrong, once it is popped:
    /// its key is then [`FREE`]).
    last: usize,
    // statistics
    pushes: u64,
    coalesced: u64,
    full_events: u64,
}

impl CoalescingWriteBuffer {
    /// Creates a buffer with room for `capacity` block entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        let empty = WriteEntry {
            block: FREE,
            addr: 0,
            mask: 0,
            shared: false,
        };
        Self {
            keys: vec![FREE; capacity],
            entries: vec![empty; capacity],
            head: 0,
            len: 0,
            last: 0,
            pushes: 0,
            coalesced: 0,
            full_events: 0,
        }
    }

    /// Ring slot holding `block`, if it is buffered.
    #[inline]
    fn slot_of(&self, block: BlockAddr) -> Option<usize> {
        if self.keys[self.last] == block {
            return Some(self.last);
        }
        let mut hit = usize::MAX;
        for (s, &k) in self.keys.iter().enumerate() {
            if k == block {
                hit = s;
            }
        }
        (hit != usize::MAX).then_some(hit)
    }

    /// Ring slot `off` places after `base` (`off <= capacity`).
    #[inline]
    fn wrap(&self, base: usize, off: usize) -> usize {
        let s = base + off;
        if s >= self.keys.len() {
            s - self.keys.len()
        } else {
            s
        }
    }

    /// Attempts to buffer a write of the word at `addr` (block `block`,
    /// word index `word`). Coalesces with *any* existing entry for the same
    /// block, per the paper ("consecutive writes to the same cache block
    /// are coalesced").
    #[inline]
    pub fn push(
        &mut self,
        block: BlockAddr,
        addr: Addr,
        word: WordIdx,
        shared: bool,
    ) -> PushOutcome {
        debug_assert!(word < 32);
        debug_assert_ne!(block, FREE, "block number collides with the free-slot key");
        if let Some(s) = self.slot_of(block) {
            self.entries[s].mask |= 1 << word;
            self.pushes += 1;
            self.coalesced += 1;
            return PushOutcome::Coalesced;
        }
        if self.len == self.keys.len() {
            self.full_events += 1;
            return PushOutcome::Full;
        }
        let s = self.wrap(self.head, self.len);
        self.keys[s] = block;
        self.last = s;
        self.entries[s] = WriteEntry {
            block,
            addr,
            mask: 1 << word,
            shared,
        };
        self.len += 1;
        self.pushes += 1;
        PushOutcome::Allocated
    }

    /// Batched coalesce: merges `count` writes covering the words in
    /// `mask_bits` into the existing entry for `block`. Equivalent to
    /// `count` scalar [`push`](Self::push) calls that all coalesce —
    /// same mask growth, same `pushes`/`coalesced` accounting. The
    /// engine's run-elision path uses this to retire a strided write run
    /// with one buffer scan per block instead of one per element. The
    /// caller must have established that the entry exists (e.g. via
    /// [`holds_block`](Self::holds_block)); returns false (and does
    /// nothing) if it does not.
    #[inline]
    pub fn coalesce_run(&mut self, block: BlockAddr, mask_bits: u32, count: u64) -> bool {
        let Some(s) = self.slot_of(block) else {
            return false;
        };
        self.entries[s].mask |= mask_bits;
        self.pushes += count;
        self.coalesced += count;
        true
    }

    /// Oldest entry, if any (peek; retirement is [`pop`](Self::pop)).
    #[inline]
    pub fn front(&self) -> Option<&WriteEntry> {
        (self.len > 0).then(|| &self.entries[self.head])
    }

    /// Retires the oldest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<WriteEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.entries[self.head];
        self.keys[self.head] = FREE;
        self.head = self.wrap(self.head, 1);
        self.len -= 1;
        Some(e)
    }

    /// True if a write for `block` is currently buffered (used to let reads
    /// forward from the buffer).
    #[inline]
    pub fn holds_block(&self, block: BlockAddr) -> bool {
        self.slot_of(block).is_some()
    }

    /// Index of the entry for `block`, if one is buffered. Indices stay
    /// valid until the next [`pop`](Self::pop); pushes never move
    /// existing entries. Batch retirement probes once and then commits
    /// through [`coalesce_at`](Self::coalesce_at) without rescanning.
    #[inline]
    pub fn find_block(&self, block: BlockAddr) -> Option<usize> {
        let s = self.slot_of(block)?;
        Some(if s >= self.head {
            s - self.head
        } else {
            s + self.keys.len() - self.head
        })
    }

    /// [`coalesce_run`](Self::coalesce_run) against the entry at `idx`
    /// (from [`find_block`](Self::find_block)): no scan, same accounting.
    ///
    /// # Panics
    /// In debug builds, if `idx` does not hold `block`.
    #[inline]
    pub fn coalesce_at(&mut self, idx: usize, block: BlockAddr, mask_bits: u32, count: u64) {
        debug_assert!(idx < self.len, "write-buffer index past the tail");
        let s = self.wrap(self.head, idx);
        debug_assert_eq!(self.keys[s], block, "stale write-buffer index");
        self.entries[s].mask |= mask_bits;
        self.pushes += count;
        self.coalesced += count;
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no writes are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if another distinct-block write would stall.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.keys.len()
    }

    /// Free entry slots remaining.
    #[inline]
    pub fn room(&self) -> usize {
        self.keys.len() - self.len
    }

    /// Total writes accepted.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Writes that merged into an existing entry.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Times a push found the buffer full.
    pub fn full_events(&self) -> u64 {
        self.full_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Xoshiro256StarStar;
    use std::collections::VecDeque;

    #[test]
    fn coalesces_same_block() {
        let mut wb = CoalescingWriteBuffer::new(4);
        assert_eq!(wb.push(10, 640, 0, true), PushOutcome::Allocated);
        assert_eq!(wb.push(10, 644, 1, true), PushOutcome::Coalesced);
        assert_eq!(wb.push(10, 640, 0, true), PushOutcome::Coalesced);
        assert_eq!(wb.len(), 1);
        let e = wb.front().unwrap();
        assert_eq!(e.words(), 2);
        assert_eq!(e.mask, 0b11);
    }

    #[test]
    fn distinct_blocks_allocate() {
        let mut wb = CoalescingWriteBuffer::new(2);
        wb.push(1, 64, 0, true);
        wb.push(2, 128, 0, true);
        assert!(wb.is_full());
        assert_eq!(wb.push(3, 192, 0, true), PushOutcome::Full);
        // Same-block write still coalesces even when full.
        assert_eq!(wb.push(2, 132, 1, true), PushOutcome::Coalesced);
        assert_eq!(wb.full_events(), 1);
    }

    #[test]
    fn fifo_retirement_order() {
        let mut wb = CoalescingWriteBuffer::new(4);
        wb.push(5, 320, 0, false);
        wb.push(9, 576, 3, true);
        let a = wb.pop().unwrap();
        assert_eq!(a.block, 5);
        assert!(!a.shared);
        let b = wb.pop().unwrap();
        assert_eq!(b.block, 9);
        assert_eq!(b.mask, 1 << 3);
        assert!(wb.pop().is_none());
    }

    #[test]
    fn holds_block_for_read_bypass() {
        let mut wb = CoalescingWriteBuffer::new(4);
        wb.push(7, 448, 2, true);
        assert!(wb.holds_block(7));
        assert!(!wb.holds_block(8));
        wb.pop();
        assert!(!wb.holds_block(7));
    }

    #[test]
    fn coalesce_run_matches_scalar_pushes() {
        let mut bulk = CoalescingWriteBuffer::new(4);
        let mut scalar = CoalescingWriteBuffer::new(4);
        for wb in [&mut bulk, &mut scalar] {
            wb.push(3, 192, 0, true);
        }
        // Words 1..=4 of block 3, one write each.
        assert!(bulk.coalesce_run(3, 0b11110, 4));
        for w in 1..=4u32 {
            assert_eq!(
                scalar.push(3, 192 + w as u64 * 4, w, true),
                PushOutcome::Coalesced
            );
        }
        assert_eq!(bulk.front(), scalar.front());
        assert_eq!(bulk.pushes(), scalar.pushes());
        assert_eq!(bulk.coalesced(), scalar.coalesced());
        // Absent block: no-op.
        assert!(!bulk.coalesce_run(9, 0b1, 1));
        assert_eq!(bulk.pushes(), 5);
    }

    #[test]
    fn stats_track_coalescing_rate() {
        let mut wb = CoalescingWriteBuffer::new(16);
        for w in 0..16 {
            wb.push(3, 192 + w * 4, w as WordIdx, true);
        }
        assert_eq!(wb.pushes(), 16);
        assert_eq!(wb.coalesced(), 15);
        assert_eq!(wb.front().unwrap().words(), 16);
    }

    /// Reference model: the plain `VecDeque` buffer the ring replaced,
    /// with its linear, early-exit scans.
    #[derive(Default)]
    struct Model {
        q: VecDeque<WriteEntry>,
        cap: usize,
        pushes: u64,
        coalesced: u64,
        full_events: u64,
    }

    impl Model {
        fn push(
            &mut self,
            block: BlockAddr,
            addr: Addr,
            word: WordIdx,
            shared: bool,
        ) -> PushOutcome {
            if let Some(e) = self.q.iter_mut().find(|e| e.block == block) {
                e.mask |= 1 << word;
                self.pushes += 1;
                self.coalesced += 1;
                return PushOutcome::Coalesced;
            }
            if self.q.len() == self.cap {
                self.full_events += 1;
                return PushOutcome::Full;
            }
            self.pushes += 1;
            self.q.push_back(WriteEntry {
                block,
                addr,
                mask: 1 << word,
                shared,
            });
            PushOutcome::Allocated
        }

        fn find_block(&self, block: BlockAddr) -> Option<usize> {
            self.q.iter().position(|e| e.block == block)
        }

        fn coalesce_at(&mut self, idx: usize, mask_bits: u32, count: u64) {
            self.q[idx].mask |= mask_bits;
            self.pushes += count;
            self.coalesced += count;
        }
    }

    fn assert_same(wb: &CoalescingWriteBuffer, m: &Model, step: usize) {
        assert_eq!(wb.len(), m.q.len(), "len at step {step}");
        assert_eq!(wb.room(), m.cap - m.q.len(), "room at step {step}");
        assert_eq!(wb.is_full(), m.q.len() == m.cap, "full at step {step}");
        assert_eq!(wb.is_empty(), m.q.is_empty(), "empty at step {step}");
        assert_eq!(wb.front(), m.q.front(), "front at step {step}");
        assert_eq!(wb.pushes(), m.pushes, "pushes at step {step}");
        assert_eq!(wb.coalesced(), m.coalesced, "coalesced at step {step}");
        assert_eq!(
            wb.full_events(),
            m.full_events,
            "full_events at step {step}"
        );
        // FIFO order and masks: every live entry sits at the index the
        // model gives it.
        for (i, e) in m.q.iter().enumerate() {
            assert_eq!(wb.find_block(e.block), Some(i), "index at step {step}");
        }
    }

    #[test]
    fn ring_matches_vecdeque_model() {
        for cap in [1usize, 2, 5, 16] {
            let mut rng = Xoshiro256StarStar::seeded(0x5EED ^ cap as u64);
            let mut wb = CoalescingWriteBuffer::new(cap);
            let mut m = Model {
                cap,
                ..Model::default()
            };
            let mut pops = 0usize;
            // A block universe a little larger than the buffer, so pushes
            // hit, miss and fill it in about equal measure.
            let universe = cap as u64 * 2 + 1;
            for step in 0..20_000 {
                let block = rng.below(universe) + 1;
                let word = rng.below(32) as WordIdx;
                match rng.below(8) {
                    0..=2 => {
                        let shared = rng.below(2) == 0;
                        let addr = block * 128 + word as u64 * 4;
                        assert_eq!(
                            wb.push(block, addr, word, shared),
                            m.push(block, addr, word, shared),
                            "push at step {step}"
                        );
                    }
                    3 | 4 => {
                        let got = wb.pop();
                        assert_eq!(got, m.q.pop_front(), "pop at step {step}");
                        pops += got.is_some() as usize;
                    }
                    5 => {
                        assert_eq!(wb.holds_block(block), m.find_block(block).is_some());
                    }
                    6 => {
                        let idx = wb.find_block(block);
                        assert_eq!(idx, m.find_block(block), "find at step {step}");
                        if let Some(i) = idx {
                            let bits = rng.next_u64() as u32;
                            let count = rng.below(5) + 1;
                            wb.coalesce_at(i, block, bits, count);
                            m.coalesce_at(i, bits, count);
                        }
                    }
                    _ => {
                        let bits = rng.next_u64() as u32;
                        let count = rng.below(5) + 1;
                        let held = m.find_block(block);
                        if let Some(i) = held {
                            m.coalesce_at(i, bits, count);
                        }
                        assert_eq!(wb.coalesce_run(block, bits, count), held.is_some());
                    }
                }
                assert_same(&wb, &m, step);
            }
            // Many trips round the ring, whatever the capacity.
            assert!(pops > 20 * cap, "cap {cap}: only {pops} pops");
            while let Some(e) = m.q.pop_front() {
                assert_eq!(wb.pop(), Some(e));
            }
            assert_eq!(wb.pop(), None);
        }
    }
}
