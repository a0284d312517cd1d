//! Tag-array cache models for the per-node L1 and L2.
//!
//! The simulation is timing-only: caches track *which* blocks are present
//! (tags + dirty bits), never data values. The model supports
//! direct-mapped (the paper's base L1/L2), set-associative, and fully
//! associative organizations with LRU within a set, which is what the
//! parameter-space study needs.

use crate::addr::{Addr, BlockAddr};

/// Static cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCfg {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Block (line) size in bytes; power of two.
    pub block_bytes: u64,
    /// Ways per set; `0` means fully associative.
    pub assoc: usize,
}

impl CacheCfg {
    /// Direct-mapped cache of `size_bytes` with `block_bytes` lines.
    pub fn direct(size_bytes: u64, block_bytes: u64) -> Self {
        Self {
            size_bytes,
            block_bytes,
            assoc: 1,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        (self.size_bytes / self.block_bytes) as usize
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        let ways = if self.assoc == 0 {
            self.lines()
        } else {
            self.assoc
        };
        (self.lines() / ways).max(1)
    }
}

/// A victim chosen during a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block number of the evicted line.
    pub block: BlockAddr,
    /// Whether the line was dirty (needs a writeback under DMON-I).
    pub dirty: bool,
}

/// Result of a read probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Block present.
    Hit,
    /// Block absent; caller must fetch and then call [`Cache::fill`].
    Miss,
}

/// Tag of a way that holds no block. Block numbers are byte addresses
/// shifted right by the block size, so no real block reaches it.
const INVALID: BlockAddr = BlockAddr::MAX;

/// A timing-model cache: tags only, LRU replacement within a set.
///
/// Ways are stored flat, set-major, in three parallel arrays: `tags`
/// (the full block number, or `INVALID`), `stamps` (LRU clock) and
/// `dirty`. Every probe goes through one private `find`, which reads
/// only `tags` and is a single compare when the cache is direct-mapped.
/// Stamps are read only to choose a victim among several ways, so a
/// direct-mapped cache never writes them, and a clean access never
/// writes `dirty`: a hit touches the tag array alone.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheCfg,
    sets: usize,
    ways: usize,
    // Probe-path constants, precomputed once at construction: the elided
    // fast path probes a cache up to four times per op, so even the
    // trailing_zeros/is_power_of_two recomputation is worth hoisting.
    blk_shift: u32,
    set_mask: u64, // == sets-1 iff sets is a power of two, else u64::MAX
    tags: Vec<BlockAddr>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    clock: u64,
    // statistics
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(cfg: CacheCfg) -> Self {
        assert!(cfg.block_bytes.is_power_of_two());
        assert!(cfg.size_bytes.is_multiple_of(cfg.block_bytes));
        let lines = cfg.lines();
        let ways = if cfg.assoc == 0 { lines } else { cfg.assoc };
        assert!(
            lines.is_multiple_of(ways),
            "lines must divide into whole sets"
        );
        let sets = lines / ways;
        Self {
            cfg,
            sets,
            ways,
            blk_shift: cfg.block_bytes.trailing_zeros(),
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                u64::MAX
            },
            tags: vec![INVALID; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn cfg(&self) -> &CacheCfg {
        &self.cfg
    }

    #[inline]
    fn block_of(&self, a: Addr) -> BlockAddr {
        // block_bytes is asserted to be a power of two: shift, don't
        // divide (probes sit on the simulator's per-operation path).
        let b = a >> self.blk_shift;
        debug_assert_ne!(b, INVALID, "block number collides with the invalid tag");
        b
    }

    #[inline]
    fn set_of(&self, b: BlockAddr) -> usize {
        if self.set_mask != u64::MAX {
            (b & self.set_mask) as usize
        } else {
            (b % self.sets as u64) as usize
        }
    }

    /// Way index holding block `b`, if it is present.
    #[inline]
    fn find(&self, b: BlockAddr) -> Option<usize> {
        let first = self.set_of(b) * self.ways;
        if self.ways == 1 {
            return (self.tags[first] == b).then_some(first);
        }
        self.tags[first..first + self.ways]
            .iter()
            .position(|&t| t == b)
            .map(|w| first + w)
    }

    /// Refreshes way `i`'s LRU stamp to the current clock. Skipped when
    /// the set has one way: its only line is always the victim.
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.ways > 1 {
            self.stamps[i] = self.clock;
        }
    }

    /// Merges `dirty` into way `i`: a clean access writes nothing.
    #[inline]
    fn mark(&mut self, i: usize, dirty: bool) {
        if dirty {
            self.dirty[i] = true;
        }
    }

    /// Read access: updates LRU and hit/miss counters.
    #[inline]
    pub fn read(&mut self, a: Addr) -> ReadOutcome {
        self.clock += 1;
        match self.find(self.block_of(a)) {
            Some(i) => {
                self.touch(i);
                self.hits += 1;
                ReadOutcome::Hit
            }
            None => {
                self.misses += 1;
                ReadOutcome::Miss
            }
        }
    }

    /// Hit-only read probe: on a hit, performs exactly the state changes
    /// of [`Cache::read`] (LRU clock tick, stamp refresh, hit counter);
    /// on a miss, touches *nothing* — no miss count, no clock tick. The
    /// engine's elided fast path probes with this and bails out on a miss
    /// with the cache bit-identical to never having probed, leaving the
    /// canonical miss sequence to the slow path's `read()`.
    #[inline]
    pub fn read_hit(&mut self, a: Addr) -> bool {
        self.read_hit_run(a, 1)
    }

    /// Block-granular read-hit probe: the batched form of `n` consecutive
    /// [`Cache::read_hit`] calls to the same block. One tag probe; on a
    /// hit, performs the aggregate state change of the `n` scalar probes
    /// (clock advanced by `n`, stamp refreshed to the final clock, `n`
    /// hits) and returns true; on a miss, touches nothing. The engine's
    /// run-elision path retires a strided read run with one such probe per
    /// distinct block instead of one probe per element.
    #[inline]
    pub fn read_hit_run(&mut self, a: Addr, n: u64) -> bool {
        let Some(i) = self.find(self.block_of(a)) else {
            return false;
        };
        if n > 0 {
            self.clock += n;
            self.touch(i);
            self.hits += n;
        }
        true
    }

    /// Block-granular write-update: the batched form of `n` consecutive
    /// [`Cache::write_update`] calls to the same block (clock advanced by
    /// `n`; stamp refreshed to the final clock and dirtiness merged if the
    /// block is present). Returns presence, like `write_update`.
    #[inline]
    pub fn write_update_run(&mut self, a: Addr, n: u64, dirty: bool) -> bool {
        self.clock += n;
        let Some(i) = self.find(self.block_of(a)) else {
            return false;
        };
        self.touch(i);
        self.mark(i, dirty);
        true
    }

    /// Non-destructive presence check (no LRU or counter update).
    #[inline]
    pub fn contains(&self, a: Addr) -> bool {
        self.find(self.block_of(a)).is_some()
    }

    /// Inserts the block containing `a`, returning the victim if a valid
    /// line was displaced. `dirty` marks the new line (DMON-I exclusive
    /// fills; update protocols always fill clean).
    #[inline]
    pub fn fill(&mut self, a: Addr, dirty: bool) -> Option<Evicted> {
        let b = self.block_of(a);
        self.clock += 1;
        // Already present (e.g., racing fill): refresh.
        if let Some(i) = self.find(b) {
            self.touch(i);
            self.mark(i, dirty);
            return None;
        }
        // Prefer the first invalid way, else the least recently used.
        let first = self.set_of(b) * self.ways;
        let mut victim = first;
        let mut oldest = u64::MAX;
        for i in first..first + self.ways {
            if self.tags[i] == INVALID {
                victim = i;
                break;
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        let evicted = (self.tags[victim] != INVALID).then_some(Evicted {
            block: self.tags[victim],
            dirty: self.dirty[victim],
        });
        self.tags[victim] = b;
        self.touch(victim);
        self.dirty[victim] = dirty;
        evicted
    }

    /// Applies a local write or a received update *in place*: marks the
    /// block dirty if `dirty`, returns true if the block was present.
    /// Does not allocate (update protocols do not write-allocate remotely).
    #[inline]
    pub fn write_update(&mut self, a: Addr, dirty: bool) -> bool {
        self.write_update_run(a, 1, dirty)
    }

    /// Invalidates the block containing `a`; returns the line's dirtiness
    /// if it was present.
    #[inline]
    pub fn invalidate(&mut self, a: Addr) -> Option<bool> {
        let i = self.find(self.block_of(a))?;
        self.tags[i] = INVALID;
        Some(self.dirty[i])
    }

    /// Clears the dirty bit (after a writeback); true if block was present.
    #[inline]
    pub fn clean(&mut self, a: Addr) -> bool {
        let Some(i) = self.find(self.block_of(a)) else {
            return false;
        };
        self.dirty[i] = false;
        true
    }

    /// Invalidates everything (used between disjoint program phases in
    /// some unit tests).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Read hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Read misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all reads (0.0 if no reads).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Xoshiro256StarStar;

    fn dm_cache() -> Cache {
        // 4 lines of 64 B, direct-mapped.
        Cache::new(CacheCfg::direct(256, 64))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm_cache();
        assert_eq!(c.read(0), ReadOutcome::Miss);
        c.fill(0, false);
        assert_eq!(c.read(0), ReadOutcome::Hit);
        assert_eq!(c.read(63), ReadOutcome::Hit, "same block");
        assert_eq!(c.read(64), ReadOutcome::Miss, "next block");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = dm_cache();
        // Addresses 0 and 256 map to the same set (4 sets * 64 B).
        c.fill(0, false);
        let ev = c.fill(256, false).expect("conflict evicts");
        assert_eq!(ev.block, 0);
        assert!(!c.contains(0));
        assert!(c.contains(256));
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut c = dm_cache();
        c.fill(0, true);
        let ev = c.fill(256, false).unwrap();
        assert!(ev.dirty);
        let ev2 = c.fill(0, false).unwrap();
        assert_eq!(ev2.block, 4); // block 256/64
        assert!(!ev2.dirty);
    }

    #[test]
    fn set_associative_lru() {
        // 2 sets x 2 ways, 64 B blocks.
        let mut c = Cache::new(CacheCfg {
            size_bytes: 256,
            block_bytes: 64,
            assoc: 2,
        });
        // Blocks 0, 2, 4 all map to set 0 (block % 2 == 0).
        c.fill(0, false);
        c.fill(2 * 64, false);
        assert_eq!(c.read(0), ReadOutcome::Hit); // 0 now MRU
        let ev = c.fill(4 * 64, false).unwrap();
        assert_eq!(ev.block, 2, "LRU way (block 2) evicted");
        assert!(c.contains(0));
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c = Cache::new(CacheCfg {
            size_bytes: 256,
            block_bytes: 64,
            assoc: 0,
        });
        for b in 0..4u64 {
            c.fill(b * 64, false);
        }
        for b in 0..4u64 {
            assert!(c.contains(b * 64), "block {b} should fit");
        }
        // Fifth block evicts the LRU (block 0).
        let ev = c.fill(4 * 64, false).unwrap();
        assert_eq!(ev.block, 0);
    }

    #[test]
    fn write_update_only_touches_present_blocks() {
        let mut c = dm_cache();
        assert!(!c.write_update(0, true), "absent: no allocate");
        c.fill(0, false);
        assert!(c.write_update(0, true));
        let ev = c.fill(256, false).unwrap();
        assert!(ev.dirty, "update marked it dirty");
    }

    #[test]
    fn invalidate_and_clean() {
        let mut c = dm_cache();
        c.fill(0, true);
        assert!(c.clean(0));
        assert_eq!(c.invalidate(0), Some(false));
        assert_eq!(c.invalidate(0), None);
        assert!(!c.contains(0));
    }

    #[test]
    fn refill_of_present_block_does_not_evict() {
        let mut c = dm_cache();
        c.fill(0, false);
        assert!(c.fill(0, true).is_none());
        // dirty bit was merged in
        let ev = c.fill(256, false).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn paper_l1_geometry() {
        // 4 KB direct-mapped, 32 B blocks -> 128 lines.
        let c = Cache::new(CacheCfg::direct(4 * 1024, 32));
        assert_eq!(c.cfg().lines(), 128);
        assert_eq!(c.cfg().sets(), 128);
    }

    #[test]
    fn read_hit_probe_matches_read_on_hits_and_is_pure_on_misses() {
        let mut probed = dm_cache();
        let mut read = dm_cache();
        probed.fill(0, false);
        read.fill(0, false);
        // Hit: identical state changes to read().
        assert!(probed.read_hit(32));
        assert_eq!(read.read(32), ReadOutcome::Hit);
        assert_eq!(probed.hits(), read.hits());
        // Miss: read_hit touches nothing (no miss count, no clock tick),
        // so the later canonical read() sees a never-probed cache.
        assert!(!probed.read_hit(256));
        assert_eq!(probed.misses(), 0);
        assert_eq!(read.read(256), ReadOutcome::Miss);
        probed.read(256);
        assert_eq!(probed.misses(), read.misses());
    }

    #[test]
    fn run_probes_match_scalar_loops() {
        let mut run = dm_cache();
        let mut scalar = dm_cache();
        run.fill(0, false);
        scalar.fill(0, false);
        assert!(run.read_hit_run(4, 3));
        for _ in 0..3 {
            assert!(scalar.read_hit(4));
        }
        assert_eq!(run.hits(), scalar.hits());
        // Miss: pure, like read_hit.
        assert!(!run.read_hit_run(256, 5));
        assert_eq!(run.misses(), 0);
        // write_update_run merges dirtiness like n scalar updates and
        // leaves the same eviction candidate behind.
        assert!(run.write_update_run(32, 2, true));
        for _ in 0..2 {
            assert!(scalar.write_update(32, true));
        }
        let ev_run = run.fill(256, false).unwrap();
        let ev_scalar = scalar.fill(256, false).unwrap();
        assert_eq!(ev_run, ev_scalar);
        assert!(ev_run.dirty);
        assert!(!run.write_update_run(512, 4, true), "absent: no allocate");
    }

    #[test]
    fn flush_empties() {
        let mut c = dm_cache();
        c.fill(0, false);
        c.fill(64, false);
        assert_eq!(c.valid_lines(), 2);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
    }

    /// Reference model: the array-of-lines layout the flat tag arrays
    /// replaced, with a `valid` bit per line and linear set scans.
    #[derive(Clone, Copy, Default)]
    struct Line {
        tag: BlockAddr,
        valid: bool,
        dirty: bool,
        stamp: u64,
    }

    struct Model {
        sets: u64,
        ways: usize,
        shift: u32,
        lines: Vec<Line>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl Model {
        fn new(cfg: CacheCfg) -> Self {
            let ways = if cfg.assoc == 0 {
                cfg.lines()
            } else {
                cfg.assoc
            };
            Self {
                sets: (cfg.lines() / ways) as u64,
                ways,
                shift: cfg.block_bytes.trailing_zeros(),
                lines: vec![Line::default(); cfg.lines()],
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        /// Block of `a` and the index of its line, if present.
        fn probe(&self, a: Addr) -> (BlockAddr, std::ops::Range<usize>, Option<usize>) {
            let b = a >> self.shift;
            let s = (b % self.sets) as usize;
            let range = s * self.ways..(s + 1) * self.ways;
            let hit = range
                .clone()
                .find(|&i| self.lines[i].valid && self.lines[i].tag == b);
            (b, range, hit)
        }

        fn read(&mut self, a: Addr) -> ReadOutcome {
            self.clock += 1;
            match self.probe(a).2 {
                Some(i) => {
                    self.lines[i].stamp = self.clock;
                    self.hits += 1;
                    ReadOutcome::Hit
                }
                None => {
                    self.misses += 1;
                    ReadOutcome::Miss
                }
            }
        }

        fn read_hit_run(&mut self, a: Addr, n: u64) -> bool {
            let Some(i) = self.probe(a).2 else {
                return false;
            };
            self.clock += n;
            if n > 0 {
                self.lines[i].stamp = self.clock;
            }
            self.hits += n;
            true
        }

        fn write_update_run(&mut self, a: Addr, n: u64, dirty: bool) -> bool {
            self.clock += n;
            let Some(i) = self.probe(a).2 else {
                return false;
            };
            self.lines[i].stamp = self.clock;
            self.lines[i].dirty |= dirty;
            true
        }

        fn fill(&mut self, a: Addr, dirty: bool) -> Option<Evicted> {
            self.clock += 1;
            let (b, range, hit) = self.probe(a);
            if let Some(i) = hit {
                self.lines[i].stamp = self.clock;
                self.lines[i].dirty |= dirty;
                return None;
            }
            let mut victim = range.start;
            let mut oldest = u64::MAX;
            for i in range {
                if !self.lines[i].valid {
                    victim = i;
                    break;
                }
                if self.lines[i].stamp < oldest {
                    oldest = self.lines[i].stamp;
                    victim = i;
                }
            }
            let old = self.lines[victim];
            self.lines[victim] = Line {
                tag: b,
                valid: true,
                dirty,
                stamp: self.clock,
            };
            old.valid.then_some(Evicted {
                block: old.tag,
                dirty: old.dirty,
            })
        }

        fn invalidate(&mut self, a: Addr) -> Option<bool> {
            let i = self.probe(a).2?;
            self.lines[i].valid = false;
            Some(self.lines[i].dirty)
        }

        fn clean(&mut self, a: Addr) -> bool {
            let Some(i) = self.probe(a).2 else {
                return false;
            };
            self.lines[i].dirty = false;
            true
        }
    }

    #[test]
    fn flat_arrays_match_line_model() {
        let geometries = [
            CacheCfg::direct(1024, 32),
            CacheCfg {
                size_bytes: 1024,
                block_bytes: 32,
                assoc: 2,
            },
            CacheCfg {
                size_bytes: 2048,
                block_bytes: 64,
                assoc: 4,
            },
            CacheCfg {
                size_bytes: 512,
                block_bytes: 32,
                assoc: 0,
            },
            // 12 lines in 2-way sets: 6 sets, the modulo index path.
            CacheCfg {
                size_bytes: 768,
                block_bytes: 64,
                assoc: 2,
            },
        ];
        for (g, cfg) in geometries.into_iter().enumerate() {
            let mut rng = Xoshiro256StarStar::seeded(0xCAC4E + g as u64);
            let mut c = Cache::new(cfg);
            let mut m = Model::new(cfg);
            // Footprint of 3x the capacity: a mix of hits, conflicts and
            // capacity evictions.
            let span = cfg.size_bytes * 3;
            for step in 0..30_000 {
                let a = rng.below(span);
                let dirty = rng.below(2) == 0;
                let n = rng.below(4);
                match rng.below(10) {
                    0 | 1 => assert_eq!(c.read(a), m.read(a), "read, {cfg:?} step {step}"),
                    2 => assert_eq!(c.read_hit(a), m.read_hit_run(a, 1), "step {step}"),
                    3 => assert_eq!(c.read_hit_run(a, n), m.read_hit_run(a, n), "step {step}"),
                    4 => assert_eq!(c.write_update(a, dirty), m.write_update_run(a, 1, dirty)),
                    5 => assert_eq!(
                        c.write_update_run(a, n, dirty),
                        m.write_update_run(a, n, dirty)
                    ),
                    6 | 7 => assert_eq!(c.fill(a, dirty), m.fill(a, dirty), "fill, step {step}"),
                    8 => assert_eq!(c.invalidate(a), m.invalidate(a), "step {step}"),
                    _ => assert_eq!(c.clean(a), m.clean(a), "step {step}"),
                }
                assert_eq!(c.contains(a), m.probe(a).2.is_some(), "step {step}");
                assert_eq!(c.hits(), m.hits, "hits, {cfg:?} step {step}");
                assert_eq!(c.misses(), m.misses, "misses, {cfg:?} step {step}");
            }
            let valid = m.lines.iter().filter(|l| l.valid).count();
            assert_eq!(c.valid_lines(), valid, "{cfg:?}");
            assert!(valid > 0);
        }
    }
}
