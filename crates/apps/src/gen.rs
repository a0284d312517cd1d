//! Trace-generation plumbing shared by all twelve applications.
//!
//! Applications build their streams out of three pieces:
//!
//! * [`Alloc`] — a bump allocator for the shared region and each node's
//!   private region, so every app lays out its arrays the same way.
//! * [`Chunk`] — a builder for one phase's worth of operations (one outer
//!   iteration, one pivot step, ...). Regular loops go in compressed as
//!   [`Nest`]s; scalar pushes cover sync and irregular references.
//!   Adjacent [`Op::Compute`]s coalesce so chunk sizes stay
//!   proportional to the number of *references*, and the builder rejects
//!   pushes whose scalar expansion would have coalesced across a macro
//!   boundary (the port must keep such seams scalar).
//! * [`chunked`] — turns a `FnMut(phase, &mut Chunk) -> bool` generator
//!   into a lazy [`OpStream`]. Fill-in-place: the stream's refill buffer
//!   is handed to the closure through the chunk, so paper-sized inputs
//!   never materialize a full trace and refills allocate nothing.

use crate::ops::{BarrierId, LockId, MacroOp, MacroSource, Nest, Op, OpStream};
use memsys::addr::{self, Addr, AddressMap};

/// Word size used by all applications (f32/i32 elements, paper-era codes).
pub const ELEM: u64 = addr::WORD_BYTES;

/// Double-word elements (f64) used by CG.
pub const ELEM8: u64 = 8;

/// Bump allocator over the shared and private regions.
#[derive(Debug, Clone)]
pub struct Alloc {
    shared_next: Addr,
    private_next: Vec<Addr>,
}

impl Alloc {
    /// Fresh allocator for a machine described by `map`.
    pub fn new(map: &AddressMap) -> Self {
        Self {
            shared_next: addr::SHARED_BASE,
            private_next: (0..map.nodes).map(|n| map.private_base(n)).collect(),
        }
    }

    fn bump(slot: &mut Addr, bytes: u64) -> Addr {
        // Block-align every array so arrays never share coherence blocks.
        let base = (*slot + 63) & !63;
        *slot = base + bytes;
        base
    }

    /// Allocates `n` elements of `elem` bytes in the shared region.
    pub fn shared(&mut self, n: u64, elem: u64) -> Addr {
        Self::bump(&mut self.shared_next, n * elem)
    }

    /// Allocates `n` elements of `elem` bytes in node `p`'s private region.
    pub fn private(&mut self, p: usize, n: u64, elem: u64) -> Addr {
        Self::bump(&mut self.private_next[p], n * elem)
    }

    /// Total shared bytes allocated so far.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_next - addr::SHARED_BASE
    }
}

/// The first op a macro-op expands to, if any (seam checks).
fn first_op(m: &MacroOp) -> Option<Op> {
    m.expand().next()
}

/// The last op a macro-op expands to, if any (seam checks). Cheap: a
/// nest walks one iteration's slots backward.
fn last_op(m: &MacroOp) -> Option<Op> {
    match m {
        MacroOp::One(op) => Some(*op),
        MacroOp::Nest(nest) => {
            // Last iteration whose body emits anything, walked backward.
            for i in (0..nest.n()).rev() {
                for s in nest.slots().iter().rev() {
                    if let Some(op) = s.op_at(i, nest.wmask()) {
                        return Some(op);
                    }
                }
            }
            None
        }
    }
}

/// One phase's operations, with compute-coalescing.
#[derive(Debug, Default, Clone)]
pub struct Chunk {
    ops: Vec<MacroOp>,
}

impl Chunk {
    /// An empty chunk with room for about `cap` macro-ops.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ops: Vec::with_capacity(cap),
        }
    }

    /// Appends a read of element `i` (of `elem` bytes) of the array at
    /// `base`.
    #[inline]
    pub fn read(&mut self, base: Addr, i: u64, elem: u64) {
        self.ops.push(MacroOp::One(Op::Read(base + i * elem)));
    }

    /// Appends a write of element `i` of the array at `base`.
    #[inline]
    pub fn write(&mut self, base: Addr, i: u64, elem: u64) {
        self.ops.push(MacroOp::One(Op::Write(base + i * elem)));
    }

    /// Appends a read of a raw byte address.
    #[inline]
    pub fn read_at(&mut self, a: Addr) {
        self.ops.push(MacroOp::One(Op::Read(a)));
    }

    /// Appends a write of a raw byte address.
    #[inline]
    pub fn write_at(&mut self, a: Addr) {
        self.ops.push(MacroOp::One(Op::Write(a)));
    }

    /// Appends `n` cycles of computation, merging with a preceding
    /// `Compute`.
    ///
    /// # Panics
    /// If the preceding macro-op's expansion *ends* with a `Compute`: the
    /// scalar builder would have coalesced this push into it, which a
    /// uniform macro-op cannot represent. Ports must keep such a seam
    /// scalar (emit the loop's final compute outside the macro).
    #[inline]
    pub fn compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        match self.ops.last_mut() {
            Some(MacroOp::One(Op::Compute(c))) => {
                *c = c.saturating_add(n);
                return;
            }
            Some(m @ MacroOp::Nest(_)) => {
                assert!(
                    !matches!(last_op(m), Some(Op::Compute(_))),
                    "compute after a macro ending in Compute: seam would coalesce"
                );
            }
            _ => {}
        }
        self.ops.push(MacroOp::One(Op::Compute(n)));
    }

    /// Appends a loop nest.
    ///
    /// # Panics
    /// If the nest's expansion starts with a `Compute` while the chunk
    /// ends with one (the scalar builder would have coalesced them).
    pub fn nest(&mut self, nest: Nest) {
        let m = MacroOp::Nest(Box::new(nest));
        if matches!(self.ops.last().and_then(last_op), Some(Op::Compute(_))) {
            assert!(
                !matches!(first_op(&m), Some(Op::Compute(_))),
                "nest starting with Compute after Compute: seam would coalesce"
            );
        }
        self.ops.push(m);
    }

    /// Appends a barrier.
    #[inline]
    pub fn barrier(&mut self, id: BarrierId) {
        self.ops.push(MacroOp::One(Op::Barrier(id)));
    }

    /// Appends a lock acquire.
    #[inline]
    pub fn acquire(&mut self, id: LockId) {
        self.ops.push(MacroOp::One(Op::Acquire(id)));
    }

    /// Appends a lock release.
    #[inline]
    pub fn release(&mut self, id: LockId) {
        self.ops.push(MacroOp::One(Op::Release(id)));
    }

    /// Number of macro-ops in the chunk.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Number of scalar ops the chunk expands to.
    pub fn ops_len(&self) -> u64 {
        self.ops.iter().map(|m| m.ops_len()).sum()
    }

    /// True if the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consumes the chunk into its macro-op vector.
    pub fn into_macros(self) -> Vec<MacroOp> {
        self.ops
    }
}

/// Builds a lazy stream from a chunk generator: the closure is called
/// with phase 0, 1, 2, ... and a chunk to fill; it returns `false` after
/// the final phase (ops pushed on that call still count).
///
/// The generator feeds the stream's refill buffer a whole phase at a
/// time through the chunk — the buffer is moved in and out, so refills
/// recycle one allocation for the stream's whole life and per-op
/// iteration never touches the closure.
pub fn chunked<F>(next: F) -> OpStream
where
    F: FnMut(u64, &mut Chunk) -> bool + Send + 'static,
{
    struct Phases<F> {
        next: F,
        phase: u64,
        done: bool,
    }
    impl<F: FnMut(u64, &mut Chunk) -> bool + Send> MacroSource for Phases<F> {
        fn next_chunk(&mut self, buf: &mut Vec<MacroOp>) -> bool {
            if self.done {
                return false;
            }
            let mut c = Chunk {
                ops: std::mem::take(buf),
            };
            let more = (self.next)(self.phase, &mut c);
            self.phase += 1;
            *buf = c.ops;
            if !more {
                self.done = true;
                return !buf.is_empty();
            }
            true
        }
    }
    OpStream::from_macro_source(Phases {
        next,
        phase: 0,
        done: false,
    })
}

/// Contiguous 1-D partition: the half-open range of `n` items owned by
/// processor `p` of `procs`. Remainders spread over the low-numbered
/// processors (SPLASH-2 style).
pub fn partition(n: u64, procs: usize, p: usize) -> std::ops::Range<u64> {
    let procs = procs as u64;
    let p = p as u64;
    let base = n / procs;
    let rem = n % procs;
    let start = p * base + p.min(rem);
    let len = base + u64::from(p < rem);
    start..start + len
}

/// Deterministic per-(app, processor) RNG stream.
pub fn stream_rng(seed: u64, app_tag: u64, proc_id: usize) -> desim::Xoshiro256StarStar {
    let mut mix = desim::SplitMix64::new(seed ^ app_tag.rotate_left(17));
    for _ in 0..=proc_id {
        mix.next_u64();
    }
    desim::Xoshiro256StarStar::seeded(mix.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::AddressMap;

    #[test]
    fn alloc_block_aligns_and_separates() {
        let map = AddressMap::new(4, 64);
        let mut a = Alloc::new(&map);
        let x = a.shared(10, 4); // 40 bytes
        let y = a.shared(1, 4);
        assert_eq!(x % 64, 0);
        assert_eq!(y % 64, 0);
        assert!(y >= x + 64, "arrays must not share a block");
        assert!(map.is_shared(x));
        let px = a.private(2, 5, 4);
        assert!(!map.is_shared(px));
        assert_eq!(map.home_of(px), 2);
    }

    #[test]
    fn chunk_coalesces_compute() {
        let mut c = Chunk::default();
        c.compute(3);
        c.compute(4);
        c.read_at(100);
        c.compute(0);
        c.compute(2);
        let ops: Vec<Op> = c.into_macros().iter().flat_map(|m| m.expand()).collect();
        assert_eq!(ops, vec![Op::Compute(7), Op::Read(100), Op::Compute(2)]);
    }

    #[test]
    #[should_panic(expected = "seam would coalesce")]
    fn compute_after_compute_tailed_nest_is_rejected() {
        let mut body = Nest::new(2);
        body.read(0, 4).compute(5);
        let mut c = Chunk::default();
        c.nest(body);
        c.compute(1); // would coalesce with the nest's last Compute
    }

    #[test]
    fn chunked_streams_all_phases() {
        let s = chunked(|phase, c| {
            if phase >= 3 {
                return false;
            }
            c.read_at(phase * 8);
            true
        });
        let ops: Vec<Op> = s.collect();
        assert_eq!(ops, vec![Op::Read(0), Op::Read(8), Op::Read(16)]);
    }

    #[test]
    fn chunked_final_phase_ops_still_count() {
        let s = chunked(|phase, c| {
            c.read_at(phase);
            phase < 1
        });
        let ops: Vec<Op> = s.collect();
        assert_eq!(ops, vec![Op::Read(0), Op::Read(1)]);
    }

    #[test]
    fn partition_covers_exactly() {
        for (n, procs) in [(16u64, 4usize), (17, 4), (5, 8), (100, 16)] {
            let mut total = 0;
            let mut prev_end = 0;
            for p in 0..procs {
                let r = partition(n, procs, p);
                assert_eq!(r.start, prev_end, "contiguous");
                prev_end = r.end;
                total += r.end - r.start;
            }
            assert_eq!(total, n);
            assert_eq!(prev_end, n);
        }
    }

    #[test]
    fn stream_rngs_are_distinct_and_stable() {
        let mut a = stream_rng(1, 42, 0);
        let mut b = stream_rng(1, 42, 1);
        let mut a2 = stream_rng(1, 42, 0);
        assert_ne!(a.next_u64(), b.next_u64());
        let _ = a2.next_u64();
        assert_eq!(a.next_u64(), a2.next_u64());
    }
}
