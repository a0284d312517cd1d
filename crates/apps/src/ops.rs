//! The operation vocabulary the workload front-end feeds the simulator.
//!
//! Two layers. The scalar [`Op`] is the unit of simulated work: one
//! compute cycle bundle, one data reference, one sync operation. The
//! compressed [`MacroOp`] is the unit of *transport*: generators describe
//! their regular loops as loop nests ([`Nest`]) instead of materializing
//! every element, and the engine retires a whole nest with a handful of
//! block-granular probes. [`MacroOp::expand`] defines the
//! scalar meaning of every macro-op; everything downstream (the stream's
//! `Iterator` impl, the engine's fast path) must agree with it
//! bit-for-bit.

use memsys::Addr;

/// Lock identifier (application-scoped).
pub type LockId = u32;

/// Barrier identifier (application-scoped).
pub type BarrierId = u32;

/// One event in a processor's program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` cycles of local computation (instructions that hit in the L1
    /// I-cache and reference no data — the paper charges 1 pcycle each).
    Compute(u32),
    /// A data read of the word at the given byte address. Blocking: the
    /// processor stalls until the read is satisfied.
    Read(Addr),
    /// A data write of the word at the given byte address. Costs 1 cycle
    /// into the coalescing write buffer; stalls only when the buffer is
    /// full.
    Write(Addr),
    /// Acquire the given lock (release consistency: all prior writes must
    /// be globally performed first).
    Acquire(LockId),
    /// Release the given lock.
    Release(LockId),
    /// Wait at the given barrier until all processors arrive.
    Barrier(BarrierId),
}

impl Op {
    /// True for synchronization operations.
    pub fn is_sync(&self) -> bool {
        matches!(self, Op::Acquire(_) | Op::Release(_) | Op::Barrier(_))
    }

    /// True for data references.
    pub fn is_ref(&self) -> bool {
        matches!(self, Op::Read(_) | Op::Write(_))
    }
}

/// Maximum number of body slots in a [`Nest`] (the widest user is the
/// 3-D 7-point stencil: seven reads, a compute, a write).
pub const MAX_SLOTS: usize = 12;

/// One statement of a [`Nest`] body, instantiated once per iteration.
///
/// Affine slots reference `base + i * stride` at iteration `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `Op::Compute(cost)` every iteration.
    Compute(u32),
    /// `Op::Read(base + i * stride)`.
    Read {
        /// Address at iteration 0.
        base: Addr,
        /// Byte step per iteration.
        stride: u64,
    },
    /// `Op::Write(base + i * stride)`.
    Write {
        /// Address at iteration 0.
        base: Addr,
        /// Byte step per iteration.
        stride: u64,
    },
    /// `Op::Write(base + i * stride)` only on iterations whose bit is set
    /// in the nest's `wmask`; otherwise the slot emits nothing.
    WriteIf {
        /// Address at iteration 0.
        base: Addr,
        /// Byte step per iteration.
        stride: u64,
    },
}

impl Slot {
    /// The op this slot emits at iteration `i`, if any.
    #[inline]
    pub fn op_at(&self, i: u64, wmask: u64) -> Option<Op> {
        match *self {
            Slot::Compute(c) => Some(Op::Compute(c)),
            Slot::Read { base, stride } => Some(Op::Read(base + i * stride)),
            Slot::Write { base, stride } => Some(Op::Write(base + i * stride)),
            Slot::WriteIf { base, stride } => {
                debug_assert!(i < 64);
                ((wmask >> i) & 1 == 1).then(|| Op::Write(base + i * stride))
            }
        }
    }
}

/// A counted loop template: up to [`MAX_SLOTS`] body slots executed in
/// order for each of `n` iterations. This is the macro-op that carries
/// the *loop* instead of its elements: the inner loops of the regular
/// kernels (wavefront, SOR, elimination, ...) interleave reads, compute,
/// and writes per element; a nest reproduces the exact interleaved scalar
/// order while the engine retires whole block-segments of it at once. A
/// one-slot nest is an affine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nest {
    n: u64,
    wmask: u64,
    len: u8,
    slots: [Slot; MAX_SLOTS],
}

impl Nest {
    /// An empty nest of `n > 0` iterations. Push slots with
    /// [`read`](Self::read) / [`write`](Self::write) /
    /// [`write_if`](Self::write_if) / [`compute`](Self::compute).
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "empty nest");
        Self {
            n,
            wmask: 0,
            len: 0,
            slots: [Slot::Compute(0); MAX_SLOTS],
        }
    }

    fn push(&mut self, s: Slot) -> &mut Self {
        assert!((self.len as usize) < MAX_SLOTS, "nest body too long");
        self.slots[self.len as usize] = s;
        self.len += 1;
        self
    }

    /// Appends a compute slot of `cost > 0` cycles.
    pub fn compute(&mut self, cost: u32) -> &mut Self {
        assert!(cost > 0, "zero-cost compute slot");
        self.push(Slot::Compute(cost))
    }

    /// Appends an affine read slot.
    pub fn read(&mut self, base: Addr, stride: u64) -> &mut Self {
        self.push(Slot::Read { base, stride })
    }

    /// Appends an affine write slot.
    pub fn write(&mut self, base: Addr, stride: u64) -> &mut Self {
        self.push(Slot::Write { base, stride })
    }

    /// Appends a masked write slot; set the per-iteration gate bits with
    /// [`set_wmask`](Self::set_wmask). Masked slots cap the nest at 64
    /// iterations (one gate bit per iteration).
    pub fn write_if(&mut self, base: Addr, stride: u64) -> &mut Self {
        assert!(
            self.n <= 64,
            "masked writes need one wmask bit per iteration"
        );
        self.push(Slot::WriteIf { base, stride })
    }

    /// Sets the gate bits for `WriteIf` slots (bit `i` = iteration `i`
    /// writes).
    pub fn set_wmask(&mut self, m: u64) -> &mut Self {
        self.wmask = m;
        self
    }

    /// Iteration count.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The `WriteIf` gate bits.
    #[inline]
    pub fn wmask(&self) -> u64 {
        self.wmask
    }

    /// The body slots, in emission order.
    #[inline]
    pub fn slots(&self) -> &[Slot] {
        &self.slots[..self.len as usize]
    }

    /// Expands the slots `from_slot..` of iteration `i` into `out`,
    /// preserving emission order.
    #[inline]
    pub fn expand_iter_into(&self, i: u64, from_slot: usize, out: &mut Vec<Op>) {
        for s in &self.slots()[from_slot..] {
            if let Some(op) = s.op_at(i, self.wmask) {
                out.push(op);
            }
        }
    }

    /// Total scalar ops this nest expands to.
    pub fn ops_len(&self) -> u64 {
        let masked = self
            .slots()
            .iter()
            .filter(|s| matches!(s, Slot::WriteIf { .. }))
            .count() as u64;
        let unmasked = self.slots().len() as u64 - masked;
        let live_bits = if self.n >= 64 {
            self.wmask.count_ones() as u64
        } else {
            (self.wmask & ((1u64 << self.n) - 1)).count_ones() as u64
        };
        self.n * unmasked + live_bits * masked
    }
}

/// A compressed element of a processor's program order. Every macro-op
/// denotes the exact scalar sequence [`expand`](Self::expand) produces;
/// generators use [`Nest`] for their regular loops and
/// [`One`](Self::One) for sync and irregular references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacroOp {
    /// A single scalar op.
    One(Op),
    /// A counted loop template (boxed: a nest is much larger than an op,
    /// and keeping it out of line holds `MacroOp` at 16 bytes).
    Nest(Box<Nest>),
}

impl MacroOp {
    /// Number of expansion steps (loop iterations; 1 for `One`). The
    /// stream cursor counts iterations in `0..total_iters()`.
    #[inline]
    pub fn total_iters(&self) -> u64 {
        match self {
            MacroOp::One(_) => 1,
            MacroOp::Nest(nest) => nest.n,
        }
    }

    /// Total scalar ops this macro-op expands to.
    pub fn ops_len(&self) -> u64 {
        match self {
            MacroOp::One(_) => 1,
            MacroOp::Nest(nest) => nest.ops_len(),
        }
    }

    /// The defining scalar expansion, in program order.
    pub fn expand(&self) -> impl Iterator<Item = Op> + '_ {
        let (one, nest) = match self {
            MacroOp::One(op) => (Some(*op), None),
            MacroOp::Nest(nest) => (None, Some(&**nest)),
        };
        one.into_iter().chain(nest.into_iter().flat_map(|nest| {
            (0..nest.n).flat_map(move |i| {
                nest.slots()
                    .iter()
                    .filter_map(move |s| s.op_at(i, nest.wmask))
            })
        }))
    }
}

/// A chunk-at-a-time producer of macro-ops feeding an [`OpStream`] — the
/// one producer form: generators and custom iterators both arrive
/// through it (a materialized trace is already one whole chunk).
///
/// Fill-in-place: the stream hands over its (cleared) refill buffer, so
/// chunk capacity is recycled across phases and the generator performs no
/// per-phase allocation. The source is consulted only when the buffer
/// drains — once per *phase*, not per op.
pub trait MacroSource: Send {
    /// Appends the next phase's macro-ops into `buf` (handed over
    /// cleared); returns false when the program has ended. May leave
    /// `buf` empty (a phase that emits nothing).
    fn next_chunk(&mut self, buf: &mut Vec<MacroOp>) -> bool;
}

/// A [`MacroSource`] of [`MacroOp::One`]s drawn from a scalar iterator,
/// 1024 at a time so the per-op cost stays an inlined buffer read.
struct Ones<I>(I);

impl<I: Iterator<Item = Op> + Send> MacroSource for Ones<I> {
    fn next_chunk(&mut self, buf: &mut Vec<MacroOp>) -> bool {
        buf.extend(self.0.by_ref().take(1024).map(MacroOp::One));
        !buf.is_empty()
    }
}

/// A lazily generated per-processor operation stream.
///
/// Internally a two-level cursor over the macro-op layer. The *macro
/// buffer* (`mbuf`) holds the current chunk with a position and an
/// iteration index into the current macro-op; the *spill buffer* (`sbuf`)
/// holds the scalarized tail of one nest iteration and is always served
/// first. Iterating the stream yields exactly the concatenation of every
/// macro-op's [`MacroOp::expand`], in order.
///
/// The engine's fast path walks the macro layer directly
/// ([`spill`](Self::spill) / [`macro_run`](Self::macro_run) /
/// [`consume_iters`](Self::consume_iters) and friends); everything else
/// treats the stream as an `Iterator<Item = Op>`.
pub struct OpStream {
    mbuf: Vec<MacroOp>,
    mpos: usize,
    /// Iterations of `mbuf[mpos]` already consumed.
    iter: u64,
    sbuf: Vec<Op>,
    spos: usize,
    source: Option<Box<dyn MacroSource>>,
}

impl OpStream {
    /// A stream over a fully materialized op vector (replays, tests),
    /// loaded as one chunk of [`MacroOp::One`]s.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        Self {
            mbuf: ops.into_iter().map(MacroOp::One).collect(),
            mpos: 0,
            iter: 0,
            sbuf: Vec::new(),
            spos: 0,
            source: None,
        }
    }

    /// A stream drawing macro-op chunks from `source` on demand.
    pub fn from_macro_source(source: impl MacroSource + 'static) -> Self {
        Self {
            mbuf: Vec::new(),
            mpos: 0,
            iter: 0,
            sbuf: Vec::new(),
            spos: 0,
            source: Some(Box::new(source)),
        }
    }

    /// Wraps an arbitrary op iterator as a source of `One`s. The extension
    /// point for custom front-ends that aren't phase-structured.
    pub fn lazy(it: impl Iterator<Item = Op> + Send + 'static) -> Self {
        Self::from_macro_source(Ones(it))
    }

    /// Re-wraps this stream as a scalar-only stream: every macro-op is
    /// expanded to `One` ops at the source boundary. The expansion oracle
    /// for differential tests — the engine sees the identical op sequence
    /// with the compression stripped.
    pub fn scalarized(self) -> Self {
        Self::lazy(self)
    }

    /// Ensures the macro cursor points at a macro-op, refilling from the
    /// source as needed. `None` means the stream has ended (the spill
    /// buffer may still hold ops).
    #[inline]
    fn cur(&mut self) -> Option<&MacroOp> {
        while self.mpos >= self.mbuf.len() {
            let src = self.source.as_mut()?;
            self.mbuf.clear();
            self.mpos = 0;
            self.iter = 0;
            if !src.next_chunk(&mut self.mbuf) {
                self.source = None;
                self.mbuf.clear();
                return None;
            }
        }
        Some(&self.mbuf[self.mpos])
    }

    // --- engine-facing macro cursor API ------------------------------

    /// Already-scalarized ops awaiting consumption; always ordered before
    /// the macro cursor. Does not refill.
    #[inline]
    pub fn spill(&self) -> &[Op] {
        &self.sbuf[self.spos..]
    }

    /// Consumes the first `n` ops of [`spill`](Self::spill).
    #[inline]
    pub fn consume_spill(&mut self, n: usize) {
        debug_assert!(self.spos + n <= self.sbuf.len(), "consumed past spill");
        self.spos += n;
    }

    /// The remaining macro-ops of the current chunk, refilling first if
    /// it is drained. Empty only when the stream has ended. The leading
    /// macro-op may be partially consumed — see
    /// [`cur_iter`](Self::cur_iter).
    #[inline]
    pub fn macro_run(&mut self) -> &[MacroOp] {
        if self.cur().is_none() {
            return &[];
        }
        &self.mbuf[self.mpos..]
    }

    /// Iterations of the current (leading) macro-op already consumed.
    #[inline]
    pub fn cur_iter(&self) -> u64 {
        self.iter
    }

    /// Consumes `k` leading macro-ops, all of which must be
    /// [`MacroOp::One`] (the engine's scalar fast loop).
    #[inline]
    pub fn consume_ones(&mut self, k: usize) {
        debug_assert!(self.iter == 0);
        debug_assert!(self.mpos + k <= self.mbuf.len());
        debug_assert!(self.mbuf[self.mpos..self.mpos + k]
            .iter()
            .all(|m| matches!(m, MacroOp::One(_))));
        self.mpos += k;
    }

    /// Consumes `k` iterations of the current macro-op, stepping past it
    /// when fully consumed.
    #[inline]
    pub fn consume_iters(&mut self, k: u64) {
        self.iter += k;
        let n = self.mbuf[self.mpos].total_iters();
        debug_assert!(self.iter <= n, "consumed past macro-op");
        if self.iter >= n {
            self.mpos += 1;
            self.iter = 0;
        }
    }

    /// Scalarizes the slots `from_slot..` of the current nest iteration
    /// into the (drained) spill buffer and advances the iteration cursor.
    /// The engine uses this when it must abandon a nest iteration midway
    /// (a miss or deadline bail): the unretired tail goes through the
    /// general per-op path in exact program order.
    pub fn spill_iter_tail(&mut self, from_slot: usize) {
        debug_assert!(self.spos >= self.sbuf.len(), "spill not drained");
        self.sbuf.clear();
        self.spos = 0;
        let MacroOp::Nest(nest) = &self.mbuf[self.mpos] else {
            unreachable!("spill_iter_tail on a scalar op")
        };
        nest.expand_iter_into(self.iter, from_slot, &mut self.sbuf);
        self.consume_iters(1);
    }
}

impl Iterator for OpStream {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        loop {
            if let Some(&op) = self.sbuf.get(self.spos) {
                self.spos += 1;
                return Some(op);
            }
            if let MacroOp::One(op) = *self.cur()? {
                self.mpos += 1;
                return Some(op);
            }
            // A nest: scalarize one iteration into the spill buffer and
            // serve from there (it may be empty: all-masked).
            self.spill_iter_tail(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`MacroSource`] emitting a fixed schedule of macro chunks, some
    /// of which may be empty.
    struct MacroPhased(std::vec::IntoIter<Vec<MacroOp>>);

    impl MacroSource for MacroPhased {
        fn next_chunk(&mut self, buf: &mut Vec<MacroOp>) -> bool {
            match self.0.next() {
                Some(phase) => {
                    buf.extend(phase);
                    true
                }
                None => false,
            }
        }
    }

    fn phased(phases: Vec<Vec<MacroOp>>) -> OpStream {
        OpStream::from_macro_source(MacroPhased(phases.into_iter()))
    }

    /// A one-slot nest: `n` writes from `base` with the given stride.
    fn strided_writes(base: Addr, stride: u64, n: u64) -> MacroOp {
        let mut nest = Nest::new(n);
        nest.write(base, stride);
        MacroOp::Nest(Box::new(nest))
    }

    #[test]
    fn macro_op_is_16_bytes() {
        assert_eq!(std::mem::size_of::<MacroOp>(), 16);
    }

    #[test]
    fn stream_from_ops_iterates_in_order() {
        let ops = vec![Op::Compute(1), Op::Read(64), Op::Barrier(0)];
        let got: Vec<Op> = OpStream::from_ops(ops.clone()).collect();
        assert_eq!(got, ops);
    }

    #[test]
    fn from_ops_serves_ones_through_the_macro_cursor() {
        let ops = vec![Op::Compute(1), Op::Read(64), Op::Barrier(0)];
        let mut s = OpStream::from_ops(ops.clone());
        assert!(s.spill().is_empty());
        let head: Vec<MacroOp> = s.macro_run().to_vec();
        assert_eq!(
            head,
            ops.iter().map(|&op| MacroOp::One(op)).collect::<Vec<_>>()
        );
        s.consume_ones(2);
        assert_eq!(s.collect::<Vec<Op>>(), vec![Op::Barrier(0)]);
    }

    #[test]
    fn lazy_stream_batches_without_reordering() {
        // More ops than one internal chunk, via a plain iterator.
        let got: Vec<Op> = OpStream::lazy((0..5000u64).map(|i| Op::Read(i * 64))).collect();
        assert_eq!(got.len(), 5000);
        assert_eq!(got[0], Op::Read(0));
        assert_eq!(got[4999], Op::Read(4999 * 64));
    }

    #[test]
    fn empty_chunks_are_skipped() {
        let s = phased(vec![
            Vec::new(), // phases that emit nothing
            vec![MacroOp::One(Op::Compute(7))],
            Vec::new(),
            vec![MacroOp::One(Op::Barrier(1))],
        ]);
        let got: Vec<Op> = s.collect();
        assert_eq!(got, vec![Op::Compute(7), Op::Barrier(1)]);
    }

    #[test]
    fn exhausted_stream_stays_exhausted() {
        let mut s = OpStream::from_ops(vec![Op::Compute(1)]);
        assert_eq!(s.next(), Some(Op::Compute(1)));
        assert_eq!(s.next(), None);
        assert_eq!(s.next(), None);
        assert!(s.macro_run().is_empty());
    }

    fn sample_macros() -> Vec<MacroOp> {
        let mut nest = Nest::new(5);
        nest.read(1 << 20, 4)
            .read((1 << 21) + 8, 64)
            .compute(3)
            .write_if(1 << 22, 4);
        nest.set_wmask(0b10110);
        let mut reads = Nest::new(6);
        reads.read(640, 4);
        let mut tail = Nest::new(3);
        tail.compute(2).write(4096, 8);
        vec![
            MacroOp::One(Op::Acquire(1)),
            MacroOp::One(Op::Compute(4)),
            MacroOp::Nest(Box::new(reads)),
            MacroOp::Nest(Box::new(nest)),
            strided_writes(1 << 23, 16, 4),
            MacroOp::Nest(Box::new(tail)),
            MacroOp::One(Op::Release(1)),
        ]
    }

    #[test]
    fn stream_next_matches_expand_oracle() {
        let macros = sample_macros();
        let oracle: Vec<Op> = macros.iter().flat_map(|m| m.expand()).collect();
        assert_eq!(
            oracle.len() as u64,
            macros.iter().map(|m| m.ops_len()).sum::<u64>()
        );
        // Via the macro source (single chunk).
        let got: Vec<Op> = phased(vec![macros.clone()]).collect();
        assert_eq!(got, oracle);
        // Split across chunks at every boundary.
        for split in 0..=macros.len() {
            let (a, b) = macros.split_at(split);
            let got: Vec<Op> = phased(vec![a.to_vec(), b.to_vec()]).collect();
            assert_eq!(got, oracle, "split at {split}");
        }
        // And scalarized() is an identity on the op sequence.
        let got: Vec<Op> = phased(vec![macros]).scalarized().collect();
        assert_eq!(got, oracle);
    }

    #[test]
    fn nest_masked_writes_follow_wmask() {
        let mut nest = Nest::new(4);
        nest.read(0, 4).write_if(1024, 4);
        nest.set_wmask(0b0101);
        let m = MacroOp::Nest(Box::new(nest));
        let got: Vec<Op> = m.expand().collect();
        assert_eq!(
            got,
            vec![
                Op::Read(0),
                Op::Write(1024),
                Op::Read(4),
                Op::Read(8),
                Op::Write(1032),
                Op::Read(12),
            ]
        );
        assert_eq!(m.ops_len(), 6);
    }

    #[test]
    fn engine_cursor_walks_iterations_and_spills_tails() {
        let mut nest = Nest::new(3);
        nest.read(0, 64).compute(2).write(4096, 64);
        let mut s = phased(vec![vec![
            MacroOp::One(Op::Compute(9)),
            MacroOp::Nest(Box::new(nest)),
            strided_writes(1 << 20, 4, 4),
        ]]);
        assert!(s.spill().is_empty());
        assert!(matches!(s.macro_run()[0], MacroOp::One(Op::Compute(9))));
        s.consume_ones(1);
        // Retire iteration 0 wholesale, bail out of iteration 1 after the
        // read slot: the tail (compute, write) must spill.
        assert!(matches!(s.macro_run()[0], MacroOp::Nest(_)));
        s.consume_iters(1);
        assert_eq!(s.cur_iter(), 1);
        s.spill_iter_tail(1);
        assert_eq!(s.spill(), &[Op::Compute(2), Op::Write(4096 + 64)]);
        // The iterator serves the spill, then iteration 2, then the run.
        let rest: Vec<Op> = s.collect();
        assert_eq!(
            rest,
            vec![
                Op::Compute(2),
                Op::Write(4096 + 64),
                Op::Read(128),
                Op::Compute(2),
                Op::Write(4096 + 128),
                Op::Write(1 << 20),
                Op::Write((1 << 20) + 4),
                Op::Write((1 << 20) + 8),
                Op::Write((1 << 20) + 12),
            ]
        );
    }

    #[test]
    fn op_classification() {
        assert!(Op::Barrier(0).is_sync());
        assert!(Op::Acquire(1).is_sync());
        assert!(!Op::Read(0).is_sync());
        assert!(Op::Read(0).is_ref());
        assert!(Op::Write(4).is_ref());
        assert!(!Op::Compute(3).is_ref());
    }
}
