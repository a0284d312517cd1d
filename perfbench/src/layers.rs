//! Per-layer work counts aggregated from simulation reports.
//!
//! The host time of the event queue, the protocol handlers, the ring
//! probes and the topology routing is spent inside one engine call and
//! cannot be split from outside the program; what a report does carry
//! is each layer's *work*, which this module sums over a set of cells.

use netcache_core::{ProtoCounters, RingStats, RunReport};

use crate::output::Metric;
use crate::stats::ratio;

/// Sums over a set of reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Σ engine wall time (`RunReport::wall_ns`).
    pub engine_ns: u64,
    /// Σ events processed.
    pub events: u64,
    /// Σ operations retired.
    pub ops: u64,
    /// Σ operations retired on the elided fast path.
    pub elided_ops: u64,
    /// Σ simulated cycles (parallel run time of each cell).
    pub cycles: u64,
    /// Σ protocol counters.
    pub proto: ProtoCounters,
    /// Σ ring counters over the cells that have a ring.
    pub ring: RingStats,
    /// Σ frames over every fabric link.
    pub link_frames: u64,
    /// Highest busy-cycles / cycles of any one link in any one cell.
    pub hot_link_util: f64,
    /// Σ channel busy cycles.
    pub ch_busy: u64,
    /// Σ channel count × cell cycles.
    pub ch_capacity: u64,
    /// Σ requests served by channels.
    pub ch_served: u64,
    /// Σ served × mean wait over channels.
    pub ch_wait: f64,
    /// Σ data reads issued.
    pub reads: u64,
    /// Σ L1 read hits.
    pub l1_hits: u64,
    /// Σ L2 read hits.
    pub l2_hits: u64,
    /// Σ memory-module reads.
    pub mem_reads: u64,
    /// Σ reads × mean queue wait over memory modules.
    pub mem_wait: f64,
}

impl Totals {
    /// Totals over `reports`.
    pub fn of<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> Self {
        let mut t = Self::default();
        for r in reports {
            t.add(r);
        }
        t
    }

    /// Adds one report.
    pub fn add(&mut self, r: &RunReport) {
        self.engine_ns += r.wall_ns;
        self.events += r.events;
        self.ops += r.ops;
        self.elided_ops += r.elided_ops;
        self.cycles += r.cycles;
        let (p, q) = (&mut self.proto, &r.proto);
        p.updates += q.updates;
        p.invalidations += q.invalidations;
        p.local_writes += q.local_writes;
        p.writebacks += q.writebacks;
        p.forwards += q.forwards;
        p.write_fetches += q.write_fetches;
        p.sync_msgs += q.sync_msgs;
        p.remote_l2_refreshes += q.remote_l2_refreshes;
        p.remote_l1_invalidates += q.remote_l1_invalidates;
        if let Some(ring) = &r.ring {
            self.ring.absorb(ring);
        }
        for (_, frames, busy) in &r.links {
            self.link_frames += frames;
            self.hot_link_util = self.hot_link_util.max(ratio(*busy as f64, r.cycles as f64));
        }
        for (_, served, busy, wait) in &r.channels {
            self.ch_busy += busy;
            self.ch_capacity += r.cycles;
            self.ch_served += served;
            self.ch_wait += *served as f64 * wait;
        }
        for n in &r.nodes {
            self.reads += n.reads;
            self.l1_hits += n.l1_hits;
            self.l2_hits += n.l2_hits;
        }
        for (reads, _, wait) in &r.memories {
            self.mem_reads += reads;
            self.mem_wait += *reads as f64 * wait;
        }
    }

    /// The `machine`, `proto`, `ring`, `topology`, `optics` and `memsys`
    /// per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let ring_lookups = self.ring.hits + self.ring.misses + self.ring.coalesced;
        let f = |x: u64| x as f64;
        vec![
            Metric::new("machine.engine_s", f(self.engine_ns) * 1e-9, "s"),
            Metric::new(
                "machine.ns_per_event",
                ratio(f(self.engine_ns), f(self.events)),
                "ns/event",
            ),
            Metric::new(
                "machine.ns_per_op",
                ratio(f(self.engine_ns), f(self.ops)),
                "ns/op",
            ),
            Metric::new("machine.events", f(self.events), "count"),
            Metric::new(
                "machine.elided_frac",
                ratio(f(self.elided_ops), f(self.ops)),
                "fraction",
            ),
            Metric::new("machine.sim_cycles", f(self.cycles), "cycles"),
            Metric::new("proto.updates", f(self.proto.updates), "count"),
            Metric::new("proto.invalidations", f(self.proto.invalidations), "count"),
            Metric::new("proto.forwards", f(self.proto.forwards), "count"),
            Metric::new(
                "proto.remote_l2_refreshes",
                f(self.proto.remote_l2_refreshes),
                "count",
            ),
            Metric::new(
                "proto.remote_l1_invalidates",
                f(self.proto.remote_l1_invalidates),
                "count",
            ),
            Metric::new("proto.sync_msgs", f(self.proto.sync_msgs), "count"),
            Metric::new(
                "proto.refreshes_per_update",
                ratio(f(self.proto.remote_l2_refreshes), f(self.proto.updates)),
                "ratio",
            ),
            Metric::new("ring.lookups", f(ring_lookups), "count"),
            Metric::new(
                "ring.hit_rate",
                ratio(f(self.ring.hits), f(ring_lookups)),
                "fraction",
            ),
            Metric::new("ring.inserts", f(self.ring.inserts), "count"),
            Metric::new("ring.replacements", f(self.ring.replacements), "count"),
            Metric::new("ring.window_delays", f(self.ring.window_delays), "count"),
            Metric::new(
                "ring.orphans_dropped",
                f(self.ring.orphans_dropped),
                "count",
            ),
            Metric::new("topology.link_frames", f(self.link_frames), "count"),
            Metric::new("topology.hot_link_util", self.hot_link_util, "fraction"),
            Metric::new(
                "optics.channel_busy_frac",
                ratio(f(self.ch_busy), f(self.ch_capacity)),
                "fraction",
            ),
            Metric::new(
                "optics.channel_mean_wait",
                ratio(self.ch_wait, f(self.ch_served)),
                "cycles",
            ),
            Metric::new(
                "memsys.l1_hit_rate",
                ratio(f(self.l1_hits), f(self.reads)),
                "fraction",
            ),
            Metric::new(
                "memsys.l2_hit_rate",
                ratio(f(self.l2_hits), f(self.reads - self.l1_hits)),
                "fraction",
            ),
            Metric::new("memsys.mem_reads", f(self.mem_reads), "count"),
            Metric::new(
                "memsys.mem_mean_wait",
                ratio(self.mem_wait, f(self.mem_reads)),
                "cycles",
            ),
        ]
    }
}
