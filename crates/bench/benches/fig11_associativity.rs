//! Figure 11: 32 KB shared-cache hit rates with fully-associative versus
//! direct-mapped cache channels.
//!
//! Paper shape to check: direct-mapped channels are never above ~25% and
//! always well below the fully-associative organization — the result that
//! justifies the NetCache's native design.

use netcache_bench::{app_rows, emit, machine};
use netcache_core::{Arch, ChannelAssoc};

fn main() {
    let cfgs = [ChannelAssoc::Fully, ChannelAssoc::Direct]
        .map(|assoc| machine(Arch::NetCache).with_assoc(assoc));
    let rows = app_rows(&cfgs, |reports| {
        reports
            .iter()
            .map(|r| 100.0 * r.shared_cache_hit_rate())
            .collect()
    });
    emit(
        "fig11_associativity",
        "32 KB shared-cache hit rates (%): fully-associative vs direct-mapped channels",
        &["Fully", "Direct"],
        &rows,
    );
}
