//! Simulation clock types.
//!
//! The whole reproduction uses the paper's unit: one **pcycle** of a 200 MHz
//! processor (5 ns). Times are absolute pcycle counts since the start of the
//! simulation; durations are pcycle spans. Both are plain `u64`s behind type
//! aliases: the simulator does enough arithmetic on them that a newtype
//! would be all friction and no safety, but the aliases keep signatures
//! self-documenting.

/// An absolute simulation time, in pcycles since simulation start.
pub type Time = u64;

/// A span of simulation time, in pcycles.
pub type Duration = u64;
