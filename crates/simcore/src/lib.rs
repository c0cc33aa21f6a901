//! # siperf-simcore
//!
//! The discrete-event simulation engine underneath the SIPerf study — a
//! reproduction of *"Explaining the Impact of Network Transport Protocols on
//! SIP Proxy Performance"* (Ram, Fedeli, Cox, Rixner; ISPASS 2008).
//!
//! This crate is domain-agnostic: it knows nothing about SIP, sockets, or
//! schedulers. It provides the primitives every layer above builds on:
//!
//! * [`time`] — virtual instants and durations in integer nanoseconds.
//! * [`queue`] — the deterministic, FIFO-tie-broken event queue.
//! * [`rng`] — seeded, platform-stable random numbers.
//! * [`stats`] — counters, log-linear latency histograms, windowed rates.
//! * [`profile`] — OProfile-style per-function CPU accounting, used to
//!   reproduce the paper's §5 execution-profile evidence.
//! * [`arena`] — generational arenas for entities with small `Copy` handles.
//!
//! Determinism is the central contract: given identical inputs and seeds,
//! every simulation built on this crate replays bit-identically, which makes
//! the paper's figures exactly reproducible and failures debuggable.
//!
//! # Example
//!
//! ```
//! use siperf_simcore::prelude::*;
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(1), "tick");
//! let (at, what) = queue.pop().unwrap();
//! assert_eq!(what, "tick");
//! assert_eq!(at.as_nanos(), 1_000_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import of the types almost every consumer needs.
pub mod prelude {
    pub use crate::arena::{Arena, Handle};
    pub use crate::profile::{ProfileReport, Profiler};
    pub use crate::queue::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::stats::{Histogram, WindowRate};
    pub use crate::time::{SimDuration, SimTime};
}
