//! Two-clock benchmark of the SIPerf simulator.
//!
//! SIPerf has two clocks. The simulated clock gives the research output
//! (goodput and INVITE latency); the host clock is what a user of the
//! simulator waits on. This package measures both on three transport
//! workloads through the public `Scenario` API, and splits host time by
//! layer from outside the program. `README.md` next to this package gives
//! the procedure and the metric map.
//!
//! * [`workloads`] — the three scenarios and why each was chosen.
//! * [`measure`] — untraced and traced runs with their correctness checks.
//! * [`probes`] — standalone timings of each layer's public functions.
//! * [`report`] — the metric registry and the result line.
//! * [`speed`] — the reference job that scales host seconds to a fixed
//!   host speed.

pub mod measure;
pub mod probes;
pub mod report;
pub mod speed;
pub mod workloads;
