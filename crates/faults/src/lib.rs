//! Deterministic fault-injection schedules for the SIP proxy simulator.
//!
//! The paper's throughput and latency comparisons (UDP vs TCP vs SCTP)
//! implicitly assume a *healthy* network and proxy. This crate supplies the
//! unhealthy half: a [`FaultSchedule`] is a seeded, time-ordered script of
//! [`Fault`]s — bursty link loss, host-pair partitions, latency spikes,
//! TCP connection resets, frozen accept queues, and process crashes — that
//! the workload driver replays against the simulation at exact virtual
//! times.
//!
//! Determinism is the point. A schedule is data, not behaviour: building
//! the same schedule twice (same builder calls, or [`FaultSchedule::storm`]
//! with the same seed) yields the same events at the same instants, and the
//! network layer draws all fault randomness from its own dedicated RNG
//! stream, so two same-seed chaos runs produce byte-identical reports.
//!
//! This crate deliberately depends only on `simcore` and `simnet`; applying
//! process faults ([`Fault::KillWorker`], [`Fault::KillSupervisor`]) to a
//! live kernel/proxy is the workload layer's job.

#![warn(missing_docs)]

use siperf_simcore::rng::SimRng;
use siperf_simcore::time::SimDuration;
use siperf_simnet::{GilbertElliott, HostId};

/// One injectable fault.
///
/// Link and transport faults are applied straight to the
/// [`Network`](siperf_simnet::Network) via
/// `Kernel::inject_fault`; process faults name a proxy role and are
/// resolved to a pid by the proxy's respawn machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Start a Gilbert–Elliott burst-loss episode on every link.
    ///
    /// UDP datagrams caught in a bad burst are dropped; TCP segments and
    /// SCTP messages are delayed by the retransmission timeout instead
    /// (reliable transports stall, they do not lose).
    BurstLoss {
        /// The two-state Markov chain driving the episode.
        model: GilbertElliott,
        /// How long the episode lasts before the link heals.
        duration: SimDuration,
    },
    /// Blackhole all traffic between two hosts until the partition heals.
    Partition {
        /// One side of the severed pair.
        a: HostId,
        /// The other side.
        b: HostId,
        /// Time until connectivity returns.
        heal_after: SimDuration,
    },
    /// Inflate every link's one-way latency by `extra` for `duration`.
    LatencySpike {
        /// Additional one-way latency while the spike lasts.
        extra: SimDuration,
        /// How long the spike lasts.
        duration: SimDuration,
    },
    /// Send an RST on one established TCP connection terminating at `host`.
    ///
    /// `nth` indexes the host's established connections in deterministic
    /// endpoint order (wrapping), so the same schedule always resets the
    /// same connection.
    TcpReset {
        /// Host whose connection is torn down.
        host: HostId,
        /// Which established connection to reset, in endpoint order.
        nth: usize,
    },
    /// Freeze `host`'s TCP accept queues: SYNs still complete, but
    /// `accept()` returns `WouldBlock` until the thaw.
    AcceptFreeze {
        /// Host whose listeners stop accepting.
        host: HostId,
        /// How long accepts stay frozen.
        duration: SimDuration,
    },
    /// Crash one proxy worker process (it is respawned by the supervisor
    /// path after the crash is observed).
    KillWorker {
        /// Worker index within the proxy's worker pool (wrapping).
        index: usize,
    },
    /// Crash the proxy supervisor process (TCP multi-process architecture);
    /// a fresh supervisor is respawned with an empty descriptor cache.
    KillSupervisor,
}

/// A fault stamped with its injection time, measured from simulation start.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual time offset at which the fault fires.
    pub at: SimDuration,
    /// What happens then.
    pub fault: Fault,
}

/// A time-ordered script of faults.
///
/// Build one explicitly with [`at`](FaultSchedule::at), or generate a
/// seeded storm with [`storm`](FaultSchedule::storm). Events are kept
/// sorted by injection time (stable for equal times, preserving insertion
/// order), so the driver can replay them with a simple cursor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule: a perfectly healthy run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `fault` at offset `at`, keeping the schedule time-ordered.
    #[must_use]
    pub fn at(mut self, at: SimDuration, fault: Fault) -> Self {
        self.push(at, fault);
        self
    }

    /// Non-consuming version of [`at`](Self::at) for loop-driven builders.
    pub fn push(&mut self, at: SimDuration, fault: Fault) {
        let idx = self
            .events
            .partition_point(|e| e.at.as_nanos() <= at.as_nanos());
        self.events.insert(idx, FaultEvent { at, fault });
    }

    /// Generates the canonical chaos storm used by the chaos suite: a
    /// burst-loss episode, one worker crash, and one connection reset,
    /// scattered deterministically over `[start, start + window)`.
    ///
    /// The same `(seed, start, window, workers)` always yields the same
    /// schedule. `reset_host` is the host whose established TCP connection
    /// gets the RST (pass the proxy's host; the reset is skipped at
    /// apply time for datagram transports with no established
    /// connections).
    pub fn storm(
        seed: u64,
        start: SimDuration,
        window: SimDuration,
        workers: usize,
        reset_host: HostId,
    ) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5707_14fa);
        let span = window.as_nanos().max(1);
        let offset = |rng: &mut SimRng| start + SimDuration::from_nanos(rng.range_u64(0..span));

        let burst_at = offset(&mut rng);
        let burst_len = SimDuration::from_nanos(span / 4 + rng.range_u64(0..span / 4));
        let crash_at = offset(&mut rng);
        let crash_idx = rng.range_u64(0..workers.max(1) as u64) as usize;
        let reset_at = offset(&mut rng);
        let reset_nth = rng.range_u64(0..64) as usize;

        Self::new()
            .at(
                burst_at,
                Fault::BurstLoss {
                    model: GilbertElliott::bursty(),
                    duration: burst_len,
                },
            )
            .at(crash_at, Fault::KillWorker { index: crash_idx })
            .at(
                reset_at,
                Fault::TcpReset {
                    host: reset_host,
                    nth: reset_nth,
                },
            )
    }

    /// The events in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty (a healthy run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn builder_keeps_events_time_ordered() {
        let s = FaultSchedule::new()
            .at(ms(300), Fault::KillSupervisor)
            .at(ms(100), Fault::KillWorker { index: 0 })
            .at(
                ms(200),
                Fault::LatencySpike {
                    extra: ms(5),
                    duration: ms(50),
                },
            );
        let ats: Vec<u64> = s.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(
            ats,
            [ms(100), ms(200), ms(300)]
                .iter()
                .map(|d| d.as_nanos())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let s = FaultSchedule::new()
            .at(ms(100), Fault::KillWorker { index: 1 })
            .at(ms(100), Fault::KillWorker { index: 2 });
        assert_eq!(s.events()[0].fault, Fault::KillWorker { index: 1 });
        assert_eq!(s.events()[1].fault, Fault::KillWorker { index: 2 });
    }

    #[test]
    fn storm_is_deterministic_per_seed() {
        let host = HostId(0);
        let a = FaultSchedule::storm(7, ms(1000), ms(4000), 4, host);
        let b = FaultSchedule::storm(7, ms(1000), ms(4000), 4, host);
        assert_eq!(a, b);
        let c = FaultSchedule::storm(8, ms(1000), ms(4000), 4, host);
        assert_ne!(a, c, "different seeds should scatter differently");
    }

    #[test]
    fn storm_contains_the_canonical_trio_inside_the_window() {
        let s = FaultSchedule::storm(42, ms(1000), ms(4000), 4, HostId(0));
        assert_eq!(s.len(), 3);
        let mut kinds = [false; 3];
        for e in s.events() {
            assert!(
                e.at >= ms(1000) && e.at < ms(5000),
                "outside window: {:?}",
                e.at
            );
            match e.fault {
                Fault::BurstLoss { .. } => kinds[0] = true,
                Fault::KillWorker { index } => {
                    kinds[1] = true;
                    assert!(index < 4);
                }
                Fault::TcpReset { .. } => kinds[2] = true,
                _ => panic!("unexpected fault {:?}", e.fault),
            }
        }
        assert_eq!(kinds, [true; 3]);
    }

    #[test]
    fn empty_schedule_is_healthy() {
        let s = FaultSchedule::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
