//! Transaction-layer timing and matching (RFC 3261 §17).
//!
//! A *stateful* proxy takes responsibility for reliable delivery the moment
//! it answers an INVITE with 100 Trying (§2 of the paper): it must absorb
//! retransmissions from the caller and retransmit the forwarded request
//! itself when the transport is unreliable. This module provides the pure
//! pieces — transaction keys, the RFC timer constants, and the
//! retransmission schedule — which the proxy's shared transaction table and
//! timer process build on.

use std::rc::Rc;

use siperf_simcore::time::{SimDuration, SimTime};

use crate::msg::{Method, SipMessage};

/// RFC 3261 T1: RTT estimate, the base retransmission interval.
pub const T1: SimDuration = SimDuration::from_millis(500);
/// RFC 3261 T2: cap on the retransmission interval for non-INVITE.
pub const T2: SimDuration = SimDuration::from_secs(4);
/// Timer B/F: transaction timeout, 64×T1.
pub const TIMEOUT: SimDuration = SimDuration::from_millis(64 * 500);

/// Identifies a transaction: the topmost Via branch plus the CSeq method
/// (RFC 3261 §17.2.3 — ACK matches the INVITE it acknowledges by branch;
/// our workload gives ACK its own branch, i.e. 2xx-ACK semantics).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnKey {
    /// The branch parameter of the topmost Via, copied out of the message
    /// so that a stored key does not keep the message's text alive.
    pub branch: Rc<str>,
    /// The method (responses use the CSeq method).
    pub method: Method,
}

impl TxnKey {
    /// Extracts the key from any message, if it carries a Via.
    pub fn of(msg: &SipMessage) -> Option<TxnKey> {
        let branch = msg.branch()?.into();
        let method = match msg.method() {
            Some(m) => m,
            None => msg.cseq_method,
        };
        Some(TxnKey { branch, method })
    }
}

/// Where a transaction stands, from the proxy's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Request forwarded; no response seen yet. Retransmissions run on an
    /// unreliable transport.
    Calling,
    /// A provisional response has been forwarded upstream.
    Proceeding,
    /// A final response has been forwarded; retransmissions of the request
    /// are answered from memory until the transaction is reaped.
    Completed,
}

/// What the transaction layer wants done after an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimerVerdict {
    /// Retransmit the stored request now; the next check is at `next`.
    Retransmit {
        /// When to look again.
        next: SimTime,
    },
    /// Give up: Timer B/F expired without a final response.
    TimedOut,
    /// Nothing due; look again at `next`.
    Wait {
        /// When to look again.
        next: SimTime,
    },
    /// Transaction finished; remove its timer.
    Done,
}

/// The retransmission clock for one forwarded request on an unreliable
/// transport: fires at T1, 2·T1, 4·T1 … (capped at T2 for non-INVITE)
/// until a final response or the 64·T1 deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetransClock {
    next_at: SimTime,
    interval: SimDuration,
    deadline: SimTime,
    cap: SimDuration,
    /// Retransmissions performed so far.
    pub count: u32,
    stopped: bool,
}

impl RetransClock {
    /// Starts the clock for a request sent at `sent_at`. INVITE
    /// transactions double without cap (Timer A); non-INVITE cap at T2
    /// (Timer E).
    pub fn new(sent_at: SimTime, method: Method) -> Self {
        RetransClock {
            next_at: sent_at + T1,
            interval: T1,
            deadline: sent_at + TIMEOUT,
            cap: if method == Method::Invite {
                TIMEOUT
            } else {
                T2
            },
            count: 0,
            stopped: false,
        }
    }

    /// A clock that never fires — used on reliable transports, where the
    /// transport retransmits and only Timer B's timeout applies.
    pub fn reliable(sent_at: SimTime) -> Self {
        RetransClock {
            next_at: sent_at + TIMEOUT,
            interval: TIMEOUT,
            deadline: sent_at + TIMEOUT,
            cap: TIMEOUT,
            count: 0,
            stopped: false,
        }
    }

    /// When this clock next needs attention.
    pub fn next_at(&self) -> SimTime {
        self.next_at
    }

    /// A final response arrived: no further retransmissions.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// True once [`RetransClock::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Advances the clock to `now` and reports what to do.
    pub fn check(&mut self, now: SimTime) -> TimerVerdict {
        if self.stopped {
            return TimerVerdict::Done;
        }
        if now >= self.deadline {
            return TimerVerdict::TimedOut;
        }
        if now < self.next_at {
            return TimerVerdict::Wait { next: self.next_at };
        }
        self.count += 1;
        self.interval = (self.interval * 2).min(self.cap);
        self.next_at = now + self.interval;
        if self.next_at > self.deadline {
            self.next_at = self.deadline;
        }
        TimerVerdict::Retransmit { next: self.next_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, CallParty};
    use crate::msg::StatusCode;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn key_matches_request_and_its_response() {
        let alice = CallParty::new("alice", "h1:1");
        let bob = CallParty::new("bob", "h2:2");
        let inv = gen::invite(&alice, &bob, "d", "c1", "z9hG4bKq", "UDP");
        let ok = gen::response(StatusCode::OK, &inv, Some("bt"), None);
        assert_eq!(TxnKey::of(&inv), TxnKey::of(&ok));
        let bye = gen::bye(&alice, &bob, "d", "c1", "bt", "z9hG4bKr", "UDP");
        assert_ne!(TxnKey::of(&inv), TxnKey::of(&bye));
    }

    #[test]
    fn key_requires_a_via() {
        let alice = CallParty::new("a", "h:1");
        let bob = CallParty::new("b", "h:2");
        let mut msg = gen::invite(&alice, &bob, "d", "c", "z9hG4bKv", "UDP");
        msg.vias.clear();
        assert_eq!(TxnKey::of(&msg), None);
    }

    #[test]
    fn invite_clock_doubles_without_cap() {
        let mut c = RetransClock::new(t(0), Method::Invite);
        assert_eq!(c.check(t(100)), TimerVerdict::Wait { next: t(500) });
        assert_eq!(c.check(t(500)), TimerVerdict::Retransmit { next: t(1500) });
        assert_eq!(c.check(t(1500)), TimerVerdict::Retransmit { next: t(3500) });
        assert_eq!(c.check(t(3500)), TimerVerdict::Retransmit { next: t(7500) });
        assert_eq!(c.count, 3);
    }

    #[test]
    fn non_invite_clock_caps_at_t2() {
        let mut c = RetransClock::new(t(0), Method::Bye);
        c.check(t(500));
        c.check(t(1500));
        c.check(t(3500));
        // Interval would be 8s; capped to 4s.
        assert_eq!(
            c.check(t(7500)),
            TimerVerdict::Retransmit { next: t(11500) }
        );
    }

    #[test]
    fn clock_times_out_at_64_t1() {
        let mut c = RetransClock::new(t(0), Method::Invite);
        assert_eq!(c.check(t(32_000)), TimerVerdict::TimedOut);
    }

    #[test]
    fn stop_silences_clock() {
        let mut c = RetransClock::new(t(0), Method::Invite);
        c.check(t(500));
        c.stop();
        assert!(c.is_stopped());
        assert_eq!(c.check(t(10_000)), TimerVerdict::Done);
    }

    #[test]
    fn reliable_clock_only_times_out() {
        let mut c = RetransClock::reliable(t(0));
        assert_eq!(c.check(t(1_000)), TimerVerdict::Wait { next: t(32_000) });
        assert_eq!(c.check(t(32_000)), TimerVerdict::TimedOut);
    }

    #[test]
    fn retransmissions_never_outlive_deadline() {
        let mut c = RetransClock::new(t(0), Method::Invite);
        let mut now = t(0);
        let mut fired = 0;
        loop {
            match c.check(now) {
                TimerVerdict::Retransmit { next } => {
                    fired += 1;
                    now = next;
                }
                TimerVerdict::Wait { next } => now = next,
                TimerVerdict::TimedOut => break,
                TimerVerdict::Done => unreachable!(),
            }
            assert!(fired < 20, "runaway retransmission");
        }
        // RFC: about 6 retransmissions fit in 64*T1 with doubling.
        assert!((5..=7).contains(&fired), "fired {fired}");
    }
}
