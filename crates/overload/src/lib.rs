//! Overload control for the simulated SIP proxy.
//!
//! The source paper stops at the saturation knee; this crate extends the
//! study into the regime beyond it, where offered load exceeds capacity and
//! transport choice matters most: UDP clients retransmit into the overload
//! (amplifying it and collapsing goodput) while TCP queues requests into
//! unbounded latency. Overload control — shedding excess work early with
//! `503 Service Unavailable` + `Retry-After` — is what keeps goodput near
//! the saturation peak past the knee (Shen & Schulzrinne, *On TCP-based SIP
//! Server Overload Control*; Hong, Huang & Yan, *A Comparative Study of SIP
//! Overload Control Algorithms*).
//!
//! The proxy consults a pluggable [`OverloadPolicy`] before creating each
//! INVITE transaction — only new calls are shed; in-progress work (BYE,
//! ACK, CANCEL, REGISTER) always passes, because completing accepted calls
//! is precisely the goodput the policy defends. Three policies ship:
//!
//! * [`NoControl`] — the baseline: admit everything, let the transports
//!   fight it out (the paper's world).
//! * [`QueueThreshold`] — local admission control: reject while the
//!   pending-work level (live transactions plus reported worker-queue
//!   backlog) sits above a high-water mark, with hysteresis so shedding
//!   stops only once the level drains below a low-water mark.
//! * [`WindowFeedback`] — receiver-driven per-upstream windows in the
//!   spirit of Shen & Schulzrinne: each upstream host gets a dynamic
//!   window of in-flight INVITEs, grown additively on timely completions
//!   and halved when the proxy is congested or a transaction times out.
//!
//! Policies are plain deterministic state machines (no clocks or RNG of
//! their own) so simulations stay bit-reproducible.

#![warn(missing_docs)]

use std::fmt;

use siperf_simcore::hash::FastMap;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::{HostId, SockAddr};

/// The load signals a proxy hands the policy at each admission decision.
///
/// Both are receiver-side observations, matching what a real OpenSER-style
/// proxy can see locally: the transaction table it owns and the message
/// queues its workers drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSignals {
    /// Transactions created but not yet completed (final response or
    /// timeout still outstanding) — the proxy's pending-request queue.
    pub active_txns: usize,
    /// Messages sitting in worker input queues, as last reported by the
    /// per-transport workers (zero on transports whose queueing happens in
    /// the kernel socket buffer, where the application cannot see it).
    pub worker_backlog: usize,
}

impl LoadSignals {
    /// The combined pending-work level policies threshold on.
    pub fn level(&self) -> usize {
        self.active_txns + self.worker_backlog
    }
}

/// A policy's decision on one would-be transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Create the transaction and forward the request.
    Admit,
    /// Shed the request with `503 Service Unavailable`, advertising this
    /// many seconds in `Retry-After`.
    Reject {
        /// Seconds the upstream should back off before retrying.
        retry_after: u32,
    },
}

impl Verdict {
    /// True for [`Verdict::Admit`].
    pub fn is_admit(self) -> bool {
        matches!(self, Verdict::Admit)
    }
}

/// An admission-control policy consulted before each INVITE transaction.
///
/// The proxy's contract: [`admit`](OverloadPolicy::admit) is called once
/// per admission-eligible request, and every `Admit` is followed by exactly
/// one [`on_complete`](OverloadPolicy::on_complete) or
/// [`on_timeout`](OverloadPolicy::on_timeout) for the same upstream once
/// the transaction ends. Policies must be deterministic: no wall clocks,
/// no randomness.
pub trait OverloadPolicy: fmt::Debug {
    /// Short token naming the policy (for reports and plot labels).
    fn name(&self) -> &'static str;

    /// Decides whether to admit a new INVITE transaction from `src` given
    /// the current load.
    fn admit(&mut self, now: SimTime, src: SockAddr, load: &LoadSignals) -> Verdict;

    /// Observes an admitted transaction completing with a final response
    /// after `latency`.
    fn on_complete(&mut self, now: SimTime, src: SockAddr, latency: SimDuration) {
        let _ = (now, src, latency);
    }

    /// Observes an admitted transaction dying of a transaction timeout —
    /// the strongest congestion signal the receiver has.
    fn on_timeout(&mut self, now: SimTime, src: SockAddr) {
        let _ = (now, src);
    }
}

/// The baseline: admit everything, shed nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoControl;

impl OverloadPolicy for NoControl {
    fn name(&self) -> &'static str {
        "none"
    }

    fn admit(&mut self, _now: SimTime, _src: SockAddr, _load: &LoadSignals) -> Verdict {
        Verdict::Admit
    }
}

/// Local admission control with hysteresis: shed while the pending-work
/// level is above `high`, stop once it drains to `low`.
///
/// The hysteresis band prevents flapping: without it the policy would
/// oscillate between admit and reject on every transaction boundary right
/// at the threshold, chopping goodput into bursts.
#[derive(Debug, Clone)]
pub struct QueueThreshold {
    /// Pending-work level at which shedding starts.
    pub high: usize,
    /// Pending-work level at which shedding stops (must be ≤ `high`).
    pub low: usize,
    /// Seconds advertised in `Retry-After` on rejections.
    pub retry_after: u32,
    shedding: bool,
}

impl QueueThreshold {
    /// Builds the policy; `low` must not exceed `high`.
    pub fn new(high: usize, low: usize, retry_after: u32) -> Self {
        assert!(low <= high, "hysteresis low-water above high-water");
        QueueThreshold {
            high,
            low,
            retry_after,
            shedding: false,
        }
    }

    /// True while the policy is currently rejecting.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }
}

impl OverloadPolicy for QueueThreshold {
    fn name(&self) -> &'static str {
        "queue-threshold"
    }

    fn admit(&mut self, _now: SimTime, _src: SockAddr, load: &LoadSignals) -> Verdict {
        let level = load.level();
        if self.shedding {
            if level <= self.low {
                self.shedding = false;
            }
        } else if level >= self.high {
            self.shedding = true;
        }
        if self.shedding {
            Verdict::Reject {
                retry_after: self.retry_after,
            }
        } else {
            Verdict::Admit
        }
    }
}

/// Receiver-driven dynamic windows per upstream host, in the spirit of
/// Shen & Schulzrinne's TCP-based SIP overload control.
///
/// Each upstream host may have at most `⌊window⌋` INVITE transactions in
/// flight. The window adapts AIMD-style from receiver-side signals only:
///
/// * additive increase (`+increase`) on every completion whose latency is
///   at or under `target_latency` — the proxy is keeping up;
/// * multiplicative decrease (halving) when an admission arrives while the
///   proxy's pending level exceeds `pressure`, at most once per
///   `decrease_hold` so one burst cannot collapse the window to the floor;
/// * halving on every transaction timeout, the unambiguous overload signal.
#[derive(Debug, Clone)]
pub struct WindowFeedback {
    /// Window each new upstream starts with.
    pub initial_window: f64,
    /// Floor the window never shrinks below (keeps probing for recovery).
    pub min_window: f64,
    /// Ceiling the window never grows above.
    pub max_window: f64,
    /// Pending-work level treated as congestion pressure.
    pub pressure: usize,
    /// Completion latency considered healthy.
    pub target_latency: SimDuration,
    /// Additive window increase per healthy completion.
    pub increase: f64,
    /// Minimum spacing between multiplicative decreases of one window.
    pub decrease_hold: SimDuration,
    /// Seconds advertised in `Retry-After` on rejections.
    pub retry_after: u32,
    state: FastMap<HostId, UpstreamWindow>,
}

#[derive(Debug, Clone, Copy)]
struct UpstreamWindow {
    window: f64,
    outstanding: u32,
    last_decrease: Option<SimTime>,
}

impl WindowFeedback {
    /// Builds the policy with the given congestion-pressure level and
    /// `Retry-After`; tuning knobs start at sensible defaults
    /// (window 8 in [1, 64], 500 ms healthy latency, +0.5 per completion,
    /// one decrease per 200 ms).
    pub fn new(pressure: usize, retry_after: u32) -> Self {
        WindowFeedback {
            initial_window: 8.0,
            min_window: 1.0,
            max_window: 64.0,
            pressure,
            target_latency: SimDuration::from_millis(500),
            increase: 0.5,
            decrease_hold: SimDuration::from_millis(200),
            retry_after,
            state: FastMap::default(),
        }
    }

    /// The current window for an upstream host, if it has one.
    pub fn window_of(&self, host: HostId) -> Option<f64> {
        self.state.get(&host).map(|s| s.window)
    }

    fn entry(&mut self, host: HostId) -> &mut UpstreamWindow {
        let init = self.initial_window;
        self.state.entry(host).or_insert(UpstreamWindow {
            window: init,
            outstanding: 0,
            last_decrease: None,
        })
    }

    fn decrease(&mut self, now: SimTime, host: HostId) {
        let hold = self.decrease_hold;
        let floor = self.min_window;
        let s = self.entry(host);
        let held = s.last_decrease.is_some_and(|at| now < at + hold);
        if !held {
            s.window = (s.window * 0.5).max(floor);
            s.last_decrease = Some(now);
        }
    }
}

impl OverloadPolicy for WindowFeedback {
    fn name(&self) -> &'static str {
        "window-feedback"
    }

    fn admit(&mut self, now: SimTime, src: SockAddr, load: &LoadSignals) -> Verdict {
        if load.level() > self.pressure {
            self.decrease(now, src.host);
        }
        let s = self.entry(src.host);
        if (s.outstanding as f64) < s.window.floor() {
            s.outstanding += 1;
            Verdict::Admit
        } else {
            Verdict::Reject {
                retry_after: self.retry_after,
            }
        }
    }

    fn on_complete(&mut self, _now: SimTime, src: SockAddr, latency: SimDuration) {
        let target = self.target_latency;
        let (incr, cap) = (self.increase, self.max_window);
        let s = self.entry(src.host);
        s.outstanding = s.outstanding.saturating_sub(1);
        if latency <= target {
            s.window = (s.window + incr).min(cap);
        }
    }

    fn on_timeout(&mut self, now: SimTime, src: SockAddr) {
        self.entry(src.host).outstanding = self.entry(src.host).outstanding.saturating_sub(1);
        // A timeout is unambiguous congestion: always shrink, ignoring the
        // decrease hold.
        let floor = self.min_window;
        let s = self.entry(src.host);
        s.window = (s.window * 0.5).max(floor);
        s.last_decrease = Some(now);
    }
}

/// Cloneable, comparable policy selection that travels inside scenario and
/// proxy configuration; [`build`](OverloadConfig::build) turns it into the
/// live policy object the proxy core owns.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum OverloadConfig {
    /// Admit everything (the paper's baseline behaviour).
    #[default]
    NoControl,
    /// [`QueueThreshold`] with the given waters and `Retry-After`.
    QueueThreshold {
        /// Pending-work level at which shedding starts.
        high: usize,
        /// Pending-work level at which shedding stops.
        low: usize,
        /// Seconds advertised in `Retry-After`.
        retry_after: u32,
    },
    /// [`WindowFeedback`] with the given congestion pressure and
    /// `Retry-After`; other knobs take that policy's defaults.
    WindowFeedback {
        /// Pending-work level treated as congestion pressure.
        pressure: usize,
        /// Seconds advertised in `Retry-After`.
        retry_after: u32,
    },
}

impl OverloadConfig {
    /// A `QueueThreshold` tuned for the paper-scale proxy: start shedding
    /// at 600 pending INVITEs, resume at 400, and ask upstreams to back
    /// off for one second — short enough that closed-loop phones probe
    /// again within the measurement window.
    pub fn queue_threshold_default() -> Self {
        OverloadConfig::QueueThreshold {
            high: 600,
            low: 400,
            retry_after: 1,
        }
    }

    /// A `WindowFeedback` tuned for the paper-scale proxy, treating the
    /// same 600 pending INVITEs as congestion pressure.
    pub fn window_feedback_default() -> Self {
        OverloadConfig::WindowFeedback {
            pressure: 600,
            retry_after: 1,
        }
    }

    /// Short token naming the policy (for reports and plot labels).
    pub fn token(&self) -> &'static str {
        match self {
            OverloadConfig::NoControl => "none",
            OverloadConfig::QueueThreshold { .. } => "queue-threshold",
            OverloadConfig::WindowFeedback { .. } => "window-feedback",
        }
    }

    /// True unless this is [`OverloadConfig::NoControl`].
    pub fn is_active(&self) -> bool {
        !matches!(self, OverloadConfig::NoControl)
    }

    /// Instantiates the live policy object.
    pub fn build(&self) -> Box<dyn OverloadPolicy> {
        match *self {
            OverloadConfig::NoControl => Box::new(NoControl),
            OverloadConfig::QueueThreshold {
                high,
                low,
                retry_after,
            } => Box::new(QueueThreshold::new(high, low, retry_after)),
            OverloadConfig::WindowFeedback {
                pressure,
                retry_after,
            } => Box::new(WindowFeedback::new(pressure, retry_after)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn src(host: u32) -> SockAddr {
        SockAddr::new(HostId(host), 20_000)
    }

    fn load(active: usize) -> LoadSignals {
        LoadSignals {
            active_txns: active,
            worker_backlog: 0,
        }
    }

    #[test]
    fn no_control_admits_under_any_load() {
        let mut p = NoControl;
        assert!(p.admit(t(0), src(1), &load(usize::MAX / 2)).is_admit());
    }

    #[test]
    fn queue_threshold_sheds_with_hysteresis() {
        let mut p = QueueThreshold::new(100, 60, 2);
        assert!(p.admit(t(0), src(1), &load(99)).is_admit());
        // Crossing high starts shedding.
        assert_eq!(
            p.admit(t(1), src(1), &load(100)),
            Verdict::Reject { retry_after: 2 }
        );
        assert!(p.is_shedding());
        // Draining below high but above low keeps shedding (hysteresis).
        assert!(!p.admit(t(2), src(1), &load(80)).is_admit());
        // Only at/below low does admission resume.
        assert!(p.admit(t(3), src(1), &load(60)).is_admit());
        assert!(!p.is_shedding());
        assert!(p.admit(t(4), src(1), &load(99)).is_admit());
    }

    #[test]
    fn queue_threshold_counts_worker_backlog() {
        let mut p = QueueThreshold::new(100, 60, 2);
        let l = LoadSignals {
            active_txns: 50,
            worker_backlog: 50,
        };
        assert!(!p.admit(t(0), src(1), &l).is_admit());
    }

    #[test]
    fn window_feedback_caps_outstanding_per_upstream() {
        let mut p = WindowFeedback::new(1000, 1);
        p.initial_window = 2.0;
        // Two in flight admitted, the third rejected.
        assert!(p.admit(t(0), src(1), &load(0)).is_admit());
        assert!(p.admit(t(1), src(1), &load(0)).is_admit());
        assert_eq!(
            p.admit(t(2), src(1), &load(0)),
            Verdict::Reject { retry_after: 1 }
        );
        // A different upstream host has its own window.
        assert!(p.admit(t(3), src(2), &load(0)).is_admit());
        // Completion frees a slot.
        p.on_complete(t(4), src(1), SimDuration::from_millis(10));
        assert!(p.admit(t(5), src(1), &load(0)).is_admit());
    }

    #[test]
    fn window_feedback_grows_on_healthy_completions_only() {
        let mut p = WindowFeedback::new(1000, 1);
        p.initial_window = 2.0;
        assert!(p.admit(t(0), src(1), &load(0)).is_admit());
        p.on_complete(t(1), src(1), SimDuration::from_millis(100));
        assert!(p.window_of(HostId(1)).unwrap() > 2.0, "healthy grows");
        let grown = p.window_of(HostId(1)).unwrap();
        assert!(p.admit(t(2), src(1), &load(0)).is_admit());
        p.on_complete(t(3), src(1), SimDuration::from_secs(4));
        assert_eq!(p.window_of(HostId(1)), Some(grown), "slow does not grow");
    }

    #[test]
    fn window_feedback_halves_under_pressure_with_hold() {
        let mut p = WindowFeedback::new(100, 1);
        p.initial_window = 8.0;
        // Pressure halves the window once…
        let _ = p.admit(t(0), src(1), &load(500));
        assert_eq!(p.window_of(HostId(1)), Some(4.0));
        // …but not again within the hold…
        let _ = p.admit(t(50), src(1), &load(500));
        assert_eq!(p.window_of(HostId(1)), Some(4.0));
        // …and again after it.
        let _ = p.admit(t(300), src(1), &load(500));
        assert_eq!(p.window_of(HostId(1)), Some(2.0));
    }

    #[test]
    fn window_feedback_timeout_halves_to_floor() {
        let mut p = WindowFeedback::new(1000, 1);
        p.initial_window = 2.0;
        assert!(p.admit(t(0), src(1), &load(0)).is_admit());
        for i in 0..6 {
            p.on_timeout(t(1 + i), src(1));
        }
        assert_eq!(p.window_of(HostId(1)), Some(1.0), "floored at min");
        // Window of 1 still admits one at a time: the probe that detects
        // recovery.
        assert!(p.admit(t(10), src(1), &load(0)).is_admit());
        assert!(!p.admit(t(11), src(1), &load(0)).is_admit());
    }

    #[test]
    fn config_builds_matching_policies() {
        assert_eq!(OverloadConfig::default().token(), "none");
        assert!(!OverloadConfig::NoControl.is_active());
        let qt = OverloadConfig::queue_threshold_default();
        assert!(qt.is_active());
        assert_eq!(qt.build().name(), "queue-threshold");
        let wf = OverloadConfig::window_feedback_default();
        assert_eq!(wf.build().name(), "window-feedback");
        assert_eq!(OverloadConfig::NoControl.build().name(), "none");
    }
}
