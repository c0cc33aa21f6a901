//! Client-side measurement, as the paper's benchmark reports it (§4.2):
//! phones report their results to the manager; throughput is operations
//! (SIP transactions) per second over the measured phase only.

use std::cell::RefCell;
use std::rc::Rc;

use siperf_simcore::stats::Histogram;
use siperf_simcore::time::SimTime;

/// Aggregated phone-side results, shared by all phones of a run.
#[derive(Debug)]
pub struct WorkloadStats {
    /// Measurement window: only operations completing inside it count.
    pub window: (SimTime, SimTime),
    /// Operations (invite or bye transactions) completed in the window.
    pub ops_in_window: u64,
    /// All completed operations, including warm-up and cool-down.
    pub ops_total: u64,
    /// Completed invite transactions.
    pub invite_ok: u64,
    /// Completed bye transactions.
    pub bye_ok: u64,
    /// Successful registrations.
    pub register_ok: u64,
    /// Calls started.
    pub call_attempts: u64,
    /// Call attempts started inside the window (the *offered* load the
    /// goodput-vs-offered curves plot against).
    pub attempts_in_window: u64,
    /// Calls abandoned (timeout or error response).
    pub call_failures: u64,
    /// Calls that completed but whose invite transaction exceeded the
    /// setup-delay budget (open-loop mode). They consumed full proxy
    /// capacity yet count as zero goodput, the way the overload literature
    /// scores sessions established past their deadline.
    pub calls_late: u64,
    /// Calls shed by the proxy with `503 Service Unavailable`.
    pub calls_rejected: u64,
    /// Rejections whose 503 arrived inside the window.
    pub rejected_in_window: u64,
    /// Calls re-attempted after a 503 backoff expired (the retry
    /// amplification overload control adds to the offered load).
    pub rejection_retries: u64,
    /// Calls deliberately cancelled while ringing (extension workload).
    pub calls_cancelled: u64,
    /// Requests retransmitted by phones (UDP reliability).
    pub phone_retransmits: u64,
    /// Failed connection attempts (TCP).
    pub connect_errors: u64,
    /// Deliberate reconnections (the 50/500 ops-per-connection policies).
    pub reconnects: u64,
    /// Faults injected into the run by the schedule driver.
    pub faults_injected: u64,
    /// Established connections torn down by injected RSTs.
    pub connections_reset: u64,
    /// Proxy processes killed and respawned by injected crashes.
    pub workers_respawned: u64,
    /// Calls disturbed by a transport fault (reset/EOF mid-call) that still
    /// completed after reconnect-and-redrive.
    pub recovered_calls: u64,
    /// Highest number of calls simultaneously in flight inside any one
    /// open-loop caller's pool (0 for closed-loop runs). Past saturation
    /// this is the backlog the goodput cliff grows out of.
    pub open_calls_peak: u64,
    /// Invite-transaction latency (INVITE sent → 200 received).
    pub invite_latency: Histogram,
    /// Bye-transaction latency (BYE sent → 200 received).
    pub bye_latency: Histogram,
}

impl WorkloadStats {
    /// Creates zeroed statistics for a measurement window.
    pub fn new(window: (SimTime, SimTime)) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(WorkloadStats {
            window,
            ops_in_window: 0,
            ops_total: 0,
            invite_ok: 0,
            bye_ok: 0,
            register_ok: 0,
            call_attempts: 0,
            attempts_in_window: 0,
            call_failures: 0,
            calls_late: 0,
            calls_rejected: 0,
            rejected_in_window: 0,
            rejection_retries: 0,
            calls_cancelled: 0,
            phone_retransmits: 0,
            connect_errors: 0,
            reconnects: 0,
            faults_injected: 0,
            connections_reset: 0,
            workers_respawned: 0,
            recovered_calls: 0,
            open_calls_peak: 0,
            invite_latency: Histogram::new(),
            bye_latency: Histogram::new(),
        }))
    }

    /// Records a completed invite transaction.
    pub fn record_invite(&mut self, started: SimTime, completed: SimTime) {
        self.invite_ok += 1;
        self.invite_latency.record(completed - started);
        self.record_op(completed);
    }

    /// Records a completed bye transaction.
    pub fn record_bye(&mut self, started: SimTime, completed: SimTime) {
        self.bye_ok += 1;
        self.bye_latency.record(completed - started);
        self.record_op(completed);
    }

    fn record_op(&mut self, completed: SimTime) {
        self.ops_total += 1;
        if self.in_window(completed) {
            self.ops_in_window += 1;
        }
    }

    fn in_window(&self, at: SimTime) -> bool {
        at >= self.window.0 && at < self.window.1
    }

    /// Records one started call attempt.
    pub fn record_attempt(&mut self, at: SimTime) {
        self.call_attempts += 1;
        if self.in_window(at) {
            self.attempts_in_window += 1;
        }
    }

    /// Records a call the proxy shed with a 503.
    pub fn record_rejection(&mut self, at: SimTime) {
        self.calls_rejected += 1;
        if self.in_window(at) {
            self.rejected_in_window += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_simcore::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn only_window_ops_count_for_throughput() {
        let stats = WorkloadStats::new((t(2), t(4)));
        let mut s = stats.borrow_mut();
        s.record_invite(t(1), t(1)); // before window
        s.record_invite(t(2), t(3)); // inside
        s.record_bye(t(3), t(3)); // inside
        s.record_bye(t(4), t(5)); // after (window is half-open)
        assert_eq!(s.ops_total, 4);
        assert_eq!(s.ops_in_window, 2);
        assert_eq!(s.invite_ok, 2);
        assert_eq!(s.bye_ok, 2);
    }

    #[test]
    fn latency_histograms_fill() {
        let stats = WorkloadStats::new((t(0), t(10)));
        let mut s = stats.borrow_mut();
        s.record_invite(t(1), t(1) + SimDuration::from_millis(3));
        assert_eq!(s.invite_latency.count(), 1);
        assert!(s.invite_latency.mean() >= SimDuration::from_millis(2));
    }
}
