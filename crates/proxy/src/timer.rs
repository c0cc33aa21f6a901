//! The timer process.
//!
//! §3.2: "the timer process is essential to UDP, since UDP does not
//! guarantee delivery and a stateful proxy must retransmit messages for
//! transactions that do not receive a response." It periodically walks the
//! global timer list under its lock, retransmitting stored requests and
//! reaping finished transactions.
//!
//! §3.1: the same process exists under TCP but is "superfluous" — it still
//! ticks and scans (costing CPU and lock hold time, faithfully), but the
//! reliable transport never needs a retransmission. Transaction timeouts
//! (408) are only deliverable on datagram transports here; on TCP the timer
//! lacks a connection and drops them, which only matters when a phone dies
//! mid-call.

use std::collections::VecDeque;

use siperf_simcore::time::SimDuration;
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};

use crate::config::{Transport, APP_COSTS};
use crate::plumbing::{locked, tags, ConnShared};

/// The timer process's tick for retransmissions and transaction reaping.
pub(crate) const TICK: SimDuration = SimDuration::from_millis(500);

/// The retransmission/reaping timer process.
pub struct TimerProc {
    shared: ConnShared,
    /// Where retransmissions go out: an ephemeral UDP socket of its own,
    /// the shared SCTP endpoint, or none under TCP (retransmissions never
    /// happen there and timeouts are dropped).
    fd: Option<Fd>,
    script: VecDeque<Syscall>,
    started: bool,
}

impl TimerProc {
    /// Creates the timer process for the configured transport; an SCTP
    /// proxy's timer gets the shared endpoint it inherits as `fd`.
    pub(crate) fn new(shared: ConnShared, fd: Option<Fd>) -> Self {
        TimerProc {
            shared,
            fd,
            script: VecDeque::new(),
            started: false,
        }
    }

    fn run_pass(&mut self, ctx: &ResumeCtx) {
        let locks = self.shared.locks;
        // Lock ordering per OpenSER: timer list first, then transactions.
        let timer = locks.timer;
        self.script.push_back(Syscall::LockAcquire { lock: timer });
        let pass = self.shared.core.borrow_mut().timer_pass(ctx.now);
        let scan_ns = APP_COSTS
            .timer_scan_entry
            .saturating_mul(pass.examined.max(1));
        locked(&mut self.script, locks.txn, scan_ns, tags::TIMER_SCAN);
        self.script.push_back(Syscall::LockRelease { lock: timer });
        for out in pass.retransmits.into_iter().chain(pass.timeouts) {
            match self.fd {
                Some(fd) => self.script.push_back(Syscall::MsgSend {
                    fd,
                    to: out.dest,
                    data: out.bytes,
                }),
                // TCP timer has no connection to send on; see module docs.
                None => self.shared.core.borrow_mut().stats.send_errors += 1,
            }
        }
        self.script.push_back(Syscall::Sleep(TICK));
    }
}

impl Process for TimerProc {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        if let SysResult::Err(_) = last {
            self.shared.core.borrow_mut().stats.send_errors += 1;
        }
        let transport = self.shared.cfg.transport;
        if !self.started {
            self.started = true;
            // SCTP retransmits on the shared endpoint it inherited; UDP
            // binds a socket of its own.
            if let (None, Some(proto)) = (self.fd, transport.msg_proto()) {
                return Syscall::MsgBind { proto, port: None };
            }
            return Syscall::Sleep(TICK);
        }
        if transport == Transport::Udp && self.fd.is_none() {
            self.fd = Some(last.expect_fd());
            return Syscall::Sleep(TICK);
        }
        if let Some(next) = self.script.pop_front() {
            return next;
        }
        // Woke from the tick: run a pass and start draining its script.
        self.run_pass(ctx);
        self.script.pop_front().expect("pass always emits syscalls")
    }
}
