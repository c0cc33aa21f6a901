//! The kernel cost model: virtual CPU charged per syscall.
//!
//! Every syscall a simulated process issues consumes CPU time on one of its
//! host's cores. The constants here are calibrated to a 2006-era 2.4 GHz
//! Opteron running Linux 2.6.20 (the paper's testbed, §4.1): micro-benchmarks
//! of that generation put a trivial syscall at a few hundred nanoseconds,
//! UDP send/receive at a handful of microseconds, TCP slightly above UDP,
//! and unix-socket IPC with `SCM_RIGHTS` descriptor passing at several
//! microseconds per message — the numbers behind the paper's observation
//! that fd-request IPC consumed 12% of CPU time.
//!
//! Calibration targets *ratios*, not absolute throughput; see
//! `EXPERIMENTS.md` for the validation against the paper's figures.

/// Per-syscall CPU costs in nanoseconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Floor for any charged burst; guarantees virtual time advances.
    pub compute_min: u64,
    /// Process creation (charged to the spawned process's first burst).
    pub spawn: u64,
    /// Added to every syscall: mode switch, entry/exit.
    pub syscall_base: u64,
    /// `sendto` on a UDP socket: copy, route, enqueue on the NIC.
    pub udp_send: u64,
    /// `recvfrom` on a UDP socket with data ready.
    pub udp_recv: u64,
    /// Binding a socket.
    pub bind: u64,
    /// `send` on an established TCP socket (segmentation, cwnd bookkeeping).
    pub tcp_send: u64,
    /// `recv` on a TCP socket with data ready.
    pub tcp_recv: u64,
    /// Client-side `connect` processing (not counting the round trip).
    pub tcp_connect: u64,
    /// `accept` plus socket setup on the server.
    pub tcp_accept: u64,
    /// Tearing down a TCP socket.
    pub tcp_close: u64,
    /// Closing a non-TCP descriptor.
    pub close: u64,
    /// SCTP message send (UDP-like plus association lookup).
    pub sctp_send: u64,
    /// SCTP message receive.
    pub sctp_recv: u64,
    /// `epoll_wait`-style readiness query, empty set.
    pub poll_base: u64,
    /// Added per ready descriptor returned by a poll.
    pub poll_per_ready: u64,
    /// Writing a control message to a unix socket (IPC).
    pub ipc_send: u64,
    /// Reading a control message from a unix socket.
    pub ipc_recv: u64,
    /// Extra cost when a message carries a descriptor (`SCM_RIGHTS`
    /// reference installation in the receiver's table).
    pub ipc_fd_install: u64,
    /// Attaching to an IPC channel (socketpair setup share).
    pub ipc_attach: u64,
    /// Uncontended userspace lock acquisition.
    pub lock_acquire: u64,
    /// Lock release.
    pub lock_release: u64,
    /// One failed lock attempt: the bounded spin plus the `sched_yield`
    /// syscall OpenSER's lock implementation falls back to.
    pub lock_spin_yield: u64,
    /// Arming a timer / going to sleep.
    pub sleep: u64,
    /// Scheduler work when a process is put on a core.
    pub context_switch: u64,
    /// Scheduler work to wake and re-run a blocked process (runqueue
    /// insertion, cache warmup share).
    pub wake_retry: u64,
}

impl CostModel {
    /// The calibration used for all paper-reproduction experiments.
    pub fn opteron_2006() -> Self {
        CostModel {
            compute_min: 10,
            spawn: 50_000,
            syscall_base: 300,
            udp_send: 4_700,
            udp_recv: 4_300,
            bind: 2_000,
            tcp_send: 10_200,
            tcp_recv: 9_200,
            tcp_connect: 14_000,
            tcp_accept: 11_000,
            tcp_close: 3_500,
            close: 800,
            sctp_send: 4_800,
            sctp_recv: 4_200,
            poll_base: 1_800,
            poll_per_ready: 150,
            ipc_send: 5_200,
            ipc_recv: 4_600,
            ipc_fd_install: 4_200,
            ipc_attach: 2_000,
            lock_acquire: 120,
            lock_release: 90,
            lock_spin_yield: 1_400,
            sleep: 600,
            context_switch: 1_100,
            wake_retry: 650,
        }
    }

    /// A cost model where everything is nearly free — for functional tests
    /// that assert behaviour, not performance.
    pub fn free() -> Self {
        CostModel {
            compute_min: 10,
            spawn: 10,
            syscall_base: 10,
            udp_send: 10,
            udp_recv: 10,
            bind: 10,
            tcp_send: 10,
            tcp_recv: 10,
            tcp_connect: 10,
            tcp_accept: 10,
            tcp_close: 10,
            close: 10,
            sctp_send: 10,
            sctp_recv: 10,
            poll_base: 10,
            poll_per_ready: 0,
            ipc_send: 10,
            ipc_recv: 10,
            ipc_fd_install: 10,
            ipc_attach: 10,
            lock_acquire: 10,
            lock_release: 10,
            lock_spin_yield: 10,
            sleep: 10,
            context_switch: 10,
            wake_retry: 10,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::opteron_2006()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_orderings_hold() {
        let c = CostModel::opteron_2006();
        // TCP data path is costlier than UDP but in the same league — the
        // paper's core premise that raw protocol overhead is not the story.
        assert!(c.tcp_send > c.udp_send);
        assert!(c.tcp_send < 5 * c.udp_send / 2 + 1_000);
        assert!(c.tcp_recv > c.udp_recv);
        // Connection setup clearly exceeds per-message costs.
        assert!(c.tcp_connect + c.tcp_accept > 2 * c.tcp_send);
        // A full fd-request IPC round trip (send+recv both sides + install)
        // rivals the entire UDP forward path.
        let ipc_round = 2 * (c.ipc_send + c.ipc_recv) + c.ipc_fd_install;
        assert!(ipc_round > c.udp_send + c.udp_recv);
        // SCTP sits between UDP and TCP.
        assert!(c.sctp_send >= c.udp_send && c.sctp_send <= c.tcp_send);
    }

    #[test]
    fn free_model_is_fast_but_nonzero() {
        let c = CostModel::free();
        assert!(c.compute_min > 0);
        assert!(c.udp_send <= 10);
    }
}
