//! The TCP architecture (§3.1): one supervisor, many workers, descriptors
//! passed over IPC. This module is the workers' side; the supervisor is
//! `manager::ConnManager`.
//!
//! The supervisor accepts every connection, records it in the shared
//! connection table, and assigns ownership to a worker by passing the
//! socket descriptor over a bounded unix-socket channel. Only the owner
//! reads the connection (TCP has no message boundaries). To *write* to a
//! connection it does not own, a worker asks the supervisor for a
//! descriptor over blocking IPC and — in the baseline — **closes it again
//! after one send** (the paper's first bottleneck, §5.1). The §5.2 fix adds
//! a per-worker descriptor cache in front of that request path.
//!
//! Idle connections are closed in two steps: the owning worker notices an
//! idle connection during its periodic hunt, closes its descriptor, and
//! *returns* the connection; the supervisor waits another timeout and then
//! destroys the object. The hunt is a full walk of the table under its lock
//! in the baseline (the §5.2 bottleneck) or a priority-queue pop in the
//! §5.3 fix.
//!
//! A restarted supervisor holds no descriptors; each worker re-announces
//! the connections it owns, as it announces a new outbound one.
//!
//! The workers are `stream::ConnWorker`s reaching descriptors through
//! `IpcAccess`.

use siperf_simcore::hash::FastMap;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simos::ipc::ChanId;
use siperf_simos::syscall::{Fd, IpcMsg, SysResult, Syscall};

use crate::config::APP_COSTS;
use crate::conn::{ConnId, OwnedIdle};
use crate::manager::{
    IDLE_CHECK_INTERVAL, MSG_CONN_DEAD, MSG_CONN_RETURN, MSG_FD_REQ, MSG_FD_RESP, MSG_NEW_CONN,
    MSG_NEW_OUTBOUND,
};
use crate::plumbing::{decode_addr, locked, tags, ConnShared};
use crate::stream::{ConnAccess, ConnState, SendJob, Step};

/// [`IpcAccess`]'s send steps after the table lookup.
pub(crate) enum IpcStep {
    /// The `tcpconn_get_fd` marker compute before the IPC round trip.
    GetFdMarker,
    /// Send the fd request.
    FdReqSent,
    /// Request sent; block for the answer.
    AwaitFdResp,
    /// Connect outbound: no usable connection to the destination.
    Connecting,
    /// Post-connect table registration (lock).
    PostConnLock,
    /// Post-connect table registration (compute).
    PostConnWork,
    /// Post-connect table registration (unlock).
    PostConnUnlock,
    /// Announce the outbound connection to the supervisor.
    Announce,
    /// Send the message; `from_request` when the descriptor came over IPC.
    Sending {
        /// The descriptor came from the supervisor.
        from_request: bool,
    },
    /// The send's result is in; maybe close the descriptor.
    Closing {
        /// The descriptor came from the supervisor.
        from_request: bool,
    },
}

/// The multi-process server's access path (OpenSER's `tcp_receiver`
/// children): connections arrive over an assign channel with their
/// descriptors, and a descriptor the worker does not own is requested from
/// the supervisor over blocking IPC — through the §5.2 fd cache when it is
/// on. The worker also hunts its own idle connections and returns them.
pub(crate) struct IpcAccess {
    /// The assign channel, then the request channel.
    chans: [ChanId; 2],
    /// The §5.2 per-worker descriptor cache.
    cache: FastMap<u64, Fd>,
    /// The idle clock over the connections this worker owns.
    idle: OwnedIdle,
    /// When the next idle hunt is due; set at start-up.
    next_idle_check: Option<SimTime>,
    /// The supervisor restart count this worker has announced to.
    manager_restarts: u64,
}

impl IpcAccess {
    /// Creates the access path over a worker's assign and request
    /// channels, serving the supervisor as `shared` finds it.
    pub fn new(assign_chan: ChanId, req_chan: ChanId, shared: &ConnShared) -> Self {
        IpcAccess {
            chans: [assign_chan, req_chan],
            cache: FastMap::default(),
            idle: shared.conns.borrow().owned_idle(),
            next_idle_check: None,
            manager_restarts: shared.manager_restarts.get(),
        }
    }

    fn req_fd(st: &ConnState) -> Fd {
        st.chan_fds[1]
    }

    /// Hunts the owned connections under the table lock and returns the
    /// idle ones to the supervisor.
    fn idle_check(&mut self, st: &mut ConnState, now: SimTime) {
        let hunt = self.idle.hunt(now, &st.shared.conns.borrow());
        st.shared.core.borrow_mut().stats.idle_scan_entries += hunt.examined;
        locked(&mut st.script, st.shared.locks.conn, hunt.ns, tags::IDLE);
        for conn in hunt.to_return {
            if let Some(owned) = st.forget(conn.0) {
                st.script.push_back(Syscall::Close { fd: owned.fd });
                st.script.push_back(Syscall::IpcSend {
                    fd: Self::req_fd(st),
                    msg: IpcMsg::new(MSG_CONN_RETURN, conn.0, 0),
                });
            }
        }
        // Sweep the fd cache: cached descriptors whose connection object is
        // gone would otherwise pin dead sockets open forever.
        let conns = st.shared.conns.borrow();
        let mut dead: Vec<u64> = self
            .cache
            .keys()
            .copied()
            .filter(|&c| conns.get(ConnId(c)).is_none())
            .collect();
        drop(conns);
        // Close in id order, not `FastMap` order, for reproducibility.
        dead.sort_unstable();
        for conn in dead {
            let fd = self.cache.remove(&conn).expect("cached");
            st.script.push_back(Syscall::Close { fd });
        }
    }
}

impl ConnAccess for IpcAccess {
    type Step = IpcStep;

    fn channels(&self) -> &[ChanId] {
        &self.chans
    }

    fn on_ctl(&mut self, st: &mut ConnState, now: SimTime, msg: IpcMsg) {
        assert_eq!(msg.kind, MSG_NEW_CONN, "assign channel protocol");
        let fd = msg.fd.expect("new conn carries its fd");
        st.adopt(msg.a, fd, decode_addr(msg.b));
        self.idle.adopt(ConnId(msg.a), now);
    }

    fn touched(&mut self, _st: &mut ConnState, now: SimTime, conn: u64) {
        self.idle.touch(ConnId(conn), now);
    }

    fn released(&mut self, st: &mut ConnState, conn: u64, fd: Fd) {
        self.idle.forget(ConnId(conn));
        self.cache.remove(&conn);
        st.script.push_back(Syscall::Close { fd });
        st.script.push_back(Syscall::IpcSend {
            fd: Self::req_fd(st),
            msg: IpcMsg::new(MSG_CONN_DEAD, conn, 0),
        });
    }

    fn housekeep(&mut self, st: &mut ConnState, now: SimTime) -> bool {
        // A restarted supervisor knows no descriptors: hand it ours, as for
        // a freshly connected outbound connection.
        let restarts = st.shared.manager_restarts.get();
        if restarts != self.manager_restarts {
            self.manager_restarts = restarts;
            let mut owned: Vec<(u64, Fd)> = st.owned.iter().map(|(&c, o)| (c, o.fd)).collect();
            // `owned` is a `FastMap`: announce in id order, not table order.
            owned.sort_unstable();
            for (conn, fd) in owned {
                st.script.push_back(Syscall::IpcSend {
                    fd: Self::req_fd(st),
                    msg: IpcMsg::with_fd(MSG_NEW_OUTBOUND, conn, 0, fd),
                });
            }
            if !st.script.is_empty() {
                return true;
            }
        }
        // The first hunt is due one interval after start-up.
        if now
            < *self
                .next_idle_check
                .get_or_insert(now + IDLE_CHECK_INTERVAL)
        {
            return false;
        }
        self.next_idle_check = Some(now + IDLE_CHECK_INTERVAL);
        self.idle_check(st, now);
        true
    }

    fn poll_timeout(&self, now: SimTime) -> Option<SimDuration> {
        self.next_idle_check.map(|due| due - now)
    }

    fn table_work(&mut self, st: &mut ConnState, now: SimTime, job: &mut SendJob) -> u64 {
        if let Some(id) = job.conn {
            self.idle.touch(id, now);
        }
        if st.shared.cfg.fd_cache {
            APP_COSTS.fd_cache_lookup
        } else {
            0
        }
    }

    fn route(&mut self, st: &mut ConnState, job: &mut SendJob) -> IpcStep {
        let Some(id) = job.conn else {
            return IpcStep::Connecting;
        };
        if let Some(owned) = st.owned.get(&id.0) {
            // We own it: send directly on our fd.
            job.fd = Some(owned.fd);
        } else if let Some(&fd) = st
            .shared
            .cfg
            .fd_cache
            .then(|| self.cache.get(&id.0))
            .flatten()
        {
            // §5.2: cache hit avoids the IPC round trip and the wait on the
            // supervisor entirely.
            job.fd = Some(fd);
            st.shared.core.borrow_mut().stats.fd_cache_hits += 1;
        } else {
            return IpcStep::GetFdMarker;
        }
        IpcStep::Sending {
            from_request: false,
        }
    }

    fn step(
        &mut self,
        st: &mut ConnState,
        now: SimTime,
        job: &mut SendJob,
        mut step: IpcStep,
        last: &SysResult,
    ) -> Step<IpcStep> {
        let lock = st.shared.locks.conn;
        let target = job.out.alt.unwrap_or(job.out.dest);
        loop {
            return match step {
                IpcStep::GetFdMarker => {
                    // The famous function: tcpconn_get_fd, where the worker
                    // blocks on the supervisor (§5.1: 12% of CPU time).
                    st.shared.core.borrow_mut().stats.fd_requests += 1;
                    let marker = Syscall::Compute {
                        ns: 800,
                        tag: tags::GET_FD,
                    };
                    Step::Next(IpcStep::FdReqSent, marker)
                }
                IpcStep::FdReqSent => Step::Next(
                    IpcStep::AwaitFdResp,
                    Syscall::IpcSend {
                        fd: Self::req_fd(st),
                        msg: IpcMsg::new(MSG_FD_REQ, job.conn.expect("have conn").0, 0),
                    },
                ),
                IpcStep::AwaitFdResp => match last {
                    // The send completed; now block for the answer.
                    SysResult::Done => Step::Next(
                        IpcStep::AwaitFdResp,
                        Syscall::IpcRecv {
                            fd: Self::req_fd(st),
                        },
                    ),
                    SysResult::Ipc(msg) => {
                        assert_eq!(msg.kind, MSG_FD_RESP);
                        if msg.b == 1 {
                            let fd = msg.fd.expect("fd attached");
                            job.fd = Some(fd);
                            if st.shared.cfg.fd_cache {
                                self.cache.insert(job.conn.expect("conn").0, fd);
                            }
                            step = IpcStep::Sending { from_request: true };
                        } else {
                            // Connection destroyed meanwhile: fall back to
                            // an outbound connect.
                            job.conn = None;
                            step = IpcStep::Connecting;
                        }
                        continue;
                    }
                    other => panic!("fd response expected, got {other:?}"),
                },
                IpcStep::Connecting => {
                    st.shared.core.borrow_mut().stats.outbound_connects += 1;
                    Step::Next(IpcStep::PostConnLock, Syscall::TcpConnect { to: target })
                }
                IpcStep::PostConnLock => match last {
                    SysResult::NewFd(fd) => {
                        job.fd = Some(*fd);
                        Step::Next(IpcStep::PostConnWork, Syscall::LockAcquire { lock })
                    }
                    SysResult::Err(_) => {
                        // Connect refused: drop the message.
                        st.shared.core.borrow_mut().stats.send_errors += 1;
                        Step::Done(None)
                    }
                    other => panic!("connect result expected, got {other:?}"),
                },
                IpcStep::PostConnWork => {
                    // Registered only now, with the lock granted.
                    let id = st.shared.conns.borrow_mut().insert(now, target, st.idx);
                    job.conn = Some(id);
                    st.adopt(id.0, job.fd.expect("connected"), target);
                    self.idle.adopt(id, now);
                    let work = Syscall::Compute {
                        ns: APP_COSTS.conn_table_op,
                        tag: tags::CONN_HASH,
                    };
                    Step::Next(IpcStep::PostConnUnlock, work)
                }
                IpcStep::PostConnUnlock => {
                    Step::Next(IpcStep::Announce, Syscall::LockRelease { lock })
                }
                IpcStep::Announce => Step::Next(
                    IpcStep::Sending {
                        from_request: false,
                    },
                    Syscall::IpcSend {
                        fd: Self::req_fd(st),
                        msg: IpcMsg::with_fd(
                            MSG_NEW_OUTBOUND,
                            job.conn.expect("registered").0,
                            0,
                            job.fd.expect("connected"),
                        ),
                    },
                ),
                IpcStep::Sending { from_request } => Step::Next(
                    IpcStep::Closing { from_request },
                    Syscall::TcpSend {
                        fd: job.fd.expect("resolved fd"),
                        data: job.out.bytes.clone(),
                    },
                ),
                IpcStep::Closing { from_request } => {
                    // The send's result is in; at most one trailing Close.
                    let close = || Syscall::Close {
                        fd: job.fd.expect("had fd"),
                    };
                    if matches!(last, SysResult::Err(_)) {
                        // Dead connection: drop the message, invalidate and
                        // release any descriptor we were holding for it.
                        st.shared.core.borrow_mut().stats.send_errors += 1;
                        if let Some(fd) = job.conn.and_then(|id| self.cache.remove(&id.0)) {
                            return Step::Done(Some(Syscall::Close { fd }));
                        }
                        return Step::Done(from_request.then(close));
                    }
                    // Baseline behaviour: a descriptor obtained through the
                    // supervisor is closed right after the send (§3.1) —
                    // unless the fd cache keeps it.
                    Step::Done((from_request && !st.shared.cfg.fd_cache).then(close))
                }
            };
        }
    }
}
