//! The TCP architecture (§3.1): one supervisor, many workers, descriptors
//! passed over IPC.
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
//! The workers are `stream::ConnWorker`s reaching descriptors through
//! `IpcAccess`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simos::ipc::{ChanId, Side};
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, IpcMsg, SysResult, Syscall};

use crate::conn::ConnId;
use crate::plumbing::{decode_addr, encode_addr, locked, tags, ConnShared, ManagerCtl};
use crate::stream::{attach_next, ConnAccess, ConnState, SendJob, Step};

/// Supervisor → worker: a new connection with its descriptor.
pub const MSG_NEW_CONN: u32 = 1;
/// Worker → supervisor: request the descriptor for a connection.
pub const MSG_FD_REQ: u32 = 2;
/// Supervisor → worker: the requested descriptor (b=1) or not found (b=0).
pub const MSG_FD_RESP: u32 = 3;
/// Worker → supervisor: idle connection returned (worker closed its fd).
pub const MSG_CONN_RETURN: u32 = 4;
/// Worker → supervisor: connection died (EOF / reset).
pub const MSG_CONN_DEAD: u32 = 5;
/// Worker → supervisor: a worker-opened outbound connection (with fd).
pub const MSG_NEW_OUTBOUND: u32 = 6;

// ===================================================================
// Supervisor
// ===================================================================

enum SupPhase {
    Attach,
    Listen,
    Poll,
    Accept,
    ReqRecv(usize),
    Script,
}

enum SupReady {
    Listener,
    Req(usize),
}

/// The connection-management supervisor process (OpenSER's `tcp_main`).
pub struct Supervisor {
    shared: ConnShared,
    /// Every worker's assign channel, then every worker's request channel.
    chans: Vec<ChanId>,
    /// The supervisor's ends of `chans`, in the same order.
    chan_fds: Vec<Fd>,
    listener: Fd,
    /// The supervisor's own descriptor for every connection it knows.
    fd_of_conn: HashMap<u64, Fd>,
    rr: usize,
    pending: VecDeque<SupReady>,
    script: VecDeque<Syscall>,
    phase: SupPhase,
    last_scan: SimTime,
    /// Set when the main loop has handled work since the last timeout scan;
    /// OpenSER's tcp_main re-checks timeouts per loop pass, so an *idle*
    /// supervisor only housekeeps on a slow tick.
    worked_since_scan: bool,
}

impl Supervisor {
    /// Creates the supervisor; channels are created by the spawner.
    pub(crate) fn new(
        shared: ConnShared,
        assign_chans: Vec<ChanId>,
        req_chans: Vec<ChanId>,
    ) -> Self {
        assert_eq!(assign_chans.len(), req_chans.len());
        Supervisor {
            shared,
            chans: [assign_chans, req_chans].concat(),
            chan_fds: Vec::new(),
            listener: Fd(u32::MAX),
            fd_of_conn: HashMap::new(),
            rr: 0,
            pending: VecDeque::new(),
            script: VecDeque::new(),
            phase: SupPhase::Attach,
            last_scan: SimTime::ZERO,
            worked_since_scan: false,
        }
    }

    /// The idle supervisor's housekeeping tick.
    const HOUSEKEEPING: SimDuration = SimDuration::from_millis(500);

    fn workers(&self) -> usize {
        self.chans.len() / 2
    }

    fn req_fds(&self) -> &[Fd] {
        &self.chan_fds[self.workers()..]
    }

    fn handle_req(&mut self, now: SimTime, worker: usize, msg: IpcMsg) {
        match msg.kind {
            MSG_FD_REQ => {
                let conn = msg.a;
                self.shared.table_op(&mut self.script);
                let reply = match self.fd_of_conn.get(&conn) {
                    Some(&fd) => IpcMsg::with_fd(MSG_FD_RESP, conn, 1, fd),
                    None => IpcMsg::new(MSG_FD_RESP, conn, 0),
                };
                self.script.push_back(Syscall::IpcSend {
                    fd: self.req_fds()[worker],
                    msg: reply,
                });
            }
            MSG_CONN_RETURN => {
                let timeout = self.shared.cfg.idle_timeout;
                self.shared
                    .conns
                    .borrow_mut()
                    .mark_returned(ConnId(msg.a), now, timeout);
                self.shared.core.borrow_mut().stats.conns_returned += 1;
                self.shared.table_op(&mut self.script);
            }
            MSG_CONN_DEAD => {
                self.destroy_conn(msg.a);
            }
            MSG_NEW_OUTBOUND => {
                // Object was inserted by the worker; we keep the passed
                // descriptor so other workers can request it.
                if let Some(fd) = msg.fd {
                    self.fd_of_conn.insert(msg.a, fd);
                }
            }
            other => panic!("supervisor got unexpected ipc kind {other}"),
        }
    }

    /// Re-assigns every connection still owned by a respawned worker: the
    /// supervisor re-sends `MSG_NEW_CONN` with its own descriptor copy, so
    /// the fresh process can resume reading where the crashed one stopped.
    /// Connections whose descriptor the supervisor no longer holds cannot
    /// be handed over and are destroyed.
    fn reassign_worker(&mut self, worker: usize) {
        let owned = self.shared.conns.borrow().owned_by(worker);
        for (id, peer) in owned {
            match self.fd_of_conn.get(&id.0).copied() {
                Some(fd) => {
                    let msg = IpcMsg::with_fd(MSG_NEW_CONN, id.0, encode_addr(peer), fd);
                    let to = self.chan_fds[worker];
                    self.shared.reannounce(&mut self.script, to, msg);
                }
                None => self.destroy_conn(id.0),
            }
        }
    }

    fn destroy_conn(&mut self, conn: u64) {
        self.shared.conns.borrow_mut().remove(ConnId(conn));
        self.shared.table_op(&mut self.script);
        if let Some(fd) = self.fd_of_conn.remove(&conn) {
            self.script.push_back(Syscall::Close { fd });
        }
        self.shared.core.borrow_mut().stats.conns_destroyed += 1;
    }

    fn idle_pass(&mut self, now: SimTime) {
        let (hunt, ns) = self.shared.idle_hunt(now);
        locked(&mut self.script, self.shared.locks.conn, ns, tags::IDLE);
        // `to_return` is the workers' job; the supervisor destroys what has
        // been returned for a full further timeout.
        for id in hunt.to_destroy {
            self.shared.conns.borrow_mut().remove(id);
            if let Some(fd) = self.fd_of_conn.remove(&id.0) {
                self.script.push_back(Syscall::Close { fd });
            }
            self.shared.core.borrow_mut().stats.conns_destroyed += 1;
        }
    }

    fn next_action(&mut self, now: SimTime) -> Syscall {
        // Crash notifications first: a respawned worker must get its
        // connections back before they can starve to their idle timeout.
        while let Some(ManagerCtl::WorkerRespawned(w)) = self.shared.next_ctl() {
            self.worked_since_scan = true;
            self.reassign_worker(w);
        }
        if let Some(s) = self.script.pop_front() {
            self.phase = SupPhase::Script;
            return s;
        }
        match self.pending.pop_front() {
            Some(SupReady::Listener) => {
                self.worked_since_scan = true;
                self.phase = SupPhase::Accept;
                return Syscall::TcpAccept { fd: self.listener };
            }
            Some(SupReady::Req(w)) => {
                self.worked_since_scan = true;
                self.phase = SupPhase::ReqRecv(w);
                return Syscall::IpcRecv {
                    fd: self.req_fds()[w],
                };
            }
            None => {}
        }
        // Timeout scan: per loop pass while the loop has work (with a small
        // floor so back-to-back events do not each pay a full walk), or on
        // the slow housekeeping tick when idle.
        let busy_due = self.worked_since_scan
            && now >= self.last_scan + self.shared.cfg.supervisor_scan_interval;
        let tick_due = now >= self.last_scan + Self::HOUSEKEEPING;
        if busy_due || tick_due {
            self.last_scan = now;
            self.worked_since_scan = false;
            self.idle_pass(now);
            self.phase = SupPhase::Script;
            return self.script.pop_front().expect("idle pass emits syscalls");
        }
        let mut fds = Vec::with_capacity(1 + self.workers());
        fds.push(self.listener);
        fds.extend_from_slice(self.req_fds());
        self.phase = SupPhase::Poll;
        let wake = if self.worked_since_scan {
            (self.last_scan + self.shared.cfg.supervisor_scan_interval).max(now)
        } else {
            (self.last_scan + Self::HOUSEKEEPING).max(now)
        };
        Syscall::Poll {
            fds,
            timeout: Some(wake - now),
        }
    }
}

impl Process for Supervisor {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, SupPhase::Attach) {
            SupPhase::Attach => attach_next(&self.chans, Side::A, &mut self.chan_fds, &last)
                .unwrap_or_else(|| {
                    self.phase = SupPhase::Listen;
                    Syscall::TcpListen {
                        port: siperf_simnet::SIP_PORT,
                        backlog: 1024,
                    }
                }),
            SupPhase::Listen => {
                self.listener = last.expect_fd();
                self.last_scan = ctx.now;
                self.next_action(ctx.now)
            }
            SupPhase::Poll => {
                match last {
                    SysResult::Ready(fds) => {
                        for fd in fds {
                            if fd == self.listener {
                                self.pending.push_back(SupReady::Listener);
                            } else if let Some(w) = self.req_fds().iter().position(|&r| r == fd) {
                                self.pending.push_back(SupReady::Req(w));
                            }
                        }
                    }
                    SysResult::TimedOut => {}
                    other => panic!("supervisor poll got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            SupPhase::Accept => {
                match last {
                    SysResult::Accepted { fd, peer } => {
                        let (script, rr) = (&mut self.script, &mut self.rr);
                        let workers = self.chans.len() / 2;
                        let (worker, id) = self.shared.accept(script, ctx.now, peer, rr, workers);
                        self.fd_of_conn.insert(id.0, fd);
                        // Assign ownership: pass our descriptor (the kernel
                        // dups it; we keep our copy, as OpenSER does). This
                        // send BLOCKS when the worker's queue is full — the
                        // §6 deadlock ingredient.
                        self.script.push_back(Syscall::IpcSend {
                            fd: self.chan_fds[worker],
                            msg: IpcMsg::with_fd(MSG_NEW_CONN, id.0, encode_addr(peer), fd),
                        });
                    }
                    SysResult::Err(_) => {
                        // Out of descriptors (the §4.3 starvation scenario):
                        // count and move on.
                        self.shared.core.borrow_mut().stats.send_errors += 1;
                    }
                    other => panic!("supervisor accept got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            SupPhase::ReqRecv(w) => {
                match last {
                    SysResult::Ipc(msg) => self.handle_req(ctx.now, w, msg),
                    other => panic!("supervisor ipc recv got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            SupPhase::Script => {
                if let SysResult::Err(_) = last {
                    self.shared.core.borrow_mut().stats.send_errors += 1;
                }
                self.next_action(ctx.now)
            }
        }
    }
}

// ===================================================================
// Worker access path
// ===================================================================

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
    cache: HashMap<u64, Fd>,
    /// The §5.3 worker-local priority queue over owned connections.
    local_heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    /// When the next idle hunt is due; set at start-up.
    next_idle_check: Option<SimTime>,
}

impl IpcAccess {
    /// Creates the access path over a worker's assign and request channels.
    pub fn new(assign_chan: ChanId, req_chan: ChanId) -> Self {
        IpcAccess {
            chans: [assign_chan, req_chan],
            cache: HashMap::new(),
            local_heap: BinaryHeap::new(),
            next_idle_check: None,
        }
    }

    fn req_fd(st: &ConnState) -> Fd {
        st.chan_fds[1]
    }

    fn touch_local(&mut self, st: &mut ConnState, now: SimTime, conn: u64) {
        let timeout = st.shared.cfg.idle_timeout;
        let pq = st.shared.pq_mode();
        if let Some(owned) = st.owned.get_mut(&conn) {
            owned.stamp += 1;
            if pq {
                self.local_heap
                    .push(Reverse((now + timeout, conn, owned.stamp)));
            }
        }
    }

    fn idle_check(&mut self, st: &mut ConnState, now: SimTime) {
        let timeout = st.shared.cfg.idle_timeout;
        let costs = &st.shared.cfg.app_costs;
        let mut expired: Vec<u64> = Vec::new();
        let (examined, cost) = if st.shared.pq_mode() {
            let mut pops = 0u64;
            while let Some(&Reverse((at, conn, stamp))) = self.local_heap.peek() {
                if at > now {
                    break;
                }
                self.local_heap.pop();
                pops += 1;
                if st.owned.get(&conn).is_some_and(|o| o.stamp == stamp) {
                    expired.push(conn);
                }
            }
            (pops, pops * costs.pq_pop + 300)
        } else {
            // Baseline: examine every owned connection, reading the shared
            // objects (under the table lock).
            let conns = st.shared.conns.borrow();
            expired.extend(st.owned.keys().copied().filter(|&id| {
                conns
                    .get(ConnId(id))
                    .is_some_and(|obj| obj.expires_at(timeout) <= now)
            }));
            expired.sort_unstable();
            let examined = st.owned.len() as u64;
            (examined, costs.idle_scan_entry * examined.max(1))
        };
        st.shared.core.borrow_mut().stats.idle_scan_entries += examined;
        locked(
            &mut st.script,
            st.shared.locks.conn,
            cost.max(300),
            tags::IDLE,
        );
        for conn in expired {
            if let Some(owned) = st.forget(conn) {
                st.script.push_back(Syscall::Close { fd: owned.fd });
                st.script.push_back(Syscall::IpcSend {
                    fd: Self::req_fd(st),
                    msg: IpcMsg::new(MSG_CONN_RETURN, conn, 0),
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
        // Close in id order, not HashMap order, for reproducibility.
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
        self.touch_local(st, now, msg.a);
    }

    fn touched(&mut self, st: &mut ConnState, now: SimTime, conn: u64) {
        self.touch_local(st, now, conn);
    }

    fn released(&mut self, st: &mut ConnState, conn: u64, fd: Fd) {
        self.cache.remove(&conn);
        st.script.push_back(Syscall::Close { fd });
        st.script.push_back(Syscall::IpcSend {
            fd: Self::req_fd(st),
            msg: IpcMsg::new(MSG_CONN_DEAD, conn, 0),
        });
    }

    fn housekeep(&mut self, st: &mut ConnState, now: SimTime) -> bool {
        let interval = st.shared.cfg.idle_check_interval;
        // The first hunt is due one interval after start-up.
        if now < *self.next_idle_check.get_or_insert(now + interval) {
            return false;
        }
        self.next_idle_check = Some(now + interval);
        self.idle_check(st, now);
        true
    }

    fn poll_timeout(&self, now: SimTime) -> Option<SimDuration> {
        self.next_idle_check.map(|due| due - now)
    }

    fn table_work(&mut self, st: &mut ConnState, now: SimTime, job: &mut SendJob) -> u64 {
        if let Some(id) = job.conn {
            self.touch_local(st, now, id.0);
        }
        if st.shared.cfg.fd_cache {
            st.shared.cfg.app_costs.fd_cache_lookup
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
                    let timeout = st.shared.cfg.idle_timeout;
                    let id = st
                        .shared
                        .conns
                        .borrow_mut()
                        .insert(now, target, st.idx, timeout);
                    job.conn = Some(id);
                    st.adopt(id.0, job.fd.expect("connected"), target);
                    self.touch_local(st, now, id.0);
                    let work = Syscall::Compute {
                        ns: st.shared.cfg.app_costs.conn_table_op,
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
