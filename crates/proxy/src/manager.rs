//! The connection manager: one process for both TCP architectures.
//!
//! Accepting a connection, assigning it round robin and reaping idle ones
//! are the same job in OpenSER's multi-process server (§3.1, `tcp_main`)
//! and in the §6 threaded design (an acceptor thread). `ConnManager` does
//! that job for both and reads the architecture at exactly four points:
//!
//! 1. **New-connection message.** `MSG_NEW_CONN` carries the descriptor
//!    between processes; between threads it carries none, because every
//!    thread already sees the descriptor.
//! 2. **Idle pass.** Processes destroy only connections their workers have
//!    returned (the two-step close); threads close idle connections in one
//!    step and tell the owner with `MSG_CONN_DEAD`.
//! 3. **Scan cadence.** The supervisor scans every loop pass while busy,
//!    with a short floor, and on a slow tick while idle; the acceptor scans
//!    on one fixed interval.
//! 4. **Respawn notices vs. a ready listener.** The supervisor re-announces
//!    a respawned worker's connections before serving what its poll found
//!    ready; the acceptor accepts first.
//!
//! The manager keeps every connection's descriptor in an `FdRegistry`:
//! its own private map between processes, the one map every thread shares
//! under threads.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use siperf_simcore::hash::FastMap;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::SockAddr;
use siperf_simos::ipc::{ChanId, Side};
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, IpcMsg, SysResult, Syscall};

use crate::config::{Arch, APP_COSTS};
use crate::conn::ConnId;
use crate::plumbing::{encode_addr, locked, tags, ConnShared};
use crate::stream::attach_next;

/// Manager → worker: a new connection (with its descriptor between
/// processes).
pub const MSG_NEW_CONN: u32 = 1;
/// Worker → manager: request the descriptor for a connection.
pub const MSG_FD_REQ: u32 = 2;
/// Manager → worker: the requested descriptor (b=1) or not found (b=0).
pub const MSG_FD_RESP: u32 = 3;
/// Worker → manager: idle connection returned (worker closed its fd).
pub const MSG_CONN_RETURN: u32 = 4;
/// Worker → manager: connection died (EOF / reset); manager → worker
/// thread: the manager closed an idle connection.
pub const MSG_CONN_DEAD: u32 = 5;
/// Worker → manager: a worker-opened outbound connection (with fd).
pub const MSG_NEW_OUTBOUND: u32 = 6;

/// Minimum gap between a worker's idle hunts, and the acceptor thread's
/// scan interval. OpenSER checks timeouts from the main loop, so hunts
/// happen roughly once per event batch; this floor only bounds the
/// pathological case.
pub(crate) const IDLE_CHECK_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Minimum gap between the busy supervisor's walks of the shared table.
/// OpenSER's tcp_main re-checks timeouts every loop pass — the frequency
/// that makes the §5.2 linear scan explode as the table grows.
pub(crate) const SUPERVISOR_SCAN_INTERVAL: SimDuration = SimDuration::from_millis(2);

/// The idle supervisor's housekeeping tick.
const HOUSEKEEPING: SimDuration = SimDuration::from_millis(500);

/// conn id → the manager's descriptor for it; under threads, valid in
/// every thread (shared fd table).
pub(crate) type FdRegistry = Rc<RefCell<FastMap<u64, Fd>>>;

enum Phase {
    Attach,
    Listen,
    Poll,
    Accept,
    ReqRecv(usize),
    Script,
}

enum Ready {
    Listener,
    Req(usize),
}

/// The connection-manager process: OpenSER's `tcp_main` between worker
/// processes, the acceptor thread between worker threads.
pub struct ConnManager {
    shared: ConnShared,
    registry: FdRegistry,
    /// Every worker's assign channel, then every worker's request channel
    /// (none under threads).
    chans: Vec<ChanId>,
    /// The manager's ends of `chans`, in the same order.
    chan_fds: Vec<Fd>,
    workers: usize,
    listener: Fd,
    rr: usize,
    pending: VecDeque<Ready>,
    script: VecDeque<Syscall>,
    phase: Phase,
    last_scan: SimTime,
    /// Set when the main loop has handled work since the last timeout scan;
    /// OpenSER's tcp_main re-checks timeouts per loop pass, so an *idle*
    /// supervisor only housekeeps on a slow tick.
    worked_since_scan: bool,
    /// The gap to the next timeout scan while busy and while idle.
    scan_every: (SimDuration, SimDuration),
}

impl ConnManager {
    /// Creates the manager over the workers' assign channels and, between
    /// processes, their request channels; channels are created by the
    /// spawner.
    pub(crate) fn new(
        shared: ConnShared,
        registry: FdRegistry,
        assign_chans: Vec<ChanId>,
        req_chans: Vec<ChanId>,
    ) -> Self {
        let workers = assign_chans.len();
        // Point 3. With both intervals equal, the busy/idle rule in
        // `next_action` is the acceptor's fixed schedule.
        let scan_every = match shared.cfg.arch {
            Arch::MultiThread => (IDLE_CHECK_INTERVAL, IDLE_CHECK_INTERVAL),
            Arch::MultiProcess => (SUPERVISOR_SCAN_INTERVAL, HOUSEKEEPING),
        };
        ConnManager {
            shared,
            registry,
            chans: [assign_chans, req_chans].concat(),
            chan_fds: Vec::new(),
            workers,
            listener: Fd(u32::MAX),
            rr: 0,
            pending: VecDeque::new(),
            script: VecDeque::new(),
            phase: Phase::Attach,
            last_scan: SimTime::ZERO,
            worked_since_scan: false,
            scan_every,
        }
    }

    fn threaded(&self) -> bool {
        self.shared.cfg.arch == Arch::MultiThread
    }

    fn req_fds(&self) -> &[Fd] {
        &self.chan_fds[self.workers..]
    }

    /// Point 1: the message that hands connection `conn` to its owner.
    fn new_conn_msg(&self, conn: u64, peer: SockAddr, fd: Fd) -> IpcMsg {
        if self.threaded() {
            IpcMsg::new(MSG_NEW_CONN, conn, encode_addr(peer))
        } else {
            IpcMsg::with_fd(MSG_NEW_CONN, conn, encode_addr(peer), fd)
        }
    }

    /// Charges one connection-table operation under the table lock.
    fn table_op(&mut self) {
        let ns = APP_COSTS.conn_table_op;
        locked(
            &mut self.script,
            self.shared.locks.conn,
            ns,
            tags::CONN_HASH,
        );
    }

    /// Records a connection accepted from `peer` on `fd`, owned by the next
    /// worker round robin, and hands it to that worker. The send BLOCKS
    /// when the worker's queue is full — the §6 deadlock ingredient.
    fn accept(&mut self, now: SimTime, fd: Fd, peer: SockAddr) {
        let worker = self.rr % self.workers;
        self.rr += 1;
        let id = self.shared.conns.borrow_mut().insert(now, peer, worker);
        self.shared.core.borrow_mut().stats.conns_assigned += 1;
        self.table_op();
        // Between processes the kernel dups the passed descriptor and we
        // keep our copy, as OpenSER does.
        self.registry.borrow_mut().insert(id.0, fd);
        let msg = self.new_conn_msg(id.0, peer, fd);
        let to = self.chan_fds[worker];
        self.script.push_back(Syscall::IpcSend { fd: to, msg });
    }

    /// Removes a connection and closes the manager's descriptor for it;
    /// returns its owner.
    fn destroy(&mut self, id: ConnId) -> Option<usize> {
        let owner = self.shared.conns.borrow_mut().remove(id).map(|o| o.owner);
        if let Some(fd) = self.registry.borrow_mut().remove(&id.0) {
            self.script.push_back(Syscall::Close { fd });
        }
        self.shared.core.borrow_mut().stats.conns_destroyed += 1;
        owner
    }

    fn handle_req(&mut self, now: SimTime, worker: usize, msg: IpcMsg) {
        match msg.kind {
            MSG_FD_REQ => {
                let conn = msg.a;
                self.table_op();
                let reply = match self.registry.borrow().get(&conn) {
                    Some(&fd) => IpcMsg::with_fd(MSG_FD_RESP, conn, 1, fd),
                    None => IpcMsg::new(MSG_FD_RESP, conn, 0),
                };
                let to = self.req_fds()[worker];
                self.script
                    .push_back(Syscall::IpcSend { fd: to, msg: reply });
            }
            MSG_CONN_RETURN => {
                self.shared
                    .conns
                    .borrow_mut()
                    .mark_returned(ConnId(msg.a), now);
                self.shared.core.borrow_mut().stats.conns_returned += 1;
                self.table_op();
            }
            MSG_CONN_DEAD => {
                self.table_op();
                self.destroy(ConnId(msg.a));
            }
            MSG_NEW_OUTBOUND => {
                // Object was inserted by the worker; we keep the passed
                // descriptor so other workers can request it.
                if let Some(fd) = msg.fd {
                    self.registry.borrow_mut().insert(msg.a, fd);
                }
            }
            other => panic!("manager got unexpected ipc kind {other}"),
        }
    }

    /// Re-assigns every connection still owned by a respawned worker, so the
    /// fresh one can resume reading where the crashed one stopped. A
    /// connection whose descriptor the manager no longer holds cannot be
    /// handed over and is destroyed.
    fn reassign_worker(&mut self, worker: usize) {
        let owned = self.shared.conns.borrow().owned_by(worker);
        for (id, peer) in owned {
            self.table_op();
            let fd = self.registry.borrow().get(&id.0).copied();
            match fd {
                Some(fd) => {
                    self.shared.core.borrow_mut().stats.conns_reassigned += 1;
                    let msg = self.new_conn_msg(id.0, peer, fd);
                    let to = self.chan_fds[worker];
                    self.script.push_back(Syscall::IpcSend { fd: to, msg });
                }
                None => {
                    self.destroy(id);
                }
            }
        }
    }

    /// One idle hunt over the whole table, charged under the table lock
    /// (§5.2: "a lock is held on the shared hash table throughout").
    fn idle_pass(&mut self, now: SimTime) {
        let hunt = self.shared.conns.borrow_mut().hunt(now);
        self.shared.core.borrow_mut().stats.idle_scan_entries += hunt.examined;
        locked(
            &mut self.script,
            self.shared.locks.conn,
            hunt.ns,
            tags::IDLE,
        );
        // Point 2: processes leave `to_return` to the owning workers and
        // destroy what has been returned for a full further timeout;
        // threads close in one step.
        let threaded = self.threaded();
        let mut closing = hunt.to_destroy;
        if threaded {
            closing = hunt.to_return.into_iter().chain(closing).collect();
        }
        for id in closing {
            if let (true, Some(owner)) = (threaded, self.destroy(id)) {
                self.script.push_back(Syscall::IpcSend {
                    fd: self.chan_fds[owner],
                    msg: IpcMsg::new(MSG_CONN_DEAD, id.0, 0),
                });
            }
        }
    }

    /// Serves the next descriptor the last poll found ready, if any.
    fn serve_ready(&mut self) -> Option<Syscall> {
        let ready = self.pending.pop_front()?;
        self.worked_since_scan = true;
        Some(match ready {
            Ready::Listener => {
                self.phase = Phase::Accept;
                Syscall::TcpAccept { fd: self.listener }
            }
            Ready::Req(w) => {
                self.phase = Phase::ReqRecv(w);
                Syscall::IpcRecv {
                    fd: self.req_fds()[w],
                }
            }
        })
    }

    fn next_action(&mut self, now: SimTime) -> Syscall {
        // Crash notifications first: a respawned worker must get its
        // connections back before they can starve to their idle timeout.
        let respawned = std::mem::take(&mut *self.shared.respawned.borrow_mut());
        for w in respawned {
            self.worked_since_scan = true;
            self.reassign_worker(w);
        }
        if let Some(s) = self.script.pop_front() {
            self.phase = Phase::Script;
            return s;
        }
        if let Some(s) = self.serve_ready() {
            return s;
        }
        // Timeout scan: per loop pass while the loop has work (with a small
        // floor so back-to-back events do not each pay a full walk), or on
        // the slow housekeeping tick when idle.
        let (busy, idle) = self.scan_every;
        let due = self.last_scan + if self.worked_since_scan { busy } else { idle };
        if now >= due {
            self.last_scan = now;
            self.worked_since_scan = false;
            self.idle_pass(now);
            self.phase = Phase::Script;
            return self.script.pop_front().expect("idle pass emits syscalls");
        }
        let mut fds = Vec::with_capacity(1 + self.workers);
        fds.push(self.listener);
        fds.extend_from_slice(self.req_fds());
        self.phase = Phase::Poll;
        Syscall::Poll {
            fds,
            timeout: Some(due - now),
        }
    }
}

impl Process for ConnManager {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        let now = ctx.now;
        match std::mem::replace(&mut self.phase, Phase::Script) {
            Phase::Attach => {
                if let Some(attach) = attach_next(&self.chans, Side::A, &mut self.chan_fds, &last) {
                    self.phase = Phase::Attach;
                    return attach;
                }
                self.phase = Phase::Listen;
                return Syscall::TcpListen {
                    port: siperf_simnet::SIP_PORT,
                    backlog: 1024,
                };
            }
            Phase::Listen => {
                self.listener = last.expect_fd();
                self.last_scan = now;
            }
            Phase::Poll => {
                match last {
                    SysResult::Ready(fds) => {
                        for fd in fds {
                            if fd == self.listener {
                                self.pending.push_back(Ready::Listener);
                            } else if let Some(w) = self.req_fds().iter().position(|&r| r == fd) {
                                self.pending.push_back(Ready::Req(w));
                            }
                        }
                    }
                    SysResult::TimedOut => {}
                    other => panic!("manager poll got {other:?}"),
                }
                // Point 4: the acceptor thread accepts before it reads
                // respawn notices.
                if self.threaded() {
                    if let Some(s) = self.serve_ready() {
                        return s;
                    }
                }
            }
            Phase::Accept => match last {
                SysResult::Accepted { fd, peer } => self.accept(now, fd, peer),
                // Out of descriptors (the §4.3 starvation scenario): count
                // and move on.
                SysResult::Err(_) => self.shared.core.borrow_mut().stats.send_errors += 1,
                other => panic!("manager accept got {other:?}"),
            },
            Phase::ReqRecv(w) => match last {
                SysResult::Ipc(msg) => self.handle_req(now, w, msg),
                other => panic!("manager ipc recv got {other:?}"),
            },
            Phase::Script => {
                if let SysResult::Err(_) = last {
                    self.shared.core.borrow_mut().stats.send_errors += 1;
                }
            }
        }
        self.next_action(now)
    }
}
