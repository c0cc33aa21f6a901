//! The §6 multi-threaded architecture.
//!
//! "File descriptors cannot be shared among processes without passing them
//! back and forth using IPC. This overhead would be completely unnecessary
//! within a multi-threaded server. Locking would still be required to
//! ensure atomic use of each connection, but the threads would be able to
//! use any file descriptor in the server without any expensive transfer
//! operations."
//!
//! Exactly that: an acceptor thread and worker threads share one descriptor
//! table ([`siperf_simos::kernel::Kernel::spawn_thread`]). The shared
//! `conn → fd` registry lives in ordinary shared memory; a send takes the
//! connection-table lock to resolve the route, a striped per-connection
//! write lock for atomicity, and that's all — no supervisor round trip, no
//! close-after-send, no two-step idle shutdown. The worker threads are
//! `stream::ConnWorker`s reaching descriptors through `SharedAccess`.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use siperf_simcore::time::SimTime;
use siperf_simos::ipc::{ChanId, Side};
use siperf_simos::lock::LockId;
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, IpcMsg, SysResult, Syscall};

use crate::conn::ConnId;
use crate::plumbing::{decode_addr, encode_addr, locked, tags, ConnShared, ManagerCtl};
use crate::stream::{attach_next, ConnAccess, ConnState, SendJob, Step};
use crate::tcp::{MSG_CONN_DEAD, MSG_NEW_CONN};

/// conn id → descriptor, valid in every thread (shared fd table).
pub(crate) type FdRegistry = Rc<RefCell<HashMap<u64, Fd>>>;

// ===================================================================
// Acceptor thread
// ===================================================================

enum AccPhase {
    Attach,
    Listen,
    Poll,
    Accept,
    Script,
}

/// The acceptor thread: accepts, registers, notifies the owning reader,
/// centrally closes idle connections (one step, one close), and hands a
/// crashed thread's connections to its replacement.
pub struct Acceptor {
    shared: ConnShared,
    registry: FdRegistry,
    notify_chans: Vec<ChanId>,
    notify_fds: Vec<Fd>,
    listener: Fd,
    rr: usize,
    script: VecDeque<Syscall>,
    phase: AccPhase,
    next_idle_check: SimTime,
}

impl Acceptor {
    /// Creates the acceptor with one notify channel per worker thread.
    pub(crate) fn new(shared: ConnShared, registry: FdRegistry, notify_chans: Vec<ChanId>) -> Self {
        Acceptor {
            shared,
            registry,
            notify_chans,
            notify_fds: Vec::new(),
            listener: Fd(u32::MAX),
            rr: 0,
            script: VecDeque::new(),
            phase: AccPhase::Attach,
            next_idle_check: SimTime::ZERO,
        }
    }

    fn idle_pass(&mut self, now: SimTime) {
        let (hunt, ns) = self.shared.idle_hunt(now);
        locked(&mut self.script, self.shared.locks.conn, ns, tags::IDLE);
        // One-step close: no return protocol in a threaded server.
        for id in hunt.to_return.into_iter().chain(hunt.to_destroy) {
            let owner = self
                .shared
                .conns
                .borrow_mut()
                .remove(id)
                .map(|obj| obj.owner);
            if let Some(fd) = self.registry.borrow_mut().remove(&id.0) {
                self.script.push_back(Syscall::Close { fd });
            }
            if let Some(owner) = owner {
                self.script.push_back(Syscall::IpcSend {
                    fd: self.notify_fds[owner],
                    msg: IpcMsg::new(MSG_CONN_DEAD, id.0, 0),
                });
            }
            self.shared.core.borrow_mut().stats.conns_destroyed += 1;
        }
    }

    fn next_action(&mut self, now: SimTime) -> Syscall {
        // Crash notifications first: a respawned thread starts with nothing
        // to read, so hand it the dead thread's connections before they
        // starve. The descriptors stay valid in the shared table.
        while let Some(ManagerCtl::WorkerRespawned(w)) = self.shared.next_ctl() {
            let owned = self.shared.conns.borrow().owned_by(w);
            for (id, peer) in owned {
                let msg = IpcMsg::new(MSG_NEW_CONN, id.0, encode_addr(peer));
                self.shared
                    .reannounce(&mut self.script, self.notify_fds[w], msg);
            }
        }
        if let Some(s) = self.script.pop_front() {
            self.phase = AccPhase::Script;
            return s;
        }
        if now >= self.next_idle_check {
            self.next_idle_check = now + self.shared.cfg.idle_check_interval;
            self.idle_pass(now);
            self.phase = AccPhase::Script;
            return self.script.pop_front().expect("idle pass emits syscalls");
        }
        self.phase = AccPhase::Poll;
        Syscall::Poll {
            fds: vec![self.listener],
            timeout: Some(self.next_idle_check - now),
        }
    }
}

impl Process for Acceptor {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, AccPhase::Attach) {
            AccPhase::Attach => {
                let (chans, fds) = (&self.notify_chans, &mut self.notify_fds);
                attach_next(chans, Side::A, fds, &last).unwrap_or_else(|| {
                    self.phase = AccPhase::Listen;
                    Syscall::TcpListen {
                        port: siperf_simnet::SIP_PORT,
                        backlog: 1024,
                    }
                })
            }
            AccPhase::Listen => {
                self.listener = last.expect_fd();
                self.next_idle_check = ctx.now + self.shared.cfg.idle_check_interval;
                self.next_action(ctx.now)
            }
            AccPhase::Poll => {
                match last {
                    SysResult::Ready(_) => {
                        self.phase = AccPhase::Accept;
                        return Syscall::TcpAccept { fd: self.listener };
                    }
                    SysResult::TimedOut => {}
                    other => panic!("acceptor poll got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            AccPhase::Accept => {
                match last {
                    SysResult::Accepted { fd, peer } => {
                        let (script, rr) = (&mut self.script, &mut self.rr);
                        let workers = self.notify_chans.len();
                        let (worker, id) = self.shared.accept(script, ctx.now, peer, rr, workers);
                        self.registry.borrow_mut().insert(id.0, fd);
                        // Notify the owner — a plain message, no SCM_RIGHTS:
                        // the descriptor is already visible to every thread.
                        self.script.push_back(Syscall::IpcSend {
                            fd: self.notify_fds[worker],
                            msg: IpcMsg::new(MSG_NEW_CONN, id.0, encode_addr(peer)),
                        });
                    }
                    SysResult::Err(_) => {
                        self.shared.core.borrow_mut().stats.send_errors += 1;
                    }
                    other => panic!("acceptor accept got {other:?}"),
                }
                self.next_action(ctx.now)
            }
            AccPhase::Script => {
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

/// [`SharedAccess`]'s send steps after the table lookup.
pub(crate) enum SharedStep {
    /// Connect outbound: no usable connection to the destination.
    Connect,
    /// Connect issued; register the new connection.
    Connected,
    /// Take the connection's striped write lock.
    LockStripe,
    /// Send the message.
    Sending,
    /// Release the write lock.
    UnlockStripe,
}

/// The threaded server's access path: connections are announced by
/// plain messages on one notify channel, and any descriptor is read from
/// the registry every thread shares; a striped write lock keeps each
/// connection's sends atomic.
#[derive(Clone)]
pub(crate) struct SharedAccess {
    registry: FdRegistry,
    stripes: Rc<Vec<LockId>>,
    notify_chan: [ChanId; 1],
}

impl SharedAccess {
    /// Creates the access path over the shared registry, the striped write
    /// locks and the thread's notify channel.
    pub fn new(registry: FdRegistry, stripes: Rc<Vec<LockId>>, notify_chan: ChanId) -> Self {
        SharedAccess {
            registry,
            stripes,
            notify_chan: [notify_chan],
        }
    }

    fn stripe(&self, job: &SendJob) -> LockId {
        let conn = job.conn.expect("resolved").0;
        self.stripes[(conn as usize) % self.stripes.len()]
    }
}

impl ConnAccess for SharedAccess {
    type Step = SharedStep;

    fn channels(&self) -> &[ChanId] {
        &self.notify_chan
    }

    fn on_ctl(&mut self, st: &mut ConnState, _now: SimTime, msg: IpcMsg) {
        match msg.kind {
            MSG_NEW_CONN => {
                let fd = self.registry.borrow().get(&msg.a).copied();
                if let Some(fd) = fd {
                    st.adopt(msg.a, fd, decode_addr(msg.b));
                }
            }
            MSG_CONN_DEAD => {
                // Acceptor already closed the shared fd.
                st.forget(msg.a);
            }
            other => panic!("thread worker got ipc kind {other}"),
        }
    }

    fn released(&mut self, st: &mut ConnState, conn: u64, fd: Fd) {
        // Single close: the descriptor table is shared, so this is the only
        // copy to release.
        if self.registry.borrow_mut().remove(&conn).is_some() {
            st.script.push_back(Syscall::Close { fd });
        }
        st.shared.conns.borrow_mut().remove(ConnId(conn));
    }

    fn table_work(&mut self, _st: &mut ConnState, _now: SimTime, job: &mut SendJob) -> u64 {
        // The registry is read under the table lock.
        job.fd = job
            .conn
            .and_then(|id| self.registry.borrow().get(&id.0).copied());
        0
    }

    fn route(&mut self, _st: &mut ConnState, job: &mut SendJob) -> SharedStep {
        if job.fd.is_some() {
            SharedStep::LockStripe
        } else {
            SharedStep::Connect
        }
    }

    fn step(
        &mut self,
        st: &mut ConnState,
        now: SimTime,
        job: &mut SendJob,
        mut step: SharedStep,
        last: &SysResult,
    ) -> Step<SharedStep> {
        let target = job.out.alt.unwrap_or(job.out.dest);
        loop {
            return match step {
                SharedStep::Connect => {
                    st.shared.core.borrow_mut().stats.outbound_connects += 1;
                    Step::Next(SharedStep::Connected, Syscall::TcpConnect { to: target })
                }
                SharedStep::Connected => match last {
                    SysResult::NewFd(fd) => {
                        let timeout = st.shared.cfg.idle_timeout;
                        let id = st
                            .shared
                            .conns
                            .borrow_mut()
                            .insert(now, target, st.idx, timeout);
                        self.registry.borrow_mut().insert(id.0, *fd);
                        st.adopt(id.0, *fd, target);
                        job.conn = Some(id);
                        job.fd = Some(*fd);
                        step = SharedStep::LockStripe;
                        continue;
                    }
                    SysResult::Err(_) => {
                        st.shared.core.borrow_mut().stats.send_errors += 1;
                        Step::Done(None)
                    }
                    other => panic!("connect result expected, got {other:?}"),
                },
                SharedStep::LockStripe => {
                    let lock = self.stripe(job);
                    Step::Next(SharedStep::Sending, Syscall::LockAcquire { lock })
                }
                SharedStep::Sending => Step::Next(
                    SharedStep::UnlockStripe,
                    Syscall::TcpSend {
                        fd: job.fd.expect("resolved"),
                        data: job.out.bytes.clone(),
                    },
                ),
                SharedStep::UnlockStripe => {
                    if matches!(last, SysResult::Err(_)) {
                        st.shared.core.borrow_mut().stats.send_errors += 1;
                    }
                    Step::Done(Some(Syscall::LockRelease {
                        lock: self.stripe(job),
                    }))
                }
            };
        }
    }
}
