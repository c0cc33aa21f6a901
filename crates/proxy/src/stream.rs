//! The connection worker: one TCP worker loop for both architectures,
//! generic over how it reaches a descriptor it does not own.
//!
//! Every TCP worker does the same things: it polls its control channel and
//! the connections it owns, frames their byte streams into SIP messages
//! (TCP has no message boundaries, so only the owner reads a connection),
//! routes each message, and sends each result after resolving the
//! destination in the shared connection table under its lock. What the
//! paper varies is the one step after that lookup — how the worker gets
//! the destination's descriptor — and that sits behind `ConnAccess`:
//!
//! * `tcp::IpcAccess` — the multi-process server asks the supervisor over
//!   blocking IPC, optionally through the §5.2 fd cache (§3.1).
//! * `threaded::SharedAccess` — the threaded server reads a descriptor
//!   table every thread shares (§6).

use std::collections::VecDeque;

use siperf_simcore::hash::FastMap;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;
use siperf_simos::ipc::{ChanId, Side};
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, IpcMsg, SysResult, Syscall};
use siperf_sip::framer::StreamFramer;

use crate::config::APP_COSTS;
use crate::conn::ConnId;
use crate::core::Outgoing;
use crate::plumbing::{locked, tags, ConnShared};

const RECV_CHUNK: usize = 16 * 1024;

/// Attaches each of `chans` on `side` in turn, collecting the descriptors
/// in `fds` (`last` is the previous attach's result): the next attach, or
/// `None` once all are attached.
pub(crate) fn attach_next(
    chans: &[ChanId],
    side: Side,
    fds: &mut Vec<Fd>,
    last: &SysResult,
) -> Option<Syscall> {
    if !matches!(last, SysResult::Start) {
        fds.push(last.expect_fd());
    }
    let chan = *chans.get(fds.len())?;
    Some(Syscall::IpcAttach { chan, side })
}

/// A connection a worker reads.
pub(crate) struct OwnedConn {
    /// The worker's descriptor for it.
    pub fd: Fd,
    /// The remote end.
    pub peer: SockAddr,
    framer: StreamFramer,
}

/// The state every connection worker keeps whatever its access path,
/// lent to the [`ConnAccess`] hooks.
pub(crate) struct ConnState {
    /// This worker's index.
    pub idx: usize,
    /// State shared with the other workers and the manager.
    pub shared: ConnShared,
    /// The worker's ends of [`ConnAccess::channels`]; the first is the
    /// control channel.
    pub chan_fds: Vec<Fd>,
    /// The connections this worker reads, by connection id.
    pub owned: FastMap<u64, OwnedConn>,
    conn_by_fd: FastMap<Fd, u64>,
    /// Syscalls to play out before the loop continues.
    pub script: VecDeque<Syscall>,
}

impl ConnState {
    /// Starts reading connection `conn` from `peer` on `fd`.
    pub fn adopt(&mut self, conn: u64, fd: Fd, peer: SockAddr) {
        self.owned.insert(
            conn,
            OwnedConn {
                fd,
                peer,
                framer: StreamFramer::new(),
            },
        );
        self.conn_by_fd.insert(fd, conn);
    }

    /// Stops reading connection `conn`, returning it if it was owned.
    pub fn forget(&mut self, conn: u64) -> Option<OwnedConn> {
        let owned = self.owned.remove(&conn)?;
        self.conn_by_fd.remove(&owned.fd);
        Some(owned)
    }
}

/// One outgoing message on its way to a descriptor.
pub(crate) struct SendJob {
    /// The message.
    pub out: Outgoing,
    /// The connection it resolved to, once known.
    pub conn: Option<ConnId>,
    /// The descriptor it goes out on, once known.
    pub fd: Option<Fd>,
}

/// What one access-path send step produced.
pub(crate) enum Step<S> {
    /// Issue this syscall, then continue at step `S` with its result.
    Next(S, Syscall),
    /// The job is finished, with at most one trailing syscall.
    Done(Option<Syscall>),
}

/// How a connection worker reaches descriptors: the one thing the paper
/// varies between the multi-process and the threaded server.
pub(crate) trait ConnAccess {
    /// The access path's own send steps, after the shared lookup.
    type Step;

    /// The IPC channels to attach at start, all on [`Side::B`]; the first
    /// is the one the manager announces connections on.
    fn channels(&self) -> &[ChanId];

    /// Handles one message from the manager.
    fn on_ctl(&mut self, st: &mut ConnState, now: SimTime, msg: IpcMsg);

    /// Called right after a received segment touched `conn` in the shared
    /// table.
    fn touched(&mut self, _st: &mut ConnState, _now: SimTime, _conn: u64) {}

    /// Releases a connection the worker stopped reading (EOF, reset or a
    /// corrupt stream); `fd` was its descriptor.
    fn released(&mut self, st: &mut ConnState, conn: u64, fd: Fd);

    /// Queues periodic housekeeping if it is due; true if it queued any.
    fn housekeep(&mut self, _st: &mut ConnState, _now: SimTime) -> bool {
        false
    }

    /// How long the worker's poll may sleep.
    fn poll_timeout(&self, _now: SimTime) -> Option<SimDuration> {
        None
    }

    /// Access-path work under the table lock, after the shared lookup
    /// resolved and touched `job.conn`; returns the extra CPU to charge.
    fn table_work(&mut self, st: &mut ConnState, now: SimTime, job: &mut SendJob) -> u64;

    /// Picks the first own step as the table lock is released.
    fn route(&mut self, st: &mut ConnState, job: &mut SendJob) -> Self::Step;

    /// Advances one own step; `last` is the previous syscall's result.
    fn step(
        &mut self,
        st: &mut ConnState,
        now: SimTime,
        job: &mut SendJob,
        step: Self::Step,
        last: &SysResult,
    ) -> Step<Self::Step>;
}

/// Where a send job stands: the shared lookup, then the access path.
enum SendState<S> {
    /// Acquire the connection-table lock.
    LockTable,
    /// Table work done host-side; compute charged.
    TableWork,
    /// Release the lock; afterwards the access path takes over.
    Unlock,
    Access(S),
}

enum Ready {
    Ctl,
    Conn(u64),
}

enum Phase {
    Attach,
    Poll,
    CtlRecv,
    ConnRecv(u64),
    Send,
    Script,
}

/// One TCP worker (a process or a thread, per `A`).
pub(crate) struct ConnWorker<A: ConnAccess> {
    st: ConnState,
    access: A,
    pending: VecDeque<Ready>,
    msg_q: VecDeque<(Vec<u8>, SockAddr)>,
    out_q: VecDeque<Outgoing>,
    send: Option<(SendJob, SendState<A::Step>)>,
    phase: Phase,
}

impl<A: ConnAccess> ConnWorker<A> {
    /// Creates worker `idx` reaching descriptors through `access`.
    pub fn new(idx: usize, shared: ConnShared, access: A) -> Self {
        ConnWorker {
            st: ConnState {
                idx,
                shared,
                owned: FastMap::default(),
                chan_fds: Vec::new(),
                conn_by_fd: FastMap::default(),
                script: VecDeque::new(),
            },
            access,
            pending: VecDeque::new(),
            msg_q: VecDeque::new(),
            out_q: VecDeque::new(),
            send: None,
            phase: Phase::Attach,
        }
    }

    /// Processes one framed message: parse, route, queue the sends.
    fn process_message(&mut self, now: SimTime, raw: Vec<u8>, src: SockAddr) {
        // Messages already framed but not yet routed are backlog the
        // transaction table cannot see.
        let backlog = (self.st.idx, self.msg_q.len() + self.out_q.len());
        let out = self
            .st
            .shared
            .route(&mut self.st.script, now, &raw, src, Some(backlog));
        self.out_q.extend(out);
    }

    /// Handles one received segment on owned connection `conn`.
    fn receive(&mut self, now: SimTime, conn: u64, bytes: &[u8]) {
        // Update the connection's idle clock; under the priority queue this
        // repositions it in the shared queue under the table lock (§5.3's
        // per-message price).
        let ns = self.st.shared.conns.borrow_mut().touch(ConnId(conn), now);
        self.access.touched(&mut self.st, now, conn);
        if ns > 0 {
            let lock = self.st.shared.locks.conn;
            locked(&mut self.st.script, lock, ns, tags::CONN_HASH);
        }
        let owned = self
            .st
            .owned
            .get_mut(&conn)
            .expect("receiving on owned conn");
        owned.framer.push(bytes);
        let peer = owned.peer;
        let (frames, corrupt) = match owned.framer.drain_messages() {
            Ok(frames) => (frames, false),
            Err(corrupt) => (corrupt.framed, true),
        };
        self.msg_q.extend(frames.into_iter().map(|raw| (raw, peer)));
        if corrupt {
            // Corrupt stream: route what framed before it, then drop the
            // connection.
            self.st.shared.core.borrow_mut().stats.parse_errors += 1;
            self.conn_died(conn);
        }
    }

    fn conn_died(&mut self, conn: u64) {
        if let Some(owned) = self.st.forget(conn) {
            self.access.released(&mut self.st, conn, owned.fd);
        }
    }

    /// Advances the in-flight send job; `None` means it finished.
    fn advance_send(&mut self, now: SimTime, last: &SysResult) -> Option<Syscall> {
        let (mut job, state) = self.send.take()?;
        let lock = self.st.shared.locks.conn;
        let (state, syscall) = match state {
            SendState::LockTable => (SendState::TableWork, Syscall::LockAcquire { lock }),
            SendState::TableWork => {
                // Host-side: resolve the destination to a connection and
                // touch it; charge hash (+ what the touch costs, + whatever
                // the access path adds).
                let mut ns = APP_COSTS.conn_table_op;
                let mut conns = self.st.shared.conns.borrow_mut();
                job.conn = conns
                    .lookup_peer(job.out.dest)
                    .or_else(|| job.out.alt.and_then(|a| conns.lookup_peer(a)));
                if let Some(id) = job.conn {
                    ns += conns.touch(id, now);
                }
                drop(conns);
                ns += self.access.table_work(&mut self.st, now, &mut job);
                let work = Syscall::Compute {
                    ns,
                    tag: tags::CONN_HASH,
                };
                (SendState::Unlock, work)
            }
            SendState::Unlock => {
                let step = self.access.route(&mut self.st, &mut job);
                (SendState::Access(step), Syscall::LockRelease { lock })
            }
            SendState::Access(step) => {
                match self.access.step(&mut self.st, now, &mut job, step, last) {
                    Step::Next(step, syscall) => (SendState::Access(step), syscall),
                    Step::Done(trailing) => return trailing,
                }
            }
        };
        self.send = Some((job, state));
        Some(syscall)
    }

    fn next_action(&mut self, now: SimTime) -> Syscall {
        loop {
            if let Some(s) = self.st.script.pop_front() {
                self.phase = Phase::Script;
                return s;
            }
            if self.send.is_some() {
                // (Re)enter the send machine with a neutral result.
                if let Some(s) = self.advance_send(now, &SysResult::Done) {
                    self.phase = Phase::Send;
                    return s;
                }
                continue;
            }
            if let Some(out) = self.out_q.pop_front() {
                let job = SendJob {
                    out,
                    conn: None,
                    fd: None,
                };
                self.send = Some((job, SendState::LockTable));
                continue;
            }
            if let Some((raw, src)) = self.msg_q.pop_front() {
                self.process_message(now, raw, src);
                continue;
            }
            match self.pending.pop_front() {
                Some(Ready::Ctl) => {
                    self.phase = Phase::CtlRecv;
                    return Syscall::IpcRecv {
                        fd: self.st.chan_fds[0],
                    };
                }
                Some(Ready::Conn(conn)) => {
                    if let Some(owned) = self.st.owned.get(&conn) {
                        let fd = owned.fd;
                        self.phase = Phase::ConnRecv(conn);
                        return Syscall::TcpRecv {
                            fd,
                            max: RECV_CHUNK,
                        };
                    }
                    continue;
                }
                None => {}
            }
            if self.access.housekeep(&mut self.st, now) {
                continue;
            }
            let mut fds = Vec::with_capacity(1 + self.st.owned.len());
            fds.push(self.st.chan_fds[0]);
            fds.extend(self.st.owned.values().map(|o| o.fd));
            // Poll order decides which ready connection is served first;
            // sort so it does not depend on `FastMap` iteration order.
            fds[1..].sort_unstable();
            self.phase = Phase::Poll;
            return Syscall::Poll {
                fds,
                timeout: self.access.poll_timeout(now),
            };
        }
    }
}

impl<A: ConnAccess> Process for ConnWorker<A> {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        let now = ctx.now;
        match std::mem::replace(&mut self.phase, Phase::Script) {
            Phase::Attach => {
                let chans = self.access.channels();
                if let Some(attach) = attach_next(chans, Side::B, &mut self.st.chan_fds, &last) {
                    self.phase = Phase::Attach;
                    return attach;
                }
            }
            Phase::Poll => match last {
                SysResult::Ready(fds) => {
                    for fd in fds {
                        if fd == self.st.chan_fds[0] {
                            self.pending.push_back(Ready::Ctl);
                        } else if let Some(&conn) = self.st.conn_by_fd.get(&fd) {
                            self.pending.push_back(Ready::Conn(conn));
                        }
                    }
                }
                SysResult::TimedOut => {}
                other => panic!("worker poll got {other:?}"),
            },
            Phase::CtlRecv => match last {
                SysResult::Ipc(msg) => self.access.on_ctl(&mut self.st, now, msg),
                other => panic!("control recv got {other:?}"),
            },
            Phase::ConnRecv(conn) => match last {
                SysResult::Data(bytes) => self.receive(now, conn, &bytes),
                SysResult::Eof | SysResult::Err(_) => self.conn_died(conn),
                other => panic!("conn recv got {other:?}"),
            },
            Phase::Send => {
                if let Some(s) = self.advance_send(now, &last) {
                    self.phase = Phase::Send;
                    return s;
                }
            }
            Phase::Script => {
                if let SysResult::Err(_) = last {
                    self.st.shared.core.borrow_mut().stats.send_errors += 1;
                }
            }
        }
        self.next_action(now)
    }
}
