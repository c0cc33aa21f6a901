//! Phone process for TCP.
//!
//! One process per phone, callee or caller with any
//! [`crate::phone::Arrivals`]. TCP phones own real connections, exactly
//! like the paper's benchmark (§4.3): every phone listens on its fixed
//! port (so the proxy can open a connection *to* it when forwarding), keeps
//! a client connection to the proxy for its own requests, **never closes
//! connections**, and — in the non-persistent workloads — simply opens a
//! fresh client connection after every 50 or 500 operations, abandoning
//! the old one for the server's idle management to clean up. That
//! abandonment is precisely what loads the §5.2 idle-scan path.

use std::collections::{HashMap, VecDeque};

use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::endpoint::Bytes;
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};
use siperf_sip::framer::StreamFramer;
use siperf_sip::parse::parse_message;
use siperf_sip::txn::TIMEOUT;

use crate::phone::{is_register_ok, CallEngine, Callee, PhoneCfg, Role};

const RECV_CHUNK: usize = 16 * 1024;
const CONNECT_BACKOFF: SimDuration = SimDuration::from_millis(100);
/// How many times a phone re-registers (reconnect + fresh REGISTER) before
/// giving up and exiting. Keeps a partitioned phone from panicking the whole
/// simulation while still bounding its patience.
const MAX_REG_ATTEMPTS: u32 = 5;

#[derive(Debug, Clone, Copy)]
enum Cont {
    Reg,
    Call,
    Serve,
}

#[derive(Debug, Clone, Copy)]
enum Why {
    /// First connection: register once it is up.
    Register,
    /// Reconnect (ops-per-connection policy or dead client conn); flush the
    /// pending messages once up.
    Flush,
}

enum Phase {
    Start,
    Listened,
    Staggered,
    Connecting(Why),
    Backoff(Why),
    SleepingToStart,
    Polling(Cont),
    Accepting(Cont),
    Receiving(Cont, Fd),
    Script(Cont),
}

/// A TCP phone process (caller or callee).
pub struct TcpPhone {
    cfg: PhoneCfg,
    listener: Fd,
    client: Option<Fd>,
    framers: HashMap<Fd, StreamFramer>,
    engine: Option<CallEngine>,
    callee: Callee,
    reg_deadline: SimTime,
    registered: bool,
    reg_attempts: u32,
    ops_at_conn: u64,
    pending_out: Vec<Bytes>,
    pending_ready: VecDeque<Fd>,
    script: VecDeque<Syscall>,
    phase: Phase,
    /// Ringing calls whose 200 OK is due at the embedded instant.
    delayed: VecDeque<(SimTime, Fd, Bytes)>,
}

impl TcpPhone {
    /// Creates the phone process.
    pub fn new(cfg: PhoneCfg) -> Self {
        TcpPhone {
            cfg,
            listener: Fd(u32::MAX),
            client: None,
            framers: HashMap::new(),
            engine: None,
            callee: Callee::default(),
            reg_deadline: SimTime::MAX,
            registered: false,
            reg_attempts: 0,
            ops_at_conn: 0,
            pending_out: Vec::new(),
            pending_ready: VecDeque::new(),
            script: VecDeque::new(),
            phase: Phase::Start,
            delayed: VecDeque::new(),
        }
    }

    fn engine(&mut self) -> &mut CallEngine {
        self.engine.as_mut().expect("caller engine")
    }

    fn poll_for(&self, cont: Cont, now: SimTime) -> Syscall {
        let timeout = match cont {
            Cont::Reg => Some(self.reg_deadline.max(now) - now),
            Cont::Call => {
                let next = self.engine.as_ref().expect("caller").next_wake();
                if next == SimTime::MAX {
                    None
                } else {
                    Some(next.max(now) - now)
                }
            }
            Cont::Serve => self.delayed.front().map(|&(at, _, _)| at.max(now) - now),
        };
        let mut fds = Vec::with_capacity(2 + self.framers.len());
        fds.push(self.listener);
        fds.extend(self.framers.keys().copied());
        // Poll order decides which ready connection is served first; sort
        // so it does not depend on HashMap iteration order.
        fds[1..].sort_unstable();
        Syscall::Poll { fds, timeout }
    }

    fn park(&mut self, cont: Cont, now: SimTime) -> Syscall {
        while let Some(&(at, fd, _)) = self.delayed.front() {
            if at > now {
                break;
            }
            let (_, _, bytes) = self.delayed.pop_front().expect("peeked");
            if self.framers.contains_key(&fd) {
                self.script.push_back(Syscall::TcpSend { fd, data: bytes });
            }
        }
        if let Some(s) = self.script.pop_front() {
            self.phase = Phase::Script(cont);
            return s;
        }
        match self.pending_ready.pop_front() {
            Some(fd) if fd == self.listener => {
                self.phase = Phase::Accepting(cont);
                return Syscall::TcpAccept { fd: self.listener };
            }
            Some(fd) if self.framers.contains_key(&fd) => {
                self.phase = Phase::Receiving(cont, fd);
                return Syscall::TcpRecv {
                    fd,
                    max: RECV_CHUNK,
                };
            }
            Some(_) => return self.park(cont, now), // stale fd
            None => {}
        }
        self.phase = Phase::Polling(cont);
        self.poll_for(cont, now)
    }

    /// Queues caller-originated messages: straight onto the client
    /// connection, or through a reconnect when the ops-per-connection
    /// policy says so (or the connection died). Nothing to send changes
    /// nothing.
    fn send_to_proxy(&mut self, msgs: Vec<Bytes>) -> Option<Syscall> {
        if msgs.is_empty() {
            return None;
        }
        let ops_done = self.engine.as_ref().map(|e| e.ops_done).unwrap_or(0);
        let policy_hit = self
            .cfg
            .ops_per_conn
            .is_some_and(|k| ops_done - self.ops_at_conn >= k as u64);
        if policy_hit {
            self.cfg.stats.borrow_mut().reconnects += 1;
        }
        if policy_hit || self.client.is_none() {
            // Abandon the old connection (never closed — §4.3) and carry
            // the messages across the reconnect.
            self.pending_out.extend(msgs);
            self.phase = Phase::Connecting(Why::Flush);
            return Some(Syscall::TcpConnect { to: self.cfg.proxy });
        }
        let fd = self.client.expect("checked above");
        for m in msgs {
            self.script.push_back(Syscall::TcpSend { fd, data: m });
        }
        None
    }

    /// Sends the engine's requests and parks in the call loop.
    fn send_calls(&mut self, msgs: Vec<Bytes>, now: SimTime) -> Syscall {
        match self.send_to_proxy(msgs) {
            Some(connect) => connect,
            None => self.park(Cont::Call, now),
        }
    }

    fn conn_gone(&mut self, fd: Fd, now: SimTime, reset: bool) {
        let was_client = self.client == Some(fd);
        self.framers.remove(&fd);
        if was_client {
            self.client = None;
        }
        // §4.3's phones never *initiate* closes — live connections are
        // abandoned for the server to reap — but once the peer has closed,
        // the dead descriptor is released like any real client would.
        self.script.push_back(Syscall::Close { fd });
        // A *reset* on the client connection mid-call is a fault, not a
        // fatality: queue the in-flight requests so the reconnect re-drives
        // them (reliable transports never retransmit on their own, so without
        // this the call would stall to Timer B). A graceful EOF is the
        // server reaping an idle connection — the transaction is intact and
        // its response arrives over a proxy-initiated connection, so
        // re-driving would only add connection churn.
        if reset && was_client && self.registered {
            if let Some(engine) = self.engine.as_mut() {
                self.pending_out.extend(engine.redrive(now));
            }
        }
    }

    /// After losing a connection: reconnect right away when the client link
    /// is needed — for a re-drive of an in-flight call, or to finish
    /// registering. Returns the syscall that starts the reconnect.
    fn reconnect_after_loss(&mut self) -> Option<Syscall> {
        if self.client.is_some() {
            return None;
        }
        if self.registered && !self.pending_out.is_empty() {
            self.phase = Phase::Connecting(Why::Flush);
            return Some(Syscall::TcpConnect { to: self.cfg.proxy });
        }
        if !self.registered && self.reg_attempts < MAX_REG_ATTEMPTS {
            self.reg_attempts += 1;
            self.phase = Phase::Connecting(Why::Register);
            return Some(Syscall::TcpConnect { to: self.cfg.proxy });
        }
        None
    }

    /// Feeds framed messages from one connection through role logic.
    fn handle_frames(
        &mut self,
        now: SimTime,
        src: Fd,
        frames: Vec<Vec<u8>>,
        cont: Cont,
    ) -> Syscall {
        for raw in frames {
            self.script.push_back(Syscall::Compute {
                ns: crate::phone::PROC_NS,
                tag: "user/phone",
            });
            if !self.registered {
                let Ok(msg) = parse_message(&raw) else {
                    continue;
                };
                if is_register_ok(&msg) {
                    self.registered = true;
                    self.cfg.stats.borrow_mut().register_ok += 1;
                    if let Role::Caller(_) = self.cfg.role {
                        self.phase = Phase::SleepingToStart;
                        return Syscall::SleepUntil(self.cfg.call_start);
                    }
                }
                continue;
            }
            match self.cfg.role {
                Role::Caller(_) => {
                    let msgs = self.engine().on_wire(now, &raw);
                    if let Some(connect) = self.send_to_proxy(msgs) {
                        return connect;
                    }
                }
                Role::Callee => {
                    // Answer on the connection the request arrived on
                    // (RFC 3261 §18.2.2 for stream transports).
                    let answer = self
                        .callee
                        .answer(&self.cfg.user, &raw, self.cfg.ring_delay);
                    for bytes in answer.immediate {
                        self.script.push_back(Syscall::TcpSend {
                            fd: src,
                            data: bytes,
                        });
                    }
                    if let Some(ok) = answer.delayed_ok {
                        self.delayed.push_back((now + self.cfg.ring_delay, src, ok));
                    }
                }
            }
        }
        let cont = if matches!(self.cfg.role, Role::Callee) {
            Cont::Serve
        } else {
            cont
        };
        self.park(cont, now)
    }
}

impl Process for TcpPhone {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, Phase::Start) {
            Phase::Start => {
                self.phase = Phase::Listened;
                Syscall::TcpListen {
                    port: self.cfg.port,
                    backlog: 64,
                }
            }
            Phase::Listened => {
                self.listener = last.expect_fd();
                if let Role::Caller(arrivals) = &self.cfg.role {
                    self.engine = Some(CallEngine::new(&self.cfg, arrivals, ctx.host));
                }
                self.phase = Phase::Staggered;
                Syscall::Sleep(self.cfg.stagger)
            }
            Phase::Staggered => {
                self.phase = Phase::Connecting(Why::Register);
                Syscall::TcpConnect { to: self.cfg.proxy }
            }
            Phase::Connecting(why) => match last {
                SysResult::NewFd(fd) => {
                    self.client = Some(fd);
                    self.framers.insert(fd, StreamFramer::new());
                    self.ops_at_conn = self.engine.as_ref().map(|e| e.ops_done).unwrap_or(0);
                    match why {
                        Why::Register => {
                            self.reg_deadline = ctx.now + TIMEOUT;
                            let msg = self.cfg.register_msg(ctx.host);
                            self.script.push_back(Syscall::TcpSend { fd, data: msg });
                            self.park(Cont::Reg, ctx.now)
                        }
                        Why::Flush => {
                            for m in std::mem::take(&mut self.pending_out) {
                                self.script.push_back(Syscall::TcpSend { fd, data: m });
                            }
                            self.park(Cont::Call, ctx.now)
                        }
                    }
                }
                SysResult::Err(_) => {
                    self.cfg.stats.borrow_mut().connect_errors += 1;
                    self.phase = Phase::Backoff(why);
                    Syscall::Sleep(CONNECT_BACKOFF)
                }
                other => panic!("phone connect got {other:?}"),
            },
            Phase::Backoff(why) => {
                let _ = last;
                self.phase = Phase::Connecting(why);
                Syscall::TcpConnect { to: self.cfg.proxy }
            }
            Phase::SleepingToStart => {
                // The engine's first arrival is due at `call_start`.
                let msgs = self.engine().on_timer(ctx.now);
                self.send_calls(msgs, ctx.now)
            }
            Phase::Polling(cont) => match last {
                SysResult::Ready(fds) => {
                    self.pending_ready.extend(fds);
                    self.park(cont, ctx.now)
                }
                SysResult::TimedOut => match cont {
                    Cont::Reg => {
                        // Registration timed out — a fault swallowed the
                        // REGISTER or its 200. Retry over a fresh connection
                        // a bounded number of times, then give up quietly
                        // instead of panicking the whole simulation.
                        self.reg_attempts += 1;
                        if self.reg_attempts >= MAX_REG_ATTEMPTS {
                            self.cfg.stats.borrow_mut().connect_errors += 1;
                            return Syscall::Exit;
                        }
                        if let Some(fd) = self.client.take() {
                            self.framers.remove(&fd);
                            self.script.push_back(Syscall::Close { fd });
                        }
                        self.phase = Phase::Connecting(Why::Register);
                        Syscall::TcpConnect { to: self.cfg.proxy }
                    }
                    Cont::Call => {
                        let msgs = self.engine().on_timer(ctx.now);
                        self.send_calls(msgs, ctx.now)
                    }
                    Cont::Serve => self.park(Cont::Serve, ctx.now),
                },
                other => panic!("phone poll got {other:?}"),
            },
            Phase::Accepting(cont) => {
                match last {
                    SysResult::Accepted { fd, .. } => {
                        self.framers.insert(fd, StreamFramer::new());
                    }
                    SysResult::Err(_) => {
                        self.cfg.stats.borrow_mut().connect_errors += 1;
                    }
                    other => panic!("phone accept got {other:?}"),
                }
                self.park(cont, ctx.now)
            }
            Phase::Receiving(cont, fd) => match last {
                SysResult::Data(bytes) => {
                    let frames = {
                        let Some(framer) = self.framers.get_mut(&fd) else {
                            return self.park(cont, ctx.now);
                        };
                        framer.push(&bytes);
                        framer.drain_messages()
                    };
                    match frames {
                        Ok(frames) => self.handle_frames(ctx.now, fd, frames, cont),
                        Err(_) => {
                            self.conn_gone(fd, ctx.now, false);
                            if let Some(s) = self.reconnect_after_loss() {
                                return s;
                            }
                            self.park(cont, ctx.now)
                        }
                    }
                }
                SysResult::Eof => {
                    self.conn_gone(fd, ctx.now, false);
                    if let Some(s) = self.reconnect_after_loss() {
                        return s;
                    }
                    self.park(cont, ctx.now)
                }
                SysResult::Err(_) => {
                    self.conn_gone(fd, ctx.now, true);
                    if let Some(s) = self.reconnect_after_loss() {
                        return s;
                    }
                    self.park(cont, ctx.now)
                }
                other => panic!("phone recv got {other:?}"),
            },
            Phase::Script(cont) => {
                if let SysResult::Err(_) = last {
                    // A send on a dead connection; the poll loop will see
                    // the EOF and clean up.
                    self.cfg.stats.borrow_mut().connect_errors += 1;
                }
                self.park(cont, ctx.now)
            }
        }
    }
}
