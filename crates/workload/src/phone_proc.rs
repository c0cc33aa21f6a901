//! The phone process, for every transport.
//!
//! One simulated process per phone, callee or caller with any
//! [`crate::phone::Arrivals`]: open the phone's fixed port, sleep the
//! start-up stagger, register, then either place calls through a
//! [`CallEngine`] from `call_start` on or answer them through a
//! [`Callee`]. The state machine is shared; a `Link` holds what the
//! transport decides.
//!
//! Datagram phones (UDP, SCTP) bind one socket, send every request to the
//! proxy and answer towards the topmost Via's sent-by, as RFC 3261
//! §18.2.2 prescribes. TCP phones own real connections, exactly like the
//! paper's benchmark (§4.3): every phone listens on its fixed port (so the
//! proxy can open a connection *to* it when forwarding), keeps a client
//! connection to the proxy for its own requests, answers on the connection
//! a request arrived on, **never closes connections**, and — in the
//! non-persistent workloads — simply opens a fresh client connection after
//! every 50 or 500 operations, abandoning the old one for the server's
//! idle management to clean up. That abandonment is precisely what loads
//! the §5.2 idle-scan path.

use std::collections::VecDeque;

use siperf_simcore::hash::FastMap;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;
use siperf_simnet::endpoint::Bytes;
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};
use siperf_sip::framer::StreamFramer;
use siperf_sip::msg::Method;
use siperf_sip::parse::parse_message;
use siperf_sip::txn::{RetransClock, TimerVerdict};

use crate::phone::{is_register_ok, CallEngine, Callee, PhoneCfg, Role, PROC_NS};

const RECV_CHUNK: usize = 16 * 1024;
const CONNECT_BACKOFF: SimDuration = SimDuration::from_millis(100);
/// How many times a TCP phone registers (connect + REGISTER) before giving
/// up and exiting. Keeps a partitioned phone from panicking the whole
/// simulation while still bounding its patience.
const MAX_REG_ATTEMPTS: u32 = 5;

/// What the transport decides: how the port opens, how a REGISTER is
/// retried, how requests reach the proxy, how bytes are read and where an
/// answer goes.
enum Link {
    /// UDP or SCTP: one socket on the phone's port. A REGISTER is
    /// retransmitted on Timer E (UDP only) and abandoned at Timer F.
    Msg(Fd),
    /// TCP: a listener and connections. A REGISTER is sent again over a
    /// fresh connection at Timer F, a bounded number of times.
    Stream(Conns),
}

/// A TCP phone's descriptors and connection state.
struct Conns {
    listener: Fd,
    /// The connection this phone opened to the proxy, while it lives.
    client: Option<Fd>,
    framers: FastMap<Fd, StreamFramer>,
    /// Descriptors the last poll found ready, not yet served.
    ready: VecDeque<Fd>,
    /// Requests waiting for the client connection to (re)open.
    pending: Vec<Bytes>,
    /// The engine's operation count when the client connection opened.
    ops_at_conn: u64,
    reg_attempts: u32,
}

/// Where a received message came from, so its answer can go back.
#[derive(Clone, Copy)]
enum Src {
    /// A datagram on this socket, from this address.
    Datagram(Fd, SockAddr),
    /// A message framed on this connection.
    Conn(Fd),
}

impl Src {
    /// The syscall sending `data` back: towards the topmost Via's sent-by
    /// (`via`) or the sender for a datagram, on the same connection for a
    /// stream.
    fn answer(self, via: Option<SockAddr>, data: Bytes) -> Syscall {
        match self {
            Src::Datagram(fd, from) => Syscall::MsgSend {
                fd,
                to: via.unwrap_or(from),
                data,
            },
            Src::Conn(fd) => Syscall::TcpSend { fd, data },
        }
    }
}

enum Phase {
    Start,
    Opened,
    Staggered,
    SleepingToStart,
    Connecting,
    Backoff,
    Polling,
    Accepting,
    Receiving(Fd),
    Script,
}

/// A phone process (caller or callee) over any transport.
pub struct Phone {
    cfg: PhoneCfg,
    link: Link,
    engine: Option<CallEngine>,
    callee: Callee,
    reg_msg: Bytes,
    /// The current REGISTER's clock.
    reg_clock: Option<RetransClock>,
    registered: bool,
    script: VecDeque<Syscall>,
    phase: Phase,
    /// Ringing calls' 200 OKs, each with the instant it is due.
    delayed: VecDeque<(SimTime, Syscall)>,
}

impl Phone {
    /// Creates the phone process.
    pub fn new(cfg: PhoneCfg) -> Self {
        let unopened = Fd(u32::MAX);
        let link = match cfg.transport.msg_proto() {
            Some(_) => Link::Msg(unopened),
            None => Link::Stream(Conns {
                listener: unopened,
                client: None,
                framers: FastMap::default(),
                ready: VecDeque::new(),
                pending: Vec::new(),
                ops_at_conn: 0,
                reg_attempts: 0,
            }),
        };
        Phone {
            cfg,
            link,
            engine: None,
            callee: Callee::default(),
            reg_msg: Bytes::from([]),
            reg_clock: None,
            registered: false,
            script: VecDeque::new(),
            phase: Phase::Start,
            delayed: VecDeque::new(),
        }
    }

    fn engine(&mut self) -> &mut CallEngine {
        self.engine.as_mut().expect("caller engine")
    }

    fn conns(&mut self) -> &mut Conns {
        match &mut self.link {
            Link::Stream(conns) => conns,
            Link::Msg(_) => panic!("a datagram phone has no connections"),
        }
    }

    /// The syscall sending a request to the proxy.
    fn request(&self, data: Bytes) -> Syscall {
        match &self.link {
            Link::Msg(fd) => Syscall::MsgSend {
                fd: *fd,
                to: self.cfg.proxy,
                data,
            },
            Link::Stream(conns) => Syscall::TcpSend {
                fd: conns.client.expect("connected to the proxy"),
                data,
            },
        }
    }

    fn connect(&mut self) -> Syscall {
        self.phase = Phase::Connecting;
        Syscall::TcpConnect { to: self.cfg.proxy }
    }

    /// Sends the REGISTER and starts its clock: Timer E and F on UDP,
    /// only Timer F on a reliable transport.
    fn register(&mut self, now: SimTime) -> Syscall {
        self.reg_clock = Some(if self.cfg.transport.is_reliable() {
            RetransClock::reliable(now)
        } else {
            RetransClock::new(now, Method::Register)
        });
        let send = self.request(self.reg_msg.clone());
        self.script.push_back(send);
        self.park(now)
    }

    /// When the poll should time out: at the REGISTER's next timer while
    /// registering, then at the caller's next wake or the callee's next
    /// delayed 200.
    fn poll_timeout(&self, now: SimTime) -> Option<SimDuration> {
        let at = if !self.registered {
            self.reg_clock.as_ref().expect("registering").next_at()
        } else if let Some(engine) = &self.engine {
            engine.next_wake()
        } else {
            self.delayed.front().map_or(SimTime::MAX, |&(at, _)| at)
        };
        (at != SimTime::MAX).then(|| at.max(now) - now)
    }

    /// Queues due 200 OKs, then runs the script, serves ready descriptors
    /// or polls.
    fn park(&mut self, now: SimTime) -> Syscall {
        while self.delayed.front().is_some_and(|&(at, _)| at <= now) {
            let (_, send) = self.delayed.pop_front().expect("peeked");
            // A 200 due on a connection that has closed meanwhile is lost.
            match (&self.link, &send) {
                (Link::Stream(conns), Syscall::TcpSend { fd, .. })
                    if !conns.framers.contains_key(fd) => {}
                _ => self.script.push_back(send),
            }
        }
        if let Some(s) = self.script.pop_front() {
            self.phase = Phase::Script;
            return s;
        }
        let fds = match &mut self.link {
            Link::Msg(fd) => vec![*fd],
            Link::Stream(conns) => {
                while let Some(fd) = conns.ready.pop_front() {
                    if fd == conns.listener {
                        self.phase = Phase::Accepting;
                        return Syscall::TcpAccept { fd };
                    }
                    if conns.framers.contains_key(&fd) {
                        self.phase = Phase::Receiving(fd);
                        return Syscall::TcpRecv {
                            fd,
                            max: RECV_CHUNK,
                        };
                    }
                }
                let mut fds = Vec::with_capacity(2 + conns.framers.len());
                fds.push(conns.listener);
                fds.extend(conns.framers.keys().copied());
                // Poll order decides which ready connection is served
                // first; sort so it does not depend on `FastMap` order.
                fds[1..].sort_unstable();
                fds
            }
        };
        self.phase = Phase::Polling;
        Syscall::Poll {
            fds,
            timeout: self.poll_timeout(now),
        }
    }

    /// Queues requests for the proxy. Over TCP they go through a reconnect
    /// when the ops-per-connection policy says so or the client connection
    /// is gone; the returned syscall starts it. Once this resume has
    /// started a reconnect, later requests wait for it too.
    fn send_to_proxy(&mut self, msgs: Vec<Bytes>) -> Option<Syscall> {
        if msgs.is_empty() {
            return None;
        }
        let ops_done = self.engine.as_ref().map_or(0, |e| e.ops_done);
        let per_conn = self.cfg.ops_per_conn;
        if let Link::Stream(conns) = &mut self.link {
            if let Phase::Connecting = self.phase {
                conns.pending.extend(msgs);
                return None;
            }
            let policy_hit = per_conn.is_some_and(|k| ops_done - conns.ops_at_conn >= k as u64);
            if policy_hit {
                self.cfg.stats.borrow_mut().reconnects += 1;
            }
            if policy_hit || conns.client.is_none() {
                // Abandon the old connection (never closed — §4.3) and
                // carry the messages across the reconnect.
                conns.pending.extend(msgs);
                return Some(self.connect());
            }
        }
        for m in msgs {
            let send = self.request(m);
            self.script.push_back(send);
        }
        None
    }

    /// Sends the engine's requests and parks in the call loop.
    fn send_calls(&mut self, msgs: Vec<Bytes>, now: SimTime) -> Syscall {
        match self.send_to_proxy(msgs) {
            Some(connect) => connect,
            None => self.park(now),
        }
    }

    /// The poll timed out: a REGISTER timer, the caller's next wake, or a
    /// callee's due 200.
    fn on_timeout(&mut self, now: SimTime) -> Syscall {
        if self.registered {
            return match self.cfg.role {
                Role::Caller(_) => {
                    let msgs = self.engine().on_timer(now);
                    self.send_calls(msgs, now)
                }
                Role::Callee => self.park(now),
            };
        }
        let verdict = self.reg_clock.as_mut().expect("registering").check(now);
        match verdict {
            TimerVerdict::Retransmit { .. } => {
                self.cfg.stats.borrow_mut().phone_retransmits += 1;
                let send = self.request(self.reg_msg.clone());
                self.script.push_back(send);
                self.park(now)
            }
            TimerVerdict::Wait { .. } => self.park(now),
            TimerVerdict::TimedOut | TimerVerdict::Done => match &mut self.link {
                // Timer F over TCP: a fault swallowed the REGISTER or its
                // 200. Register again over a fresh connection.
                Link::Stream(conns) if conns.reg_attempts + 1 < MAX_REG_ATTEMPTS => {
                    conns.reg_attempts += 1;
                    if let Some(fd) = conns.client.take() {
                        conns.framers.remove(&fd);
                        self.script.push_back(Syscall::Close { fd });
                    }
                    self.connect()
                }
                // The proxy is unreachable: give up quietly instead of
                // panicking the whole simulation.
                _ => {
                    self.cfg.stats.borrow_mut().connect_errors += 1;
                    Syscall::Exit
                }
            },
        }
    }

    /// Handles one received message and queues what it calls for. Returns
    /// the syscall that leaves the poll loop, if one does: a registered
    /// caller's sleep to `call_start`, or a reconnect.
    fn on_message(&mut self, now: SimTime, raw: &[u8], src: Src) -> Option<Syscall> {
        self.script.push_back(Syscall::Compute {
            ns: PROC_NS,
            tag: "user/phone",
        });
        if !self.registered {
            if parse_message(raw).is_ok_and(|msg| is_register_ok(&msg)) {
                self.registered = true;
                self.cfg.stats.borrow_mut().register_ok += 1;
                if let Role::Caller(_) = self.cfg.role {
                    self.phase = Phase::SleepingToStart;
                    return Some(Syscall::SleepUntil(self.cfg.call_start));
                }
            }
            return None;
        }
        match self.cfg.role {
            Role::Caller(_) => {
                let msgs = self.engine().on_wire(now, raw);
                self.send_to_proxy(msgs)
            }
            Role::Callee => {
                let answer = self.callee.answer(&self.cfg.user, raw, self.cfg.ring_delay);
                for bytes in answer.immediate {
                    self.script.push_back(src.answer(answer.reply_to, bytes));
                }
                if let Some(ok) = answer.delayed_ok {
                    let send = src.answer(answer.reply_to, ok);
                    self.delayed.push_back((now + self.cfg.ring_delay, send));
                }
                None
            }
        }
    }

    /// Frames a connection's bytes and handles every complete message; the
    /// first one that leaves the poll loop decides the next syscall. A
    /// corrupt stream drops the connection after the messages before it.
    fn on_bytes(&mut self, now: SimTime, fd: Fd, bytes: &[u8]) -> Syscall {
        let Some(framer) = self.conns().framers.get_mut(&fd) else {
            return self.park(now);
        };
        framer.push(bytes);
        let (frames, corrupt) = match framer.drain_messages() {
            Ok(frames) => (frames, false),
            Err(corrupt) => (corrupt.framed, true),
        };
        let mut next = None;
        for raw in frames {
            next = next.or(self.on_message(now, &raw, Src::Conn(fd)));
        }
        if corrupt {
            return self.lost(now, fd, false, next);
        }
        next.unwrap_or_else(|| self.park(now))
    }

    /// A connection ended: a reset (`reset`), the peer's close or a
    /// corrupt stream. Releases it, and reconnects at once when the client
    /// link is needed — for a re-drive of an in-flight call, or to finish
    /// registering — unless `next` already leaves the poll loop.
    fn lost(&mut self, now: SimTime, fd: Fd, reset: bool, next: Option<Syscall>) -> Syscall {
        let registered = self.registered;
        let conns = match &mut self.link {
            Link::Stream(conns) => conns,
            Link::Msg(_) => panic!("a datagram phone has no connections"),
        };
        conns.framers.remove(&fd);
        let was_client = conns.client == Some(fd);
        if was_client {
            conns.client = None;
        }
        // §4.3's phones never *initiate* closes — live connections are
        // abandoned for the server to reap — but once the peer has closed,
        // the dead descriptor is released like any real client would.
        self.script.push_back(Syscall::Close { fd });
        // A *reset* on the client connection mid-call is a fault, not a
        // fatality: queue the in-flight requests so the reconnect re-drives
        // them (reliable transports never retransmit on their own, so
        // without this the call would stall to Timer B). A graceful EOF is
        // the server reaping an idle connection — the transaction is intact
        // and its response arrives over a proxy-initiated connection, so
        // re-driving would only add connection churn.
        if reset && was_client && registered {
            if let Some(engine) = self.engine.as_mut() {
                conns.pending.extend(engine.redrive(now));
            }
        }
        if let Some(next) = next {
            return next;
        }
        let reconnect = conns.client.is_none()
            && if registered {
                !conns.pending.is_empty()
            } else if conns.reg_attempts < MAX_REG_ATTEMPTS {
                conns.reg_attempts += 1;
                true
            } else {
                false
            };
        if reconnect {
            return self.connect();
        }
        self.park(now)
    }
}

impl Process for Phone {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        let now = ctx.now;
        match std::mem::replace(&mut self.phase, Phase::Start) {
            Phase::Start => {
                self.phase = Phase::Opened;
                let port = self.cfg.port;
                match self.cfg.transport.msg_proto() {
                    Some(proto) => Syscall::MsgBind {
                        proto,
                        port: Some(port),
                    },
                    None => Syscall::TcpListen { port, backlog: 64 },
                }
            }
            Phase::Opened => {
                match &mut self.link {
                    Link::Msg(fd) => *fd = last.expect_fd(),
                    Link::Stream(conns) => conns.listener = last.expect_fd(),
                }
                if let Role::Caller(arrivals) = &self.cfg.role {
                    self.engine = Some(CallEngine::new(&self.cfg, arrivals, ctx.host));
                }
                self.reg_msg = self.cfg.register_msg(ctx.host);
                self.phase = Phase::Staggered;
                Syscall::Sleep(self.cfg.stagger)
            }
            Phase::Staggered => match self.link {
                Link::Msg(_) => self.register(now),
                Link::Stream(_) => self.connect(),
            },
            Phase::SleepingToStart => {
                // The engine's first arrival is due at `call_start`.
                let msgs = self.engine().on_timer(now);
                self.send_calls(msgs, now)
            }
            Phase::Connecting => match last {
                SysResult::NewFd(fd) => {
                    let ops_done = self.engine.as_ref().map_or(0, |e| e.ops_done);
                    let conns = self.conns();
                    conns.client = Some(fd);
                    conns.framers.insert(fd, StreamFramer::new());
                    conns.ops_at_conn = ops_done;
                    if !self.registered {
                        return self.register(now);
                    }
                    for m in std::mem::take(&mut self.conns().pending) {
                        self.script.push_back(Syscall::TcpSend { fd, data: m });
                    }
                    self.park(now)
                }
                SysResult::Err(_) => {
                    self.cfg.stats.borrow_mut().connect_errors += 1;
                    self.phase = Phase::Backoff;
                    Syscall::Sleep(CONNECT_BACKOFF)
                }
                other => panic!("phone connect got {other:?}"),
            },
            Phase::Backoff => self.connect(),
            Phase::Polling => match last {
                // A datagram phone reads at once; a TCP phone serves the
                // ready descriptors after any due 200s and the script.
                SysResult::Ready(fds) => match &mut self.link {
                    Link::Msg(fd) => {
                        let fd = *fd;
                        self.phase = Phase::Receiving(fd);
                        Syscall::MsgRecv { fd }
                    }
                    Link::Stream(conns) => {
                        conns.ready.extend(fds);
                        self.park(now)
                    }
                },
                SysResult::TimedOut => self.on_timeout(now),
                other => panic!("phone poll got {other:?}"),
            },
            Phase::Accepting => {
                match last {
                    SysResult::Accepted { fd, .. } => {
                        self.conns().framers.insert(fd, StreamFramer::new());
                    }
                    SysResult::Err(_) => self.cfg.stats.borrow_mut().connect_errors += 1,
                    other => panic!("phone accept got {other:?}"),
                }
                self.park(now)
            }
            Phase::Receiving(fd) => match last {
                SysResult::Datagram { from, data } => {
                    let next = self.on_message(now, &data, Src::Datagram(fd, from));
                    next.unwrap_or_else(|| self.park(now))
                }
                SysResult::Data(bytes) => self.on_bytes(now, fd, &bytes),
                SysResult::Eof => self.lost(now, fd, false, None),
                SysResult::Err(_) => self.lost(now, fd, true, None),
                other => panic!("phone recv got {other:?}"),
            },
            Phase::Script => {
                if let SysResult::Err(_) = last {
                    // A send on a dead connection; the poll loop will see
                    // the EOF and clean up.
                    self.cfg.stats.borrow_mut().connect_errors += 1;
                }
                self.park(now)
            }
        }
    }
}
