//! Phone process for message-oriented transports (UDP and SCTP).
//!
//! One simulated process per phone: bind the phone's fixed port, register,
//! then either place calls through a [`CallEngine`] ([`Role::Caller`], with
//! any [`crate::phone::Arrivals`]) or answer them ([`Role::Callee`]).
//! Callers send every request to the proxy; callees send responses to the
//! topmost Via's sent-by, as RFC 3261 §18.2.2 prescribes for datagram
//! transports.

use std::collections::VecDeque;

use siperf_simcore::time::SimTime;
use siperf_simnet::addr::SockAddr;
use siperf_simnet::endpoint::Bytes;
use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};
use siperf_sip::msg::Method;
use siperf_sip::parse::parse_message;
use siperf_sip::txn::{RetransClock, TimerVerdict};

use crate::phone::{is_register_ok, CallEngine, Callee, PhoneCfg, Role};

// The shared postfix is the point: each variant names which poll loop the
// process resumes into.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy)]
enum Cont {
    RegPoll,
    CallPoll,
    ServePoll,
}

enum Phase {
    Start,
    Bound,
    Staggered,
    Polling(Cont),
    Receiving(Cont),
    Script(Cont),
    SleepingToStart,
}

/// A UDP/SCTP phone process (caller or callee).
pub struct MsgPhone {
    cfg: PhoneCfg,
    fd: Fd,
    engine: Option<CallEngine>,
    callee: Callee,
    reg_msg: Option<Bytes>,
    reg_clock: Option<RetransClock>,
    script: VecDeque<Syscall>,
    phase: Phase,
    /// Ringing calls whose 200 OK is due at the embedded instant.
    delayed: VecDeque<(SimTime, SockAddr, Bytes)>,
}

impl MsgPhone {
    /// Creates the phone process.
    pub fn new(cfg: PhoneCfg) -> Self {
        MsgPhone {
            cfg,
            fd: Fd(u32::MAX),
            engine: None,
            callee: Callee::default(),
            reg_msg: None,
            reg_clock: None,
            script: VecDeque::new(),
            phase: Phase::Start,
            delayed: VecDeque::new(),
        }
    }

    fn send(&self, to: SockAddr, data: Bytes) -> Syscall {
        Syscall::MsgSend {
            fd: self.fd,
            to,
            data,
        }
    }

    fn engine(&mut self) -> &mut CallEngine {
        self.engine.as_mut().expect("caller engine")
    }

    fn poll_for(&self, cont: Cont, now: SimTime) -> Syscall {
        let timeout = match cont {
            Cont::RegPoll => {
                let next = self.reg_clock.as_ref().expect("registering").next_at();
                Some(next.max(now) - now)
            }
            Cont::CallPoll => {
                let next = self.engine.as_ref().expect("caller").next_wake();
                if next == SimTime::MAX {
                    None
                } else {
                    Some(next.max(now) - now)
                }
            }
            Cont::ServePoll => self.delayed.front().map(|&(at, _, _)| at.max(now) - now),
        };
        Syscall::Poll {
            fds: vec![self.fd],
            timeout,
        }
    }

    /// Queues any ring-expired 200 OKs for transmission.
    fn flush_delayed(&mut self, now: SimTime) {
        while let Some(&(at, dest, _)) = self.delayed.front() {
            if at > now {
                break;
            }
            let (_, _, bytes) = self.delayed.pop_front().expect("peeked");
            let s = self.send(dest, bytes);
            self.script.push_back(s);
        }
    }

    /// After a script drains (or a non-event), where to park.
    fn park(&mut self, cont: Cont, now: SimTime) -> Syscall {
        self.flush_delayed(now);
        if let Some(s) = self.script.pop_front() {
            self.phase = Phase::Script(cont);
            return s;
        }
        self.phase = Phase::Polling(cont);
        self.poll_for(cont, now)
    }

    fn queue_sends(&mut self, to: SockAddr, msgs: Vec<Bytes>) {
        for m in msgs {
            let s = self.send(to, m);
            self.script.push_back(s);
        }
    }

    /// Sends the engine's requests to the proxy and parks in the call loop.
    fn send_calls(&mut self, msgs: Vec<Bytes>, now: SimTime) -> Syscall {
        self.queue_sends(self.cfg.proxy, msgs);
        self.park(Cont::CallPoll, now)
    }

    /// Handles one inbound datagram according to role/phase.
    fn handle_message(&mut self, now: SimTime, from: SockAddr, data: Bytes, cont: Cont) -> Syscall {
        self.script.push_back(Syscall::Compute {
            ns: crate::phone::PROC_NS,
            tag: "user/phone",
        });
        match cont {
            Cont::RegPoll => {
                let Ok(msg) = parse_message(&data) else {
                    return self.park(cont, now);
                };
                if is_register_ok(&msg) {
                    self.cfg.stats.borrow_mut().register_ok += 1;
                    self.reg_clock = None;
                    match self.cfg.role {
                        Role::Caller(_) => {
                            self.phase = Phase::SleepingToStart;
                            return Syscall::SleepUntil(self.cfg.call_start);
                        }
                        Role::Callee => return self.park(Cont::ServePoll, now),
                    }
                }
                self.park(Cont::RegPoll, now)
            }
            Cont::CallPoll => {
                let msgs = self.engine().on_wire(now, &data);
                self.send_calls(msgs, now)
            }
            Cont::ServePoll => {
                let answer = self
                    .callee
                    .answer(&self.cfg.user, &data, self.cfg.ring_delay);
                // Respond towards the topmost Via's sent-by (the proxy).
                let dest = answer.reply_to.unwrap_or(from);
                self.queue_sends(dest, answer.immediate);
                if let Some(ok) = answer.delayed_ok {
                    self.delayed
                        .push_back((now + self.cfg.ring_delay, dest, ok));
                }
                self.park(Cont::ServePoll, now)
            }
        }
    }
}

impl Process for MsgPhone {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        match std::mem::replace(&mut self.phase, Phase::Start) {
            Phase::Start => {
                self.phase = Phase::Bound;
                Syscall::MsgBind {
                    proto: self.cfg.transport.msg_proto().expect("UDP or SCTP"),
                    port: Some(self.cfg.port),
                }
            }
            Phase::Bound => {
                self.fd = last.expect_fd();
                if let Role::Caller(arrivals) = &self.cfg.role {
                    self.engine = Some(CallEngine::new(&self.cfg, arrivals, ctx.host));
                }
                self.reg_msg = Some(self.cfg.register_msg(ctx.host));
                self.phase = Phase::Staggered;
                Syscall::Sleep(self.cfg.stagger)
            }
            Phase::Staggered => {
                // Register (with a non-INVITE retransmission clock on UDP).
                let clock = if self.cfg.transport.is_reliable() {
                    RetransClock::reliable(ctx.now)
                } else {
                    RetransClock::new(ctx.now, Method::Register)
                };
                self.reg_clock = Some(clock);
                let msg = self.reg_msg.clone().expect("built at bind");
                self.queue_sends(self.cfg.proxy, vec![msg]);
                self.park(Cont::RegPoll, ctx.now)
            }
            Phase::SleepingToStart => {
                // The engine's first arrival is due at `call_start`.
                let msgs = self.engine().on_timer(ctx.now);
                self.send_calls(msgs, ctx.now)
            }
            Phase::Polling(cont) => match last {
                SysResult::Ready(_) => {
                    self.phase = Phase::Receiving(cont);
                    Syscall::MsgRecv { fd: self.fd }
                }
                SysResult::TimedOut => match cont {
                    Cont::RegPoll => {
                        let verdict = self.reg_clock.as_mut().expect("registering").check(ctx.now);
                        match verdict {
                            TimerVerdict::Retransmit { .. } => {
                                self.cfg.stats.borrow_mut().phone_retransmits += 1;
                                let msg = self.reg_msg.clone().expect("built");
                                self.queue_sends(self.cfg.proxy, vec![msg]);
                                self.park(Cont::RegPoll, ctx.now)
                            }
                            TimerVerdict::Wait { .. } => self.park(Cont::RegPoll, ctx.now),
                            TimerVerdict::TimedOut | TimerVerdict::Done => {
                                // Timer F: the proxy is unreachable. Give up
                                // quietly, as the TCP phone does, instead of
                                // panicking the whole simulation.
                                self.cfg.stats.borrow_mut().connect_errors += 1;
                                Syscall::Exit
                            }
                        }
                    }
                    Cont::CallPoll => {
                        let msgs = self.engine().on_timer(ctx.now);
                        self.send_calls(msgs, ctx.now)
                    }
                    Cont::ServePoll => self.park(Cont::ServePoll, ctx.now),
                },
                other => panic!("phone poll got {other:?}"),
            },
            Phase::Receiving(cont) => match last {
                SysResult::Datagram { from, data } => {
                    self.handle_message(ctx.now, from, data, cont)
                }
                other => panic!("phone recv got {other:?}"),
            },
            Phase::Script(cont) => {
                if let SysResult::Err(_) = last {
                    self.cfg.stats.borrow_mut().connect_errors += 1;
                }
                self.park(cont, ctx.now)
            }
        }
    }
}
