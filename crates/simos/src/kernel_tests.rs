//! Behavioural tests for the simulated kernel: scheduling, blocking I/O,
//! IPC with descriptor passing, locks, preemption, and deadlock detection.

use std::cell::RefCell;
use std::rc::Rc;

use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::{HostId, SockAddr};
use siperf_simnet::endpoint::bytes_from;
use siperf_simnet::error::Errno;
use siperf_simnet::NetConfig;

use crate::cost::CostModel;
use crate::ipc::{ChanId, Side};
use crate::kernel::{Kernel, RunOutcome};
use crate::process::{Nice, ProcId, ResumeCtx};
use crate::syscall::{Fd, IpcMsg, MsgProto, SysResult, Syscall};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn udp_bind(port: u16) -> Syscall {
    Syscall::MsgBind {
        proto: MsgProto::Udp,
        port: Some(port),
    }
}

fn free_kernel() -> Kernel {
    Kernel::new(NetConfig::lan(), CostModel::free(), 9)
}

#[test]
fn compute_and_exit_advance_time_and_account_cpu() {
    let mut k = free_kernel();
    let h = k.add_host(1);
    let mut step = 0;
    let pid = k.spawn(
        h,
        Nice::NORMAL,
        "worker",
        Box::new(move |_: &mut ResumeCtx, _| {
            step += 1;
            if step <= 3 {
                Syscall::Compute {
                    ns: 1_000_000,
                    tag: "user/work",
                }
            } else {
                Syscall::Exit
            }
        }),
    );
    let outcome = k.run_until(secs(1));
    assert!(matches!(outcome, RunOutcome::Quiescent { .. }));
    assert!(k.proc_cpu_ns(pid) >= 3_000_000);
    assert_eq!(k.profiler(h).ns_for("user/work"), 3_000_000);
    assert!(k.stats().syscalls >= 4);
}

#[test]
fn udp_echo_roundtrip_between_hosts() {
    let mut k = free_kernel();
    let server_host = k.add_host(1);
    let client_host = k.add_host(1);
    let got = Rc::new(RefCell::new(Vec::<Vec<u8>>::new()));

    // Server: bind 5060, echo one datagram back, exit.
    let mut sstep = 0;
    let mut sfd = Fd(0);
    k.spawn(
        server_host,
        Nice::NORMAL,
        "server",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            sstep += 1;
            match sstep {
                1 => udp_bind(5060),
                2 => {
                    sfd = last.expect_fd();
                    Syscall::MsgRecv { fd: sfd }
                }
                3 => match last {
                    SysResult::Datagram { from, data } => Syscall::MsgSend {
                        fd: sfd,
                        to: from,
                        data,
                    },
                    other => panic!("expected datagram, got {other:?}"),
                },
                _ => Syscall::Exit,
            }
        }),
    );

    // Client: bind ephemeral, ping, await echo.
    let got2 = got.clone();
    let mut cstep = 0;
    let mut cfd = Fd(0);
    k.spawn(
        client_host,
        Nice::NORMAL,
        "client",
        Box::new(move |ctx: &mut ResumeCtx, last: SysResult| {
            cstep += 1;
            match cstep {
                1 => Syscall::MsgBind {
                    proto: MsgProto::Udp,
                    port: None,
                },
                2 => {
                    cfd = last.expect_fd();
                    Syscall::MsgSend {
                        fd: cfd,
                        to: SockAddr::new(siperf_simnet::HostId(0), 5060),
                        data: bytes_from(b"ping".to_vec()),
                    }
                }
                3 => Syscall::MsgRecv { fd: cfd },
                4 => {
                    if let SysResult::Datagram { data, .. } = last {
                        got2.borrow_mut().push(data.to_vec());
                    }
                    assert!(ctx.now > SimTime::ZERO);
                    Syscall::Exit
                }
                _ => Syscall::Exit,
            }
        }),
    );

    k.run_until(secs(2));
    assert_eq!(got.borrow().as_slice(), &[b"ping".to_vec()]);
    assert_eq!(k.net().stats().udp_sent, 2);
}

#[test]
fn tcp_connect_accept_send_recv_eof() {
    let mut k = free_kernel();
    let sh = k.add_host(1);
    let ch = k.add_host(1);
    let log = Rc::new(RefCell::new(Vec::<String>::new()));

    let log_s = log.clone();
    let mut sstep = 0;
    let mut conn = Fd(0);
    k.spawn(
        sh,
        Nice::NORMAL,
        "server",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            sstep += 1;
            match sstep {
                1 => Syscall::TcpListen {
                    port: 5060,
                    backlog: 8,
                },
                2 => Syscall::TcpAccept {
                    fd: last.expect_fd(),
                },
                3 => match last {
                    SysResult::Accepted { fd, .. } => {
                        conn = fd;
                        Syscall::TcpRecv { fd: conn, max: 64 }
                    }
                    other => panic!("expected accept, got {other:?}"),
                },
                4 => match last {
                    SysResult::Data(d) => {
                        log_s
                            .borrow_mut()
                            .push(format!("got:{}", String::from_utf8(d).unwrap()));
                        Syscall::TcpSend {
                            fd: conn,
                            data: bytes_from(b"pong".to_vec()),
                        }
                    }
                    other => panic!("expected data, got {other:?}"),
                },
                5 => Syscall::TcpRecv { fd: conn, max: 64 },
                6 => {
                    assert!(matches!(last, SysResult::Eof), "expected eof, got {last:?}");
                    log_s.borrow_mut().push("eof".into());
                    Syscall::Close { fd: conn }
                }
                _ => Syscall::Exit,
            }
        }),
    );

    let log_c = log.clone();
    let mut cstep = 0;
    let mut cfd = Fd(0);
    k.spawn(
        ch,
        Nice::NORMAL,
        "client",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            cstep += 1;
            match cstep {
                1 => Syscall::TcpConnect {
                    to: SockAddr::new(siperf_simnet::HostId(0), 5060),
                },
                2 => {
                    cfd = last.expect_fd();
                    Syscall::TcpSend {
                        fd: cfd,
                        data: bytes_from(b"ping".to_vec()),
                    }
                }
                3 => Syscall::TcpRecv { fd: cfd, max: 64 },
                4 => {
                    if let SysResult::Data(d) = last {
                        log_c
                            .borrow_mut()
                            .push(format!("reply:{}", String::from_utf8(d).unwrap()));
                    }
                    Syscall::Close { fd: cfd }
                }
                _ => Syscall::Exit,
            }
        }),
    );

    // Not quiescent at 2 s: the client's active close leaves a TIME_WAIT
    // port-release event pending at +60 s.
    let outcome = k.run_until(secs(2));
    assert!(matches!(outcome, RunOutcome::ReachedTime));
    let log = log.borrow();
    assert!(log.contains(&"got:ping".to_string()), "{log:?}");
    assert!(log.contains(&"reply:pong".to_string()), "{log:?}");
    assert!(log.contains(&"eof".to_string()), "{log:?}");
    // All endpoints released after the closes.
    assert_eq!(k.net().endpoints_on(siperf_simnet::HostId(1)), 0);
}

#[test]
fn connect_to_nobody_fails_and_autocloses() {
    let mut k = free_kernel();
    let _server = k.add_host(1);
    let ch = k.add_host(1);
    let saw_err = Rc::new(RefCell::new(false));
    let saw = saw_err.clone();
    let mut step = 0;
    k.spawn(
        ch,
        Nice::NORMAL,
        "client",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            step += 1;
            match step {
                1 => Syscall::TcpConnect {
                    to: SockAddr::new(siperf_simnet::HostId(0), 5060),
                },
                _ => {
                    *saw.borrow_mut() = last.is_err();
                    Syscall::Exit
                }
            }
        }),
    );
    k.run_until(secs(2));
    assert!(*saw_err.borrow());
    // The half-open endpoint was cleaned up by the kernel.
    assert_eq!(k.net().endpoints_on(siperf_simnet::HostId(1)), 0);
    assert_eq!(
        k.net().ports_available(siperf_simnet::HostId(1)),
        NetConfig::lan().ephemeral_count()
    );
}

#[test]
fn poll_times_out_then_reports_ready_fd() {
    let mut k = free_kernel();
    let h = k.add_host(1);
    let ch = k.add_host(1);
    let events = Rc::new(RefCell::new(Vec::<String>::new()));

    let ev = events.clone();
    let mut step = 0;
    let mut fd_a = Fd(0);
    let mut fd_b = Fd(0);
    k.spawn(
        h,
        Nice::NORMAL,
        "poller",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            step += 1;
            match step {
                1 => udp_bind(1000),
                2 => {
                    fd_a = last.expect_fd();
                    udp_bind(2000)
                }
                3 => {
                    fd_b = last.expect_fd();
                    Syscall::Poll {
                        fds: vec![fd_a, fd_b],
                        timeout: Some(SimDuration::from_millis(5)),
                    }
                }
                4 => {
                    assert!(matches!(last, SysResult::TimedOut), "got {last:?}");
                    ev.borrow_mut().push("timeout".into());
                    Syscall::Poll {
                        fds: vec![fd_a, fd_b],
                        timeout: None,
                    }
                }
                5 => {
                    match last {
                        SysResult::Ready(fds) => {
                            assert_eq!(fds, vec![fd_b]);
                            ev.borrow_mut().push("ready".into());
                        }
                        other => panic!("expected ready, got {other:?}"),
                    }
                    Syscall::MsgRecv { fd: fd_b }
                }
                _ => Syscall::Exit,
            }
        }),
    );

    let mut cstep = 0;
    let mut cfd = Fd(0);
    k.spawn(
        ch,
        Nice::NORMAL,
        "sender",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            cstep += 1;
            match cstep {
                1 => Syscall::MsgBind {
                    proto: MsgProto::Udp,
                    port: None,
                },
                2 => {
                    cfd = last.expect_fd();
                    Syscall::Sleep(SimDuration::from_millis(20))
                }
                3 => Syscall::MsgSend {
                    fd: cfd,
                    to: SockAddr::new(siperf_simnet::HostId(0), 2000),
                    data: bytes_from(vec![42]),
                },
                _ => Syscall::Exit,
            }
        }),
    );

    k.run_until(secs(1));
    assert_eq!(
        events.borrow().as_slice(),
        &["timeout".to_string(), "ready".to_string()]
    );
}

#[test]
fn ipc_fd_passing_transfers_working_descriptor() {
    let mut k = free_kernel();
    let h = k.add_host(2);
    let server_host = k.add_host(1);
    let chan = k.create_ipc_pair(16);
    let received = Rc::new(RefCell::new(Vec::<u16>::new()));

    // Receiver of the datagram (on another host).
    let rec = received.clone();
    let mut sstep = 0;
    k.spawn(
        server_host,
        Nice::NORMAL,
        "sink",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            sstep += 1;
            match sstep {
                1 => udp_bind(5060),
                2 => Syscall::MsgRecv {
                    fd: last.expect_fd(),
                },
                3 => {
                    if let SysResult::Datagram { from, .. } = last {
                        rec.borrow_mut().push(from.port);
                    }
                    Syscall::Exit
                }
                _ => Syscall::Exit,
            }
        }),
    );

    // Passer: creates a UDP socket, ships it over IPC, closes its copy.
    let port_holder = Rc::new(RefCell::new(0u16));
    let ph = port_holder.clone();
    let mut pstep = 0;
    let mut ipc_fd = Fd(0);
    let mut sock = Fd(0);
    k.spawn(
        h,
        Nice::NORMAL,
        "passer",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            pstep += 1;
            match pstep {
                1 => Syscall::IpcAttach {
                    chan,
                    side: Side::A,
                },
                2 => {
                    ipc_fd = last.expect_fd();
                    Syscall::MsgBind {
                        proto: MsgProto::Udp,
                        port: None,
                    }
                }
                3 => {
                    if let SysResult::NewFdPort { fd, port } = last {
                        sock = fd;
                        *ph.borrow_mut() = port;
                    }
                    Syscall::IpcSend {
                        fd: ipc_fd,
                        msg: IpcMsg::with_fd(7, 0, 0, sock),
                    }
                }
                4 => Syscall::Close { fd: sock }, // sender's copy goes away
                _ => Syscall::Exit,
            }
        }),
    );

    // User: receives the descriptor and sends through it.
    let mut ustep = 0;
    k.spawn(
        h,
        Nice::NORMAL,
        "user",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            ustep += 1;
            match ustep {
                1 => Syscall::IpcAttach {
                    chan,
                    side: Side::B,
                },
                2 => Syscall::IpcRecv {
                    fd: last.expect_fd(),
                },
                3 => match last {
                    SysResult::Ipc(msg) => {
                        assert_eq!(msg.kind, 7);
                        Syscall::MsgSend {
                            fd: msg.fd.expect("descriptor passed"),
                            to: SockAddr::new(siperf_simnet::HostId(1), 5060),
                            data: bytes_from(b"via passed fd".to_vec()),
                        }
                    }
                    other => panic!("expected ipc msg, got {other:?}"),
                },
                _ => Syscall::Exit,
            }
        }),
    );

    k.run_until(secs(2));
    // The sink saw a datagram sourced from the *passer's* ephemeral port —
    // the descriptor really was transferred, and survived the passer's
    // close because the kernel refcounts the underlying socket.
    assert_eq!(received.borrow().as_slice(), &[*port_holder.borrow()]);
}

#[test]
fn bounded_ipc_blocks_sender_until_drained() {
    let mut k = free_kernel();
    let h = k.add_host(2);
    let chan = k.create_ipc_pair(2);
    let sent = Rc::new(RefCell::new(0u32));
    let drained = Rc::new(RefCell::new(0u32));

    let s = sent.clone();
    let mut pstep = 0;
    let mut fd = Fd(0);
    k.spawn(
        h,
        Nice::NORMAL,
        "producer",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            pstep += 1;
            match pstep {
                1 => Syscall::IpcAttach {
                    chan,
                    side: Side::A,
                },
                2..=6 => {
                    if pstep == 2 {
                        fd = last.expect_fd();
                    } else {
                        *s.borrow_mut() += 1;
                    }
                    Syscall::IpcSend {
                        fd,
                        msg: IpcMsg::new(pstep, 0, 0),
                    }
                }
                _ => {
                    *s.borrow_mut() += 1;
                    Syscall::Exit
                }
            }
        }),
    );

    let d = drained.clone();
    let mut cstep = 0;
    let mut cfd = Fd(0);
    k.spawn(
        h,
        Nice::NORMAL,
        "consumer",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            cstep += 1;
            match cstep {
                1 => Syscall::IpcAttach {
                    chan,
                    side: Side::B,
                },
                2 => {
                    cfd = last.expect_fd();
                    // Let the producer hit the capacity limit first.
                    Syscall::Sleep(SimDuration::from_millis(50))
                }
                3..=7 => {
                    if cstep > 3 {
                        *d.borrow_mut() += 1;
                    }
                    Syscall::IpcRecv { fd: cfd }
                }
                _ => {
                    *d.borrow_mut() += 1;
                    Syscall::Exit
                }
            }
        }),
    );

    k.run_until(secs(2));
    assert_eq!(*sent.borrow(), 5, "all sends eventually complete");
    assert_eq!(*drained.borrow(), 5);
}

/// Spawns a process that attaches to `side` of `chan` and sends forever
/// without receiving: once its direction is full, it blocks.
fn spawn_stuck_sender(k: &mut Kernel, h: HostId, chan: ChanId, side: Side) -> ProcId {
    let mut step = 0;
    let mut fd = Fd(0);
    k.spawn(
        h,
        Nice::NORMAL,
        format!("peer-{chan:?}-{side:?}"),
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            step += 1;
            match step {
                1 => Syscall::IpcAttach { chan, side },
                _ => {
                    if step == 2 {
                        fd = last.expect_fd();
                    }
                    Syscall::IpcSend {
                        fd,
                        msg: IpcMsg::new(step, 0, 0),
                    }
                }
            }
        }),
    )
}

#[test]
fn ipc_deadlock_is_detected() {
    let mut k = free_kernel();
    let h = k.add_host(2);
    let chan = k.create_ipc_pair(1);

    // Both sides fill their direction and then block on a second send;
    // neither ever receives: the §6 supervisor/worker deadlock in miniature.
    for side in [Side::A, Side::B] {
        spawn_stuck_sender(&mut k, h, chan, side);
    }

    let outcome = k.run_until(secs(1));
    assert!(matches!(outcome, RunOutcome::Quiescent { .. }));
    let cycle = k.find_ipc_deadlock().expect("deadlock should be detected");
    assert_eq!(cycle.len(), 2);
    assert_eq!(k.blocked_summary().len(), 2);
}

#[test]
fn ipc_deadlock_report_is_deterministic() {
    let mut k = free_kernel();
    let h = k.add_host(2);
    let first = k.create_ipc_pair(1);
    let second = k.create_ipc_pair(1);
    // Two disjoint deadlocks with interleaved pids: {0, 2} and {1, 3}.
    let pids = [
        spawn_stuck_sender(&mut k, h, first, Side::B),
        spawn_stuck_sender(&mut k, h, second, Side::A),
        spawn_stuck_sender(&mut k, h, first, Side::A),
        spawn_stuck_sender(&mut k, h, second, Side::B),
    ];
    assert!(matches!(k.run_until(secs(1)), RunOutcome::Quiescent { .. }));
    assert_eq!(k.blocked_summary().len(), 4);
    // The lowest pid's cycle, starting at that pid, on every call.
    for _ in 0..20 {
        assert_eq!(k.find_ipc_deadlock(), Some(vec![pids[0], pids[2]]));
    }
}

#[test]
fn lock_contention_yields_and_eventually_acquires() {
    let mut k = Kernel::new(NetConfig::lan(), CostModel::opteron_2006(), 5);
    let h = k.add_host(2);
    let lock = k.create_lock("shared_table");
    let finished = Rc::new(RefCell::new(0u32));

    for i in 0..2 {
        let fin = finished.clone();
        let mut step = 0;
        k.spawn(
            h,
            Nice::NORMAL,
            format!("locker{i}"),
            Box::new(move |_: &mut ResumeCtx, _| {
                step += 1;
                match step {
                    1 => Syscall::LockAcquire { lock },
                    2 => Syscall::Compute {
                        ns: 5_000_000, // hold the lock for 5 ms
                        tag: "user/critical_section",
                    },
                    3 => Syscall::LockRelease { lock },
                    _ => {
                        *fin.borrow_mut() += 1;
                        Syscall::Exit
                    }
                }
            }),
        );
    }

    k.run_until(secs(1));
    assert_eq!(*finished.borrow(), 2);
    let l = k.lock(lock);
    assert_eq!(l.acquisitions, 2);
    assert!(l.contentions > 0, "the second locker must have spun");
    assert!(k.stats().lock_yields > 0);
    assert!(k.profiler(h).ns_for("kernel/sched_yield") > 0);
}

#[test]
fn high_priority_process_preempts_cpu_hogs() {
    // One core, one infinite hog, plus a sleeper that must run promptly
    // after its timer despite the hog — but only at high priority.
    fn latency_with(nice: Nice) -> SimDuration {
        let mut k = Kernel::new(NetConfig::lan(), CostModel::opteron_2006(), 5);
        let h = k.add_host(1);
        k.spawn(
            h,
            Nice::NORMAL,
            "hog",
            Box::new(move |_: &mut ResumeCtx, _| Syscall::Compute {
                ns: 1_000_000,
                tag: "user/hog",
            }),
        );
        let woke_at = Rc::new(RefCell::new(SimTime::ZERO));
        let woke = woke_at.clone();
        let mut step = 0;
        k.spawn(
            h,
            nice,
            "sleeper",
            Box::new(move |ctx: &mut ResumeCtx, _| {
                step += 1;
                match step {
                    1 => Syscall::Sleep(SimDuration::from_millis(10)),
                    _ => {
                        *woke.borrow_mut() = ctx.now;
                        Syscall::Exit
                    }
                }
            }),
        );
        k.run_until(SimTime::ZERO + SimDuration::from_millis(800));
        let woke = *woke_at.borrow();
        assert!(woke > SimTime::ZERO, "sleeper never ran");
        woke - (SimTime::ZERO + SimDuration::from_millis(10))
    }

    let fast = latency_with(Nice::HIGHEST);
    let slow = latency_with(Nice::NORMAL);
    assert!(
        fast < SimDuration::from_millis(1),
        "high priority should preempt promptly, took {fast}"
    );
    assert!(
        slow > fast * 10,
        "normal priority should wait behind the hog's quantum: slow={slow} fast={fast}"
    );
}

#[test]
fn equal_priority_hogs_share_core_via_quantum() {
    let mut k = Kernel::new(NetConfig::lan(), CostModel::opteron_2006(), 5);
    let h = k.add_host(1);
    let mut pids = Vec::new();
    for i in 0..2 {
        pids.push(k.spawn(
            h,
            Nice::NORMAL,
            format!("hog{i}"),
            Box::new(move |_: &mut ResumeCtx, _| Syscall::Compute {
                ns: 1_000_000,
                tag: "user/hog",
            }),
        ));
    }
    k.run_until(SimTime::ZERO + SimDuration::from_millis(400));
    let a = k.proc_cpu_ns(pids[0]);
    let b = k.proc_cpu_ns(pids[1]);
    assert!(a > 100_000_000, "hog0 starved: {a}");
    assert!(b > 100_000_000, "hog1 starved: {b}");
    // Timeslice-grained sharing, not per-burst ping-pong: few switches.
    assert!(
        k.stats().context_switches < 32,
        "too many context switches: {}",
        k.stats().context_switches
    );
}

#[test]
fn identical_seeds_replay_identically() {
    fn run() -> (u64, u64, u64) {
        let mut k = free_kernel();
        let sh = k.add_host(2);
        let ch = k.add_host(2);
        // A small mesh of senders and one sink.
        let mut sstep = 0;
        k.spawn(
            sh,
            Nice::NORMAL,
            "sink",
            Box::new(move |_: &mut ResumeCtx, last: SysResult| {
                sstep += 1;
                match sstep {
                    1 => udp_bind(5060),
                    2 => Syscall::MsgRecv {
                        fd: last.expect_fd(),
                    },
                    n if n < 30 => Syscall::MsgRecv { fd: Fd(0) },
                    _ => Syscall::Exit,
                }
            }),
        );
        for i in 0..4 {
            let mut cstep = 0;
            let mut fd = Fd(0);
            k.spawn(
                ch,
                Nice::NORMAL,
                format!("gen{i}"),
                Box::new(move |_: &mut ResumeCtx, last: SysResult| {
                    cstep += 1;
                    match cstep {
                        1 => Syscall::MsgBind {
                            proto: MsgProto::Udp,
                            port: None,
                        },
                        n if n < 9 => {
                            if n == 2 {
                                fd = last.expect_fd();
                            }
                            Syscall::MsgSend {
                                fd,
                                to: SockAddr::new(siperf_simnet::HostId(0), 5060),
                                data: bytes_from(vec![i as u8]),
                            }
                        }
                        _ => Syscall::Exit,
                    }
                }),
            );
        }
        k.run_until(secs(1));
        (
            k.stats().syscalls,
            k.profiler(sh).total_ns(),
            k.net().stats().udp_sent,
        )
    }
    assert_eq!(run(), run());
}

#[test]
fn close_releases_endpoint_budget() {
    let mut k = free_kernel();
    let h = k.add_host(1);
    let mut step = 0;
    let mut fd = Fd(0);
    k.spawn(
        h,
        Nice::NORMAL,
        "binder",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            step += 1;
            match step {
                1 => udp_bind(5060),
                2 => {
                    fd = last.expect_fd();
                    Syscall::Close { fd }
                }
                3 => {
                    assert!(matches!(last, SysResult::Done));
                    // Double close is an error.
                    Syscall::Close { fd }
                }
                4 => {
                    assert!(last.is_err());
                    Syscall::Exit
                }
                _ => Syscall::Exit,
            }
        }),
    );
    k.run_until(secs(1));
    assert_eq!(k.net().endpoints_on(siperf_simnet::HostId(0)), 0);
}

#[test]
fn exit_closes_leaked_descriptors() {
    let mut k = free_kernel();
    let h = k.add_host(1);
    let mut step = 0;
    k.spawn(
        h,
        Nice::NORMAL,
        "leaker",
        Box::new(move |_: &mut ResumeCtx, _| {
            step += 1;
            match step {
                1 => udp_bind(5060),
                2 => udp_bind(5061),
                _ => Syscall::Exit,
            }
        }),
    );
    k.run_until(secs(1));
    assert_eq!(k.net().endpoints_on(siperf_simnet::HostId(0)), 0);
}

#[test]
fn sctp_message_roundtrip_via_syscalls() {
    let mut k = free_kernel();
    let sh = k.add_host(1);
    let ch = k.add_host(1);
    let got = Rc::new(RefCell::new(Vec::<Vec<u8>>::new()));

    let g = got.clone();
    let mut sstep = 0;
    let mut sfd = Fd(0);
    k.spawn(
        sh,
        Nice::NORMAL,
        "server",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            sstep += 1;
            match sstep {
                1 => Syscall::MsgBind {
                    proto: MsgProto::Sctp,
                    port: Some(5060),
                },
                2 => {
                    sfd = last.expect_fd();
                    Syscall::MsgRecv { fd: sfd }
                }
                3 => match last {
                    SysResult::Datagram { from, data } => {
                        g.borrow_mut().push(data.to_vec());
                        Syscall::MsgSend {
                            fd: sfd,
                            to: from,
                            data: bytes_from(b"ack".to_vec()),
                        }
                    }
                    other => panic!("expected a message, got {other:?}"),
                },
                _ => Syscall::Exit,
            }
        }),
    );

    let g2 = got.clone();
    let mut cstep = 0;
    let mut cfd = Fd(0);
    k.spawn(
        ch,
        Nice::NORMAL,
        "client",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            cstep += 1;
            match cstep {
                1 => Syscall::MsgBind {
                    proto: MsgProto::Sctp,
                    port: None,
                },
                2 => {
                    cfd = last.expect_fd();
                    Syscall::MsgSend {
                        fd: cfd,
                        to: SockAddr::new(siperf_simnet::HostId(0), 5060),
                        data: bytes_from(b"hello".to_vec()),
                    }
                }
                3 => Syscall::MsgRecv { fd: cfd },
                4 => {
                    if let SysResult::Datagram { data, .. } = last {
                        g2.borrow_mut().push(data.to_vec());
                    }
                    Syscall::Exit
                }
                _ => Syscall::Exit,
            }
        }),
    );

    k.run_until(secs(2));
    assert_eq!(
        got.borrow().as_slice(),
        &[b"hello".to_vec(), b"ack".to_vec()]
    );
}

/// One echo over `proto` between two hosts: the server binds a fixed
/// port, the client an ephemeral one. Returns the kernel, both hosts, and
/// every result the two processes saw, in order.
fn msg_echo(proto: MsgProto) -> (Kernel, [HostId; 2], Vec<SysResult>) {
    let mut k = free_kernel();
    let hosts = [k.add_host(1), k.add_host(1)];
    let seen = Rc::new(RefCell::new(Vec::new()));
    let (s_seen, c_seen) = (seen.clone(), seen.clone());
    let mut fd = Fd(0);
    k.spawn(
        hosts[0],
        Nice::NORMAL,
        "server",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            s_seen.borrow_mut().push(last.clone());
            match last {
                SysResult::Start => Syscall::MsgBind {
                    proto,
                    port: Some(5060),
                },
                SysResult::NewFd(bound) => {
                    fd = bound;
                    Syscall::MsgRecv { fd }
                }
                SysResult::Datagram { from, data } => Syscall::MsgSend { fd, to: from, data },
                _ => Syscall::Exit,
            }
        }),
    );
    let server = SockAddr::new(hosts[0], 5060);
    let mut fd = Fd(0);
    k.spawn(
        hosts[1],
        Nice::NORMAL,
        "client",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            c_seen.borrow_mut().push(last.clone());
            match last {
                SysResult::Start => Syscall::MsgBind { proto, port: None },
                SysResult::NewFdPort { fd: bound, .. } => {
                    fd = bound;
                    Syscall::MsgSend {
                        fd,
                        to: server,
                        data: bytes_from(b"ping".to_vec()),
                    }
                }
                SysResult::Done => Syscall::MsgRecv { fd },
                _ => Syscall::Exit,
            }
        }),
    );
    k.run_until(secs(1));
    let seen = seen.borrow().clone();
    (k, hosts, seen)
}

#[test]
fn msg_syscalls_follow_the_protocol_fixed_at_bind() {
    for (proto, ours, other) in [
        (MsgProto::Udp, "udp", "sctp"),
        (MsgProto::Sctp, "sctp", "udp"),
    ] {
        let (k, hosts, seen) = msg_echo(proto);
        let count = |f: fn(&SysResult) -> bool| seen.iter().filter(|r| f(r)).count();
        assert_eq!(count(|r| matches!(r, SysResult::NewFdPort { .. })), 1);
        assert_eq!(count(|r| matches!(r, SysResult::Datagram { .. })), 2);
        assert_eq!(count(|r| r.is_err()), 0, "{seen:?}");
        // Each host sent once and received once, charged to the bound
        // protocol's kernel functions only.
        for h in hosts {
            let prof = k.profiler(h);
            for call in ["send", "recv"] {
                assert!(prof.ns_for(&format!("kernel/{ours}_{call}")) > 0);
                assert_eq!(prof.ns_for(&format!("kernel/{other}_{call}")), 0);
            }
        }
    }
}

#[test]
fn msg_syscalls_on_a_stream_or_ipc_fd_are_invalid() {
    let mut k = free_kernel();
    let h = k.add_host(1);
    let chan = k.create_ipc_pair(1);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let s = seen.clone();
    let mut script = vec![
        Syscall::TcpListen {
            port: 5060,
            backlog: 1,
        },
        Syscall::IpcAttach {
            chan,
            side: Side::A,
        },
    ];
    let mut fds = Vec::new();
    k.spawn(
        h,
        Nice::NORMAL,
        "confused",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            match last {
                SysResult::NewFd(fd) => fds.push(fd),
                SysResult::Err(e) => s.borrow_mut().push(e),
                _ => {}
            }
            if let Some(next) = script.pop() {
                return next;
            }
            match fds.pop() {
                Some(fd) => {
                    script.push(Syscall::MsgRecv { fd });
                    Syscall::MsgSend {
                        fd,
                        to: SockAddr::new(h, 7000),
                        data: bytes_from(vec![1]),
                    }
                }
                None => Syscall::Exit,
            }
        }),
    );
    k.run_until(secs(1));
    assert_eq!(*seen.borrow(), vec![Errno::InvalidOp; 4]);
    // A descriptor that is neither protocol is charged as UDP.
    assert!(k.profiler(h).ns_for("kernel/udp_send") > 0);
    assert!(k.profiler(h).ns_for("kernel/udp_recv") > 0);
}

#[test]
fn threads_share_one_descriptor_table() {
    let mut k = free_kernel();
    let h = k.add_host(2);
    let sink_host = k.add_host(1);
    let got = Rc::new(RefCell::new(Vec::<Vec<u8>>::new()));

    // Sink on another host.
    let g = got.clone();
    let mut sstep = 0;
    k.spawn(
        sink_host,
        Nice::NORMAL,
        "sink",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            sstep += 1;
            match sstep {
                1 => udp_bind(5060),
                2 => Syscall::MsgRecv {
                    fd: last.expect_fd(),
                },
                3 => {
                    if let SysResult::Datagram { data, .. } = last {
                        g.borrow_mut().push(data.to_vec());
                    }
                    Syscall::Exit
                }
                _ => Syscall::Exit,
            }
        }),
    );

    // Thread A binds a socket and parks; it never sends anything.
    let fd_cell = Rc::new(RefCell::new(None::<Fd>));
    let fc = fd_cell.clone();
    let mut astep = 0;
    let binder = k.spawn(
        h,
        Nice::NORMAL,
        "binder",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            astep += 1;
            match astep {
                1 => Syscall::MsgBind {
                    proto: MsgProto::Udp,
                    port: None,
                },
                2 => {
                    *fc.borrow_mut() = Some(last.expect_fd());
                    Syscall::Sleep(SimDuration::from_millis(50))
                }
                _ => Syscall::Exit,
            }
        }),
    );

    // Thread B (same fd table) uses the descriptor thread A created,
    // without any descriptor passing.
    let fc2 = fd_cell.clone();
    let mut bstep = 0;
    k.spawn_thread(
        Nice::NORMAL,
        "user_thread",
        Box::new(move |_: &mut ResumeCtx, _| {
            bstep += 1;
            match bstep {
                1 => Syscall::Sleep(SimDuration::from_millis(10)),
                2 => match *fc2.borrow() {
                    Some(fd) => Syscall::MsgSend {
                        fd,
                        to: SockAddr::new(siperf_simnet::HostId(1), 5060),
                        data: bytes_from(b"from sibling thread".to_vec()),
                    },
                    None => panic!("binder thread should have run first"),
                },
                _ => Syscall::Exit,
            }
        }),
        binder,
    );

    k.run_until(secs(1));
    assert_eq!(got.borrow().as_slice(), &[b"from sibling thread".to_vec()]);
}

#[test]
fn shared_fd_table_survives_first_thread_exit() {
    let mut k = free_kernel();
    let h = k.add_host(1);

    // Thread A binds then exits immediately; its exit must NOT close the
    // shared descriptor, because thread B is still alive.
    let fd_cell = Rc::new(RefCell::new(None::<Fd>));
    let fc = fd_cell.clone();
    let mut astep = 0;
    let a = k.spawn(
        h,
        Nice::NORMAL,
        "short_lived",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            astep += 1;
            match astep {
                1 => udp_bind(7000),
                _ => {
                    *fc.borrow_mut() = Some(last.expect_fd());
                    Syscall::Exit
                }
            }
        }),
    );
    let ok = Rc::new(RefCell::new(false));
    let ok2 = ok.clone();
    let fc2 = fd_cell.clone();
    let mut bstep = 0;
    k.spawn_thread(
        Nice::NORMAL,
        "long_lived",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            bstep += 1;
            match bstep {
                1 => Syscall::Sleep(SimDuration::from_millis(20)),
                2 => Syscall::MsgSend {
                    fd: fd_cell.borrow().expect("bound"),
                    to: SockAddr::new(siperf_simnet::HostId(0), 7000),
                    data: bytes_from(vec![1]),
                },
                3 => {
                    // Send succeeded: the descriptor was still valid after
                    // the sibling's exit.
                    *ok2.borrow_mut() = !last.is_err();
                    Syscall::Exit
                }
                _ => Syscall::Exit,
            }
        }),
        a,
    );
    let _ = fc2;
    k.run_until(secs(1));
    assert!(
        *ok.borrow(),
        "shared descriptor must outlive the first thread"
    );
    // Once the whole group exited, the endpoint is gone.
    assert_eq!(k.net().endpoints_on(siperf_simnet::HostId(0)), 0);
}

#[test]
fn preemption_statistics_are_recorded() {
    let mut k = Kernel::new(NetConfig::lan(), CostModel::opteron_2006(), 5);
    let h = k.add_host(1);
    k.spawn(
        h,
        Nice::NORMAL,
        "hog",
        Box::new(move |_: &mut ResumeCtx, _| Syscall::Compute {
            ns: 2_000_000,
            tag: "user/hog",
        }),
    );
    let mut step = 0;
    k.spawn(
        h,
        Nice::HIGHEST,
        "vip",
        Box::new(move |_: &mut ResumeCtx, _| {
            step += 1;
            if step > 20 {
                Syscall::Exit
            } else {
                Syscall::Sleep(SimDuration::from_millis(5))
            }
        }),
    );
    k.run_until(SimTime::ZERO + SimDuration::from_millis(200));
    assert!(
        k.stats().preemptions >= 10,
        "the vip must preempt the hog on most wakeups: {:?}",
        k.stats()
    );
}

#[test]
fn kill_frees_core_and_force_releases_locks() {
    let mut k = free_kernel();
    let h = k.add_host(1);
    let lock = k.create_lock("table");

    // The hog grabs the lock and computes forever while holding it.
    let mut hstep = 0;
    let hog = k.spawn(
        h,
        Nice::NORMAL,
        "hog",
        Box::new(move |_: &mut ResumeCtx, _| {
            hstep += 1;
            if hstep == 1 {
                Syscall::LockAcquire { lock }
            } else {
                Syscall::Compute {
                    ns: 1_000_000,
                    tag: "user/hog",
                }
            }
        }),
    );
    k.run_until(SimTime::ZERO + SimDuration::from_millis(10));
    assert!(k.alive(hog));
    assert_eq!(k.lock(lock).holder(), Some(hog));

    assert!(k.kill(hog), "first kill reports success");
    assert!(!k.alive(hog));
    assert!(!k.kill(hog), "second kill is a no-op");
    assert_eq!(
        k.lock(lock).holder(),
        None,
        "crashed holder must be evicted"
    );

    // With the core and the lock free, a newcomer runs to completion.
    let done = Rc::new(RefCell::new(false));
    let done2 = done.clone();
    let mut step = 0;
    k.spawn(
        h,
        Nice::NORMAL,
        "heir",
        Box::new(move |_: &mut ResumeCtx, _| {
            step += 1;
            match step {
                1 => Syscall::LockAcquire { lock },
                2 => Syscall::LockRelease { lock },
                _ => {
                    *done2.borrow_mut() = true;
                    Syscall::Exit
                }
            }
        }),
    );
    let outcome = k.run_until(secs(1));
    assert!(matches!(outcome, RunOutcome::Quiescent { .. }));
    assert!(*done.borrow());
}

#[test]
fn kill_cancels_pending_timers_and_closes_descriptors() {
    let mut k = free_kernel();
    let h = k.add_host(1);
    let woke = Rc::new(RefCell::new(false));
    let woke2 = woke.clone();
    let mut step = 0;
    let pid = k.spawn(
        h,
        Nice::NORMAL,
        "sleeper",
        Box::new(move |_: &mut ResumeCtx, _| {
            step += 1;
            match step {
                1 => udp_bind(6000),
                2 => Syscall::Sleep(SimDuration::from_millis(50)),
                _ => {
                    *woke2.borrow_mut() = true;
                    Syscall::Exit
                }
            }
        }),
    );
    // Let it bind and fall asleep, then crash it mid-sleep.
    k.run_until(SimTime::ZERO + SimDuration::from_millis(5));
    assert_eq!(k.net().endpoints_on(h), 1);
    assert!(k.kill(pid));
    assert_eq!(
        k.net().endpoints_on(h),
        0,
        "descriptors must be reclaimed on kill"
    );
    let outcome = k.run_until(secs(1));
    assert!(matches!(outcome, RunOutcome::Quiescent { .. }));
    assert!(!*woke.borrow(), "the cancelled timer must never fire");
}

#[test]
fn an_inherited_socket_outlives_every_other_holder() {
    let mut k = free_kernel();
    let h = k.add_host(2);
    let peer = k.add_host(1);

    // Receiver on the peer host records what arrives on port 7000.
    let got = Rc::new(RefCell::new(Vec::<u8>::new()));
    let got2 = got.clone();
    let mut rstep = 0;
    k.spawn(
        peer,
        Nice::NORMAL,
        "receiver",
        Box::new(move |_: &mut ResumeCtx, last: SysResult| {
            rstep += 1;
            match rstep {
                1 => udp_bind(7000),
                2 => {
                    let fd = last.expect_fd();
                    Syscall::MsgRecv { fd }
                }
                _ => {
                    if let SysResult::Datagram { data, .. } = last {
                        got2.borrow_mut().extend_from_slice(&data);
                    }
                    Syscall::Exit
                }
            }
        }),
    );

    // The socket is bound once; a first child inherits it and parks.
    let sock = k.bind_msg(MsgProto::Udp, h, 6001).expect("bind");
    let parked = k
        .spawn_inheriting(h, Nice::NORMAL, "parked", &[sock], |fds| {
            assert_eq!(fds, [Fd(0)]);
            Box::new(|_: &mut ResumeCtx, _| Syscall::Sleep(SimDuration::from_secs(10)))
        })
        .expect("socket open");
    k.run_until(SimTime::ZERO + SimDuration::from_millis(5));

    // A second child inherits it, and the first crashes before the second
    // ever runs (the respawn path).
    let heir = k
        .spawn_inheriting(h, Nice::NORMAL, "heir", &[sock], |fds| {
            let (fd, mut sent) = (fds[0], false);
            Box::new(move |_: &mut ResumeCtx, _| {
                if std::mem::replace(&mut sent, true) {
                    return Syscall::Exit;
                }
                Syscall::MsgSend {
                    fd,
                    to: SockAddr::new(peer, 7000),
                    data: bytes_from(b"hi".to_vec()),
                }
            })
        })
        .expect("socket open");
    assert!(k.kill(parked), "the first holder crashes");

    k.run_until(secs(1));
    assert_eq!(
        &*got.borrow(),
        b"hi",
        "the inherited socket must still work"
    );
    // The heir's exit closed the socket with its last holder.
    assert!(!k.alive(heir));
    let late = k.spawn_inheriting(h, Nice::NORMAL, "late", &[sock], |_| unreachable!());
    assert!(
        matches!(late, Err(Errno::BadFd)),
        "a closed socket is not inherited"
    );
}
