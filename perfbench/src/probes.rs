//! Standalone timings of each layer's public functions on inputs shaped
//! like the workloads. A traced run multiplies each by a count taken in
//! the run to estimate the layer's share of call-phase host time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use siperf::proxy::{Plan, ProxyCore};
use siperf::simcore::profile::Profiler;
use siperf::simcore::queue::EventQueue;
use siperf::simcore::time::{SimDuration, SimTime};
use siperf::simnet::{bytes_from, HostId, NetConfig, Network, SockAddr};
use siperf::simos::{CostModel, Kernel, Nice, ResumeCtx, SysResult, Syscall};
use siperf::sip::framer::StreamFramer;
use siperf::sip::gen::{self, CallParty};
use siperf::sip::{parse_message, SipMessage, StatusCode};
use siperf::workload::Transport;

const DOMAIN: &str = "sip.lab";

/// `ProxyCore::handle_message` calls per call in [`core_ns_per_call`].
pub const CORE_MSGS_PER_CALL: u64 = 6;

/// Runs `batch` once to warm up, then repeats it until `seconds` of host
/// time have passed and returns host nanoseconds per unit of work;
/// `batch` returns how many units it did.
fn ns_per_unit(seconds: f64, mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += batch();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && units > 0 {
            return elapsed * 1e9 / units as f64;
        }
    }
}

/// Host ns per syscall of a kernel whose `procs` closure processes share
/// one `cores`-core host and loop a `Compute` syscall: the burst event,
/// its queue push and pop, the profiler charge and the `resume` round
/// trip.
pub fn syscall_ns(procs: usize, cores: usize, seconds: f64) -> f64 {
    let mut kernel = Kernel::new(NetConfig::lan(), CostModel::opteron_2006(), 1);
    let host = kernel.add_host(cores.max(1));
    for i in 0..procs.max(1) {
        let mut step = 0u64;
        let body = move |_: &mut ResumeCtx, _: SysResult| {
            step += 1;
            Syscall::Compute {
                ns: 1_000 + 100 * (step % 7),
                tag: "user/probe",
            }
        };
        kernel.spawn(host, Nice::NORMAL, format!("probe{i}"), Box::new(body));
    }
    let mut until = SimTime::ZERO;
    let mut seen = 0;
    ns_per_unit(seconds, || {
        until += SimDuration::from_millis(1);
        kernel.run_until(until);
        let total = kernel.stats().syscalls;
        let done = total - seen;
        seen = total;
        done
    })
}

/// Host ns per `EventQueue` schedule+pop pair with `depth` events pending.
pub fn queue_ns(depth: usize, seconds: f64) -> f64 {
    let mut queue = EventQueue::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 1_000_000
    };
    for i in 0..depth.max(1) {
        queue.schedule(SimTime::from_nanos(next()), i);
    }
    ns_per_unit(seconds, || {
        for _ in 0..10_000 {
            let (at, event) = queue.pop().expect("the queue keeps its depth");
            queue.schedule(at + SimDuration::from_nanos(1 + next()), black_box(event));
        }
        10_000
    })
}

/// Host ns per `Profiler::record` call, cycling over `tags`.
pub fn profile_record_ns(tags: &[&'static str], seconds: f64) -> f64 {
    let tags: &[&'static str] = if tags.is_empty() {
        &["user/probe"]
    } else {
        tags
    };
    let mut profiler = Profiler::new();
    let mut i = 0usize;
    ns_per_unit(seconds, || {
        for _ in 0..10_000 {
            profiler.record(black_box(tags[i % tags.len()]), 1 + (i as u64 & 1023));
            i += 1;
        }
        10_000
    })
}

/// Host ns per datagram through simnet: `udp_send`, `handle_event` on the
/// delivery it scheduled, then `udp_try_recv`, with `payloads` in turn.
pub fn udp_ns(payloads: &[Vec<u8>], seconds: f64) -> f64 {
    const BATCH: usize = 256;
    let mut net = Network::new(NetConfig::lan(), 1);
    let (a, b) = (net.add_host(), net.add_host());
    let from = net
        .udp_bind(a, 5060)
        .expect("a fresh network has the port free");
    let inbox = net
        .udp_bind(b, 5060)
        .expect("a fresh network has the port free");
    let to = SockAddr::new(b, 5060);
    let data: Vec<_> = payloads.iter().map(|p| bytes_from(p.clone())).collect();
    let mut now = SimTime::ZERO;
    ns_per_unit(seconds, || {
        for d in data.iter().cycle().take(BATCH) {
            net.udp_send(now, from, to, d.clone())
                .expect("sending from a bound socket");
        }
        for (at, event) in net.take_events() {
            net.handle_event(at, event);
        }
        net.take_outcomes();
        for _ in 0..BATCH {
            black_box(net.udp_try_recv(inbox).expect("a lossless LAN delivers"));
        }
        now += SimDuration::from_millis(1);
        BATCH as u64
    })
}

/// One registered call as the proxy sees it: REGISTER, INVITE, 100, 180,
/// 200, ACK, BYE and the BYE's 200, built with `sip::gen`.
pub fn call_mix(transport: Transport) -> Vec<SipMessage> {
    let t = transport.token();
    let caller = CallParty::new("c0", "h1:20000");
    let callee = CallParty::new("e0", "h2:20001");
    let invite = gen::invite(&caller, &callee, DOMAIN, "mix", "z9hG4bKi0", t);
    let bye = gen::bye(&caller, &callee, DOMAIN, "mix", "bt-e0", "z9hG4bKb0", t);
    let contact = Some(callee.contact());
    vec![
        gen::register(&callee, DOMAIN, 1, "z9hG4bKr0", t),
        gen::response(StatusCode::TRYING, &invite, None, None),
        gen::response(StatusCode::RINGING, &invite, Some("bt-e0"), None),
        gen::response(StatusCode::OK, &invite, Some("bt-e0"), contact),
        gen::ack(&caller, &callee, DOMAIN, "mix", "bt-e0", "z9hG4bKa0", t),
        gen::response(StatusCode::OK, &bye, None, None),
        invite,
        bye,
    ]
}

/// Host ns per `parse_message` over the wire forms of the call mix.
pub fn parse_ns(wires: &[Vec<u8>], seconds: f64) -> f64 {
    ns_per_unit(seconds, || {
        for wire in wires {
            black_box(parse_message(black_box(wire)).expect("generated messages parse"));
        }
        wires.len() as u64
    })
}

/// Host ns per `SipMessage::to_bytes` over the call mix.
pub fn serialize_ns(msgs: &[SipMessage], seconds: f64) -> f64 {
    ns_per_unit(seconds, || {
        for msg in msgs {
            black_box(black_box(msg).to_bytes());
        }
        msgs.len() as u64
    })
}

/// Host ns per message through `StreamFramer`: the call mix arrives as
/// one byte stream in MSS-sized pushes, each followed by a drain.
pub fn frame_ns(wires: &[Vec<u8>], seconds: f64) -> f64 {
    let stream = wires.concat();
    let mss = NetConfig::lan().mss;
    let mut framer = StreamFramer::new();
    ns_per_unit(seconds, || {
        let mut framed = 0;
        for segment in stream.chunks(mss) {
            framer.push(black_box(segment));
            framed += framer.drain_messages().expect("a well-framed stream").len() as u64;
        }
        framed
    })
}

/// The forwarded request of a routing plan, parsed back.
fn forwarded(plan: &Plan) -> Result<SipMessage, String> {
    let out = plan.out.last().ok_or("the proxy forwarded nothing")?;
    parse_message(&out.bytes)
        .map_err(|e| format!("the proxy forwarded an unparsable message: {e:?}"))
}

/// Host ns of `ProxyCore::handle_message` per call between two registered
/// phones: the INVITE, 180, 200, ACK, BYE and the BYE's 200, each built
/// and parsed before its timed call. An untimed timer pass every thousand
/// calls reaps lingering transactions, as the proxy's timer process does.
///
/// # Errors
///
/// Fails if the core does not forward every message of every call, which
/// would make the timing meaningless.
pub fn core_ns_per_call(transport: Transport, seconds: f64) -> Result<f64, String> {
    let t = transport.token();
    let caller = CallParty::new("c0", "h1:20000");
    let callee = CallParty::new("e0", "h2:20001");
    let caller_src = SockAddr::new(HostId(1), 20_000);
    let callee_src = SockAddr::new(HostId(2), 20_001);
    let mut core = ProxyCore::new("h0:5060".to_string(), transport, true);
    let mut now = SimTime::ZERO;
    core.handle_message(
        now,
        gen::register(&caller, DOMAIN, 1, "z9hG4bKr-c0", t),
        caller_src,
    );
    core.handle_message(
        now,
        gen::register(&callee, DOMAIN, 1, "z9hG4bKr-e0", t),
        callee_src,
    );

    let mut timed = Duration::ZERO;
    let mut route = |core: &mut ProxyCore, msg: SipMessage, src: SockAddr, now: SimTime| {
        let start = Instant::now();
        let plan = core.handle_message(now, msg, src);
        timed += start.elapsed();
        plan
    };
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed().as_secs_f64() < seconds {
        let id = format!("probe-{calls}");
        let invite = gen::invite(
            &caller,
            &callee,
            DOMAIN,
            &id,
            &format!("z9hG4bKi{calls}"),
            t,
        );
        let fwd = forwarded(&route(&mut core, invite, caller_src, now))?;
        let ringing = gen::response(StatusCode::RINGING, &fwd, Some("bt-e0"), None);
        let ok = gen::response(StatusCode::OK, &fwd, Some("bt-e0"), Some(callee.contact()));
        route(&mut core, ringing, callee_src, now);
        route(&mut core, ok, callee_src, now);
        let ack = gen::ack(
            &caller,
            &callee,
            DOMAIN,
            &id,
            "bt-e0",
            &format!("z9hG4bKa{calls}"),
            t,
        );
        route(&mut core, ack, caller_src, now);
        let bye = gen::bye(
            &caller,
            &callee,
            DOMAIN,
            &id,
            "bt-e0",
            &format!("z9hG4bKb{calls}"),
            t,
        );
        let fwd = forwarded(&route(&mut core, bye, caller_src, now))?;
        let bye_ok = gen::response(StatusCode::OK, &fwd, None, None);
        route(&mut core, bye_ok, callee_src, now);
        calls += 1;
        now += SimDuration::from_micros(50);
        if calls.is_multiple_of(1_000) {
            core.timer_pass(now);
        }
    }
    let forwards = core.stats.forwards;
    if forwards != CORE_MSGS_PER_CALL * calls {
        return Err(format!(
            "the proxy core forwarded {forwards} of {} probe messages",
            CORE_MSGS_PER_CALL * calls
        ));
    }
    Ok(timed.as_nanos() as f64 / calls as f64)
}
