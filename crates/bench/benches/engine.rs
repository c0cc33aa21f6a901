//! Criterion micro-benchmarks of the simulator's own hot paths: the event
//! queue, the SIP parser/serializer, the stream framer, the proxy core's
//! INVITE forward, and a full small-scenario step. These guard the simulator's wall-clock performance
//! (figure regeneration runs millions of events) rather than the paper's
//! results.

use std::cell::{Cell, RefCell};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use siperf_proxy::{Plan, ProxyCore};
use siperf_simcore::queue::EventQueue;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::{HostId, SockAddr};
use siperf_sip::framer::StreamFramer;
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::StatusCode;
use siperf_sip::parse::parse_message;
use siperf_workload::{Scenario, Transport};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("schedule_pop_10k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..10_000u64 {
                    // Pseudo-random interleaving without a RNG in the loop.
                    q.schedule(
                        SimTime::from_nanos(i.wrapping_mul(2654435761) % 1_000_000),
                        i,
                    );
                }
                let mut n = 0u64;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_sip(c: &mut Criterion) {
    let alice = CallParty::new("alice", "h1:20001");
    let bob = CallParty::new("bob", "h2:20002");
    let invite = gen::invite(&alice, &bob, "sip.lab", "call-1", "z9hG4bK1", "UDP");
    let wire = invite.to_bytes();

    let mut group = c.benchmark_group("sip");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("parse_invite", |b| {
        b.iter(|| parse_message(std::hint::black_box(&wire)).unwrap())
    });
    group.bench_function("serialize_invite", |b| b.iter(|| invite.to_bytes()));
    group.bench_function("proxy_forward_invite", |b| {
        // A stateful UDP core with both parties registered. Only routing
        // the INVITE (100 Trying plus the forward) is timed; between
        // iterations the previous call is answered and reaped so the core
        // holds one live transaction, as it would at low load.
        let (a_src, b_src) = (
            SockAddr::new(HostId(1), 33000),
            SockAddr::new(HostId(2), 33001),
        );
        let core = RefCell::new(ProxyCore::new(
            "h0:5060".into(),
            siperf_proxy::Transport::Udp,
            true,
        ));
        for (party, src) in [(&alice, a_src), (&bob, b_src)] {
            let reg = gen::register(party, "sip.lab", 1, "z9hG4bKreg", "UDP");
            core.borrow_mut().handle_message(SimTime::ZERO, reg, src);
        }
        let now = Cell::new(SimTime::ZERO);
        let calls = Cell::new(0u64);
        let last: RefCell<Option<Plan>> = RefCell::new(None);
        b.iter_batched(
            || {
                let mut core = core.borrow_mut();
                if let Some(plan) = last.borrow_mut().take() {
                    let fwd = parse_message(&plan.out[1].bytes).unwrap();
                    let ok = gen::response(StatusCode::OK, &fwd, Some("bt"), None);
                    core.handle_message(now.get(), ok, b_src);
                    core.timer_pass(now.get() + SimDuration::from_secs(6));
                }
                now.set(now.get() + SimDuration::from_secs(10));
                calls.set(calls.get() + 1);
                let n = calls.get();
                gen::invite(
                    &alice,
                    &bob,
                    "sip.lab",
                    &format!("call-{n}"),
                    &format!("z9hG4bK{n}"),
                    "UDP",
                )
            },
            |inv| {
                let plan = core.borrow_mut().handle_message(now.get(), inv, a_src);
                *last.borrow_mut() = Some(plan);
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("frame_invite_stream", |b| {
        let mut triple = Vec::new();
        for _ in 0..3 {
            triple.extend_from_slice(&wire);
        }
        b.iter(|| {
            let mut f = StreamFramer::new();
            f.push(std::hint::black_box(&triple));
            f.drain_messages().unwrap().len()
        })
    });
    group.finish();
}

fn bench_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario");
    group.sample_size(10);
    group.bench_function("udp_10pairs_200ms", |b| {
        b.iter(|| {
            let mut s = Scenario::builder("bench")
                .transport(Transport::Udp)
                .client_pairs(10)
                .build();
            s.call_start = siperf_simcore::time::SimDuration::from_millis(600);
            s.measure_from = siperf_simcore::time::SimDuration::from_millis(700);
            s.measure = siperf_simcore::time::SimDuration::from_millis(200);
            s.run().ops_total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_sip, bench_scenario);
criterion_main!(benches);
