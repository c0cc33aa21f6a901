//! Property tests on the connection table and a worker's idle clock: the
//! §5.3 priority-queue strategy must agree with the baseline linear scan
//! about *what is idle* under arbitrary schedules of activity — only the
//! cost differs.

use proptest::prelude::*;

use siperf_proxy::config::IdleStrategy;
use siperf_proxy::conn::{ConnId, ConnTable};
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::{HostId, SockAddr};

const TIMEOUT: SimDuration = SimDuration::from_secs(10);

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u16),
    Touch(usize),
    Return(usize),
    Hunt,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..500).prop_map(Op::Insert),
        (0usize..64).prop_map(Op::Touch),
        (0usize..64).prop_map(Op::Return),
        Just(Op::Hunt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both strategies report identical idle sets at every hunt point, and
    /// identical surviving tables at the end, across arbitrary interleaved
    /// inserts, touches, returns, and hunts with advancing time.
    #[test]
    fn strategies_agree_under_arbitrary_schedules(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        step_ms in 100u64..8_000,
    ) {
        let mut lin = ConnTable::new(IdleStrategy::LinearScan, TIMEOUT);
        let mut pq = ConnTable::new(IdleStrategy::PriorityQueue, TIMEOUT);
        let mut ids: Vec<ConnId> = Vec::new();
        let mut now_ms = 0u64;

        for op in ops {
            now_ms += step_ms;
            let now = t(now_ms);
            match op {
                Op::Insert(port) => {
                    let peer = SockAddr::new(HostId(1), 10_000 + port);
                    let a = lin.insert(now, peer, 0);
                    let b = pq.insert(now, peer, 0);
                    prop_assert_eq!(a, b);
                    ids.push(a);
                }
                Op::Touch(k) if !ids.is_empty() => {
                    let id = ids[k % ids.len()];
                    lin.touch(id, now);
                    pq.touch(id, now);
                }
                Op::Return(k) if !ids.is_empty() => {
                    let id = ids[k % ids.len()];
                    if lin.get(id).is_some() && lin.get(id).unwrap().returned_at.is_none() {
                        lin.mark_returned(id, now);
                        pq.mark_returned(id, now);
                    }
                }
                Op::Hunt => {
                    let a = lin.hunt(now);
                    let b = pq.hunt(now);
                    let mut a_ret = a.to_return.clone();
                    let mut b_ret = b.to_return.clone();
                    a_ret.sort();
                    b_ret.sort();
                    prop_assert_eq!(&a_ret, &b_ret, "to_return diverged at t={}ms", now_ms);
                    let mut a_des = a.to_destroy.clone();
                    let mut b_des = b.to_destroy.clone();
                    a_des.sort();
                    b_des.sort();
                    prop_assert_eq!(&a_des, &b_des, "to_destroy diverged at t={}ms", now_ms);
                    // Act on the hunt the way the proxy does, so state
                    // evolves identically: returns are marked, destroys
                    // removed.
                    for id in a_ret {
                        lin.mark_returned(id, now);
                        pq.mark_returned(id, now);
                    }
                    for id in a_des {
                        lin.remove(id);
                        pq.remove(id);
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(lin.len(), pq.len());
    }

    /// A worker's hunt over the connections it owns: when only the owner
    /// touches them, both strategies return the same connections at every
    /// hunt. The linear walk reads the shared objects and the queue only
    /// the owner's own touches, so a send by another worker would split
    /// them.
    #[test]
    fn owner_strategies_agree_when_only_the_owner_touches(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        step_ms in 100u64..8_000,
    ) {
        let mut lin = ConnTable::new(IdleStrategy::LinearScan, TIMEOUT);
        let mut pq = ConnTable::new(IdleStrategy::PriorityQueue, TIMEOUT);
        let (mut lin_own, mut pq_own) = (lin.owned_idle(), pq.owned_idle());
        let mut ids: Vec<ConnId> = Vec::new();
        let mut now_ms = 0u64;

        for op in ops {
            now_ms += step_ms;
            let now = t(now_ms);
            match op {
                Op::Insert(port) => {
                    let peer = SockAddr::new(HostId(1), 10_000 + port);
                    let id = lin.insert(now, peer, 0);
                    prop_assert_eq!(id, pq.insert(now, peer, 0));
                    lin_own.adopt(id, now);
                    pq_own.adopt(id, now);
                    ids.push(id);
                }
                // Only connections the worker still owns see its traffic.
                Op::Touch(k) if !ids.is_empty() => {
                    let id = ids[k % ids.len()];
                    if lin.get(id).is_some_and(|o| o.returned_at.is_none()) {
                        lin.touch(id, now);
                        pq.touch(id, now);
                        lin_own.touch(id, now);
                        pq_own.touch(id, now);
                    }
                }
                // The connection dies: its owner forgets it and the
                // supervisor destroys it.
                Op::Return(k) if !ids.is_empty() => {
                    let id = ids[k % ids.len()];
                    lin_own.forget(id);
                    pq_own.forget(id);
                    lin.remove(id);
                    pq.remove(id);
                }
                Op::Hunt => {
                    let a = lin_own.hunt(now, &lin);
                    let mut b = pq_own.hunt(now, &pq);
                    b.to_return.sort();
                    prop_assert_eq!(&a.to_return, &b.to_return, "diverged at t={}ms", now_ms);
                    // The worker returns them; the supervisor marks that.
                    for id in a.to_return {
                        lin.mark_returned(id, now);
                        pq.mark_returned(id, now);
                    }
                }
                _ => {}
            }
        }
    }

    /// The PQ hunt never examines more entries over a run than (touches +
    /// inserts + returns): each heap entry is popped at most once, so the
    /// total work is bounded by the activity, not by table size × hunts —
    /// the asymptotic claim behind the §5.3 fix.
    #[test]
    fn pq_work_is_bounded_by_activity(
        inserts in 1usize..80,
        hunts in 1usize..40,
    ) {
        let mut pq = ConnTable::new(IdleStrategy::PriorityQueue, TIMEOUT);
        for i in 0..inserts {
            pq.insert(t(0), SockAddr::new(HostId(1), 10_000 + i as u16), 0);
        }
        let mut examined = 0;
        for h in 0..hunts {
            // Hunt long after everything expired, repeatedly.
            let hunt = pq.hunt(t(20_000 + h as u64));
            examined += hunt.examined;
            for id in hunt.to_destroy {
                pq.remove(id);
            }
        }
        // Each of `inserts` entries pops at most twice (once expiring as
        // owned → reinserted, once as returned/destroyed after action) —
        // with no action taken on `to_return`, reinsertion caps at one
        // extra pop per hunt round for still-owned entries.
        prop_assert!(
            examined <= (inserts * (hunts + 1)) as u64,
            "examined {examined} with {inserts} inserts, {hunts} hunts"
        );
    }
}

/// A deterministic regression: returned connections are invisible to
/// `lookup_peer` (the route must fall back to reconnecting), but still
/// present in the table until destroyed.
#[test]
fn returned_connections_are_not_routes() {
    let mut tab = ConnTable::new(IdleStrategy::LinearScan, TIMEOUT);
    let peer = SockAddr::new(HostId(2), 30_000);
    let id = tab.insert(t(0), peer, 0);
    assert_eq!(tab.lookup_peer(peer), Some(id));
    tab.mark_returned(id, t(1));
    assert_eq!(
        tab.lookup_peer(peer),
        None,
        "half-closed conns are unusable"
    );
    assert!(
        tab.get(id).is_some(),
        "object lives until the supervisor reaps it"
    );
    // A fresh connection to the same peer becomes the route again.
    let id2 = tab.insert(t(2), peer, 1);
    assert_eq!(tab.lookup_peer(peer), Some(id2));
}
