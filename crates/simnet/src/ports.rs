//! Per-host ephemeral port allocation with TIME_WAIT.
//!
//! The paper's §4.3 configuration discussion hinges on port/descriptor
//! starvation: with OpenSER's default 120-second idle-connection timeout the
//! server "ran out of available ports" under reconnect-heavy workloads.
//! [`PortPool`] models the Linux behaviour that produces it — a bounded
//! ephemeral range, quasi-sequential allocation, and ports held unusable in
//! TIME_WAIT after an active close.

use std::collections::VecDeque;

use siperf_simcore::hash::FastSet;

use crate::addr::Port;
use crate::error::Errno;

/// A host's ephemeral port pool.
#[derive(Debug, Clone)]
pub struct PortPool {
    free: VecDeque<Port>,
    in_use: FastSet<Port>,
    time_wait: FastSet<Port>,
    lo: Port,
    hi: Port,
}

impl PortPool {
    /// Creates a pool covering `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(lo: Port, hi: Port) -> Self {
        assert!(lo <= hi, "empty ephemeral range");
        PortPool {
            free: (lo..=hi).collect(),
            in_use: FastSet::default(),
            time_wait: FastSet::default(),
            lo,
            hi,
        }
    }

    /// Allocates the next free ephemeral port.
    ///
    /// # Errors
    ///
    /// [`Errno::PortsExhausted`] when every port is bound or in TIME_WAIT.
    pub fn allocate(&mut self) -> Result<Port, Errno> {
        let port = self.free.pop_front().ok_or(Errno::PortsExhausted)?;
        self.in_use.insert(port);
        Ok(port)
    }

    /// Releases a port directly back to the pool (passive close: no
    /// TIME_WAIT on this side).
    pub fn release(&mut self, port: Port) {
        if self.in_use.remove(&port) {
            self.free.push_back(port);
        }
    }

    /// Moves a port into TIME_WAIT (active close). The caller is responsible
    /// for scheduling the eventual [`PortPool::release_time_wait`].
    pub fn enter_time_wait(&mut self, port: Port) {
        if self.in_use.remove(&port) {
            self.time_wait.insert(port);
        }
    }

    /// Returns a TIME_WAIT port to the free pool.
    pub fn release_time_wait(&mut self, port: Port) {
        if self.time_wait.remove(&port) {
            self.free.push_back(port);
        }
    }

    /// Number of ports currently available for allocation.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Number of ports sitting in TIME_WAIT.
    pub fn in_time_wait(&self) -> usize {
        self.time_wait.len()
    }

    /// Number of allocated (bound) ports.
    pub fn allocated(&self) -> usize {
        self.in_use.len()
    }

    /// Total pool size.
    pub fn capacity(&self) -> usize {
        (self.hi - self.lo) as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_sequentially_and_exhausts() {
        let mut p = PortPool::new(100, 102);
        assert_eq!(p.allocate().unwrap(), 100);
        assert_eq!(p.allocate().unwrap(), 101);
        assert_eq!(p.allocate().unwrap(), 102);
        assert_eq!(p.allocate(), Err(Errno::PortsExhausted));
        assert_eq!(p.available(), 0);
        assert_eq!(p.allocated(), 3);
    }

    #[test]
    fn release_recycles() {
        let mut p = PortPool::new(100, 100);
        let port = p.allocate().unwrap();
        p.release(port);
        assert_eq!(p.allocate().unwrap(), port);
    }

    #[test]
    fn time_wait_blocks_reuse_until_released() {
        let mut p = PortPool::new(100, 100);
        let port = p.allocate().unwrap();
        p.enter_time_wait(port);
        assert_eq!(p.in_time_wait(), 1);
        assert_eq!(p.allocate(), Err(Errno::PortsExhausted));
        p.release_time_wait(port);
        assert_eq!(p.allocate().unwrap(), port);
    }

    #[test]
    fn releasing_unallocated_port_is_harmless() {
        let mut p = PortPool::new(100, 101);
        p.release(100); // never allocated
        p.release_time_wait(100);
        assert_eq!(p.available(), 2);
        assert_eq!(p.allocate().unwrap(), 100);
    }

    #[test]
    fn capacity_matches_range() {
        assert_eq!(PortPool::new(32768, 61000).capacity(), 28233);
    }

    #[test]
    #[should_panic(expected = "empty ephemeral range")]
    fn rejects_inverted_range() {
        PortPool::new(10, 9);
    }
}
