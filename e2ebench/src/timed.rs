//! A timing [`Communicator`] decorator, shaped like `sbp_dist::FaultComm`:
//! it forwards every collective to the wrapped communicator and records
//! wall time, call count and payload bytes per operation.

use edist::mpi::{CommStats, Communicator, Wire};
use std::cell::RefCell;
use std::time::Instant;

/// The collectives EDiSt can issue, in report order.
pub const OPS: [&str; 5] = ["allgatherv", "alltoallv", "broadcast", "gatherv", "barrier"];

/// Totals for one collective kind on one rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStat {
    /// Wall seconds spent inside the collective (compute of peers that
    /// this rank waits for shows up here).
    pub seconds: f64,
    /// Calls made.
    pub calls: u64,
    /// Payload bytes sent plus received, as the wrapped communicator
    /// counts them.
    pub bytes: u64,
}

/// Wraps `inner`, timing every collective.
pub struct TimedComm<'a, C: Communicator> {
    inner: &'a C,
    ops: RefCell<[OpStat; 5]>,
}

impl<'a, C: Communicator> TimedComm<'a, C> {
    /// Starts with all counters at zero.
    pub fn new(inner: &'a C) -> Self {
        TimedComm {
            inner,
            ops: RefCell::new([OpStat::default(); 5]),
        }
    }

    /// Per-op totals so far, indexed like [`OPS`].
    pub fn ops(&self) -> [OpStat; 5] {
        *self.ops.borrow()
    }

    /// Seconds spent in all collectives so far.
    pub fn collective_seconds(&self) -> f64 {
        self.ops.borrow().iter().map(|o| o.seconds).sum()
    }

    fn timed<R>(&self, op: usize, call: impl FnOnce() -> R) -> R {
        let before = wire_bytes(self.inner.stats());
        let started = Instant::now();
        let out = call();
        let seconds = started.elapsed().as_secs_f64();
        let bytes = wire_bytes(self.inner.stats()) - before;
        let mut ops = self.ops.borrow_mut();
        ops[op].seconds += seconds;
        ops[op].calls += 1;
        ops[op].bytes += bytes;
        out
    }
}

fn wire_bytes(s: CommStats) -> u64 {
    s.bytes_sent + s.bytes_received
}

impl<C: Communicator> Communicator for TimedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allgatherv<T: Clone + Send + Wire + 'static>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        self.timed(0, || self.inner.allgatherv(local))
    }

    fn alltoallv<T: Clone + Send + Wire + 'static>(&self, per_dest: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.timed(1, || self.inner.alltoallv(per_dest))
    }

    fn broadcast<T: Clone + Send + Wire + 'static>(&self, root: usize, data: Option<T>) -> T {
        self.timed(2, || self.inner.broadcast(root, data))
    }

    fn gatherv<T: Clone + Send + Wire + 'static>(
        &self,
        root: usize,
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        self.timed(3, || self.inner.gatherv(root, local))
    }

    fn barrier(&self) {
        self.timed(4, || self.inner.barrier())
    }

    fn virtual_time(&self) -> f64 {
        self.inner.virtual_time()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn poison(&self) {
        self.inner.poison()
    }
}
