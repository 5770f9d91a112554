//! The forward FIFO occupancy model.

use std::collections::VecDeque;

/// Timing model of the core→fabric forward FIFO.
///
/// The FIFO decouples the commit stage from the fabric: the core
/// enqueues a trace packet per monitored instruction; the fabric
/// dequeues one per fabric cycle (slower when a meta-data miss blocks
/// its pipeline). An entry occupies the FIFO from its enqueue until the
/// fabric *accepts* it, so what the model tracks per entry is its
/// scheduled dequeue time.
///
/// With an [`Always`](crate::ForwardPolicy::Always) policy a full FIFO
/// stalls the commit stage — exactly the paper's Figure 5 mechanism.
///
/// # Example
///
/// ```
/// use flexcore::ForwardFifo;
/// let mut fifo = ForwardFifo::new(2);
/// assert_eq!(fifo.push(0, 10), 0);   // dequeued by the fabric at 10
/// assert_eq!(fifo.push(1, 20), 1);   // second slot
/// assert_eq!(fifo.push(2, 30), 10);  // full: commit waits for slot
/// ```
#[derive(Clone, Debug)]
pub struct ForwardFifo {
    depth: usize,
    /// Scheduled dequeue time of each resident entry, oldest first.
    dequeues: VecDeque<u64>,
    stall_cycles: u64,
    peak_occupancy: usize,
}

/// Complete checkpointable state of a [`ForwardFifo`] (the depth is
/// construction state and is not included).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FifoSnapshot {
    /// Scheduled dequeue time of each resident entry, oldest first.
    pub dequeues: Vec<u64>,
    /// Total commit-stall cycles caused by a full FIFO.
    pub stall_cycles: u64,
    /// Highest occupancy observed.
    pub peak_occupancy: u64,
}

impl ForwardFifo {
    /// Creates a FIFO with `depth` entries (the paper's default is 64).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> ForwardFifo {
        assert!(depth > 0, "FIFO needs at least one entry");
        ForwardFifo {
            depth,
            dequeues: VecDeque::with_capacity(depth.min(4096)),
            stall_cycles: 0,
            peak_occupancy: 0,
        }
    }

    /// Configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    fn retire(&mut self, now: u64) {
        while self.dequeues.front().is_some_and(|&d| d <= now) {
            self.dequeues.pop_front();
        }
    }

    /// Occupancy at cycle `now`.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.retire(now);
        self.dequeues.len()
    }

    /// Whether the FIFO is full at cycle `now`.
    pub fn is_full(&mut self, now: u64) -> bool {
        self.occupancy(now) >= self.depth
    }

    /// Enqueues an entry at cycle `now` whose fabric dequeue is
    /// scheduled at `dequeue_at`; returns the cycle at which the commit
    /// stage may proceed (later than `now` only if the FIFO was full).
    pub fn push(&mut self, now: u64, dequeue_at: u64) -> u64 {
        self.retire(now);
        let proceed_at = if self.dequeues.len() < self.depth {
            now
        } else {
            let oldest = self.dequeues.pop_front().expect("full implies nonempty");
            self.stall_cycles += oldest - now;
            oldest
        };
        self.dequeues.push_back(dequeue_at.max(proceed_at));
        self.peak_occupancy = self.peak_occupancy.max(self.dequeues.len());
        proceed_at
    }

    /// The cycle at which a slot becomes available for a new entry:
    /// `now` when the FIFO has room, otherwise the oldest entry's
    /// dequeue time.
    pub fn empty_slot_at(&mut self, now: u64) -> u64 {
        self.retire(now);
        if self.dequeues.len() < self.depth {
            now
        } else {
            *self.dequeues.front().expect("full implies nonempty")
        }
    }

    /// Resident entries right now, *without* retiring anything —
    /// unlike [`occupancy`](ForwardFifo::occupancy), which advances
    /// the retire clock first. This is the value
    /// [`peak_occupancy`](ForwardFifo::peak_occupancy) tracks after
    /// each push, so occupancy samples taken here are exactly
    /// consistent with the peak.
    pub fn resident(&self) -> usize {
        self.dequeues.len()
    }

    /// Cycle at which the FIFO drains completely (the EMPTY signal;
    /// used before traps and at program end).
    pub fn empty_at(&self, now: u64) -> u64 {
        self.dequeues.back().copied().unwrap_or(now).max(now)
    }

    /// Total commit-stall cycles caused by a full FIFO.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Highest occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Captures the FIFO's complete run-time state.
    pub fn snapshot(&self) -> FifoSnapshot {
        FifoSnapshot {
            dequeues: self.dequeues.iter().copied().collect(),
            stall_cycles: self.stall_cycles,
            peak_occupancy: self.peak_occupancy as u64,
        }
    }

    /// Restores state captured by [`ForwardFifo::snapshot`] onto a FIFO
    /// of the same configured depth.
    pub fn restore(&mut self, snap: &FifoSnapshot) {
        self.dequeues = snap.dequeues.iter().copied().collect();
        self.stall_cycles = snap.stall_cycles;
        self.peak_occupancy = snap.peak_occupancy as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_leave_at_their_dequeue_time() {
        let mut f = ForwardFifo::new(4);
        f.push(0, 100);
        f.push(0, 110);
        assert_eq!(f.occupancy(50), 2);
        assert_eq!(f.occupancy(105), 1);
        assert_eq!(f.occupancy(200), 0);
    }

    #[test]
    fn full_fifo_stalls_until_oldest_dequeues() {
        let mut f = ForwardFifo::new(2);
        f.push(0, 40);
        f.push(0, 80);
        let proceed = f.push(10, 120);
        assert_eq!(proceed, 40);
        assert_eq!(f.stall_cycles(), 30);
    }

    #[test]
    fn deep_fifo_absorbs_bursts() {
        let mut deep = ForwardFifo::new(64);
        let mut shallow = ForwardFifo::new(4);
        // A burst of 20 packets at t=0..20, fabric drains 1 per 4
        // cycles.
        for i in 0..20u64 {
            deep.push(i, (i + 1) * 4);
            shallow.push(i, (i + 1) * 4);
        }
        assert_eq!(deep.stall_cycles(), 0);
        assert!(shallow.stall_cycles() > 0);
    }

    #[test]
    fn empty_at_reports_drain_time() {
        let mut f = ForwardFifo::new(4);
        assert_eq!(f.empty_at(7), 7);
        f.push(0, 30);
        f.push(0, 90);
        assert_eq!(f.empty_at(10), 90);
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut f = ForwardFifo::new(8);
        for i in 0..5 {
            f.push(i, 1000);
        }
        assert_eq!(f.peak_occupancy(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_depth_rejected() {
        let _ = ForwardFifo::new(0);
    }
}
