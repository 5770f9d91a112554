//! Phase taxonomy and the sampled phase profiler.
//!
//! [`PhaseProfiler`] times the simulator from event boundaries alone:
//! the interval since the previous boundary is charged to the phase the
//! closing boundary finishes. The simulator feeds it through its one
//! instrumentation hook (`flexcore::obs::TraceSink`, implemented for
//! this type in `flexcore::obs`, which also owns the event → phase
//! mapping), so the pipeline and the extension environment read no
//! clock of their own.
//!
//! The clock is read only inside sample windows. A window opens at a
//! commit and closes at the next commit; the number of commits between
//! windows is drawn from a fixed-seed xorshift in `[0, 2N−1)` with
//! `N =` [`SAMPLE_EVERY`], so no loop length aliases with a fixed
//! stride and which commits are sampled depends only on the commit
//! count. Each sampled interval is charged less the latency of the one
//! clock read it contains (measured when the profiler is built), and
//! [`PhaseProfiler::stats`] scales the sampled nanoseconds by
//! commits ÷ windows into whole-run estimates.

use std::time::Instant;

/// Mean commit spacing between sample windows.
pub const SAMPLE_EVERY: u64 = 64;

/// Where simulator host time is attributed. Each phase is closed by a
/// set of simulator events; see DESIGN.md "Telemetry & profiling".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The core between two commits: run-loop checks, fetch, decode,
    /// execute and commit timing. Closed by each commit.
    Core,
    /// The forwarding filter and the forward FIFO: policy checks,
    /// drops, elision, enqueue and commit stalls.
    Fifo,
    /// The monitoring extension on the fabric model, meta-data cache
    /// accesses included.
    FabricEval,
}

impl Phase {
    /// Number of phases (array dimension for [`PhaseStats`]).
    pub const COUNT: usize = 3;

    /// Every phase, in fixed presentation order.
    pub fn all() -> [Phase; Phase::COUNT] {
        [Phase::Core, Phase::Fifo, Phase::FabricEval]
    }

    /// Dense index, `0 .. COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in `BENCH_profile.json`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Core => "core",
            Phase::Fifo => "fifo",
            Phase::FabricEval => "fabric_eval",
        }
    }
}

/// Per-phase host-time accounting: span count and total nanoseconds
/// per phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    counts: [u64; Phase::COUNT],
    total_ns: [u64; Phase::COUNT],
}

impl PhaseStats {
    /// Empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one span of `ns` nanoseconds against `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        let i = phase.index();
        self.counts[i] = self.counts[i].saturating_add(1);
        self.total_ns[i] = self.total_ns[i].saturating_add(ns);
    }

    /// Spans recorded against `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Total nanoseconds attributed to `phase`.
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.total_ns[phase.index()]
    }

    /// Total nanoseconds attributed across all phases.
    pub fn grand_total_ns(&self) -> u64 {
        self.total_ns.iter().fold(0u64, |a, &n| a.saturating_add(n))
    }

    /// Folds another stats block into this one (shard merge).
    pub fn merge(&mut self, other: &PhaseStats) {
        for p in Phase::all() {
            let i = p.index();
            self.counts[i] = self.counts[i].saturating_add(other.counts[i]);
            self.total_ns[i] = self.total_ns[i].saturating_add(other.total_ns[i]);
        }
    }
}

/// Sampled wall-clock phase profiler (see the [module docs](self)).
/// Outside a sample window a commit is a countdown decrement and any
/// other boundary a branch; neither reads the clock.
#[derive(Clone, Debug)]
pub struct PhaseProfiler {
    /// Sampled spans, unscaled.
    sampled: PhaseStats,
    /// The previous boundary's timestamp, while a window is open.
    last: Option<Instant>,
    /// Commits that pass before the next window edge (0 while a window
    /// is open: the next commit closes it).
    countdown: u64,
    /// Commits to skip once the open window closes; 0 when the next
    /// window edge opens a window.
    gap: u64,
    rng: u64,
    /// What one clock read adds to every measured interval.
    read_ns: u64,
    /// Commits so far, counting the whole current countdown.
    commits: u64,
    windows: u64,
}

/// The median gap between back-to-back clock reads: every measured
/// interval contains one read's latency, which on a virtual machine
/// (around 45 ns) exceeds a typical commit's host time.
fn clock_read_ns() -> u64 {
    let mut gaps = [0u64; 31];
    for gap in &mut gaps {
        let t = Instant::now();
        *gap = Instant::now().duration_since(t).as_nanos() as u64;
    }
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        let mut prof = PhaseProfiler {
            sampled: PhaseStats::new(),
            last: None,
            countdown: 0,
            gap: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            read_ns: clock_read_ns(),
            commits: 0,
            windows: 0,
        };
        prof.gap = prof.draw_gap();
        prof
    }
}

impl PhaseProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next inter-window gap, uniform in `[0, 2N−1)` (xorshift64).
    fn draw_gap(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % (2 * SAMPLE_EVERY - 1)
    }

    /// A boundary inside the current commit interval: charges the time
    /// since the previous boundary to `phase` when a window is open.
    #[inline(always)]
    pub fn boundary(&mut self, phase: Phase) {
        if self.last.is_some() {
            self.charge(phase);
        }
    }

    #[cold]
    #[inline(never)]
    fn charge(&mut self, phase: Phase) {
        if let Some(t) = self.last {
            let now = Instant::now();
            self.record(phase, t, now);
            self.last = Some(now);
        }
    }

    /// Records the span `t..now`, less the clock read inside it.
    fn record(&mut self, phase: Phase, t: Instant, now: Instant) {
        let ns = now.duration_since(t).as_nanos() as u64;
        self.sampled.record(phase, ns.saturating_sub(self.read_ns));
    }

    /// A commit: closes an open window, charging its last interval to
    /// [`Phase::Core`], and opens the next window when its gap is used
    /// up.
    #[inline(always)]
    pub fn commit(&mut self) {
        if self.countdown == 0 {
            self.window_edge();
        } else {
            self.countdown -= 1;
        }
    }

    #[cold]
    #[inline(never)]
    fn window_edge(&mut self) {
        self.commits += 1;
        let now = self.last.take().map(|t| {
            let now = Instant::now();
            self.record(Phase::Core, t, now);
            self.windows += 1;
            now
        });
        if self.gap == 0 {
            self.last = Some(now.unwrap_or_else(Instant::now));
            self.gap = self.draw_gap();
        } else {
            self.countdown = self.gap - 1;
            self.commits += self.countdown;
            self.gap = 0;
        }
    }

    /// Sample windows closed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Whole-run estimates: span counts as sampled, nanosecond totals
    /// scaled by commits ÷ windows.
    pub fn stats(&self) -> PhaseStats {
        let commits = self.commits - self.countdown;
        let mut out = self.sampled.clone();
        if self.windows > 0 {
            for ns in &mut out.total_ns {
                *ns = (u128::from(*ns) * u128::from(commits) / u128::from(self.windows))
                    .try_into()
                    .unwrap_or(u64::MAX);
            }
        }
        out
    }

    /// Consumes the profiler, yielding [`PhaseProfiler::stats`].
    pub fn into_stats(self) -> PhaseStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_names_stable() {
        for (i, p) in Phase::all().iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::all().len(), Phase::COUNT);
        assert_eq!(Phase::FabricEval.name(), "fabric_eval");
    }

    #[test]
    fn gaps_stay_in_range_and_average_the_stride() {
        let mut prof = PhaseProfiler::new();
        let gaps: Vec<u64> = (0..10_000).map(|_| prof.draw_gap()).collect();
        assert!(gaps.iter().all(|&g| g < 2 * SAMPLE_EVERY - 1));
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((mean + 1.0 - SAMPLE_EVERY as f64).abs() < 2.0, "mean gap {mean}");
    }

    #[test]
    fn windows_close_at_commits_and_scale_to_the_run() {
        let mut prof = PhaseProfiler::new();
        for _ in 0..10_000 {
            prof.commit();
            prof.boundary(Phase::Fifo);
        }
        let windows = prof.windows();
        assert!((100..300).contains(&windows), "{windows} windows in 10k commits");
        let stats = prof.stats();
        assert_eq!(stats.count(Phase::Core), windows);
        // The window still open after the last commit saw one more
        // fifo boundary than it closed.
        assert!(stats.count(Phase::Fifo) - windows <= 1);
        // Outside a window a boundary reads no clock and records nothing.
        let mut idle = PhaseProfiler::new();
        idle.boundary(Phase::FabricEval);
        assert_eq!(idle.stats(), PhaseStats::new());
    }

    #[test]
    fn sample_set_depends_only_on_the_commit_count() {
        let counts = |n: usize| {
            let mut prof = PhaseProfiler::new();
            (0..n).for_each(|_| prof.commit());
            prof.windows()
        };
        assert_eq!(counts(5_000), counts(5_000));
    }

    #[test]
    fn merge_accumulates_across_shards() {
        let mut a = PhaseStats::new();
        let mut b = PhaseStats::new();
        a.record(Phase::Core, 10);
        b.record(Phase::Core, 30);
        b.record(Phase::Fifo, 5);
        a.merge(&b);
        assert_eq!(a.count(Phase::Core), 2);
        assert_eq!(a.total_ns(Phase::Core), 40);
        assert_eq!(a.count(Phase::Fifo), 1);
        assert_eq!(a.grand_total_ns(), 45);
    }
}
