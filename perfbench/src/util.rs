//! Shared pieces of the benchmark: the seeded generator, the span recorder,
//! order statistics, the behaviour digest, and the metric record.

use std::hint::black_box;
use std::time::Instant;

use crate::host;

/// splitmix64: the benchmark's own input generator, so a change to the
/// simulator's RNGs can never change what a seed means here.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// In-memory span recorder wrapped around calls into the layers. Off,
/// it only calls the closure: no clock reads, no allocation. Spans are
/// in reference nanoseconds (see [`host`]).
pub struct Tracer {
    on: bool,
    spans: Vec<(&'static str, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.spans.push((name, host::normalise(t.elapsed().as_nanos() as u64)));
        out
    }

    /// Every recorded duration of `name`, in nanoseconds.
    pub fn ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|(n, _)| *n == name).map(|&(_, ns)| ns as f64).collect()
    }

    /// Median duration of `name`, in nanoseconds (NaN when never seen).
    pub fn median_ns(&self, name: &str) -> f64 {
        median(&self.ns(name))
    }

    /// Total duration of `name`, in nanoseconds.
    pub fn sum_ns(&self, name: &str) -> f64 {
        self.ns(name).iter().sum()
    }
}

/// Runs `f` and returns its result with the elapsed nanoseconds,
/// normalised to the reference host speed (see [`host`]).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, host::normalise(t.elapsed().as_nanos() as u64))
}

pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Harrell–Davis estimate of the `q` quantile: the mean of the sorted
/// sample weighted by the Beta((n+1)q, (n+1)(1-q)) mass over each
/// order statistic's cell of [0, 1]. The operations of a workload come
/// in groups of very different lengths; a nearest-rank quantile that
/// falls in the gap between two groups jumps by the whole gap when one
/// operation crosses it, this estimate moves by a fraction of that.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    /// Midpoint-rule steps per order statistic.
    const STEPS: usize = 64;
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|j| {
            let t = (j as f64 + 0.5) / (n * STEPS) as f64;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let top = log_density.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut weights = vec![0.0; n];
    for (j, l) in log_density.iter().enumerate() {
        weights[j / STEPS] += (l - top).exp();
    }
    let total: f64 = weights.iter().sum();
    weights.iter().zip(&v).map(|(w, x)| w * x).sum::<f64>() / total
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a over a canonical rendering of simulated state. Two runs of the
/// same code on the same seed must print the same digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The correctness gate's tally: every operation attempted, and the
/// first few breaches by name.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Counts one operation; `breach` is `Some(reason)` when it failed.
    pub fn check(&mut self, breach: Option<String>) {
        self.attempted += 1;
        self.failures.extend(breach);
    }

    /// Fails an operation already counted, once its outcome can be
    /// judged against others.
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }
}

/// What a workload run produces.
pub struct Report {
    pub gate: Gate,
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics but not reported: a traced run's own
    /// untraced end-to-end numbers.
    pub untraced: Vec<Metric>,
}

/// The report of a workload whose lanes produced `e2e`: untraced, the
/// end-to-end metrics; traced, the traced twins, the overhead ratios,
/// and the per-layer `layers`.
pub fn report(
    gate: Gate,
    digest: u64,
    setup_s: &[f64],
    e2e: &[EndToEnd],
    layers: impl FnOnce() -> Vec<Metric>,
) -> Report {
    let mut untraced = vec![metric("setup_s", median(setup_s), "s")];
    untraced.extend(e2e[0].metrics(""));
    let Some(traced) = e2e.get(1) else {
        return Report { gate, digest, metrics: untraced, untraced: Vec::new() };
    };
    let mut metrics = traced.metrics("traced.");
    let value = |ms: &[Metric], name: &str| {
        ms.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    };
    metrics.push(metric(
        "trace.overhead_x.check_ms",
        value(&metrics, "traced.check_ms") / value(&untraced, "check_ms"),
        "x",
    ));
    metrics.push(metric(
        "trace.overhead_x.sim_mips",
        value(&untraced, "sim_mips") / value(&metrics, "traced.sim_mips"),
        "x",
    ));
    metrics.extend(layers());
    Report { gate, digest, metrics, untraced }
}

/// Timing lanes: lane 0 runs untraced; a traced run adds lane 1, which
/// runs with spans on, on alternate passes, so both lanes see the same
/// host and their gap is the tracing overhead.
pub fn lanes(traced: bool) -> usize {
    1 + usize::from(traced)
}

/// What [`closed_loop`] measured.
pub struct Loop {
    /// Per lane, each operation's median run, in ms.
    pub op_ms: Vec<Vec<f64>>,
    /// Whole passes each lane made.
    pub passes: usize,
}

/// The closed loop every workload's timing uses: whole passes over `n`
/// operations, each in a fresh seeded order, one operation at a time,
/// one pass per lane in turn. It stops at the end of the round of
/// passes nearest to `seconds`. `op(i, lane)` runs operation `i` and
/// returns its nanoseconds.
pub fn closed_loop(
    n: usize,
    seed: u64,
    seconds: f64,
    lanes: usize,
    mut op: impl FnMut(usize, usize) -> u64,
) -> Loop {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut samples = vec![vec![Vec::new(); n]; lanes];
    let started = Instant::now();
    let mut passes = 0;
    loop {
        for (lane, ns) in samples.iter_mut().enumerate() {
            rng.shuffle(&mut order);
            for &i in &order {
                host::calibrate();
                ns[i].push(op(i, lane));
            }
        }
        passes += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / passes as f64 / 2.0 >= seconds {
            break;
        }
    }
    Loop {
        op_ms: samples
            .iter()
            .map(|lane| lane.iter().map(|ns| median_u64(ns) / 1e6).collect())
            .collect(),
        passes,
    }
}

/// Time of one more run of `setup`, in reference seconds. Workloads repeat
/// their set-up between operations all through the timed loop, so the
/// median of `setup_s` sees the same host as the loop, not only its
/// first second.
pub fn setup_secs<T>(setup: impl FnOnce() -> T) -> f64 {
    timed(|| black_box(setup())).1 as f64 / 1e9
}

/// The timings behind the end-to-end metrics every workload reports,
/// set-up aside. Host times are in reference nanoseconds (see
/// [`host`]), each operation (and each leg slice behind `sim_mips`) at
/// its median over the run's repeats.
pub struct EndToEnd {
    /// Geomean of simulated instructions per host µs.
    pub sim_mips: f64,
    /// Geomean of monitored over bare simulated cycles.
    pub slowdown_x: f64,
    /// Geomean of |ln(simulated / paper)| over the same cells.
    pub table4_err: f64,
    /// Median time of each distinct operation, ms.
    pub op_ms: Vec<f64>,
}

impl EndToEnd {
    /// The end-to-end metrics but `setup_s`, under `prefix` (empty for
    /// the untraced lane, `traced.` for the host-time ones of the
    /// traced lane).
    pub fn metrics(&self, prefix: &str) -> Vec<Metric> {
        let pass_ms: f64 = self.op_ms.iter().sum();
        let mut out = vec![
            metric(format!("{prefix}sim_mips"), self.sim_mips, "insn/us"),
            metric(
                format!("{prefix}trials_per_s"),
                self.op_ms.len() as f64 / (pass_ms / 1e3),
                "1/s",
            ),
            metric(format!("{prefix}trial_p50_ms"), quantile(&self.op_ms, 0.5), "ms"),
            metric(format!("{prefix}trial_p90_ms"), quantile(&self.op_ms, 0.9), "ms"),
            metric(format!("{prefix}check_ms"), pass_ms, "ms"),
        ];
        if prefix.is_empty() {
            out.push(metric("slowdown_x", self.slowdown_x, "x"));
            out.push(metric("table4_err", self.table4_err, "log"));
            out.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        }
        out
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
