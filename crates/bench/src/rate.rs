//! Rate + ETA arithmetic for campaign progress lines.
//!
//! `faultsweep` prints a progress line per finished batch; this module
//! turns (done, total, elapsed) into the `"12.3/s eta 0:41"` column it
//! appends. The meter reads a monotonic clock, but the arithmetic
//! underneath takes explicit elapsed seconds, so it is testable
//! without a real clock.

use std::time::Instant;

/// Measures throughput against a monotonic start point.
#[derive(Clone, Copy, Debug)]
pub struct RateMeter {
    started: Instant,
}

impl RateMeter {
    /// Starts the clock.
    pub fn start() -> Self {
        RateMeter { started: Instant::now() }
    }

    /// The progress-line column: `"12.3/s eta 0:41"`, degrading to
    /// `"--/s eta --:--"` before the first completion.
    pub fn progress_column(&self, done: u64, total: u64) -> String {
        format_progress(done, total, self.started.elapsed().as_secs_f64())
    }
}

/// Below this much observed time the meter has no rate worth
/// extrapolating: `done / elapsed` explodes toward infinity as
/// `elapsed → 0`, turning the first instants of a campaign (or a
/// journal-resume burst that replays thousands of records in
/// microseconds) into a nonsense "billions per second, eta 0:00"
/// line.
const MIN_MEASURABLE_SECS: f64 = 1e-3;

/// `done / elapsed`, 0.0 until at least [`MIN_MEASURABLE_SECS`] has
/// passed (a just-started meter has no meaningful rate).
fn rate_of(done: u64, elapsed_secs: f64) -> f64 {
    if elapsed_secs < MIN_MEASURABLE_SECS {
        0.0
    } else {
        done as f64 / elapsed_secs
    }
}

/// Remaining time at the observed rate. `None` when there is no rate
/// to extrapolate — nothing done yet, the meter just started
/// (`elapsed < MIN_MEASURABLE_SECS`), or a degenerate zero/non-finite
/// rate; `done >= total` maps to `Some(0.0)`.
fn eta_of(done: u64, total: u64, elapsed_secs: f64) -> Option<f64> {
    if done == 0 {
        return None;
    }
    if done >= total {
        return Some(0.0);
    }
    let rate = rate_of(done, elapsed_secs);
    if rate <= 0.0 || !rate.is_finite() {
        return None;
    }
    Some((total - done) as f64 / rate)
}

/// Renders seconds as `m:ss` (or `h:mm:ss` past the hour).
fn format_eta(secs: f64) -> String {
    let s = secs.max(0.0).round() as u64;
    if s >= 3600 {
        format!("{}:{:02}:{:02}", s / 3600, (s % 3600) / 60, s % 60)
    } else {
        format!("{}:{:02}", s / 60, s % 60)
    }
}

/// The full rate + ETA column.
fn format_progress(done: u64, total: u64, elapsed_secs: f64) -> String {
    match eta_of(done, total, elapsed_secs) {
        Some(eta) => format!("{:.1}/s eta {}", rate_of(done, elapsed_secs), format_eta(eta)),
        None => "--/s eta --:--".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_eta_arithmetic() {
        assert_eq!(rate_of(10, 2.0), 5.0);
        assert_eq!(rate_of(10, 0.0), 0.0);
        assert_eq!(eta_of(0, 100, 5.0), None);
        assert_eq!(eta_of(100, 100, 5.0), Some(0.0));
        // 25 done in 5s -> 5/s -> 75 remaining -> 15s.
        assert_eq!(eta_of(25, 100, 5.0), Some(15.0));
    }

    #[test]
    fn just_started_meter_reports_no_rate_and_no_eta() {
        // A burst of journal-replayed records lands before the clock
        // has measurably moved: extrapolating would claim billions/s
        // and eta 0:00 for work that has not actually started.
        assert_eq!(rate_of(10_000, 0.0), 0.0);
        assert_eq!(rate_of(10_000, 1e-9), 0.0, "sub-threshold elapsed has no rate");
        assert_eq!(eta_of(10_000, 20_000, 1e-9), None, "no nonsense eta at startup");
        assert_eq!(eta_of(5, 10, 0.0), None);
        // The rendered column degrades instead of inventing a number.
        assert_eq!(format_progress(10_000, 20_000, 1e-9), "--/s eta --:--");
        // The guard lifts as soon as real time has passed.
        assert!(eta_of(5, 10, MIN_MEASURABLE_SECS).is_some());
    }

    #[test]
    fn formatting_degrades_gracefully() {
        assert_eq!(format_progress(0, 100, 1.0), "--/s eta --:--");
        assert_eq!(format_progress(25, 100, 5.0), "5.0/s eta 0:15");
        assert_eq!(format_eta(59.4), "0:59");
        assert_eq!(format_eta(61.0), "1:01");
        assert_eq!(format_eta(3661.0), "1:01:01");
    }

    #[test]
    fn meter_tracks_wall_clock() {
        let m = RateMeter::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let column = m.progress_column(50, 100);
        assert!(column.contains("/s eta ") && !column.starts_with("--"), "{column}");
    }
}
