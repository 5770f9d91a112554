//! Mid-run bitstream hot-swap: quiesce / drain / swap / rearm.
//!
//! A [`SwapRequest`] scheduled via
//! [`System::schedule_swap`](crate::System::schedule_swap) replaces the
//! active extension's bitstream at a *commit boundary* — the system
//! walks a four-state lifecycle:
//!
//! 1. **Quiesce** — at the scheduled boundary the commit stage stops
//!    accepting trace packets (the core stalls exactly as it does under
//!    FIFO back-pressure) and a [`SwapBegin`] event is emitted.
//! 2. **Drain** — every in-flight FIFO packet is processed to
//!    completion by the *outgoing* extension and the meta-data cache is
//!    written back; drained packets are counted in
//!    [`ResilienceStats::swap_drained_packets`] — nothing is silently
//!    dropped.
//! 3. **Swap** — the new bitstream is segmented into frames and shifted
//!    into the fabric's partial-reconfiguration region with the same
//!    validate-and-retry machinery as a cold load (bounded retries with
//!    backoff; exhaustion surfaces as
//!    [`SimError::UnrecoverableCorruption`](crate::SimError::UnrecoverableCorruption)
//!    and escalates through the recovery ladder, which replays the swap
//!    deterministically).
//! 4. **Rearm** — the incoming extension goes live with its monitor
//!    state initialized per the [`SwapPolicy`], and a [`SwapComplete`]
//!    event is emitted.
//!
//! The window is atomic with respect to monitoring: a swap at any
//! boundary yields bit-identical verdicts to a statically-configured
//! run from that boundary onward (only cycle counts differ, by the
//! drain + reprogram stall).
//!
//! [`SwapBegin`]: crate::obs::TraceEvent::SwapBegin
//! [`SwapComplete`]: crate::obs::TraceEvent::SwapComplete
//! [`ResilienceStats::swap_drained_packets`]: crate::ResilienceStats::swap_drained_packets

use std::fmt;

use crate::ext::Extension;

/// What happens to monitor state across a hot-swap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SwapPolicy {
    /// The incoming extension starts from its pristine state (the
    /// snapshot captured when the swap was scheduled). Runtime
    /// meta-data (shadow registers, meta cache) is *not* cleared —
    /// `Reset` resets the extension's internal registers only.
    #[default]
    Reset,
    /// The outgoing extension's snapshot is transplanted into the
    /// incoming one when both are the same extension kind (a bitstream
    /// *refresh*); falls back to [`Reset`](SwapPolicy::Reset) semantics
    /// when the kinds differ, since state words are not portable across
    /// extensions.
    Carry,
}

impl fmt::Display for SwapPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapPolicy::Reset => write!(f, "reset"),
            SwapPolicy::Carry => write!(f, "carry"),
        }
    }
}

/// A request to hot-swap the active extension at a commit boundary.
#[derive(Clone, Debug)]
pub struct SwapRequest<E> {
    /// The committed-instruction boundary the swap fires at: the swap
    /// executes once `instret >= at_commit`, before the next
    /// instruction commits.
    pub at_commit: u64,
    /// The serialized bitstream to program (produced by
    /// [`to_bitstream`](flexcore_fabric::to_bitstream) over the mapped
    /// incoming netlist).
    pub bitstream: Vec<u8>,
    /// The incoming extension (functional model of the new bitstream).
    pub ext: E,
    /// State carry-over policy.
    pub policy: SwapPolicy,
}

/// The record of one completed hot-swap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwapReport {
    /// Boundary the swap was scheduled at.
    pub at_commit: u64,
    /// Name of the outgoing extension.
    pub from: &'static str,
    /// Name of the incoming extension.
    pub to: &'static str,
    /// State carry-over policy applied.
    pub policy: SwapPolicy,
    /// Core-clock cycle the quiesce began.
    pub quiesce_cycle: u64,
    /// Core-clock cycle the incoming extension went live.
    pub rearmed_cycle: u64,
    /// In-flight FIFO packets drained (processed, never dropped)
    /// during the quiesce.
    pub drained_packets: u64,
    /// Bitstream transfer retries consumed inside this swap window.
    pub retries: u64,
    /// Partial-reconfiguration frames shifted into the region.
    pub frames: u64,
}

impl fmt::Display for SwapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "swap at commit {}: {} -> {} ({}), {} packet(s) drained, {} frame(s), \
             {} retry(ies), cycles {}..{}",
            self.at_commit,
            self.from,
            self.to,
            self.policy,
            self.drained_packets,
            self.frames,
            self.retries,
            self.quiesce_cycle,
            self.rearmed_cycle
        )
    }
}

/// One scheduled swap and its lifecycle bookkeeping.
#[derive(Clone, Debug)]
pub(crate) struct SwapSlot<E> {
    pub(crate) at_commit: u64,
    pub(crate) bitstream: Vec<u8>,
    pub(crate) policy: SwapPolicy,
    /// The incoming extension, present until the swap completes.
    pub(crate) pending: Option<E>,
    /// The incoming extension's state as scheduled — `Reset` restores
    /// this, and a checkpoint replay that un-swaps re-pristines from it
    /// so a re-executed swap is deterministic.
    pub(crate) pristine: Vec<u64>,
    /// The outgoing extension, retained after completion so a restore
    /// to a pre-swap boundary can put it back.
    pub(crate) retired: Option<E>,
    pub(crate) done: bool,
}

/// Schedules hot-swaps and owns their lifecycle state.
///
/// The controller itself is pure bookkeeping — the actual quiesce /
/// drain / program / rearm sequence lives in
/// [`System`](crate::System), which asks the controller which swap is
/// due at the top of the run loop.
#[derive(Clone, Debug, Default)]
pub struct ReconfigController<E> {
    slots: Vec<SwapSlot<E>>,
    reports: Vec<SwapReport>,
}

impl<E: Extension> ReconfigController<E> {
    /// An empty controller.
    pub fn new() -> ReconfigController<E> {
        ReconfigController { slots: Vec::new(), reports: Vec::new() }
    }

    /// Schedules a swap. Multiple swaps may be scheduled; they fire in
    /// boundary order (ties fire in scheduling order).
    pub fn schedule(&mut self, req: SwapRequest<E>) {
        let pristine = req.ext.snapshot_state();
        self.slots.push(SwapSlot {
            at_commit: req.at_commit,
            bitstream: req.bitstream,
            policy: req.policy,
            pending: Some(req.ext),
            pristine,
            retired: None,
            done: false,
        });
        self.slots.sort_by_key(|s| s.at_commit);
    }

    /// The index of the next swap due at `committed` instructions, if
    /// any.
    pub(crate) fn due(&self, committed: u64) -> Option<usize> {
        self.slots.iter().position(|s| !s.done && s.at_commit <= committed)
    }

    /// `true` when at least one scheduled swap has not yet fired.
    pub fn any_pending(&self) -> bool {
        self.slots.iter().any(|s| !s.done)
    }

    /// Completed swaps, oldest first.
    pub fn reports(&self) -> &[SwapReport] {
        &self.reports
    }

    pub(crate) fn slots_mut(&mut self) -> &mut [SwapSlot<E>] {
        &mut self.slots
    }

    pub(crate) fn push_report(&mut self, report: SwapReport) {
        self.reports.push(report);
    }

    /// Drops reports for swaps that a checkpoint restore rewound past.
    pub(crate) fn truncate_reports(&mut self, committed: u64) {
        self.reports.retain(|r| r.at_commit <= committed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::Nop;

    fn req(at: u64) -> SwapRequest<Nop> {
        SwapRequest {
            at_commit: at,
            bitstream: vec![1, 2, 3],
            ext: Nop::new(),
            policy: SwapPolicy::Reset,
        }
    }

    #[test]
    fn due_fires_in_boundary_order() {
        let mut c = ReconfigController::new();
        c.schedule(req(50));
        c.schedule(req(10));
        assert_eq!(c.due(5), None);
        assert_eq!(c.due(10), Some(0));
        // Completing the first exposes the second.
        c.slots_mut()[0].done = true;
        assert_eq!(c.due(10), None);
        assert_eq!(c.due(60), Some(1));
        assert!(c.any_pending());
        c.slots_mut()[1].done = true;
        assert!(!c.any_pending());
    }

    #[test]
    fn truncate_reports_drops_rewound_swaps() {
        let mut c: ReconfigController<Nop> = ReconfigController::new();
        let r = SwapReport {
            at_commit: 100,
            from: "Nop",
            to: "Nop",
            policy: SwapPolicy::Reset,
            quiesce_cycle: 0,
            rearmed_cycle: 0,
            drained_packets: 0,
            retries: 0,
            frames: 0,
        };
        c.push_report(SwapReport { at_commit: 10, ..r.clone() });
        c.push_report(r);
        c.truncate_reports(50);
        assert_eq!(c.reports().len(), 1);
        assert_eq!(c.reports()[0].at_commit, 10);
    }

    #[test]
    fn policy_displays_lowercase() {
        assert_eq!(SwapPolicy::Reset.to_string(), "reset");
        assert_eq!(SwapPolicy::Carry.to_string(), "carry");
    }
}
