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
//! 3. **Swap** — the new bitstream is transferred and validated by
//!    [`System::load_bitstream`](crate::System::load_bitstream), the
//!    same validate-and-retry machinery as a cold load, and shifted in
//!    at one fabric cycle per
//!    [`FRAME_BYTES`](flexcore_fabric::FRAME_BYTES)-byte configuration
//!    frame (bounded retries with backoff, each re-shifting the whole
//!    stream; exhaustion surfaces as
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
//! The system keeps the schedule in boundary order with a count of the
//! swaps that have fired. Swaps fire in that order, so the fired ones
//! are always a prefix of the schedule. Each scheduled swap holds one
//! extension: the incoming one until it fires, the outgoing one after.
//! [`System::restore`](crate::System::restore) first checks the
//! snapshot against the extension live at its commit count, then moves
//! the prefix's end there by exchanging extensions: newest first when
//! it rewinds swaps, oldest first when it fast-forwards them.
//!
//! [`SwapBegin`]: crate::obs::TraceEvent::SwapBegin
//! [`SwapComplete`]: crate::obs::TraceEvent::SwapComplete
//! [`ResilienceStats::swap_drained_packets`]: crate::ResilienceStats::swap_drained_packets

use std::fmt;

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
    /// Configuration frames shifted in per transfer: the bitstream
    /// length divided by [`FRAME_BYTES`](flexcore_fabric::FRAME_BYTES),
    /// rounded up.
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

/// One scheduled swap. `ext` holds the incoming extension until the
/// swap fires and the outgoing one after it, so firing the swap,
/// rewinding it on a restore and fast-forwarding it on a restore are
/// each one exchange with the live extension.
#[derive(Clone, Debug)]
pub(crate) struct SwapSlot<E> {
    pub(crate) at_commit: u64,
    pub(crate) bitstream: Vec<u8>,
    pub(crate) policy: SwapPolicy,
    /// The incoming extension's state as scheduled: `Reset` restores
    /// it, so a swap that a restore rewound re-executes
    /// deterministically.
    pub(crate) pristine: Vec<u64>,
    pub(crate) ext: E,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_displays_lowercase() {
        assert_eq!(SwapPolicy::Reset.to_string(), "reset");
        assert_eq!(SwapPolicy::Carry.to_string(), "carry");
    }
}
