//! Deterministic, seeded fault injection.
//!
//! The paper's SEC extension exists to *catch soft errors*; this module
//! supplies the errors. A [`FaultPlan`] declares what to corrupt
//! ([`FaultTarget`]), when ([`FaultSchedule`]), and how
//! ([`FaultModel`]); a [`FaultInjector`] built from the plan turns it
//! into a byte-identical sequence of [`FaultEvent`]s: the same seed and
//! plan always produce the same faults, the same detections, and the
//! same statistics, on any host.
//!
//! The injector is *pure*: it decides faults (as [`FaultAction`]s) from
//! its own seeded generator and the commit index alone, and the
//! [`System`](crate::System) applies them to architectural state,
//! trace packets, the meta-data cache, or serialized bitstreams. That
//! split is what makes determinism testable — two injectors with the
//! same plan can be driven side by side and must produce identical
//! logs.
//!
//! ```
//! use flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
//! use flexcore::ext::Sec;
//! use flexcore::{System, SystemConfig};
//! # use flexcore_asm::assemble;
//!
//! # let program = assemble("start: add %g1, 1, %g1\n add %g1, %g1, %g2\n ta 0")?;
//! let mut sys = System::new(SystemConfig::fabric_quarter_speed(), Sec::new());
//! sys.load_program(&program);
//! // One single-bit ALU-result strike at the 2nd committed instruction.
//! sys.arm_faults(FaultPlan::new(0xF00D).inject(
//!     FaultTarget::CommitResult,
//!     FaultSchedule::AtCommit(2),
//!     FaultModel::BitFlip { bits: 1 },
//! ));
//! let result = sys.try_run(1_000).expect("no deadlock");
//! assert!(result.monitor_trap.is_some(), "SEC caught the flip");
//! assert_eq!(sys.fault_log().len(), 1);
//! # Ok::<(), flexcore_asm::AsmError>(())
//! ```

/// Deterministic SplitMix64 generator dedicated to fault injection.
///
/// Each [`FaultSpec`] in a plan gets its own stream (derived from the
/// plan seed and the spec's index), so adding a spec never perturbs the
/// faults another spec produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng { state: seed }
    }

    /// The current generator state. Feeding it back into
    /// [`FaultRng::new`] resumes the stream at exactly this position
    /// (SplitMix64 state *is* its seed), which is how checkpoints
    /// preserve fault-injection determinism across a restore.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// The SplitMix64 increment: each draw adds it to the state.
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Next 64 random bits (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// The generator after `n` more draws. The state moves by the same
    /// increment at every draw, so this costs no draw.
    fn skipped(&self, n: u64) -> FaultRng {
        FaultRng { state: self.state.wrapping_add(n.wrapping_mul(Self::GAMMA)) }
    }
}

/// What a fault corrupts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// The committing instruction's result — flipped in the forwarded
    /// trace packet *and* written back to the destination register,
    /// like a particle strike on the ALU output latch. This is the
    /// architectural-state fault SEC is designed to catch.
    CommitResult,
    /// A uniformly chosen architectural register (`%g1`..`%i7`; `%g0`
    /// is hard-wired and absorbs strikes).
    Register,
    /// A data word in `[base, base + len)` (word-aligned draws).
    Memory {
        /// First byte of the vulnerable window.
        base: u32,
        /// Window length in bytes.
        len: u32,
    },
    /// An instruction word in `[base, base + len)` — an I-cache /
    /// text-image strike. May turn the word into an illegal
    /// instruction, which the core must report, not panic over.
    InstructionWord {
        /// First byte of the text window.
        base: u32,
        /// Window length in bytes.
        len: u32,
    },
    /// A field of the FFIFO trace packet in flight — corruption in the
    /// monitoring path only; architectural state stays intact.
    FifoPacket,
    /// A resident meta-data cache word (drawn from the meta window).
    MetaCache,
    /// Wedges the fabric: it stops draining the forward FIFO. The
    /// never-draining-fabric scenario behind
    /// [`SimError::Deadlock`](crate::SimError::Deadlock).
    FabricStuck,
    /// A serialized bitstream passing through
    /// [`System::load_bitstream`](crate::System::load_bitstream); the
    /// schedule is evaluated against the transfer-attempt index instead
    /// of the commit index.
    Bitstream,
}

/// When a fault fires, in units of committed instructions (or transfer
/// attempts for [`FaultTarget::Bitstream`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Exactly at the `n`-th commit (1-based, matching
    /// `ForwardStats::committed`). Fires once.
    AtCommit(u64),
    /// Every `n`-th commit (`n > 0`).
    EveryCommits(u64),
    /// Independently at each commit with probability `per_million /
    /// 1_000_000` — the injection-*rate* axis of the `faultsweep`
    /// campaign.
    Bernoulli {
        /// Firing probability in parts per million.
        per_million: u32,
    },
}

impl FaultSchedule {
    /// Whether the schedule fires at `index` (commit or attempt
    /// number, 1-based). Draws from `rng` only for [`Bernoulli`]
    /// decisions, so schedules stay deterministic.
    ///
    /// [`Bernoulli`]: FaultSchedule::Bernoulli
    fn fires(&self, index: u64, rng: &mut FaultRng) -> bool {
        match *self {
            FaultSchedule::AtCommit(n) => index == n,
            FaultSchedule::EveryCommits(n) => n > 0 && index.is_multiple_of(n),
            FaultSchedule::Bernoulli { per_million } => {
                rng.below(1_000_000) < u64::from(per_million)
            }
        }
    }
}

/// How many commits ahead [`FaultInjector::next_due`] looks for a
/// `Bernoulli` spec's next firing draw. A longer look costs draws past
/// the end of a run; a shorter one costs polls that fire nothing.
const BERNOULLI_LOOKAHEAD: u64 = 256;

/// How the targeted bits are disturbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultModel {
    /// Flip `bits` uniformly drawn bit positions (1 = single-event
    /// upset).
    BitFlip {
        /// Number of random bits to flip.
        bits: u32,
    },
    /// Flip exactly the bits in `mask` (deterministic placement).
    Mask(u32),
}

impl FaultModel {
    fn draw_mask(&self, rng: &mut FaultRng) -> u32 {
        match *self {
            FaultModel::BitFlip { bits } => {
                let mut mask = 0u32;
                for _ in 0..bits.max(1) {
                    mask |= 1 << rng.below(32);
                }
                mask
            }
            FaultModel::Mask(mask) => mask,
        }
    }
}

/// One injection rule: target × schedule × model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to corrupt.
    pub target: FaultTarget,
    /// When to fire.
    pub schedule: FaultSchedule,
    /// How many bits, and where.
    pub model: FaultModel,
}

/// A declarative, seeded fault campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed from which every spec's generator stream derives.
    pub seed: u64,
    /// The injection rules.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, specs: Vec::new() }
    }

    /// Adds an injection rule (builder style).
    pub fn inject(
        mut self,
        target: FaultTarget,
        schedule: FaultSchedule,
        model: FaultModel,
    ) -> FaultPlan {
        self.specs.push(FaultSpec { target, schedule, model });
        self
    }
}

/// A concrete disturbance the [`System`](crate::System) must apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// XOR the committing packet's result (and the destination
    /// register) with `mask`.
    FlipResult {
        /// Bits to flip.
        mask: u32,
    },
    /// XOR register `reg` (1..=31) with `mask`.
    FlipRegister {
        /// Register index.
        reg: u8,
        /// Bits to flip.
        mask: u32,
    },
    /// XOR the data word at `addr` with `mask`.
    FlipMemory {
        /// Word-aligned address.
        addr: u32,
        /// Bits to flip.
        mask: u32,
    },
    /// XOR the instruction word at `addr` with `mask`.
    FlipText {
        /// Word-aligned address.
        addr: u32,
        /// Bits to flip.
        mask: u32,
    },
    /// XOR one field of the in-flight trace packet with `mask`.
    CorruptPacket {
        /// Which packet field.
        field: PacketField,
        /// Bits to flip.
        mask: u32,
    },
    /// XOR a resident meta-data cache word with `mask`.
    PoisonMeta {
        /// Meta-space word address.
        addr: u32,
        /// Bits to flip.
        mask: u32,
    },
    /// Wedge the fabric (it stops draining the FIFO).
    StickFabric,
}

/// Trace-packet fields a [`FaultTarget::FifoPacket`] strike can hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketField {
    /// The RESULT field.
    Result,
    /// The SRCV1 field.
    Srcv1,
    /// The SRCV2 field.
    Srcv2,
    /// The ADDRESS field.
    Addr,
    /// The STORE_VALUE field.
    StoreValue,
}

/// The packet fields in draw order, which is also their index in a
/// checkpoint's `corrupt-packet` action.
pub(crate) const PACKET_FIELDS: [PacketField; 5] = [
    PacketField::Result,
    PacketField::Srcv1,
    PacketField::Srcv2,
    PacketField::Addr,
    PacketField::StoreValue,
];

/// One applied fault, as recorded in the injector's event log. Two runs
/// with the same seed, plan, and program produce identical logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Commit index at which the fault fired (the transfer-attempt
    /// index for bitstream faults).
    pub at: u64,
    /// Core-clock cycle of the strike (0 for load-time bitstream
    /// faults).
    pub cycle: u64,
    /// What was done.
    pub action: FaultAction,
}

/// Special action payload for bitstream corruption: `(byte offset, bit
/// mask)` applied to the serialized stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitstreamStrike {
    /// Transfer-attempt index (1-based).
    pub attempt: u64,
    /// Byte offset into the stream.
    pub offset: usize,
    /// Bits of that byte to flip.
    pub mask: u8,
}

struct SpecState {
    spec: FaultSpec,
    rng: FaultRng,
    /// `AtCommit` fires once; `FabricStuck` is idempotent but logged
    /// once.
    exhausted: bool,
    /// For a per-commit `Bernoulli` spec, the commit whose decision
    /// `rng` drew last; the decisions of later commits up to the next
    /// poll are drawn when it comes (see [`FaultInjector::poll_commit`]).
    /// `None` until the first poll after an arm or a restore.
    drawn_through: Option<u64>,
}

impl SpecState {
    fn new(spec: FaultSpec, seed: u64, index: u64) -> SpecState {
        SpecState {
            spec,
            rng: FaultRng::new(seed ^ (index + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
            exhausted: false,
            drawn_through: None,
        }
    }

    /// Whether this is a live `Bernoulli` spec, which draws a decision
    /// at every commit.
    fn draws_per_commit(&self) -> bool {
        matches!(self.spec.schedule, FaultSchedule::Bernoulli { .. })
            && !self.exhausted
            && !matches!(self.spec.target, FaultTarget::Bitstream)
    }

    /// The generator with the decisions of every commit after
    /// `drawn_through` up to `commit` drawn.
    fn rng_at(&self, commit: u64) -> FaultRng {
        match self.drawn_through {
            Some(last) if self.draws_per_commit() && commit > last => {
                self.rng.skipped(commit - last)
            }
            _ => self.rng.clone(),
        }
    }
}

/// Complete checkpointable run-time state of a [`FaultInjector`] (see
/// [`FaultInjector::snapshot`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultInjectorSnapshot {
    /// Per-spec generator positions, in spec order.
    pub rng_states: Vec<u64>,
    /// Per-spec one-shot flags, in spec order.
    pub exhausted: Vec<bool>,
    /// Every fault applied so far.
    pub log: Vec<FaultEvent>,
    /// Every bitstream strike applied so far.
    pub bitstream_log: Vec<BitstreamStrike>,
    /// Bitstream transfer attempts seen so far.
    pub bitstream_attempts: u64,
}

/// Executes a [`FaultPlan`] deterministically and logs every strike.
pub struct FaultInjector {
    specs: Vec<SpecState>,
    log: Vec<FaultEvent>,
    bitstream_log: Vec<BitstreamStrike>,
    bitstream_attempts: u64,
    /// While `false`, polls decide nothing and draw nothing. Recovery
    /// replays disarm the plan so the restored run re-executes
    /// fault-free.
    armed: bool,
    /// No poll before this commit can strike or draw (see
    /// [`FaultInjector::next_due`]).
    due: u64,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("specs", &self.specs.len())
            .field("events", &self.log.len())
            .finish()
    }
}

impl FaultInjector {
    /// Builds an injector from a plan. Each spec gets an independent
    /// generator stream derived from `(plan.seed, spec index)`.
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        let specs = plan
            .specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| SpecState::new(spec, plan.seed, i as u64))
            .collect();
        let mut inj = FaultInjector {
            specs,
            log: Vec::new(),
            bitstream_log: Vec::new(),
            bitstream_attempts: 0,
            armed: true,
            due: 0,
        };
        inj.due = inj.horizon(0);
        inj
    }

    /// The first commit after `commit` at which a per-commit spec can
    /// fire: `AtCommit(n)` at `n` until it is exhausted,
    /// `EveryCommits(n)` at the next multiple of `n`, `Bitstream` specs
    /// and a disarmed injector never (`u64::MAX`). A `Bernoulli` spec
    /// draws ahead from its generator for the first decision that fires,
    /// at most [`BERNOULLI_LOOKAHEAD`] commits past the last one it drew
    /// (and fires never at rate 0); before its first poll it asks for
    /// one at once.
    fn horizon(&self, commit: u64) -> u64 {
        if !self.armed {
            return u64::MAX;
        }
        let next = commit.saturating_add(1);
        self.specs
            .iter()
            .filter(|st| !st.exhausted && !matches!(st.spec.target, FaultTarget::Bitstream))
            .map(|st| match (st.spec.schedule, st.drawn_through) {
                (FaultSchedule::AtCommit(n), _) if n >= next => n,
                (FaultSchedule::AtCommit(_) | FaultSchedule::EveryCommits(0), _) => u64::MAX,
                (FaultSchedule::EveryCommits(n), _) => next.saturating_add(n - 1) / n * n,
                (FaultSchedule::Bernoulli { .. }, None) => 0,
                (FaultSchedule::Bernoulli { per_million: 0 }, Some(_)) => u64::MAX,
                (schedule @ FaultSchedule::Bernoulli { .. }, Some(last)) => {
                    let mut rng = st.rng.clone();
                    (1..=BERNOULLI_LOOKAHEAD)
                        .map(|k| last.saturating_add(k))
                        .find(|&c| schedule.fires(c, &mut rng))
                        .unwrap_or(last.saturating_add(BERNOULLI_LOOKAHEAD + 1))
                }
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The first commit at which [`poll_commit`] can strike: polls at
    /// earlier commits strike nothing, and a `Bernoulli` spec draws the
    /// decisions of the commits it skipped at the next poll, so a caller
    /// that polls every commit in order may skip the polls before this
    /// one and see the same faults and the same
    /// [`snapshot`](FaultInjector::snapshot)s. Every poll, arm, disarm
    /// and restore moves it; after an arm or a restore it may lie before
    /// the next commit, which only costs a poll that finds nothing.
    ///
    /// [`poll_commit`]: FaultInjector::poll_commit
    #[inline]
    pub fn next_due(&self) -> u64 {
        self.due
    }

    /// Stops deciding faults for good after commit `commit`, without
    /// touching the logs. A disarmed injector's [`poll_commit`] and
    /// [`corrupt_bitstream`] strike nothing and draw nothing; the
    /// `Bernoulli` decisions of the commits up to `commit` are drawn
    /// here.
    ///
    /// [`poll_commit`]: FaultInjector::poll_commit
    /// [`corrupt_bitstream`]: FaultInjector::corrupt_bitstream
    pub fn disarm(&mut self, commit: u64) {
        for st in &mut self.specs {
            st.rng = st.rng_at(commit);
            st.drawn_through = None;
        }
        self.armed = false;
        self.due = u64::MAX;
    }

    /// Every fault applied so far, in application order.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Every bitstream strike applied so far.
    pub fn bitstream_log(&self) -> &[BitstreamStrike] {
        &self.bitstream_log
    }

    /// Decides the faults striking at commit `commit` (1-based), logs
    /// them, and returns them for the system to apply.
    ///
    /// A `Bernoulli` spec draws one decision per commit: the decisions
    /// of any commits since its last poll are drawn first (skipping
    /// them costs no draw), then this commit's.
    pub fn poll_commit(&mut self, commit: u64, cycle: u64) -> Vec<FaultAction> {
        let mut actions = Vec::new();
        if !self.armed {
            return actions;
        }
        for st in &mut self.specs {
            if st.exhausted || matches!(st.spec.target, FaultTarget::Bitstream) {
                continue;
            }
            if st.draws_per_commit() {
                st.rng = st.rng_at(commit.saturating_sub(1));
                st.drawn_through = Some(commit);
            }
            if !st.spec.schedule.fires(commit, &mut st.rng) {
                continue;
            }
            if matches!(st.spec.schedule, FaultSchedule::AtCommit(_)) {
                st.exhausted = true;
            }
            let mask = st.spec.model.draw_mask(&mut st.rng);
            let action = match st.spec.target {
                FaultTarget::CommitResult => FaultAction::FlipResult { mask },
                FaultTarget::Register => {
                    FaultAction::FlipRegister { reg: (1 + st.rng.below(31)) as u8, mask }
                }
                FaultTarget::Memory { base, len } => FaultAction::FlipMemory {
                    addr: base + (st.rng.below(u64::from(len.max(4)) / 4) as u32) * 4,
                    mask,
                },
                FaultTarget::InstructionWord { base, len } => FaultAction::FlipText {
                    addr: base + (st.rng.below(u64::from(len.max(4)) / 4) as u32) * 4,
                    mask,
                },
                FaultTarget::FifoPacket => FaultAction::CorruptPacket {
                    field: PACKET_FIELDS[st.rng.below(PACKET_FIELDS.len() as u64) as usize],
                    mask,
                },
                FaultTarget::MetaCache => FaultAction::PoisonMeta {
                    // The paper's meta cache backs a 4 KB window; draw
                    // word addresses across twice that to also exercise
                    // non-resident strikes.
                    addr: crate::ext::META_BASE + (st.rng.below(0x800) as u32) * 4,
                    mask,
                },
                FaultTarget::FabricStuck => {
                    st.exhausted = true;
                    FaultAction::StickFabric
                }
                FaultTarget::Bitstream => unreachable!("filtered above"),
            };
            self.log.push(FaultEvent { at: commit, cycle, action });
            actions.push(action);
        }
        self.due = self.horizon(commit);
        actions
    }

    /// Captures the injector's complete run-time state at commit
    /// `commit`: per-spec generator positions (with the `Bernoulli`
    /// decisions of every commit up to `commit` drawn) and one-shot
    /// flags, both event logs, and the bitstream attempt counter. The
    /// specs themselves are construction state (the re-armed plan
    /// supplies them on restore).
    pub fn snapshot(&self, commit: u64) -> FaultInjectorSnapshot {
        FaultInjectorSnapshot {
            rng_states: self.specs.iter().map(|s| s.rng_at(commit).state()).collect(),
            exhausted: self.specs.iter().map(|s| s.exhausted).collect(),
            log: self.log.clone(),
            bitstream_log: self.bitstream_log.clone(),
            bitstream_attempts: self.bitstream_attempts,
        }
    }

    /// Restores state captured by [`FaultInjector::snapshot`] onto an
    /// injector rebuilt from the same plan.
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot's spec count does not match
    /// this injector's (the plans differ).
    pub fn restore(&mut self, snap: &FaultInjectorSnapshot) -> Result<(), String> {
        self.check(snap)?;
        for (st, (&state, &exhausted)) in
            self.specs.iter_mut().zip(snap.rng_states.iter().zip(&snap.exhausted))
        {
            st.rng = FaultRng::new(state);
            st.exhausted = exhausted;
            st.drawn_through = None;
        }
        self.log = snap.log.clone();
        self.bitstream_log = snap.bitstream_log.clone();
        self.bitstream_attempts = snap.bitstream_attempts;
        self.due = self.horizon(0);
        Ok(())
    }

    /// The check [`FaultInjector::restore`] makes before it changes
    /// anything: one generator position and one flag per spec.
    pub(crate) fn check(&self, snap: &FaultInjectorSnapshot) -> Result<(), String> {
        if snap.rng_states.len() != self.specs.len() || snap.exhausted.len() != self.specs.len() {
            return Err(format!(
                "fault plan mismatch: snapshot has {} spec(s), injector has {}",
                snap.rng_states.len(),
                self.specs.len()
            ));
        }
        Ok(())
    }

    /// Corrupts one serialized bitstream transfer in place (if any
    /// `Bitstream` spec fires for this attempt). Returns the strike.
    pub fn corrupt_bitstream(&mut self, stream: &mut [u8]) -> Option<BitstreamStrike> {
        if !self.armed {
            return None;
        }
        self.bitstream_attempts += 1;
        let attempt = self.bitstream_attempts;
        if stream.is_empty() {
            return None;
        }
        for st in &mut self.specs {
            if st.exhausted || !matches!(st.spec.target, FaultTarget::Bitstream) {
                continue;
            }
            if !st.spec.schedule.fires(attempt, &mut st.rng) {
                continue;
            }
            if matches!(st.spec.schedule, FaultSchedule::AtCommit(_)) {
                st.exhausted = true;
            }
            let offset = st.rng.below(stream.len() as u64) as usize;
            let mask = (st.spec.model.draw_mask(&mut st.rng) & 0xff).max(1) as u8;
            stream[offset] ^= mask;
            let strike = BitstreamStrike { attempt, offset, mask };
            self.bitstream_log.push(strike);
            return Some(strike);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(42)
            .inject(
                FaultTarget::CommitResult,
                FaultSchedule::Bernoulli { per_million: 100_000 },
                FaultModel::BitFlip { bits: 1 },
            )
            .inject(
                FaultTarget::Register,
                FaultSchedule::EveryCommits(7),
                FaultModel::BitFlip { bits: 2 },
            )
            .inject(
                FaultTarget::Memory { base: 0x8000, len: 0x100 },
                FaultSchedule::AtCommit(5),
                FaultModel::Mask(0x10),
            )
    }

    #[test]
    fn same_seed_same_log() {
        let (mut a, mut b) = (FaultInjector::new(&plan()), FaultInjector::new(&plan()));
        for commit in 1..=500 {
            let (x, y) = (a.poll_commit(commit, commit * 3), b.poll_commit(commit, commit * 3));
            assert_eq!(x, y);
        }
        assert_eq!(a.log(), b.log());
        assert!(!a.log().is_empty(), "plan produced no faults in 500 commits");
    }

    #[test]
    fn disarmed_injector_strikes_nothing() {
        let (mut armed, mut disarmed) = (FaultInjector::new(&plan()), FaultInjector::new(&plan()));
        for commit in 1..=100 {
            assert_eq!(armed.poll_commit(commit, commit), disarmed.poll_commit(commit, commit));
        }
        // A disarmed injector decides nothing and leaves its log as it
        // was at the disarm.
        disarmed.disarm(100);
        for commit in 101..=200 {
            assert!(disarmed.poll_commit(commit, commit).is_empty());
            let mut bytes = [0xffu8; 16];
            assert!(disarmed.corrupt_bitstream(&mut bytes).is_none());
            assert_eq!(bytes, [0xffu8; 16], "disarmed bitstream transfer untouched");
        }
        assert_eq!(armed.log(), disarmed.log());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut p2 = plan();
        p2.seed = 43;
        let (mut a, mut b) = (FaultInjector::new(&plan()), FaultInjector::new(&p2));
        for commit in 1..=500 {
            a.poll_commit(commit, commit);
            b.poll_commit(commit, commit);
        }
        assert_ne!(a.log(), b.log());
    }

    #[test]
    fn at_commit_fires_exactly_once() {
        let plan = FaultPlan::new(7).inject(
            FaultTarget::CommitResult,
            FaultSchedule::AtCommit(3),
            FaultModel::Mask(1),
        );
        let mut inj = FaultInjector::new(&plan);
        let mut hits = 0;
        for commit in 1..=20 {
            hits += inj.poll_commit(commit, commit).len();
        }
        assert_eq!(hits, 1);
        assert_eq!(inj.log()[0].at, 3);
        assert_eq!(inj.log()[0].action, FaultAction::FlipResult { mask: 1 });
    }

    #[test]
    fn bitstream_strikes_are_scheduled_by_attempt() {
        let plan = FaultPlan::new(9).inject(
            FaultTarget::Bitstream,
            FaultSchedule::AtCommit(2),
            FaultModel::BitFlip { bits: 1 },
        );
        let mut inj = FaultInjector::new(&plan);
        let golden = vec![0xaau8; 64];
        let mut first = golden.clone();
        assert!(inj.corrupt_bitstream(&mut first).is_none());
        assert_eq!(first, golden, "attempt 1 untouched");
        let mut second = golden.clone();
        let strike = inj.corrupt_bitstream(&mut second).expect("attempt 2 corrupted");
        assert_ne!(second, golden);
        assert_eq!(second[strike.offset], golden[strike.offset] ^ strike.mask);
    }

    #[test]
    fn register_strikes_never_hit_g0() {
        let plan = FaultPlan::new(1).inject(
            FaultTarget::Register,
            FaultSchedule::EveryCommits(1),
            FaultModel::BitFlip { bits: 1 },
        );
        let mut inj = FaultInjector::new(&plan);
        for commit in 1..=200 {
            for a in inj.poll_commit(commit, commit) {
                let FaultAction::FlipRegister { reg, .. } = a else {
                    panic!("unexpected action {a:?}");
                };
                assert!((1..32).contains(&reg));
            }
        }
    }

    /// Drives `plan` through commits with a snapshot taken at commit
    /// 160 and restored after 40 more (a rewind), bitstream
    /// transfers, a disarm and a re-arm, polling every commit or only
    /// from [`FaultInjector::next_due`] on. Returns the injector's
    /// snapshot at the end of each phase and the number of polls.
    fn drive(plan: &FaultPlan, gated: bool) -> (Vec<FaultInjectorSnapshot>, usize) {
        let mut polls = 0;
        let mut run = |inj: &mut FaultInjector, commits: std::ops::RangeInclusive<u64>| {
            let end = *commits.end();
            for c in commits {
                if !gated || c >= inj.next_due() {
                    polls += 1;
                    inj.poll_commit(c, 3 * c);
                }
                if c % 50 == 0 {
                    inj.corrupt_bitstream(&mut [0x5a; 32]);
                }
            }
            inj.snapshot(end)
        };
        let mut inj = FaultInjector::new(plan);
        let mut snaps = vec![run(&mut inj, 1..=120)];
        let at_160 = run(&mut inj, 121..=160);
        snaps.push(run(&mut inj, 161..=200));
        inj.restore(&at_160).expect("same plan");
        snaps.push(run(&mut inj, 161..=260));
        inj.disarm(260);
        snaps.push(run(&mut inj, 261..=300));
        let mut inj = FaultInjector::new(plan);
        snaps.push(run(&mut inj, 301..=450));
        (snaps, polls)
    }

    #[test]
    fn gated_polls_match_polling_every_commit() {
        let bitstream = FaultSpec {
            target: FaultTarget::Bitstream,
            schedule: FaultSchedule::EveryCommits(2),
            model: FaultModel::BitFlip { bits: 1 },
        };
        let stuck = FaultSpec {
            target: FaultTarget::FabricStuck,
            schedule: FaultSchedule::EveryCommits(90),
            model: FaultModel::Mask(0),
        };
        let mut sparse = FaultPlan::new(11)
            .inject(FaultTarget::CommitResult, FaultSchedule::AtCommit(37), FaultModel::Mask(1))
            .inject(
                FaultTarget::Register,
                FaultSchedule::EveryCommits(23),
                FaultModel::BitFlip { bits: 2 },
            )
            .inject(FaultTarget::FifoPacket, FaultSchedule::AtCommit(180), FaultModel::Mask(8))
            .inject(FaultTarget::CommitResult, FaultSchedule::AtCommit(170), FaultModel::Mask(4));
        sparse.specs.extend([bitstream, stuck]);
        // Bernoulli specs at a rate, and at rate 0: the latter never
        // fires but still draws, which the snapshots must show.
        let mut dense = sparse.clone();
        for per_million in [30_000, 0] {
            dense.specs.push(FaultSpec {
                target: FaultTarget::Memory { base: 0x8000, len: 0x40 },
                schedule: FaultSchedule::Bernoulli { per_million },
                model: FaultModel::BitFlip { bits: 1 },
            });
        }
        for plan in [&sparse, &dense] {
            let (every, all_polls) = drive(plan, false);
            let (gated, gated_polls) = drive(plan, true);
            assert_eq!(every, gated, "{plan:?}");
            let last = every.last().expect("phases");
            assert!(last.log.len() > 5 && !last.bitstream_log.is_empty(), "{last:?}");
            assert!(
                every[3].log.len() == every[2].log.len(),
                "a disarmed injector strikes nothing"
            );
            assert!(gated_polls * 4 < all_polls, "{gated_polls} of {all_polls}");
        }
    }
}
