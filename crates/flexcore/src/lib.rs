//! FlexCore: instruction-grained run-time monitoring on an on-chip
//! reconfigurable fabric.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Deng, Lo, Malysa, Schneider, Suh — MICRO 2010): a hybrid
//! architecture where a bit-level reconfigurable fabric is coupled to
//! the commit stage of an in-order core through a decoupling FIFO
//! interface, so that monitoring and bookkeeping extensions run in
//! parallel with the main computation.
//!
//! The pieces, mirroring the paper's §III:
//!
//! * [`interface`] — the core–fabric interface of Table II: the 64-bit
//!   forwarding configuration register ([`Cfgr`]) with a 2-bit policy
//!   per instruction class, the forward FIFO ([`ForwardFifo`]) whose
//!   back-pressure stalls the commit stage, and the control/return
//!   signals (CACK/EMPTY/TRAP and the BFIFO return value).
//! * [`ShadowRegFile`] — the embedded 8-bit-per-register meta-data
//!   register file implemented as custom hardware inside the fabric.
//! * [`ext`] — the four prototype extensions, each with a functional
//!   model **and** a gate-level netlist for the cost models:
//!   [`ext::Umc`] (uninitialized memory check), [`ext::Dift`] (dynamic
//!   information flow tracking), [`ext::Bc`] (array bound checking via
//!   color tags), and [`ext::Sec`] (soft-error checking of ALU
//!   results).
//! * [`System`] — the full system: Leon3-like core, shared bus, 4-KB
//!   meta-data cache, the interface, and one extension, with the fabric
//!   in its own clock domain (1X / 0.5X / 0.25X of the core clock).
//! * [`software`] — the software-instrumentation baselines the paper
//!   compares against (§V.C).
//! * [`faults`] — deterministic, seeded fault injection
//!   ([`faults::FaultPlan`]): bit flips in architectural state, FFIFO
//!   packets, meta-data lines, and serialized bitstreams, validating
//!   the SEC story end-to-end. Paired with the typed [`SimError`]
//!   returned by [`System::try_run`], whose forward-progress watchdog
//!   turns would-be hangs into [`SimError::Deadlock`] diagnostics.
//! * [`checkpoint`] — complete-state snapshots ([`Snapshot`], via
//!   [`System::snapshot`]/[`System::restore`]) with delta-compressed
//!   memory: interrupt a run at any commit boundary, restore, and the
//!   final [`RunResult`] is bit-identical to the uninterrupted run.
//! * [`lockstep`] — an ISA-level golden model stepped
//!   commit-for-commit with the cycle-level pipeline
//!   ([`System::enable_lockstep`]); any architectural disagreement
//!   surfaces as [`SimError::Divergence`] carrying a minimized
//!   [`DivergenceReport`].
//! * [`recovery`] — the supervised rollback-and-replay layer on top of
//!   all of the above: a [`Supervisor`] checkpoints the system, walks
//!   an escalation ladder (replay → bitstream reload → degraded mode →
//!   abort) on any detected error, and [`FaultOutcome::classify`]
//!   triages each trial as Masked / Detected-Recovered / SDC / DUE.
//!
//! # Example: catching an uninitialized read
//!
//! ```
//! use flexcore::{ext::Umc, Implementation, System, SystemConfig};
//! use flexcore_asm::assemble;
//!
//! let program = assemble("
//!     start:  set 0x8000, %o0     ! a heap buffer, never written
//!             st %g0, [%o0]       ! initialize word 0
//!             ld [%o0], %o1       ! ok
//!             ld [%o0 + 4], %o2   ! uninitialized! UMC must trap
//!             ta 0
//! ")?;
//! let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
//! sys.load_program(&program);
//! let result = sys.try_run(1_000_000).expect("simulation error");
//! assert!(result.monitor_trap.is_some(), "UMC caught the bug");
//! # Ok::<(), flexcore_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod ext;
pub mod faults;
pub mod interface;
pub mod lockstep;
pub mod obs;
pub mod reconfig;
pub mod recovery;
pub mod software;

mod elide;
mod error;
mod shadow;
mod stats;
mod system;

pub use checkpoint::{RestoreError, Snapshot};
pub use elide::{ElisionTable, ELIDE_CFI, ELIDE_DIFT, ELIDE_UMC, ELISION_FORMAT};
pub use error::{DeadlockSnapshot, SimError};
pub use ext::{Extension, ExtensionDescriptor, MonitorTrap};
pub use interface::{Cfgr, ForwardFifo, ForwardPolicy};
pub use lockstep::{DivergenceReport, LockstepChecker};
pub use reconfig::{SwapPolicy, SwapReport, SwapRequest};
pub use recovery::{FaultOutcome, RecoveryAttempt, RecoveryPolicy, RecoveryReport, Supervisor};
pub use shadow::ShadowRegFile;
pub use stats::{ForwardStats, ResilienceStats, RunResult};
pub use system::{Implementation, RunOutcome, System, SystemConfig, BITSTREAM_RETRY_LIMIT};
