//! Checkpoint/restore of a complete [`System`](crate::System).
//!
//! A [`Snapshot`] captures every bit of simulation state a resumed run
//! can observe: the pipeline core (architectural registers, pc/npc
//! window, cache tags, store buffer, cycle counter, statistics,
//! console), main memory (delta-compressed against the loaded program
//! image), the meta-data cache with its resident lines, the shared
//! bus, the shadow register file, the extension's run-time state, the
//! forward FIFO, trap plumbing, and the fault injector's generator
//! positions and event log.
//!
//! The restore contract: build a system *the same way* as the one that
//! was snapshotted — same [`SystemConfig`](crate::SystemConfig), same
//! extension construction, same
//! [`load_program`](crate::System::load_program) call, and the same
//! re-armed [`FaultPlan`](crate::faults::FaultPlan) if one was armed —
//! then call [`System::restore`](crate::System::restore). A run
//! interrupted at any commit boundary and restored this way produces a
//! [`RunResult`](crate::RunResult) bit-identical to the uninterrupted
//! run. The trace sink is *not* part of the snapshot: observability
//! state (metrics series, Chrome spans, the flight ring) restarts
//! empty after a restore.
//!
//! The snapshot serializes to JSON
//! ([`Snapshot::to_json`]) and parses back ([`Snapshot::from_json`]),
//! which is what the `flexsim --checkpoint-every` / `--resume` flags
//! ship to disk.

use flexcore_mem::{BusStats, MainMemory, MetaCacheSnapshot};
use flexcore_pipeline::CoreSnapshot;

use crate::ext::MonitorTrap;
use crate::faults::FaultInjectorSnapshot;
use crate::interface::FifoSnapshot;
use crate::stats::{ForwardStats, ResilienceStats};

/// Version tag embedded in every serialized snapshot; restore rejects
/// other versions. Version 2 widened the resilience counter array from
/// 5 to 7 entries (degraded-mode accounting); version 3 widened it to
/// 10 (hot-swap accounting); version 4 widened it to 11 (static
/// check-elision accounting).
pub const SNAPSHOT_FORMAT: u32 = 4;

/// Word-level difference of one 4-KB page against the baseline image
/// captured at [`load_program`](crate::System::load_program).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDelta {
    /// Base address of the page (index << 12).
    pub base: u32,
    /// `(byte offset within page, word value)` for every aligned word
    /// that differs from the baseline, ascending by offset.
    pub words: Vec<(u16, u32)>,
}

/// Complete checkpointable state of a [`System`](crate::System) (see
/// the [module docs](self) for the restore contract).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Serialization format version ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Name of the extension that was running (restore sanity check).
    pub ext_name: String,
    /// Configured forward-FIFO depth (restore sanity check).
    pub fifo_depth: u64,
    /// The pipeline core, caches, and store buffer.
    pub core: CoreSnapshot,
    /// Main memory as word diffs against the baseline image.
    pub mem_pages: Vec<PageDelta>,
    /// The meta-data cache: tag array plus resident line data.
    pub meta: MetaCacheSnapshot,
    /// Shared-bus busy timeline.
    pub bus_busy_until: u64,
    /// Shared-bus statistics.
    pub bus_stats: BusStats,
    /// The shadow register file's 8-bit tags, `%g0` first.
    pub shadow: Vec<u8>,
    /// Extension run-time state
    /// ([`Extension::snapshot_state`](crate::Extension::snapshot_state)).
    pub ext_state: Vec<u64>,
    /// The forward FIFO's resident entries and counters.
    pub fifo: FifoSnapshot,
    /// Cycle at which the fabric next frees up.
    pub fabric_free_at: u64,
    /// Forwarding statistics.
    pub forward: ForwardStats,
    /// The monitor trap, if one has been raised.
    pub monitor_trap: Option<MonitorTrap>,
    /// In-flight TRAP delivery: `(assert cycle, instret at violation)`.
    pub pending_trap: Option<(u64, u64)>,
    /// Fault-injector generator positions and logs (present exactly
    /// when a plan was armed).
    pub faults: Option<FaultInjectorSnapshot>,
    /// Fault-injection and graceful-degradation counters.
    pub resilience: ResilienceStats,
    /// Whether a fault has wedged the fabric.
    pub fabric_stuck: bool,
}

/// Why a checkpoint could not be restored: a malformed or
/// version-mismatched serialized snapshot, or a snapshot taken from a
/// differently-constructed system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestoreError(String);

impl RestoreError {
    pub(crate) fn new(msg: impl Into<String>) -> RestoreError {
        RestoreError(msg.into())
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint restore failed: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

/// Word diffs of `current` against `baseline` (`None` = all-zero
/// memory). Pages only ever accrete, so iterating `current`'s resident
/// pages covers every address that can differ.
pub(crate) fn mem_delta(baseline: Option<&MainMemory>, current: &MainMemory) -> Vec<PageDelta> {
    const ZERO_PAGE: [u8; MainMemory::PAGE_BYTES] = [0; MainMemory::PAGE_BYTES];
    let mut pages = Vec::new();
    for index in current.page_indices() {
        let cur = current.page_bytes(index).expect("index came from page_indices");
        let base = baseline.and_then(|b| b.page_bytes(index)).unwrap_or(&ZERO_PAGE);
        let mut words = Vec::new();
        for off in (0..MainMemory::PAGE_BYTES).step_by(4) {
            if cur[off..off + 4] != base[off..off + 4] {
                let value =
                    u32::from_be_bytes([cur[off], cur[off + 1], cur[off + 2], cur[off + 3]]);
                words.push((off as u16, value));
            }
        }
        if !words.is_empty() {
            pages.push(PageDelta { base: index << 12, words });
        }
    }
    pages
}

/// Applies [`mem_delta`] diffs onto a clone of the baseline.
pub(crate) fn apply_delta(mem: &mut MainMemory, pages: &[PageDelta]) {
    for page in pages {
        for &(off, value) in &page.words {
            mem.write_u32(page.base + u32::from(off), value);
        }
    }
}

mod json {
    //! JSON encoding/decoding of [`Snapshot`] via the vendored serde
    //! subset. The `Serialize` side builds a `Value` tree; the decode
    //! side hand-walks a parsed `Value` (the subset has no
    //! `Deserialize` trait).

    use serde::Value;

    use flexcore_isa::NUM_INSTR_CLASSES;
    use flexcore_mem::{BusStats, CacheSnapshot, CacheStats, LineState, MetaCacheSnapshot};
    use flexcore_pipeline::{CoreSnapshot, CoreStats, ExitReason};

    use crate::ext::MonitorTrap;
    use crate::faults::{
        BitstreamStrike, FaultAction, FaultEvent, FaultInjectorSnapshot, PacketField,
    };
    use crate::interface::FifoSnapshot;
    use crate::stats::{ForwardStats, ResilienceStats};

    use super::{PageDelta, RestoreError, Snapshot, SNAPSHOT_FORMAT};

    type R<T> = Result<T, RestoreError>;

    fn err(msg: impl Into<String>) -> RestoreError {
        RestoreError::new(msg)
    }

    // ---- decode helpers -------------------------------------------------

    fn field<'a>(v: &'a Value, key: &str) -> R<&'a Value> {
        v.get(key).ok_or_else(|| err(format!("missing field `{key}`")))
    }

    fn get_u64(v: &Value, key: &str) -> R<u64> {
        field(v, key)?.as_u64().ok_or_else(|| err(format!("field `{key}` is not an integer")))
    }

    fn get_u32(v: &Value, key: &str) -> R<u32> {
        u32::try_from(get_u64(v, key)?)
            .map_err(|_| err(format!("field `{key}` does not fit in 32 bits")))
    }

    fn get_bool(v: &Value, key: &str) -> R<bool> {
        match field(v, key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(err(format!("field `{key}` is not a boolean"))),
        }
    }

    fn get_str<'a>(v: &'a Value, key: &str) -> R<&'a str> {
        field(v, key)?.as_str().ok_or_else(|| err(format!("field `{key}` is not a string")))
    }

    fn get_array<'a>(v: &'a Value, key: &str) -> R<&'a [Value]> {
        field(v, key)?.as_array().ok_or_else(|| err(format!("field `{key}` is not an array")))
    }

    fn as_u64(v: &Value, what: &str) -> R<u64> {
        v.as_u64().ok_or_else(|| err(format!("{what} is not an integer")))
    }

    fn u64_list(items: &[Value], what: &str) -> R<Vec<u64>> {
        items.iter().map(|v| as_u64(v, what)).collect()
    }

    fn u64_array(vals: &[u64]) -> Value {
        Value::Array(vals.iter().map(|&v| Value::U64(v)).collect())
    }

    // ---- component encoders / decoders ----------------------------------

    fn cache_stats_value(s: &CacheStats) -> Value {
        Value::Array(
            [s.read_hits, s.read_misses, s.write_hits, s.write_misses, s.writebacks]
                .iter()
                .map(|&v| Value::U64(v))
                .collect(),
        )
    }

    fn cache_stats_from(v: &Value) -> R<CacheStats> {
        let items = v.as_array().ok_or_else(|| err("cache stats are not an array"))?;
        let n = u64_list(items, "cache stat")?;
        let [read_hits, read_misses, write_hits, write_misses, writebacks]: [u64; 5] =
            n.try_into().map_err(|_| err("cache stats need exactly 5 counters"))?;
        Ok(CacheStats { read_hits, read_misses, write_hits, write_misses, writebacks })
    }

    fn cache_value(c: &CacheSnapshot) -> Value {
        let lines = c
            .lines
            .iter()
            .map(|l| {
                Value::Array(vec![
                    Value::U64(u64::from(l.tag)),
                    Value::Bool(l.valid),
                    Value::Bool(l.dirty),
                    Value::U64(l.lru),
                ])
            })
            .collect();
        Value::object()
            .raw("lines", Value::Array(lines))
            .raw("stamp", Value::U64(c.stamp))
            .raw("stats", cache_stats_value(&c.stats))
            .build()
    }

    fn cache_from(v: &Value) -> R<CacheSnapshot> {
        let mut lines = Vec::new();
        for item in get_array(v, "lines")? {
            let parts = item.as_array().ok_or_else(|| err("cache line is not an array"))?;
            let [tag, valid, dirty, lru] = parts else {
                return Err(err("cache line needs exactly 4 entries"));
            };
            lines.push(LineState {
                tag: as_u64(tag, "cache line tag")? as u32,
                valid: matches!(valid, Value::Bool(true)),
                dirty: matches!(dirty, Value::Bool(true)),
                lru: as_u64(lru, "cache line lru")?,
            });
        }
        Ok(CacheSnapshot {
            lines,
            stamp: get_u64(v, "stamp")?,
            stats: cache_stats_from(field(v, "stats")?)?,
        })
    }

    fn core_stats_value(s: &CoreStats) -> Value {
        Value::object()
            .raw("instret", Value::U64(s.instret))
            .raw("annulled", Value::U64(s.annulled))
            .raw("per_class", u64_array(&s.per_class))
            .raw("external_stall_cycles", Value::U64(s.external_stall_cycles))
            .raw("store_stall_cycles", Value::U64(s.store_stall_cycles))
            .build()
    }

    fn core_stats_from(v: &Value) -> R<CoreStats> {
        let per_class: [u64; NUM_INSTR_CLASSES] =
            u64_list(get_array(v, "per_class")?, "per-class counter")?
                .try_into()
                .map_err(|_| err("per-class counters have the wrong length"))?;
        Ok(CoreStats {
            instret: get_u64(v, "instret")?,
            annulled: get_u64(v, "annulled")?,
            per_class,
            external_stall_cycles: get_u64(v, "external_stall_cycles")?,
            store_stall_cycles: get_u64(v, "store_stall_cycles")?,
        })
    }

    fn exit_value(e: &ExitReason) -> Value {
        let (kind, a, b) = match *e {
            ExitReason::Halt(code) => ("halt", u64::from(code), 0),
            ExitReason::IllegalInstruction { pc, word } => {
                ("illegal-instruction", u64::from(pc), u64::from(word))
            }
            ExitReason::MisalignedAccess { pc, addr } => {
                ("misaligned-access", u64::from(pc), u64::from(addr))
            }
            ExitReason::DivideByZero { pc } => ("divide-by-zero", u64::from(pc), 0),
            ExitReason::InstructionLimit => ("instruction-limit", 0, 0),
            ExitReason::MonitorTrap { pc } => ("monitor-trap", u64::from(pc), 0),
        };
        Value::object()
            .raw("kind", Value::Str(kind.to_string()))
            .raw("a", Value::U64(a))
            .raw("b", Value::U64(b))
            .build()
    }

    fn exit_from(v: &Value) -> R<ExitReason> {
        let a = get_u64(v, "a")? as u32;
        let b = get_u64(v, "b")? as u32;
        match get_str(v, "kind")? {
            "halt" => Ok(ExitReason::Halt(a)),
            "illegal-instruction" => Ok(ExitReason::IllegalInstruction { pc: a, word: b }),
            "misaligned-access" => Ok(ExitReason::MisalignedAccess { pc: a, addr: b }),
            "divide-by-zero" => Ok(ExitReason::DivideByZero { pc: a }),
            "instruction-limit" => Ok(ExitReason::InstructionLimit),
            "monitor-trap" => Ok(ExitReason::MonitorTrap { pc: a }),
            other => Err(err(format!("unknown exit reason `{other}`"))),
        }
    }

    fn core_value(c: &CoreSnapshot) -> Value {
        Value::object()
            .raw("regs", Value::Array(c.regs.iter().map(|&r| Value::U64(u64::from(r))).collect()))
            .raw("icc", Value::U64(u64::from(c.icc)))
            .raw("pc", Value::U64(u64::from(c.pc)))
            .raw("npc", Value::U64(u64::from(c.npc)))
            .raw("annul_next", Value::Bool(c.annul_next))
            .raw("cycle", Value::U64(c.cycle))
            .raw("icache", cache_value(&c.icache))
            .raw("dcache", cache_value(&c.dcache))
            .raw("storebuf_pending", u64_array(&c.storebuf_pending))
            .raw("storebuf_stalls", Value::U64(c.storebuf_stalls))
            .raw("stats", core_stats_value(&c.stats))
            .raw(
                "console",
                Value::Array(c.console.iter().map(|&b| Value::U64(u64::from(b))).collect()),
            )
            .raw("exited", c.exited.as_ref().map_or(Value::Null, exit_value))
            .raw("commit_slot", Value::U64(u64::from(c.commit_slot)))
            .build()
    }

    fn core_from(v: &Value) -> R<CoreSnapshot> {
        let regs: [u32; 32] = u64_list(get_array(v, "regs")?, "register")?
            .into_iter()
            .map(|r| r as u32)
            .collect::<Vec<_>>()
            .try_into()
            .map_err(|_| err("register file needs exactly 32 entries"))?;
        let console =
            u64_list(get_array(v, "console")?, "console byte")?.into_iter().map(|b| b as u8);
        let exited = match field(v, "exited")? {
            Value::Null => None,
            other => Some(exit_from(other)?),
        };
        Ok(CoreSnapshot {
            regs,
            icc: get_u64(v, "icc")? as u8,
            pc: get_u32(v, "pc")?,
            npc: get_u32(v, "npc")?,
            annul_next: get_bool(v, "annul_next")?,
            cycle: get_u64(v, "cycle")?,
            icache: cache_from(field(v, "icache")?)?,
            dcache: cache_from(field(v, "dcache")?)?,
            storebuf_pending: u64_list(get_array(v, "storebuf_pending")?, "store completion")?,
            storebuf_stalls: get_u64(v, "storebuf_stalls")?,
            stats: core_stats_from(field(v, "stats")?)?,
            console: console.collect(),
            exited,
            commit_slot: get_u32(v, "commit_slot")?,
        })
    }

    fn meta_value(m: &MetaCacheSnapshot) -> Value {
        let lines = m
            .lines
            .iter()
            .map(|(base, bytes)| {
                Value::object()
                    .raw("base", Value::U64(u64::from(*base)))
                    .raw(
                        "bytes",
                        Value::Array(bytes.iter().map(|&b| Value::U64(u64::from(b))).collect()),
                    )
                    .build()
            })
            .collect();
        Value::object().raw("tags", cache_value(&m.tags)).raw("lines", Value::Array(lines)).build()
    }

    fn meta_from(v: &Value) -> R<MetaCacheSnapshot> {
        let mut lines = Vec::new();
        for item in get_array(v, "lines")? {
            let bytes = u64_list(get_array(item, "bytes")?, "meta line byte")?
                .into_iter()
                .map(|b| b as u8)
                .collect();
            lines.push((get_u32(item, "base")?, bytes));
        }
        Ok(MetaCacheSnapshot { tags: cache_from(field(v, "tags")?)?, lines })
    }

    fn bus_stats_value(s: &BusStats) -> Value {
        Value::Array(
            [
                s.busy_cycles,
                s.core_transfers,
                s.fabric_transfers,
                s.core_wait_cycles,
                s.fabric_wait_cycles,
            ]
            .iter()
            .map(|&v| Value::U64(v))
            .collect(),
        )
    }

    fn bus_stats_from(v: &Value) -> R<BusStats> {
        let items = v.as_array().ok_or_else(|| err("bus stats are not an array"))?;
        let n = u64_list(items, "bus stat")?;
        let [busy_cycles, core_transfers, fabric_transfers, core_wait_cycles, fabric_wait_cycles]:
            [u64; 5] = n.try_into().map_err(|_| err("bus stats need exactly 5 counters"))?;
        Ok(BusStats {
            busy_cycles,
            core_transfers,
            fabric_transfers,
            core_wait_cycles,
            fabric_wait_cycles,
        })
    }

    fn forward_value(s: &ForwardStats) -> Value {
        Value::object()
            .raw("committed", Value::U64(s.committed))
            .raw("forwarded", Value::U64(s.forwarded))
            .raw("dropped", Value::U64(s.dropped))
            .raw("per_class", u64_array(&s.per_class))
            .raw("fifo_stall_cycles", Value::U64(s.fifo_stall_cycles))
            .raw("peak_occupancy", Value::U64(s.peak_occupancy))
            .build()
    }

    fn forward_from(v: &Value) -> R<ForwardStats> {
        let per_class: [u64; NUM_INSTR_CLASSES] =
            u64_list(get_array(v, "per_class")?, "per-class counter")?
                .try_into()
                .map_err(|_| err("per-class counters have the wrong length"))?;
        Ok(ForwardStats {
            committed: get_u64(v, "committed")?,
            forwarded: get_u64(v, "forwarded")?,
            dropped: get_u64(v, "dropped")?,
            per_class,
            fifo_stall_cycles: get_u64(v, "fifo_stall_cycles")?,
            peak_occupancy: get_u64(v, "peak_occupancy")?,
        })
    }

    fn resilience_value(s: &ResilienceStats) -> Value {
        Value::Array(
            [
                s.faults_injected,
                s.packets_corrupted,
                s.dropped_overflow,
                s.bitstream_retries,
                s.bitstream_reloads,
                s.unmonitored_commits,
                s.suppressed_checks,
                s.swaps_completed,
                s.swap_drained_packets,
                s.swap_stall_cycles,
                s.elided_checks,
            ]
            .iter()
            .map(|&v| Value::U64(v))
            .collect(),
        )
    }

    fn resilience_from(v: &Value) -> R<ResilienceStats> {
        let items = v.as_array().ok_or_else(|| err("resilience stats are not an array"))?;
        let n = u64_list(items, "resilience stat")?;
        let [faults_injected, packets_corrupted, dropped_overflow, bitstream_retries, bitstream_reloads, unmonitored_commits, suppressed_checks, swaps_completed, swap_drained_packets, swap_stall_cycles, elided_checks]:
            [u64; 11] =
            n.try_into().map_err(|_| err("resilience stats need exactly 11 counters"))?;
        Ok(ResilienceStats {
            faults_injected,
            packets_corrupted,
            dropped_overflow,
            bitstream_retries,
            bitstream_reloads,
            unmonitored_commits,
            suppressed_checks,
            swaps_completed,
            swap_drained_packets,
            swap_stall_cycles,
            elided_checks,
        })
    }

    fn fifo_value(f: &FifoSnapshot) -> Value {
        Value::object()
            .raw("dequeues", u64_array(&f.dequeues))
            .raw("stall_cycles", Value::U64(f.stall_cycles))
            .raw("peak_occupancy", Value::U64(f.peak_occupancy))
            .build()
    }

    fn fifo_from(v: &Value) -> R<FifoSnapshot> {
        Ok(FifoSnapshot {
            dequeues: u64_list(get_array(v, "dequeues")?, "fifo dequeue time")?,
            stall_cycles: get_u64(v, "stall_cycles")?,
            peak_occupancy: get_u64(v, "peak_occupancy")?,
        })
    }

    fn action_value(a: &FaultAction) -> Value {
        let (kind, x, mask) = match *a {
            FaultAction::FlipResult { mask } => ("flip-result", 0u64, mask),
            FaultAction::FlipRegister { reg, mask } => ("flip-register", u64::from(reg), mask),
            FaultAction::FlipMemory { addr, mask } => ("flip-memory", u64::from(addr), mask),
            FaultAction::FlipText { addr, mask } => ("flip-text", u64::from(addr), mask),
            FaultAction::CorruptPacket { field, mask } => {
                let f = match field {
                    PacketField::Result => 0u64,
                    PacketField::Srcv1 => 1,
                    PacketField::Srcv2 => 2,
                    PacketField::Addr => 3,
                    PacketField::StoreValue => 4,
                };
                ("corrupt-packet", f, mask)
            }
            FaultAction::PoisonMeta { addr, mask } => ("poison-meta", u64::from(addr), mask),
            FaultAction::StickFabric => ("stick-fabric", 0, 0),
        };
        Value::object()
            .raw("kind", Value::Str(kind.to_string()))
            .raw("x", Value::U64(x))
            .raw("mask", Value::U64(u64::from(mask)))
            .build()
    }

    fn action_from(v: &Value) -> R<FaultAction> {
        let x = get_u64(v, "x")?;
        let mask = get_u64(v, "mask")? as u32;
        match get_str(v, "kind")? {
            "flip-result" => Ok(FaultAction::FlipResult { mask }),
            "flip-register" => Ok(FaultAction::FlipRegister { reg: x as u8, mask }),
            "flip-memory" => Ok(FaultAction::FlipMemory { addr: x as u32, mask }),
            "flip-text" => Ok(FaultAction::FlipText { addr: x as u32, mask }),
            "corrupt-packet" => {
                let field = match x {
                    0 => PacketField::Result,
                    1 => PacketField::Srcv1,
                    2 => PacketField::Srcv2,
                    3 => PacketField::Addr,
                    4 => PacketField::StoreValue,
                    other => return Err(err(format!("unknown packet field {other}"))),
                };
                Ok(FaultAction::CorruptPacket { field, mask })
            }
            "poison-meta" => Ok(FaultAction::PoisonMeta { addr: x as u32, mask }),
            "stick-fabric" => Ok(FaultAction::StickFabric),
            other => Err(err(format!("unknown fault action `{other}`"))),
        }
    }

    fn faults_value(f: &FaultInjectorSnapshot) -> Value {
        let log = f
            .log
            .iter()
            .map(|e| {
                Value::object()
                    .raw("at", Value::U64(e.at))
                    .raw("cycle", Value::U64(e.cycle))
                    .raw("action", action_value(&e.action))
                    .build()
            })
            .collect();
        let bitstream_log = f
            .bitstream_log
            .iter()
            .map(|s| {
                Value::object()
                    .raw("attempt", Value::U64(s.attempt))
                    .raw("offset", Value::U64(s.offset as u64))
                    .raw("mask", Value::U64(u64::from(s.mask)))
                    .build()
            })
            .collect();
        Value::object()
            .raw("rng_states", u64_array(&f.rng_states))
            .raw("exhausted", Value::Array(f.exhausted.iter().map(|&b| Value::Bool(b)).collect()))
            .raw("log", Value::Array(log))
            .raw("bitstream_log", Value::Array(bitstream_log))
            .raw("bitstream_attempts", Value::U64(f.bitstream_attempts))
            .build()
    }

    fn faults_from(v: &Value) -> R<FaultInjectorSnapshot> {
        let mut exhausted = Vec::new();
        for item in get_array(v, "exhausted")? {
            match item {
                Value::Bool(b) => exhausted.push(*b),
                _ => return Err(err("exhausted flag is not a boolean")),
            }
        }
        let mut log = Vec::new();
        for item in get_array(v, "log")? {
            log.push(FaultEvent {
                at: get_u64(item, "at")?,
                cycle: get_u64(item, "cycle")?,
                action: action_from(field(item, "action")?)?,
            });
        }
        let mut bitstream_log = Vec::new();
        for item in get_array(v, "bitstream_log")? {
            bitstream_log.push(BitstreamStrike {
                attempt: get_u64(item, "attempt")?,
                offset: get_u64(item, "offset")? as usize,
                mask: get_u64(item, "mask")? as u8,
            });
        }
        Ok(FaultInjectorSnapshot {
            rng_states: u64_list(get_array(v, "rng_states")?, "rng state")?,
            exhausted,
            log,
            bitstream_log,
            bitstream_attempts: get_u64(v, "bitstream_attempts")?,
        })
    }

    fn trap_value(t: &MonitorTrap) -> Value {
        Value::object()
            .raw("pc", Value::U64(u64::from(t.pc)))
            .raw("reason", Value::Str(t.reason.clone()))
            .build()
    }

    fn pages_value(pages: &[PageDelta]) -> Value {
        Value::Array(
            pages
                .iter()
                .map(|p| {
                    let words = p
                        .words
                        .iter()
                        .map(|&(off, value)| {
                            Value::Array(vec![
                                Value::U64(u64::from(off)),
                                Value::U64(u64::from(value)),
                            ])
                        })
                        .collect();
                    Value::object()
                        .raw("base", Value::U64(u64::from(p.base)))
                        .raw("words", Value::Array(words))
                        .build()
                })
                .collect(),
        )
    }

    fn pages_from(v: &Value, key: &str) -> R<Vec<PageDelta>> {
        let mut pages = Vec::new();
        for item in get_array(v, key)? {
            let mut words = Vec::new();
            for w in get_array(item, "words")? {
                let parts = w.as_array().ok_or_else(|| err("page word is not an array"))?;
                let [off, value] = parts else {
                    return Err(err("page word needs exactly 2 entries"));
                };
                words.push((
                    as_u64(off, "page word offset")? as u16,
                    as_u64(value, "page word value")? as u32,
                ));
            }
            pages.push(PageDelta { base: get_u32(item, "base")?, words });
        }
        Ok(pages)
    }

    // ---- whole-snapshot encode / decode ---------------------------------

    pub(super) fn snapshot_value(s: &Snapshot) -> Value {
        Value::object()
            .raw("format", Value::U64(u64::from(s.format)))
            .raw("ext", Value::Str(s.ext_name.clone()))
            .raw("fifo_depth", Value::U64(s.fifo_depth))
            .raw("core", core_value(&s.core))
            .raw("mem_pages", pages_value(&s.mem_pages))
            .raw("meta", meta_value(&s.meta))
            .raw("bus_busy_until", Value::U64(s.bus_busy_until))
            .raw("bus_stats", bus_stats_value(&s.bus_stats))
            .raw(
                "shadow",
                Value::Array(s.shadow.iter().map(|&t| Value::U64(u64::from(t))).collect()),
            )
            .raw("ext_state", u64_array(&s.ext_state))
            .raw("fifo", fifo_value(&s.fifo))
            .raw("fabric_free_at", Value::U64(s.fabric_free_at))
            .raw("forward", forward_value(&s.forward))
            .raw("monitor_trap", s.monitor_trap.as_ref().map_or(Value::Null, trap_value))
            .raw(
                "pending_trap",
                s.pending_trap
                    .map_or(Value::Null, |(a, b)| Value::Array(vec![Value::U64(a), Value::U64(b)])),
            )
            .raw("faults", s.faults.as_ref().map_or(Value::Null, faults_value))
            .raw("resilience", resilience_value(&s.resilience))
            .raw("fabric_stuck", Value::Bool(s.fabric_stuck))
            .build()
    }

    pub(super) fn snapshot_from(v: &Value) -> R<Snapshot> {
        let format = get_u32(v, "format")?;
        if format != SNAPSHOT_FORMAT {
            return Err(err(format!(
                "unsupported snapshot format {format} (this build reads {SNAPSHOT_FORMAT})"
            )));
        }
        let monitor_trap = match field(v, "monitor_trap")? {
            Value::Null => None,
            t => Some(MonitorTrap {
                pc: get_u32(t, "pc")?,
                reason: get_str(t, "reason")?.to_string(),
            }),
        };
        let pending_trap = match field(v, "pending_trap")? {
            Value::Null => None,
            t => {
                let parts = t.as_array().ok_or_else(|| err("pending trap is not an array"))?;
                let [a, b] = parts else {
                    return Err(err("pending trap needs exactly 2 entries"));
                };
                Some((as_u64(a, "trap assert cycle")?, as_u64(b, "trap instret")?))
            }
        };
        let faults = match field(v, "faults")? {
            Value::Null => None,
            f => Some(faults_from(f)?),
        };
        let shadow =
            u64_list(get_array(v, "shadow")?, "shadow tag")?.into_iter().map(|t| t as u8).collect();
        Ok(Snapshot {
            format,
            ext_name: get_str(v, "ext")?.to_string(),
            fifo_depth: get_u64(v, "fifo_depth")?,
            core: core_from(field(v, "core")?)?,
            mem_pages: pages_from(v, "mem_pages")?,
            meta: meta_from(field(v, "meta")?)?,
            bus_busy_until: get_u64(v, "bus_busy_until")?,
            bus_stats: bus_stats_from(field(v, "bus_stats")?)?,
            shadow,
            ext_state: u64_list(get_array(v, "ext_state")?, "extension word")?,
            fifo: fifo_from(field(v, "fifo")?)?,
            fabric_free_at: get_u64(v, "fabric_free_at")?,
            forward: forward_from(field(v, "forward")?)?,
            monitor_trap,
            pending_trap,
            faults,
            resilience: resilience_from(field(v, "resilience")?)?,
            fabric_stuck: get_bool(v, "fabric_stuck")?,
        })
    }
}

impl serde::Serialize for Snapshot {
    fn to_value(&self) -> serde::Value {
        json::snapshot_value(self)
    }
}

impl Snapshot {
    /// Serializes the snapshot to one-line JSON.
    pub fn to_json(&self) -> String {
        serde::to_string(self)
    }

    /// Parses a snapshot serialized by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] on malformed JSON, a missing or
    /// mistyped field, or a format-version mismatch.
    pub fn from_json(s: &str) -> Result<Snapshot, RestoreError> {
        let v = serde::from_str(s)
            .map_err(|e| RestoreError::new(format!("invalid checkpoint JSON: {e}")))?;
        json::snapshot_from(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_delta_is_empty_against_self() {
        let mut m = MainMemory::new();
        m.write_u32(0x1000, 0xdead_beef);
        m.write_u32(0x8004, 7);
        assert!(mem_delta(Some(&m.clone()), &m).is_empty());
    }

    #[test]
    fn mem_delta_round_trips_through_apply() {
        let mut baseline = MainMemory::new();
        baseline.load(0x1000, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut current = baseline.clone();
        current.write_u32(0x1004, 0xaabb_ccdd); // changed word
        current.write_u32(0x9000, 42); // fresh page
        let delta = mem_delta(Some(&baseline), &current);
        assert_eq!(delta.iter().map(|p| p.words.len()).sum::<usize>(), 2);
        let mut restored = baseline.clone();
        apply_delta(&mut restored, &delta);
        assert_eq!(restored.read_u32(0x1000), current.read_u32(0x1000));
        assert_eq!(restored.read_u32(0x1004), 0xaabb_ccdd);
        assert_eq!(restored.read_u32(0x9000), 42);
    }

    #[test]
    fn mem_delta_with_no_baseline_diffs_against_zero() {
        let mut m = MainMemory::new();
        m.write_u32(0x2000, 9);
        let delta = mem_delta(None, &m);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].words, vec![(0, 9)]);
    }
}
