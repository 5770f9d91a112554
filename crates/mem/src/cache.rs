//! Tag-only set-associative timing cache (used for the L1 I/D caches).

use std::fmt;

/// Write policy of a cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WritePolicy {
    /// Writes go straight to memory; no allocation on a write miss
    /// (the Leon3 L1 policy).
    WriteThroughNoAllocate,
    /// Writes dirty the line; dirty victims are written back on
    /// eviction (the meta-data cache policy).
    WriteBackAllocate,
}

/// Geometry and policy of a cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (1 = direct-mapped).
    pub ways: u32,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// The paper's L1 configuration: 32 KB, 32-byte lines. Leon3's
    /// caches are direct-mapped by default; we keep that, with
    /// write-through / no-allocate.
    pub const fn l1_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            ways: 1,
            write_policy: WritePolicy::WriteThroughNoAllocate,
        }
    }

    /// The paper's meta-data cache: 4 KB, 32-byte lines, write-back
    /// with allocation so that bit-masked tag updates stay on chip.
    pub const fn meta_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 32,
            ways: 2,
            write_policy: WritePolicy::WriteBackAllocate,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    /// Number of words per line.
    pub const fn line_words(&self) -> u32 {
        self.line_bytes / 4
    }

    /// Validates the geometry (everything power-of-two and consistent).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on an invalid geometry; called
    /// from the cache constructors.
    pub fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two() && self.line_bytes >= 4,
            "line size {} must be a power of two >= 4",
            self.line_bytes
        );
        assert!(self.ways >= 1, "associativity must be at least 1");
        assert!(
            self.size_bytes.is_multiple_of(self.line_bytes * self.ways),
            "size {} not divisible by line*ways",
            self.size_bytes
        );
        assert!(self.sets().is_power_of_two(), "set count {} must be a power of two", self.sets());
    }
}

/// Hit/miss statistics for one cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Dirty lines written back (write-back caches only).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Overall miss ratio (0 when there were no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.read_misses + self.write_misses) as f64 / total as f64
        }
    }
}

serde::codec_object!(CacheStats {
    "read_hits": read_hits,
    "read_misses": read_misses,
    "write_hits": write_hits,
    "write_misses": write_misses,
    "writebacks": writebacks,
    "accesses": accesses(),
    "miss_ratio": miss_ratio(),
});

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, miss ratio {:.2}% ({} wb)",
            self.accesses(),
            self.miss_ratio() * 100.0,
            self.writebacks
        )
    }
}

/// One cache line's replacement state: what [`TimingCache`] keeps per
/// slot, and what [`TimingCache::snapshot`] captures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineState {
    /// Stored tag.
    pub tag: u32,
    /// Valid bit.
    pub valid: bool,
    /// Dirty bit (write-back caches only).
    pub dirty: bool,
    /// LRU timestamp (bigger = more recent).
    pub lru: u64,
}

// Positional: a checkpoint holds one per cache line.
serde::codec_array!(LineState [tag, valid, dirty, lru]);

const INVALID: LineState = LineState { tag: 0, valid: false, dirty: false, lru: 0 };

/// Complete checkpointable state of a [`TimingCache`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CacheSnapshot {
    /// Every line, ways-within-set major order (the internal layout).
    pub lines: Vec<LineState>,
    /// The LRU stamp counter.
    pub stamp: u64,
    /// Accumulated statistics.
    pub stats: CacheStats,
}

serde::codec_object!(CacheSnapshot { "lines": lines, "stamp": stamp, "stats": stats });

/// Outcome of a cache access: what the timing model must pay for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lookup {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the access allocated a line (and therefore needs a line
    /// refill from memory).
    pub refill: bool,
    /// Base address of a dirty victim that must be written back first.
    pub writeback_of: Option<u32>,
    /// The line slot (`set * ways + way`) holding the address after a
    /// hit or an allocation; on an allocation it is the victim's slot.
    /// Meaningless when the access neither hit nor allocated.
    pub slot: usize,
}

/// A set-associative, LRU, tag-only cache.
///
/// It tracks hits, misses, refills and write-backs but holds no data:
/// the L1 caches are write-through, so [`MainMemory`](crate::MainMemory)
/// is always current and functional reads can bypass the model. The
/// data-carrying variant (needed for bit-masked meta-data writes) is
/// [`MetaDataCache`](crate::MetaDataCache), which embeds one of these
/// for its tags.
#[derive(Clone, Debug)]
pub struct TimingCache {
    config: CacheConfig,
    /// `log2(line_bytes)`: address bits within a line.
    line_shift: u32,
    /// `log2(sets)`: address bits selecting the set.
    set_bits: u32,
    lines: Vec<LineState>,
    stamp: u64,
    stats: CacheStats,
}

impl TimingCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> TimingCache {
        config.validate();
        let n = (config.sets() * config.ways) as usize;
        TimingCache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: config.sets().trailing_zeros(),
            lines: vec![INVALID; n],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Splits `addr` into set and tag with shifts (the geometry is
    /// power-of-two, see [`CacheConfig::validate`]).
    #[inline]
    fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        let line = addr >> self.line_shift;
        (line & ((1 << self.set_bits) - 1), line >> self.set_bits)
    }

    /// Base address of the line resident in `slot` with `tag`.
    fn line_base(&self, slot: usize, tag: u32) -> u32 {
        let set = slot as u32 / self.config.ways;
        ((tag << self.set_bits) | set) << self.line_shift
    }

    /// Looks up `addr` for a read (`is_write = false`) or write, updates
    /// the tags and statistics, and reports what memory traffic is
    /// needed.
    ///
    /// A direct-mapped cache (the L1 default) checks the one line the
    /// set can hold inline; everything else takes the way search.
    #[inline]
    pub fn access(&mut self, addr: u32, is_write: bool) -> Lookup {
        self.stamp += 1;
        let (set, tag) = self.set_and_tag(addr);
        if self.config.ways == 1 {
            let line = self.lines[set as usize];
            if line.valid && line.tag == tag {
                return self.hit(set as usize, is_write);
            }
        }
        self.search(set, tag, is_write)
    }

    /// Marks the line in `slot` most recently used (and dirty on a
    /// write-back write) and counts the hit.
    #[inline]
    fn hit(&mut self, slot: usize, is_write: bool) -> Lookup {
        let line = &mut self.lines[slot];
        line.lru = self.stamp;
        if is_write && self.config.write_policy == WritePolicy::WriteBackAllocate {
            line.dirty = true;
        }
        if is_write {
            self.stats.write_hits += 1;
        } else {
            self.stats.read_hits += 1;
        }
        Lookup { hit: true, refill: false, writeback_of: None, slot }
    }

    /// The way search behind [`TimingCache::access`], after the stamp
    /// has moved: a hit in any way, or a miss with its allocation.
    fn search(&mut self, set: u32, tag: u32, is_write: bool) -> Lookup {
        let stamp = self.stamp;
        let policy = self.config.write_policy;
        let first = set as usize * self.config.ways as usize;
        let ways = &self.lines[first..first + self.config.ways as usize];

        if let Some(way) = ways.iter().position(|l| l.valid && l.tag == tag) {
            return self.hit(first + way, is_write);
        }

        // Miss.
        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let allocate = !is_write || policy == WritePolicy::WriteBackAllocate;
        if !allocate {
            return Lookup { hit: false, refill: false, writeback_of: None, slot: first };
        }

        // Choose a victim: an invalid way if any, else LRU.
        let (way, victim) = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .map(|(way, l)| (way, *l))
            .expect("at least one way");
        let slot = first + way;
        let writeback_of = (victim.valid && victim.dirty).then(|| self.line_base(slot, victim.tag));
        self.lines[slot] = LineState {
            tag,
            valid: true,
            dirty: is_write && policy == WritePolicy::WriteBackAllocate,
            lru: stamp,
        };
        if writeback_of.is_some() {
            self.stats.writebacks += 1;
        }
        Lookup { hit: false, refill: true, writeback_of, slot }
    }

    /// Captures the complete replacement state (tags, valid/dirty bits,
    /// LRU stamps, statistics) for checkpointing.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot { lines: self.lines.clone(), stamp: self.stamp, stats: self.stats }
    }

    /// Restores state captured by [`TimingCache::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's line count does not match this cache's
    /// geometry (snapshots only restore onto an identically configured
    /// cache).
    pub fn restore(&mut self, snap: &CacheSnapshot) {
        self.lines.copy_from_slice(&snap.lines);
        self.stamp = snap.stamp;
        self.stats = snap.stats;
    }

    /// The line slot (`set * ways + way`) holding `addr`, if resident
    /// (no state change).
    pub fn slot_of(&self, addr: u32) -> Option<usize> {
        let (set, tag) = self.set_and_tag(addr);
        let w = self.config.ways as usize;
        let first = set as usize * w;
        self.lines[first..first + w]
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|way| first + way)
    }

    /// `(slot, line base address)` of every resident line, in slot
    /// order.
    pub fn resident(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .map(|(slot, l)| (slot, self.line_base(slot, l.tag)))
    }

    /// Invalidates the whole cache (does not write back dirty lines —
    /// callers that care must flush first).
    pub fn invalidate_all(&mut self) {
        self.lines.fill(INVALID);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Serialize, Value};

    #[test]
    fn cache_stats_serialize_with_derived_fields() {
        let s = CacheStats { read_hits: 3, read_misses: 1, ..Default::default() };
        let v = s.to_value();
        assert_eq!(v.get("accesses").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("miss_ratio").and_then(Value::as_f64), Some(0.25));
    }

    fn tiny(ways: u32, policy: WritePolicy) -> TimingCache {
        TimingCache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            ways,
            write_policy: policy,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny(1, WritePolicy::WriteThroughNoAllocate);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x104, false).hit, "same line");
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn write_through_does_not_allocate() {
        let mut c = tiny(1, WritePolicy::WriteThroughNoAllocate);
        let l = c.access(0x100, true);
        assert!(!l.hit && !l.refill);
        assert!(c.slot_of(0x100).is_none());
        // A read then allocates, and a subsequent write hits.
        c.access(0x100, false);
        assert!(c.access(0x100, true).hit);
    }

    #[test]
    fn write_back_allocates_and_writes_back_dirty_victim() {
        let mut c = tiny(1, WritePolicy::WriteBackAllocate);
        // 256 B direct-mapped, 32 B lines -> 8 sets; 0x000 and 0x100
        // conflict.
        let l = c.access(0x000, true);
        assert!(l.refill && l.writeback_of.is_none());
        let l2 = c.access(0x100, true);
        assert!(l2.refill);
        assert_eq!(l2.writeback_of, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_victim_needs_no_writeback() {
        let mut c = tiny(1, WritePolicy::WriteBackAllocate);
        c.access(0x000, false); // clean
        let l = c.access(0x100, false);
        assert!(l.refill);
        assert_eq!(l.writeback_of, None);
    }

    #[test]
    fn lru_evicts_least_recent_way() {
        let mut c = tiny(2, WritePolicy::WriteBackAllocate);
        // 256 B, 2-way, 32 B lines -> 4 sets. Addresses 0x000, 0x080,
        // 0x100 all map to set 0.
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch 0x000 again
        c.access(0x100, false); // should evict 0x080
        assert!(c.slot_of(0x000).is_some());
        assert!(c.slot_of(0x080).is_none());
        assert!(c.slot_of(0x100).is_some());
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = tiny(2, WritePolicy::WriteBackAllocate);
        c.access(0x40, false);
        assert!(c.slot_of(0x40).is_some());
        c.invalidate_all();
        assert!(c.slot_of(0x40).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_geometry_panics() {
        let _ = TimingCache::new(CacheConfig {
            size_bytes: 96,
            line_bytes: 32,
            ways: 1,
            write_policy: WritePolicy::WriteThroughNoAllocate,
        });
    }

    #[test]
    fn l1_default_geometry() {
        let c = CacheConfig::l1_default();
        c.validate();
        assert_eq!(c.sets(), 1024);
        assert_eq!(c.line_words(), 8);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// An independent reference implementation of a set-associative LRU
    /// cache: per set, a most-recent-first list of resident tags.
    struct RefCache {
        cfg: CacheConfig,
        sets: Vec<Vec<(u32, bool)>>, // (tag, dirty), MRU first
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> RefCache {
            RefCache { cfg, sets: vec![Vec::new(); cfg.sets() as usize] }
        }

        /// Returns (hit, writeback_of).
        fn access(&mut self, addr: u32, is_write: bool) -> (bool, Option<u32>) {
            let line = addr / self.cfg.line_bytes;
            let set_idx = (line % self.cfg.sets()) as usize;
            let tag = line / self.cfg.sets();
            let ways = self.cfg.ways as usize;
            let wb_policy = self.cfg.write_policy == WritePolicy::WriteBackAllocate;
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
                let (t, mut d) = set.remove(pos);
                if is_write && wb_policy {
                    d = true;
                }
                set.insert(0, (t, d));
                return (true, None);
            }
            let allocate = !is_write || wb_policy;
            if !allocate {
                return (false, None);
            }
            let mut wb = None;
            if set.len() == ways {
                let (vt, vd) = set.pop().expect("full set");
                if vd {
                    wb = Some((vt * self.cfg.sets() + set_idx as u32) * self.cfg.line_bytes);
                }
            }
            set.insert(0, (tag, is_write && wb_policy));
            (false, wb)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Hit/miss/write-back behaviour matches the reference LRU
        /// model access-for-access, across geometries and policies, and
        /// the replacement state checkpoints record moves the same way
        /// on every path: each access bumps the stamp once, and the
        /// line it hits or allocates takes that stamp.
        #[test]
        fn timing_cache_matches_reference_lru(
            ways in 1u32..=4,
            sets_log2 in 1u32..=4,
            write_back in any::<bool>(),
            accesses in prop::collection::vec((0u32..4096, any::<bool>()), 1..300),
        ) {
            let cfg = CacheConfig {
                size_bytes: 32 * (1 << sets_log2) * ways,
                line_bytes: 32,
                ways,
                write_policy: if write_back {
                    WritePolicy::WriteBackAllocate
                } else {
                    WritePolicy::WriteThroughNoAllocate
                },
            };
            let mut dut = TimingCache::new(cfg);
            let mut reference = RefCache::new(cfg);
            for (i, &(addr, is_write)) in accesses.iter().enumerate() {
                let lookup = dut.access(addr, is_write);
                let (ref_hit, ref_wb) = reference.access(addr, is_write);
                prop_assert_eq!(lookup.hit, ref_hit, "access {} addr {:#x}", i, addr);
                prop_assert_eq!(lookup.writeback_of, ref_wb, "access {} addr {:#x}", i, addr);
                let snap = dut.snapshot();
                prop_assert_eq!(snap.stamp, i as u64 + 1, "access {}", i);
                if lookup.hit || lookup.refill {
                    prop_assert_eq!(dut.slot_of(addr), Some(lookup.slot), "access {}", i);
                    prop_assert_eq!(snap.lines[lookup.slot].lru, snap.stamp, "access {}", i);
                }
            }
        }
    }
}
