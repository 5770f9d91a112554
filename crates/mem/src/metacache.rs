//! The meta-data cache: data-carrying, write-back, bit-maskable.

use crate::{BusMaster, CacheConfig, CacheStats, MainMemory, SystemBus, TimingCache, WritePolicy};

/// Result of one meta-data cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetaAccess {
    /// The word read, or (for writes) the merged word that now resides
    /// in the cache.
    pub value: u32,
    /// Whether the access hit.
    pub hit: bool,
    /// Core-clock cycle at which the access (including any refill and
    /// victim write-back over the shared bus) completes.
    pub ready_at: u64,
}

/// Complete checkpointable state of a [`MetaDataCache`]: the tag array
/// plus every resident line's bytes, sorted by line base address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetaCacheSnapshot {
    /// Tag/LRU/statistics state.
    pub tags: crate::CacheSnapshot,
    /// `(line base address, line bytes)`, sorted by base.
    pub lines: Vec<(u32, Vec<u8>)>,
}

serde::codec_object!(MetaCacheSnapshot { "tags": tags, "lines": lines });

/// The reconfigurable fabric's private L1 cache for meta-data.
///
/// Per the paper (§III.D): "The meta-data cache is almost identical to
/// regular data caches except for the capability to write at a bit
/// granularity. Meta-data cache reads return 32-bit words as in regular
/// caches. For writes, the meta-data cache is given a 32-bit write
/// enable mask in addition to an address and a data word, and only
/// updates bits within the cache word where the bit mask is set."
///
/// Unlike the L1 timing caches, this cache carries real data: it is
/// write-back / write-allocate so repeated small tag updates stay on
/// chip, and the merged bits only reach [`MainMemory`] when a dirty line
/// is evicted or the cache is flushed.
///
/// All bus traffic (refills, write-backs) goes through the shared
/// [`SystemBus`], so meta-data misses contend with the main core — the
/// second overhead source in the paper's Table IV.
#[derive(Clone, Debug)]
pub struct MetaDataCache {
    tags: TimingCache,
    /// Line data, one `line_bytes` block per tag-array slot
    /// (`set * ways + way`). A block means something only while its
    /// slot's tag is valid; a refill overwrites the victim's block in
    /// place.
    data: Vec<u8>,
    line_bytes: u32,
}

impl MetaDataCache {
    /// Creates an empty meta-data cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid or the write policy is not
    /// [`WritePolicy::WriteBackAllocate`] (bit-masked writes require the
    /// line to be resident).
    pub fn new(config: CacheConfig) -> MetaDataCache {
        assert_eq!(
            config.write_policy,
            WritePolicy::WriteBackAllocate,
            "the meta-data cache must be write-back/write-allocate"
        );
        let tags = TimingCache::new(config);
        // One `line_bytes` block per slot: `sets * ways * line_bytes`.
        let data = vec![0; config.size_bytes as usize];
        MetaDataCache { tags, data, line_bytes: config.line_bytes }
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.tags.stats()
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        self.tags.config()
    }

    /// Byte range of `slot`'s line in `data`.
    fn line_range(&self, slot: usize) -> std::ops::Range<usize> {
        let n = self.line_bytes as usize;
        slot * n..slot * n + n
    }

    /// Byte offset in `data` of the aligned word `addr` in `slot`.
    fn word_at(&self, slot: usize, addr: u32) -> usize {
        slot * self.line_bytes as usize + (addr & (self.line_bytes - 1)) as usize
    }

    fn read_be(&self, at: usize) -> u32 {
        u32::from_be_bytes([self.data[at], self.data[at + 1], self.data[at + 2], self.data[at + 3]])
    }

    /// Looks `addr` up in the tags and, on a miss, writes back the
    /// victim (if dirty) and refills the line into the victim's slot.
    /// Returns the slot, whether the access hit, and the completion
    /// cycle.
    fn access(
        &mut self,
        addr: u32,
        is_write: bool,
        mem: &mut MainMemory,
        bus: &mut SystemBus,
        master: BusMaster,
        now: u64,
    ) -> (usize, bool, u64) {
        let lookup = self.tags.access(addr, is_write);
        if lookup.hit {
            return (lookup.slot, true, now);
        }
        let words = self.tags.config().line_words();
        let range = self.line_range(lookup.slot);
        let mut t = now;
        if let Some(victim_base) = lookup.writeback_of {
            mem.load(victim_base, &self.data[range.clone()]);
            t = bus.transfer(master, t, words);
        }
        mem.read_into(addr & !(self.line_bytes - 1), &mut self.data[range]);
        t = bus.transfer(master, t, words);
        (lookup.slot, false, t)
    }

    /// Reads the aligned 32-bit word containing `addr`.
    ///
    /// `now` is the current core-clock cycle; the returned
    /// [`MetaAccess::ready_at`] accounts for any refill and write-back
    /// over the shared bus.
    pub fn read_word(
        &mut self,
        addr: u32,
        mem: &mut MainMemory,
        bus: &mut SystemBus,
        master: BusMaster,
        now: u64,
    ) -> MetaAccess {
        let addr = addr & !3;
        let (slot, hit, ready_at) = self.access(addr, false, mem, bus, master, now);
        let value = self.read_be(self.word_at(slot, addr));
        MetaAccess { value, hit, ready_at }
    }

    /// Writes `data` into the aligned word containing `addr`, but only
    /// the bits selected by `bitmask` — the paper's bit-granular write
    /// enable. Bits where `bitmask` is 0 keep their old value.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware port list: addr/data/mask + memory side + clock
    pub fn write_masked(
        &mut self,
        addr: u32,
        data: u32,
        bitmask: u32,
        mem: &mut MainMemory,
        bus: &mut SystemBus,
        master: BusMaster,
        now: u64,
    ) -> MetaAccess {
        let addr = addr & !3;
        let (slot, hit, ready_at) = self.access(addr, true, mem, bus, master, now);
        let at = self.word_at(slot, addr);
        let merged = (self.read_be(at) & !bitmask) | (data & bitmask);
        self.data[at..at + 4].copy_from_slice(&merged.to_be_bytes());
        MetaAccess { value: merged, hit, ready_at }
    }

    /// Flips the bits selected by `mask` in the aligned word containing
    /// `addr`, if that line is resident — a fault-injection hook
    /// modeling a particle strike on the meta-data array. Tag state,
    /// statistics, and timing are untouched; a non-resident line
    /// absorbs the strike (returns `false`).
    pub fn poison(&mut self, addr: u32, mask: u32) -> bool {
        let addr = addr & !3;
        let Some(slot) = self.tags.slot_of(addr) else {
            return false;
        };
        let at = self.word_at(slot, addr);
        let flipped = self.read_be(at) ^ mask;
        self.data[at..at + 4].copy_from_slice(&flipped.to_be_bytes());
        true
    }

    /// Captures the complete cache state (tag array plus resident line
    /// data, sorted by line base) for checkpointing.
    pub fn snapshot(&self) -> MetaCacheSnapshot {
        let mut lines: Vec<(u32, Vec<u8>)> = self
            .tags
            .resident()
            .map(|(slot, base)| (base, self.data[self.line_range(slot)].to_vec()))
            .collect();
        lines.sort_unstable_by_key(|&(base, _)| base);
        MetaCacheSnapshot { tags: self.tags.snapshot(), lines }
    }

    /// Restores state captured by [`MetaDataCache::snapshot`].
    ///
    /// # Errors
    ///
    /// Refuses a snapshot whose tag array has another line count than
    /// this cache, or that carries a line its tag array does not hold
    /// or of another size than a line. A refused snapshot leaves the
    /// cache unchanged.
    pub fn restore(&mut self, snap: &MetaCacheSnapshot) -> Result<(), String> {
        let config = self.tags.config();
        let slots = (config.sets() * config.ways) as usize;
        if snap.tags.lines.len() != slots {
            return Err(format!(
                "the meta-data tag array holds {slots} lines, the snapshot {}",
                snap.tags.lines.len()
            ));
        }
        let mut tags = self.tags.clone();
        tags.restore(&snap.tags);
        let mut data = vec![0; self.data.len()];
        for (base, line) in &snap.lines {
            let slot =
                tags.slot_of(*base).filter(|_| base.is_multiple_of(self.line_bytes)).ok_or_else(
                    || format!("meta-data line {base:#010x} is not a line the tag array holds"),
                )?;
            if line.len() != self.line_bytes as usize {
                return Err(format!(
                    "meta-data line {base:#010x} holds {} bytes, not {}",
                    line.len(),
                    self.line_bytes
                ));
            }
            data[self.line_range(slot)].copy_from_slice(line);
        }
        self.tags = tags;
        self.data = data;
        Ok(())
    }

    /// Writes every resident line back to memory and empties the cache.
    ///
    /// Used at simulation end so that final meta-data state can be
    /// inspected in [`MainMemory`]; performs no bus timing.
    pub fn flush(&mut self, mem: &mut MainMemory) {
        for (slot, base) in self.tags.resident() {
            mem.load(base, &self.data[self.line_range(slot)]);
        }
        self.tags.invalidate_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MetaDataCache, MainMemory, SystemBus) {
        (MetaDataCache::new(CacheConfig::meta_default()), MainMemory::new(), SystemBus::default())
    }

    #[test]
    fn masked_write_only_touches_selected_bits() {
        let (mut c, mut mem, mut bus) = setup();
        mem.write_u32(0x4000_0000, 0xffff_0000);
        c.write_masked(
            0x4000_0000,
            0x0000_00ff,
            0x0000_ffff,
            &mut mem,
            &mut bus,
            BusMaster::Fabric,
            0,
        );
        let r = c.read_word(0x4000_0000, &mut mem, &mut bus, BusMaster::Fabric, 0);
        assert_eq!(r.value, 0xffff_00ff);
    }

    #[test]
    fn unaligned_addresses_use_containing_word() {
        let (mut c, mut mem, mut bus) = setup();
        c.write_masked(0x4000_0003, 1, 1, &mut mem, &mut bus, BusMaster::Fabric, 0);
        let r = c.read_word(0x4000_0000, &mut mem, &mut bus, BusMaster::Fabric, 0);
        assert_eq!(r.value, 1);
    }

    #[test]
    fn dirty_data_reaches_memory_only_on_eviction_or_flush() {
        let (mut c, mut mem, mut bus) = setup();
        c.write_masked(0x100, 0xdead_beef, !0, &mut mem, &mut bus, BusMaster::Fabric, 0);
        assert_eq!(mem.read_u32(0x100), 0, "write-back: memory still stale");
        c.flush(&mut mem);
        assert_eq!(mem.read_u32(0x100), 0xdead_beef);
    }

    #[test]
    fn eviction_writes_back_dirty_line() {
        let (mut c, mut mem, mut bus) = setup();
        // meta_default: 4 KB, 2-way, 32 B lines -> 64 sets; stride
        // 64*32 = 2048 maps to the same set.
        c.write_masked(0x0000, 0x11, !0, &mut mem, &mut bus, BusMaster::Fabric, 0);
        c.write_masked(0x0800, 0x22, !0, &mut mem, &mut bus, BusMaster::Fabric, 0);
        c.write_masked(0x1000, 0x33, !0, &mut mem, &mut bus, BusMaster::Fabric, 0);
        // One of the first two lines was evicted and written back.
        let in_mem = (mem.read_u32(0x0000), mem.read_u32(0x0800));
        assert!(in_mem == (0x11, 0) || in_mem == (0, 0x22), "{in_mem:?}");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn miss_timing_goes_over_the_bus() {
        let (mut c, mut mem, _) = setup();
        let mut bus =
            SystemBus::new(crate::SdramTiming { first_word: 20, per_word: 2, write_word: 6 });
        let r = c.read_word(0x40, &mut mem, &mut bus, BusMaster::Fabric, 10);
        assert!(!r.hit);
        // 8-word refill at default SDRAM timing = 20 + 7*2 = 34 cycles.
        assert_eq!(r.ready_at, 10 + 34);
        let r2 = c.read_word(0x44, &mut mem, &mut bus, BusMaster::Fabric, r.ready_at);
        assert!(r2.hit);
        assert_eq!(r2.ready_at, r.ready_at);
    }

    #[test]
    fn read_after_refill_sees_memory_contents() {
        let (mut c, mut mem, mut bus) = setup();
        mem.write_u32(0x200, 0xcafe_f00d);
        let r = c.read_word(0x200, &mut mem, &mut bus, BusMaster::Fabric, 0);
        assert_eq!(r.value, 0xcafe_f00d);
    }

    #[test]
    #[should_panic(expected = "write-back")]
    fn rejects_write_through_config() {
        let mut cfg = CacheConfig::meta_default();
        cfg.write_policy = WritePolicy::WriteThroughNoAllocate;
        let _ = MetaDataCache::new(cfg);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    const LINE: u32 = 32;
    /// Small and 2-way so that evictions are frequent: 8 sets.
    const CFG: CacheConfig = CacheConfig {
        size_bytes: 512,
        line_bytes: LINE,
        ways: 2,
        write_policy: WritePolicy::WriteBackAllocate,
    };
    const SETS: u32 = CFG.size_bytes / (LINE * CFG.ways);

    /// A resident reference line: base, dirty bit, words.
    type RefLine = (u32, bool, [u32; (LINE / 4) as usize]);

    /// An independent data-carrying LRU model over a flat word memory:
    /// per set, resident lines most-recent first.
    struct RefMeta {
        mem: std::collections::HashMap<u32, u32>,
        sets: Vec<Vec<RefLine>>,
    }

    impl RefMeta {
        fn new() -> RefMeta {
            RefMeta { mem: Default::default(), sets: vec![Vec::new(); SETS as usize] }
        }

        fn write_back(&mut self, (base, _, words): RefLine) {
            for (i, w) in words.into_iter().enumerate() {
                self.mem.insert(base + 4 * i as u32, w);
            }
        }

        /// The resident line holding `addr`, filled on a miss; returns
        /// whether it hit. The line moves to the MRU position.
        fn touch(&mut self, addr: u32, is_write: bool) -> (bool, &mut RefLine) {
            let base = addr & !(LINE - 1);
            let set = ((addr / LINE) % SETS) as usize;
            let hit = match self.sets[set].iter().position(|l| l.0 == base) {
                Some(pos) => {
                    let line = self.sets[set].remove(pos);
                    self.sets[set].insert(0, line);
                    true
                }
                None => {
                    if self.sets[set].len() == CFG.ways as usize {
                        let victim = self.sets[set].pop().expect("full set");
                        if victim.1 {
                            self.write_back(victim);
                        }
                    }
                    let words = std::array::from_fn(|i| {
                        self.mem.get(&(base + 4 * i as u32)).copied().unwrap_or(0)
                    });
                    self.sets[set].insert(0, (base, false, words));
                    false
                }
            };
            let line = &mut self.sets[set][0];
            line.1 |= is_write;
            (hit, line)
        }

        fn resident(&mut self, addr: u32) -> Option<&mut RefLine> {
            let base = addr & !(LINE - 1);
            self.sets.iter_mut().flatten().find(|l| l.0 == base)
        }

        fn flush(&mut self) {
            for set in std::mem::take(&mut self.sets) {
                set.into_iter().for_each(|l| self.write_back(l));
            }
            self.sets = vec![Vec::new(); SETS as usize];
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random sequences of reads, masked writes, poison strikes,
        /// snapshot → restore into a fresh cache, and flushes behave
        /// exactly like the reference model: same values, same hits,
        /// and the same memory image after every flush.
        #[test]
        fn cache_is_transparent_wrt_reference_model(
            ops in prop::collection::vec(
                (0u8..10, 0u32..0x2000, any::<u32>(), any::<u32>()),
                1..300
            )
        ) {
            let mut cache = MetaDataCache::new(CFG);
            let mut reference = RefMeta::new();
            let mut mem = MainMemory::new();
            let mut bus = SystemBus::default();
            for (kind, addr, data, mask) in ops {
                let word = ((addr & (LINE - 1)) / 4) as usize;
                match kind {
                    0..=3 => {
                        let r = cache.write_masked(addr, data, mask, &mut mem, &mut bus, BusMaster::Fabric, 0);
                        let (hit, line) = reference.touch(addr, true);
                        line.2[word] = (line.2[word] & !mask) | (data & mask);
                        prop_assert_eq!((r.value, r.hit), (line.2[word], hit), "write {:#x}", addr);
                    }
                    4..=6 => {
                        let r = cache.read_word(addr, &mut mem, &mut bus, BusMaster::Fabric, 0);
                        let (hit, line) = reference.touch(addr, false);
                        prop_assert_eq!((r.value, r.hit), (line.2[word], hit), "read {:#x}", addr);
                    }
                    7 => {
                        let resident = match reference.resident(addr) {
                            Some(line) => {
                                line.2[word] ^= mask;
                                true
                            }
                            None => false,
                        };
                        prop_assert_eq!(cache.poison(addr, mask), resident, "poison {:#x}", addr);
                    }
                    8 => {
                        let snap = cache.snapshot();
                        prop_assert!(snap.lines.windows(2).all(|w| w[0].0 < w[1].0));
                        let mut fresh = MetaDataCache::new(CFG);
                        fresh.restore(&snap).expect("a snapshot restores into the same geometry");
                        prop_assert_eq!(&fresh.snapshot(), &snap);
                        cache = fresh;
                    }
                    _ => {
                        cache.flush(&mut mem);
                        reference.flush();
                        for (&a, &v) in &reference.mem {
                            prop_assert_eq!(mem.read_u32(a), v, "flushed word {:#x}", a);
                        }
                    }
                }
            }
            cache.flush(&mut mem);
            reference.flush();
            for a in (0..0x2000).step_by(4) {
                let expect = reference.mem.get(&a).copied().unwrap_or(0);
                prop_assert_eq!(mem.read_u32(a), expect, "final word {:#x}", a);
            }
        }
    }
}
