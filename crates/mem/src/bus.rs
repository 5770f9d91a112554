//! The shared memory bus and SDRAM timing model.

use std::fmt;

/// Who is driving a bus transfer. Used for contention accounting
/// (Table IV's overheads partly come from the fabric's meta-data refills
/// delaying the core's own misses).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BusMaster {
    /// The main processing core (L1 refills and write-through stores).
    Core,
    /// The reconfigurable fabric (meta-data cache refills/write-backs).
    Fabric,
}

/// SDRAM burst timing, expressed in **core clock cycles**.
///
/// A transfer of `n` words occupies the bus for
/// `first_word + (n - 1) * per_word` cycles. The defaults approximate
/// the paper's platform: a 100-MHz-class SDR SDRAM behind an AMBA AHB
/// bus on a ~465-MHz core — row activate + CAS ≈ 10-11 SDRAM cycles ≈
/// 50 core cycles to the first word, then one word per SDRAM cycle
/// (≈ 4-5 core cycles).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SdramTiming {
    /// Cycles from request grant to the first word of a read burst.
    pub first_word: u32,
    /// Cycles for each subsequent word of a burst.
    pub per_word: u32,
    /// Cycles a posted single-word write occupies the bus (write-through
    /// store traffic; shorter than a read because the SDRAM controller
    /// acknowledges posted writes early).
    pub write_word: u32,
}

impl Default for SdramTiming {
    fn default() -> SdramTiming {
        SdramTiming { first_word: 50, per_word: 4, write_word: 10 }
    }
}

impl SdramTiming {
    /// Bus occupancy of an `n`-word read burst, in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn burst_cycles(self, words: u32) -> u64 {
        assert!(words > 0, "zero-length bus transfer");
        u64::from(self.first_word) + u64::from(words - 1) * u64::from(self.per_word)
    }

    /// Bus occupancy of an `n`-word posted write, in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn write_cycles(self, words: u32) -> u64 {
        assert!(words > 0, "zero-length bus transfer");
        u64::from(self.write_word) + u64::from(words - 1) * u64::from(self.per_word)
    }
}

/// Aggregate bus statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BusStats {
    /// Total cycles the bus spent transferring data.
    pub busy_cycles: u64,
    /// Transfers initiated by the core.
    pub core_transfers: u64,
    /// Transfers initiated by the fabric.
    pub fabric_transfers: u64,
    /// Cycles core requests spent waiting for the bus to free up.
    pub core_wait_cycles: u64,
    /// Cycles fabric requests spent waiting for the bus to free up.
    pub fabric_wait_cycles: u64,
}

serde::codec_object!(BusStats {
    "busy_cycles": busy_cycles,
    "core_transfers": core_transfers,
    "fabric_transfers": fabric_transfers,
    "core_wait_cycles": core_wait_cycles,
    "fabric_wait_cycles": fabric_wait_cycles,
});

impl fmt::Display for BusStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bus: busy {} cyc, core {} xfers ({} wait), fabric {} xfers ({} wait)",
            self.busy_cycles,
            self.core_transfers,
            self.core_wait_cycles,
            self.fabric_transfers,
            self.fabric_wait_cycles
        )
    }
}

/// The single memory bus shared by the core's L1 caches and the
/// fabric's meta-data cache.
///
/// The model is a busy-until timeline: a request issued at cycle `now`
/// is granted at `max(now, busy_until)`, occupies the bus for the burst
/// duration, and completes when the burst ends. This captures exactly
/// the contention effect the paper describes: "meta-data refills from
/// memory hog the memory bus shared by the meta-data cache and the main
/// core caches" (§V.C).
///
/// # Example
///
/// ```
/// use flexcore_mem::{BusMaster, SystemBus};
/// let mut bus = SystemBus::default();
/// let t1 = bus.transfer(BusMaster::Fabric, 0, 8); // 8-word refill
/// let t2 = bus.transfer(BusMaster::Core, 0, 8);   // must wait behind it
/// assert_eq!(t2, 2 * t1);
/// assert!(bus.stats().core_wait_cycles > 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SystemBus {
    timing: SdramTiming,
    busy_until: u64,
    stats: BusStats,
}

impl SystemBus {
    /// Creates a bus with the given SDRAM timing.
    pub fn new(timing: SdramTiming) -> SystemBus {
        SystemBus { timing, ..SystemBus::default() }
    }

    /// Performs a read burst of `words` words requested at cycle `now`;
    /// returns the cycle at which the last word arrives.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn transfer(&mut self, master: BusMaster, now: u64, words: u32) -> u64 {
        let occupancy = self.timing.burst_cycles(words);
        self.occupy(master, now, occupancy)
    }

    /// Performs a posted write of `words` words requested at cycle
    /// `now`; returns the cycle at which the bus frees up.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn write(&mut self, master: BusMaster, now: u64, words: u32) -> u64 {
        let occupancy = self.timing.write_cycles(words);
        self.occupy(master, now, occupancy)
    }

    fn occupy(&mut self, master: BusMaster, now: u64, occupancy: u64) -> u64 {
        let grant = now.max(self.busy_until);
        let wait = grant - now;
        let done = grant + occupancy;
        self.busy_until = done;
        self.stats.busy_cycles += done - grant;
        match master {
            BusMaster::Core => {
                self.stats.core_transfers += 1;
                self.stats.core_wait_cycles += wait;
            }
            BusMaster::Fabric => {
                self.stats.fabric_transfers += 1;
                self.stats.fabric_wait_cycles += wait;
            }
        }
        done
    }

    /// The cycle until which the bus is currently occupied.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// The configured SDRAM timing.
    pub fn timing(&self) -> SdramTiming {
        self.timing
    }

    /// Restores the busy-until timeline and statistics (for
    /// checkpointing). The SDRAM timing is construction state and is
    /// not changed.
    pub fn restore(&mut self, busy_until: u64, stats: BusStats) {
        self.busy_until = busy_until;
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_cycles_formula() {
        let t = SdramTiming { first_word: 20, per_word: 2, write_word: 6 };
        assert_eq!(t.burst_cycles(1), 20);
        assert_eq!(t.burst_cycles(8), 34);
        assert_eq!(t.write_cycles(1), 6);
        assert_eq!(t.write_cycles(8), 20);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_word_burst_panics() {
        let _ = SdramTiming::default().burst_cycles(0);
    }

    #[test]
    fn idle_bus_grants_immediately() {
        let mut bus = SystemBus::new(SdramTiming { first_word: 20, per_word: 2, write_word: 6 });
        let done = bus.transfer(BusMaster::Core, 100, 1);
        assert_eq!(done, 100 + 20);
        assert_eq!(bus.stats().core_wait_cycles, 0);
    }

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut bus = SystemBus::new(SdramTiming { first_word: 20, per_word: 2, write_word: 6 });
        let t1 = bus.transfer(BusMaster::Core, 0, 8);
        let t2 = bus.transfer(BusMaster::Fabric, 10, 8);
        assert_eq!(t2, t1 + 34);
        assert_eq!(bus.stats().fabric_wait_cycles, t1 - 10);
    }

    #[test]
    fn later_request_after_idle_gap_does_not_wait() {
        let mut bus = SystemBus::new(SdramTiming { first_word: 20, per_word: 2, write_word: 6 });
        let t1 = bus.transfer(BusMaster::Core, 0, 1);
        let t2 = bus.transfer(BusMaster::Core, t1 + 50, 1);
        assert_eq!(t2, t1 + 50 + 20);
        assert_eq!(bus.stats().core_wait_cycles, 0);
    }

    #[test]
    fn busy_cycles_accumulate() {
        let mut bus = SystemBus::new(SdramTiming { first_word: 20, per_word: 2, write_word: 6 });
        bus.transfer(BusMaster::Core, 0, 8);
        bus.transfer(BusMaster::Fabric, 0, 8);
        assert_eq!(bus.stats().busy_cycles, 68);
        assert_eq!(bus.stats().core_transfers, 1);
        assert_eq!(bus.stats().fabric_transfers, 1);
    }
}
