//! Core configuration.
//!
//! The paper evaluates one Leon3 (§V.A): single-issue, 7-stage
//! pipeline, 32-KB direct-mapped L1 I/D caches with 32-B lines,
//! write-through no-allocate. Its cache geometry and latencies are the
//! constants below; only the commit width varies (the superscalar
//! study).

use flexcore_mem::CacheConfig;

/// L1 instruction and data cache geometry.
pub(crate) const L1: CacheConfig = CacheConfig::l1_default();
/// Words per L1 line: the length of a refill burst on the bus.
pub(crate) const L1_LINE_WORDS: u32 = L1.line_words();
/// Write buffer depth for write-through stores.
pub(crate) const STORE_BUFFER_DEPTH: usize = 8;
/// Extra cycles for integer multiply (Leon3's 32x32 multiplier).
pub(crate) const MUL_LATENCY: u64 = 4;
/// Extra cycles for integer divide (Leon3's radix-2 divider).
pub(crate) const DIV_LATENCY: u64 = 35;
/// Extra cycles a load spends in the pipeline beyond the base cycle
/// (Leon3 loads occupy the memory stage for two cycles).
pub(crate) const LOAD_LATENCY: u64 = 1;
/// Extra cycles charged on a *taken* control transfer beyond its delay
/// slot (the Leon3 fetch-redirect bubble on jumps and taken branches).
pub(crate) const TAKEN_BRANCH_PENALTY: u64 = 1;

/// The one settable parameter of the modeled core.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Idealized commit width: how many instructions share one base
    /// cycle. 1 models the paper's single-issue Leon3; larger values
    /// give an optimistic superscalar bound (no dependence stalls) for
    /// the paper's future-work question of how FlexCore scales when
    /// the core commits faster. Cache, branch, and latency penalties
    /// still apply per instruction.
    pub commit_width: u32,
}

impl CoreConfig {
    /// The paper's evaluation configuration (§V.A): the single-issue
    /// Leon3.
    pub fn leon3() -> CoreConfig {
        CoreConfig { commit_width: 1 }
    }

    /// An idealized `width`-issue variant of the Leon3 configuration
    /// (see [`CoreConfig::commit_width`]).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn superscalar(width: u32) -> CoreConfig {
        assert!(width > 0, "commit width must be at least 1");
        CoreConfig { commit_width: width }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leon3_matches_paper_parameters() {
        assert_eq!(CoreConfig::leon3().commit_width, 1);
        assert_eq!(L1.size_bytes, 32 * 1024);
        assert_eq!(L1.line_bytes, 32);
        assert_eq!(L1_LINE_WORDS, 8);
        assert_eq!((MUL_LATENCY, DIV_LATENCY), (4, 35));
    }
}
