//! Core execution statistics.

use flexcore_isa::{InstrClass, NUM_INSTR_CLASSES};

/// Counters the core maintains while executing.
///
/// Cache statistics live on the caches themselves (see
/// [`Core::icache_stats`](crate::Core::icache_stats) /
/// [`Core::dcache_stats`](crate::Core::dcache_stats)); bus statistics on
/// the [`SystemBus`](flexcore_mem::SystemBus).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Committed (architecturally executed) instructions.
    pub instret: u64,
    /// Delay-slot instructions annulled by a branch.
    pub annulled: u64,
    /// Committed instructions per [`InstrClass`].
    pub per_class: [u64; NUM_INSTR_CLASSES],
    /// Cycles spent stalled because an external agent (the FlexCore
    /// forward FIFO) back-pressured the commit stage.
    pub external_stall_cycles: u64,
    /// Cycles spent waiting on the write-through store buffer.
    pub store_stall_cycles: u64,
}

serde::codec_object!(CoreStats {
    "instret": instret,
    "annulled": annulled,
    "external_stall_cycles": external_stall_cycles,
    "store_stall_cycles": store_stall_cycles,
    "per_class": per_class via per_class,
});

/// Field adapter for per-class counter arrays (indexed by
/// [`InstrClass::index`]): an object keyed by lower-case class name
/// that omits zero entries (32 mostly-zero keys would drown the
/// signal).
pub mod per_class {
    use flexcore_isa::{InstrClass, NUM_INSTR_CLASSES};
    use serde::{Deserialize, Value};

    fn key(c: InstrClass) -> String {
        format!("{c:?}").to_lowercase()
    }

    /// The nonzero counters, keyed by class name.
    pub fn enc(per_class: &[u64]) -> Value {
        let mut obj = Value::object();
        for c in InstrClass::all() {
            let n = per_class[c.index()];
            if n > 0 {
                obj = obj.field(&key(c), &n);
            }
        }
        obj.build()
    }

    /// Reads an object written by [`enc`]; an absent class is zero, an
    /// unknown one an error.
    pub fn dec(v: &Value, what: &str) -> Result<[u64; NUM_INSTR_CLASSES], String> {
        let Value::Object(entries) = v else {
            return Err(format!("`{what}` is not an object"));
        };
        let mut counts = [0; NUM_INSTR_CLASSES];
        for (name, n) in entries {
            let c = InstrClass::all()
                .find(|&c| key(c) == *name)
                .ok_or_else(|| format!("`{what}` has an unknown class `{name}`"))?;
            counts[c.index()] = u64::dec(n, name)?;
        }
        Ok(counts)
    }
}

impl CoreStats {
    /// Committed instructions of one class.
    pub fn class_count(&self, class: InstrClass) -> u64 {
        self.per_class[class.index()]
    }

    /// Fraction of committed instructions in classes selected by
    /// `pred` (e.g. loads+stores). Returns 0 for an empty run.
    pub fn class_fraction(&self, mut pred: impl FnMut(InstrClass) -> bool) -> f64 {
        if self.instret == 0 {
            return 0.0;
        }
        let selected: u64 =
            InstrClass::all().filter(|&c| pred(c)).map(|c| self.per_class[c.index()]).sum();
        selected as f64 / self.instret as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_fraction_of_empty_run_is_zero() {
        let s = CoreStats::default();
        assert_eq!(s.class_fraction(|_| true), 0.0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // per_class is an array; a literal would be noise
    fn class_fraction_counts_selected_classes() {
        let mut s = CoreStats::default();
        s.instret = 10;
        s.per_class[InstrClass::Ld.index()] = 3;
        s.per_class[InstrClass::St.index()] = 2;
        s.per_class[InstrClass::Add.index()] = 5;
        assert_eq!(s.class_fraction(|c| c.is_mem()), 0.5);
        assert_eq!(s.class_fraction(|c| c.is_load()), 0.3);
    }

    #[test]
    fn per_class_omits_zeroes() {
        use serde::{Deserialize, Serialize, Value};

        let mut s = CoreStats { instret: 2, ..CoreStats::default() };
        s.per_class[InstrClass::Ld.index()] = 2;
        let v = s.to_value();
        let pc = v.get("per_class").expect("present");
        assert_eq!(pc.get("ld").and_then(Value::as_u64), Some(2));
        assert!(pc.get("st").is_none());
        assert_eq!(CoreStats::dec(&v, "stats"), Ok(s));
        let unknown = serde::from_str(r#"{"ldx":1}"#).expect("valid JSON");
        assert!(per_class::dec(&unknown, "per_class").is_err());
    }
}
