//! `Serialize` implementations for the statistics types.

use serde::{Serialize, Value};

use crate::{BusStats, CacheStats};

impl Serialize for CacheStats {
    fn to_value(&self) -> Value {
        Value::object()
            .field("read_hits", &self.read_hits)
            .field("read_misses", &self.read_misses)
            .field("write_hits", &self.write_hits)
            .field("write_misses", &self.write_misses)
            .field("writebacks", &self.writebacks)
            .field("accesses", &self.accesses())
            .field("miss_ratio", &self.miss_ratio())
            .build()
    }
}

impl Serialize for BusStats {
    fn to_value(&self) -> Value {
        Value::object()
            .field("busy_cycles", &self.busy_cycles)
            .field("core_transfers", &self.core_transfers)
            .field("fabric_transfers", &self.fabric_transfers)
            .field("core_wait_cycles", &self.core_wait_cycles)
            .field("fabric_wait_cycles", &self.fabric_wait_cycles)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_serialize_with_derived_fields() {
        let s = CacheStats { read_hits: 3, read_misses: 1, ..Default::default() };
        let v = s.to_value();
        assert_eq!(v.get("accesses").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("miss_ratio").and_then(Value::as_f64), Some(0.25));
    }
}
