//! Log₂-bucketed latency histograms.
//!
//! Latency distributions are heavy-tailed, so fixed-width buckets
//! either waste resolution on the tail or lose it at the head.
//! Power-of-two buckets give constant *relative* resolution across the
//! whole range at a fixed 64-slot footprint, and recording is a
//! `leading_zeros` plus three adds — cheap enough for per-span use.
//!
//! All arithmetic saturates, which keeps [`Log2Histogram::merge`]
//! associative and commutative even at the (unreachable in practice)
//! counter ceiling — a property the proptests in this module pin down.

use serde::{Serialize, Value};

/// Number of buckets; bucket `b ≥ 1` covers values whose bit length is
/// `b`, i.e. `[2^(b-1), 2^b)`, bucket 0 holds exactly zero, and the
/// last bucket absorbs everything from `2^62` up (146 years in
/// nanoseconds — effectively "the clock glitched").
pub const BUCKETS: usize = 64;

/// A fixed-footprint log₂ histogram over `u64` samples (nanoseconds,
/// byte counts, queue depths — any non-negative magnitude).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

/// The bucket index a sample lands in.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper edge of a bucket (used for quantile estimates).
fn bucket_upper_edge(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= BUCKETS - 1 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] = self.buckets[bucket_of(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples recorded. Always equals the sum of all bucket
    /// counts (the "monotone-total" invariant the proptests check).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of recorded samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Non-empty `(bucket, count)` pairs in ascending bucket order —
    /// the sparse form the serde codec emits.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| (i, n))
    }

    /// Folds another histogram into this one (elementwise saturating
    /// add). Associative and commutative, so shards can merge in any
    /// order.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper-edge estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper bound of the first bucket at which the
    /// cumulative count reaches `q * count`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bucket, n) in self.nonzero_buckets() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= target {
                return bucket_upper_edge(bucket);
            }
        }
        bucket_upper_edge(BUCKETS - 1)
    }

    /// Strict decode of the sparse serde form; `None` on any missing
    /// field, out-of-range bucket, or count/bucket-total mismatch.
    pub fn from_value(v: &Value) -> Option<Log2Histogram> {
        let mut h = Log2Histogram::new();
        h.count = v.get("count").and_then(Value::as_u64)?;
        h.sum = v.get("sum").and_then(Value::as_u64)?;
        for pair in v.get("buckets").and_then(Value::as_array)? {
            let pair = pair.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            let bucket = pair[0].as_u64()? as usize;
            let n = pair[1].as_u64()?;
            if bucket >= BUCKETS || h.buckets[bucket] != 0 || n == 0 {
                return None;
            }
            h.buckets[bucket] = n;
        }
        let total = h.buckets.iter().fold(0u64, |a, &n| a.saturating_add(n));
        if total != h.count {
            return None;
        }
        Some(h)
    }
}

impl Serialize for Log2Histogram {
    fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .nonzero_buckets()
            .map(|(b, n)| Value::Array(vec![Value::U64(b as u64), Value::U64(n)]))
            .collect();
        Value::object()
            .field("count", &self.count)
            .field("sum", &self.sum)
            .raw("buckets", Value::Array(buckets))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_cover_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every bucket b >= 1 covers [2^(b-1), 2^b).
        for b in 1..BUCKETS - 1 {
            assert_eq!(bucket_of(1u64 << (b - 1)), b);
            assert_eq!(bucket_of((1u64 << b) - 1), b);
        }
    }

    #[test]
    fn quantile_is_an_upper_edge() {
        let mut h = Log2Histogram::new();
        for v in [1u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        // p50 of 6 samples -> 3rd sample, in bucket for 2..4 -> edge 3.
        assert_eq!(h.quantile(0.5), 3);
        assert!(h.quantile(1.0) >= 1000);
        assert_eq!(Log2Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn serde_round_trip_is_bit_exact() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 7, 8, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let json = serde::to_string(&h.to_value());
        let back =
            Log2Histogram::from_value(&serde::from_str(&json).expect("parses")).expect("decodes");
        assert_eq!(h, back);
    }

    #[test]
    fn decode_rejects_corrupt_forms() {
        let v = serde::from_str(r#"{"count":1,"sum":1,"buckets":[[99,1]]}"#).unwrap();
        assert!(Log2Histogram::from_value(&v).is_none(), "bucket out of range");
        let v = serde::from_str(r#"{"count":1,"buckets":[]}"#).unwrap();
        assert!(Log2Histogram::from_value(&v).is_none(), "missing sum");
        let v = serde::from_str(r#"{"count":2,"sum":2,"buckets":[[1,1],[1,1]]}"#).unwrap();
        assert!(Log2Histogram::from_value(&v).is_none(), "duplicate bucket");
    }
}
