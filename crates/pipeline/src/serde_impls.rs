//! `Serialize` implementations for the statistics and exit types.

use flexcore_isa::InstrClass;
use serde::{Serialize, Value};

use crate::{CoreStats, ExitReason};

/// Per-class counter arrays (indexed by [`InstrClass::index`])
/// serialize as an object keyed by class name, omitting zero entries
/// (32 mostly-zero keys would drown the signal).
pub fn per_class_value(per_class: &[u64]) -> Value {
    let mut obj = Value::object();
    for c in InstrClass::all() {
        let n = per_class[c.index()];
        if n > 0 {
            obj = obj.field(&format!("{c:?}").to_lowercase(), &n);
        }
    }
    obj.build()
}

impl Serialize for CoreStats {
    fn to_value(&self) -> Value {
        Value::object()
            .field("instret", &self.instret)
            .field("annulled", &self.annulled)
            .field("external_stall_cycles", &self.external_stall_cycles)
            .field("store_stall_cycles", &self.store_stall_cycles)
            .raw("per_class", per_class_value(&self.per_class))
            .build()
    }
}

impl Serialize for ExitReason {
    fn to_value(&self) -> Value {
        let (kind, detail) = match *self {
            ExitReason::Halt(code) => ("halt", Value::object().field("code", &code).build()),
            ExitReason::IllegalInstruction { pc, word } => (
                "illegal_instruction",
                Value::object()
                    .field("pc", &format!("{pc:#010x}"))
                    .field("word", &format!("{word:#010x}"))
                    .build(),
            ),
            ExitReason::MisalignedAccess { pc, addr } => (
                "misaligned_access",
                Value::object()
                    .field("pc", &format!("{pc:#010x}"))
                    .field("addr", &format!("{addr:#010x}"))
                    .build(),
            ),
            ExitReason::DivideByZero { pc } => {
                ("divide_by_zero", Value::object().field("pc", &format!("{pc:#010x}")).build())
            }
            ExitReason::InstructionLimit => ("instruction_limit", Value::object().build()),
            ExitReason::MonitorTrap { pc } => {
                ("monitor_trap", Value::object().field("pc", &format!("{pc:#010x}")).build())
            }
        };
        Value::object().field("kind", &kind).raw("detail", detail).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_reason_tags_its_kind() {
        let v = ExitReason::Halt(0).to_value();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("halt"));
        let v = ExitReason::MonitorTrap { pc: 0x40 }.to_value();
        assert_eq!(
            v.get("detail").and_then(|d| d.get("pc")).and_then(Value::as_str),
            Some("0x00000040")
        );
    }

    #[test]
    fn per_class_omits_zeroes() {
        let mut s = CoreStats { instret: 2, ..CoreStats::default() };
        s.per_class[InstrClass::Ld.index()] = 2;
        let v = s.to_value();
        let pc = v.get("per_class").expect("present");
        assert_eq!(pc.get("ld").and_then(Value::as_u64), Some(2));
        assert!(pc.get("st").is_none());
    }
}
