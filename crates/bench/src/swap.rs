//! The extension registry and the hot-swap glue built on it: building
//! boxed extensions by name (including CFI, whose edge table comes from
//! the static `flexcore_analysis` CFG recovery), producing the
//! bitstream a [`SwapRequest`] programs, and parsing the
//! `--swap-at CYCLE:ext` syntax.
//!
//! [`SWAPPABLE`] and [`build_extension`] are the only place a name maps
//! to a constructed extension: the paper runners
//! ([`ExtKind`](crate::ExtKind) is the Table IV view of the first four
//! entries), the fault campaigns, and the CLI tools all build their
//! monitor here. Every run is a `System<Box<dyn Extension>>`: the
//! incoming extension of a [`SwapRequest`] must have the same type as
//! the outgoing one, and boxing is what lets UMC hand the fabric over
//! to CFI mid-run.

use flexcore::ext::{Bc, Cfi, CfiTable, Dift, Extension, Mprot, Nop, Sec, Umc};
use flexcore::obs::TraceSink;
use flexcore::{SwapPolicy, SwapRequest, System};
use flexcore_analysis::cfi_edges;
use flexcore_asm::Program;
use flexcore_fabric::{map_to_luts, to_bitstream};

pub use flexcore_fabric::LUT_K;

/// The lowercase names [`build_extension`] accepts, in presentation
/// order. The first four are the paper's Table IV columns, in column
/// order ([`ExtKind::key`](crate::ExtKind::key) indexes this list).
pub const SWAPPABLE: [&str; 7] = ["umc", "dift", "bc", "sec", "mprot", "cfi", "nop"];

/// Builds the CFI edge table for `program` from the statically
/// recovered CFG (see [`flexcore_analysis::cfi_edges`]).
pub fn cfi_table_for(program: &Program) -> CfiTable {
    let edges = cfi_edges(program);
    let mut table = CfiTable::new();
    for &(from, to) in &edges.branch_edges {
        table.allow_branch(from, to);
    }
    for &target in &edges.call_targets {
        table.allow_call(target);
    }
    for &site in &edges.return_sites {
        table.allow_return(site);
    }
    table
}

/// Builds a boxed extension from its lowercase name. CFI is programmed
/// with the edge table recovered from `program`; every other extension
/// ignores the program. Returns `None` for an unknown name.
pub fn build_extension(name: &str, program: &Program) -> Option<Box<dyn Extension>> {
    Some(match name {
        "umc" => Box::new(Umc::new()),
        "dift" => Box::new(Dift::new()),
        "bc" => Box::new(Bc::new()),
        "sec" => Box::new(Sec::new()),
        "mprot" => Box::new(Mprot::new()),
        "cfi" => Box::new(Cfi::new(cfi_table_for(program))),
        "nop" => Box::new(Nop::new()),
        _ => return None,
    })
}

/// The registry entries an [`ElisionTable`](flexcore::ElisionTable)
/// can discharge checks for (a nonzero
/// [`Extension::elision_class`]), in registry order.
pub fn elidable() -> Vec<&'static str> {
    // Elision classes do not depend on the program; CFI only needs one
    // to build its edge table.
    let program = flexcore_asm::assemble("start: ta 0").expect("one-instruction program assembles");
    SWAPPABLE
        .into_iter()
        .filter(|name| {
            build_extension(name, &program).expect("registry names build").elision_class() != 0
        })
        .collect()
}

/// The serialized bitstream that programs `ext`'s datapath: its netlist
/// technology-mapped at [`LUT_K`] and serialized with the framed codec.
pub fn bitstream_for(ext: &dyn Extension) -> Vec<u8> {
    to_bitstream(&map_to_luts(&ext.netlist(), LUT_K))
}

/// One parsed `--swap-at COMMIT:ext` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwapPoint {
    /// Commit boundary the swap fires at.
    pub at_commit: u64,
    /// Lowercase target-extension name (one of [`SWAPPABLE`]).
    pub to: String,
    /// State carry-over policy (append `:carry` to opt in).
    pub policy: SwapPolicy,
}

impl SwapPoint {
    /// Parses `COMMIT:ext` or `COMMIT:ext:carry`.
    pub fn parse(s: &str) -> Result<SwapPoint, String> {
        let mut parts = s.split(':');
        let at = parts.next().unwrap_or_default();
        let at_commit: u64 =
            at.parse().map_err(|_| format!("`{s}`: expected COMMIT:ext, got commit `{at}`"))?;
        let to = parts.next().ok_or_else(|| format!("`{s}`: expected COMMIT:ext"))?.to_string();
        if !SWAPPABLE.contains(&to.as_str()) {
            return Err(format!(
                "`{s}`: unknown extension `{to}` (one of {})",
                SWAPPABLE.join(" ")
            ));
        }
        let policy = match parts.next() {
            None => SwapPolicy::Reset,
            Some("carry") => SwapPolicy::Carry,
            Some("reset") => SwapPolicy::Reset,
            Some(other) => return Err(format!("`{s}`: unknown policy `{other}` (reset|carry)")),
        };
        if parts.next().is_some() {
            return Err(format!("`{s}`: trailing fields after COMMIT:ext[:policy]"));
        }
        Ok(SwapPoint { at_commit, to, policy })
    }
}

/// Schedules `point` on a boxed-extension system: builds the incoming
/// extension and its bitstream and files the [`SwapRequest`].
pub fn schedule<S: TraceSink>(
    sys: &mut System<Box<dyn Extension>, S>,
    point: &SwapPoint,
    program: &Program,
) -> Result<(), String> {
    let ext = build_extension(&point.to, program)
        .ok_or_else(|| format!("unknown extension `{}`", point.to))?;
    let bitstream = bitstream_for(ext.as_ref());
    sys.schedule_swap(SwapRequest {
        at_commit: point.at_commit,
        bitstream,
        ext,
        policy: point.policy,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExtKind;
    use flexcore_asm::assemble;

    fn program() -> Program {
        assemble("start: call fn1\n nop\n ta 0\n fn1: retl\n nop").expect("assembles")
    }

    #[test]
    fn every_swappable_name_builds_and_serializes() {
        let p = program();
        for name in SWAPPABLE {
            let ext = build_extension(name, &p).expect(name);
            assert!(!bitstream_for(ext.as_ref()).is_empty(), "{name} bitstream");
        }
        assert!(build_extension("sdram", &p).is_none());
    }

    /// 64-bit FNV-1a, for pinning bitstreams by hash.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Every registry bitstream, and so every Table III LUT count and
    /// depth, is pinned: a mapper or netlist change that moves one
    /// fails here first.
    #[test]
    fn every_swappable_bitstream_is_pinned() {
        // (name, FNV-1a of `bitstream_for`, LUT count, depth)
        const PINNED: [(&str, u64, usize, usize); 7] = [
            ("umc", 0x2539_dff6_fb02_9c87, 216, 7),
            ("dift", 0x90ef_9b1d_aa1a_ba66, 252, 7),
            ("bc", 0x998a_240c_c43c_b1a9, 424, 7),
            ("sec", 0xda99_ee8f_c4ef_edcf, 629, 10),
            ("mprot", 0x1666_ee15_7685_14e0, 151, 7),
            ("cfi", 0xa310_030b_ee39_af3a, 172, 5),
            ("nop", 0xcbf1_fe25_567d_799a, 0, 0),
        ];
        let p = program();
        assert_eq!(PINNED.map(|(name, ..)| name), SWAPPABLE);
        for (name, hash, luts, depth) in PINNED {
            let bytes = bitstream_for(build_extension(name, &p).expect(name).as_ref());
            let mapping = flexcore_fabric::from_bitstream(&bytes).expect("own bitstream decodes");
            let got = (fnv1a(&bytes), mapping.lut_count(), mapping.depth());
            assert_eq!(got, (hash, luts, depth), "{name}");
        }
    }

    #[test]
    fn registry_is_the_single_source_of_extension_names() {
        let p = program();
        for k in ExtKind::ALL {
            assert_eq!(k.key(), SWAPPABLE[k as usize]);
            let ext = build_extension(k.key(), &p).expect("paper extensions are registered");
            assert_eq!(ext.name(), k.name(), "{k:?}");
        }
        for name in SWAPPABLE {
            let ext = build_extension(name, &p).expect(name);
            assert_eq!(ext.name().to_lowercase(), name);
        }
        assert_eq!(elidable(), ["umc", "dift", "cfi"]);
    }

    #[test]
    fn cfi_table_covers_the_recovered_edges() {
        let table = cfi_table_for(&program());
        let (_, calls, rets) = table.len();
        assert!(calls >= 2, "fn1 + entry: {:?}", table.len());
        assert_eq!(rets, 1);
    }

    #[test]
    fn swap_point_syntax_round_trips() {
        assert_eq!(
            SwapPoint::parse("500:cfi").expect("parses"),
            SwapPoint { at_commit: 500, to: "cfi".into(), policy: SwapPolicy::Reset }
        );
        assert_eq!(SwapPoint::parse("1:umc:carry").expect("parses").policy, SwapPolicy::Carry);
        assert!(SwapPoint::parse("cfi").is_err());
        assert!(SwapPoint::parse("12:tpu").is_err());
        assert!(SwapPoint::parse("12:cfi:often").is_err());
    }
}
