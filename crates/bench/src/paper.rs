//! The paper's published numbers (Tables III and IV), used to print
//! paper-vs-measured comparisons in the regeneration binaries and to
//! assert reproduction *shapes* in the integration tests.

use crate::ExtKind;

/// One Table III row.
#[derive(Clone, Copy, Debug)]
pub struct AreaPowerRow {
    /// Configuration name as printed in the paper.
    pub name: &'static str,
    /// Maximum frequency, MHz.
    pub fmax_mhz: f64,
    /// Area, µm².
    pub area_um2: f64,
    /// Area overhead vs. baseline (fraction; `None` for the baseline).
    pub area_overhead: Option<f64>,
    /// Power, mW.
    pub power_mw: f64,
    /// Power overhead vs. baseline (fraction).
    pub power_overhead: Option<f64>,
}

/// Table III: the baseline Leon3 row.
pub const BASELINE: AreaPowerRow = AreaPowerRow {
    name: "Unmodified Leon3 w/ 32KB L1",
    fmax_mhz: 465.0,
    area_um2: 835_525.0,
    area_overhead: None,
    power_mw: 365.0,
    power_overhead: None,
};

/// Table III: the full-ASIC extension rows.
pub const ASIC_ROWS: [AreaPowerRow; 4] = [
    AreaPowerRow {
        name: "UMC",
        fmax_mhz: 463.0,
        area_um2: 932_118.0,
        area_overhead: Some(0.116),
        power_mw: 388.0,
        power_overhead: Some(0.063),
    },
    AreaPowerRow {
        name: "DIFT",
        fmax_mhz: 456.0,
        area_um2: 960_558.0,
        area_overhead: Some(0.150),
        power_mw: 388.0,
        power_overhead: Some(0.063),
    },
    AreaPowerRow {
        name: "BC",
        fmax_mhz: 456.0,
        area_um2: 996_894.0,
        area_overhead: Some(0.193),
        power_mw: 393.0,
        power_overhead: Some(0.077),
    },
    AreaPowerRow {
        name: "SEC",
        fmax_mhz: 463.0,
        area_um2: 836_786.0,
        area_overhead: Some(0.0015),
        power_mw: 364.0,
        power_overhead: Some(0.0),
    },
];

/// Table III: the dedicated FlexCore modules (interface + meta-data
/// cache), common to all fabric extensions.
pub const FLEXCORE_COMMON: AreaPowerRow = AreaPowerRow {
    name: "Leon3 w/ dedicated FlexCore modules",
    fmax_mhz: 458.0,
    area_um2: 1_106_967.0,
    area_overhead: Some(0.325),
    power_mw: 418.0,
    power_overhead: Some(0.146),
};

/// Table III: the extensions mapped onto the Flex fabric.
pub const FABRIC_ROWS: [AreaPowerRow; 4] = [
    AreaPowerRow {
        name: "UMC",
        fmax_mhz: 266.0,
        area_um2: 90_384.0,
        area_overhead: Some(0.108),
        power_mw: 21.0,
        power_overhead: Some(0.058),
    },
    AreaPowerRow {
        name: "DIFT",
        fmax_mhz: 256.0,
        area_um2: 123_471.0,
        area_overhead: Some(0.148),
        power_mw: 23.0,
        power_overhead: Some(0.063),
    },
    AreaPowerRow {
        name: "BC",
        fmax_mhz: 229.0,
        area_um2: 203_364.0,
        area_overhead: Some(0.243),
        power_mw: 27.0,
        power_overhead: Some(0.074),
    },
    AreaPowerRow {
        name: "SEC",
        fmax_mhz: 213.0,
        area_um2: 390_588.0,
        area_overhead: Some(0.467),
        power_mw: 36.0,
        power_overhead: Some(0.099),
    },
];

/// Implied LUT counts of the fabric rows (area / 807 µm² per LUT).
pub fn fabric_luts(row: &AreaPowerRow) -> f64 {
    row.area_um2 / 807.0
}

/// Table IV: normalized execution times. Columns are the fabric clock
/// ratios 1X, 0.5X, 0.25X; `f64::NAN` never appears — every cell is
/// published.
#[derive(Clone, Copy, Debug)]
pub struct PerfRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// UMC at 1X / 0.5X / 0.25X.
    pub umc: [f64; 3],
    /// DIFT at 1X / 0.5X / 0.25X.
    pub dift: [f64; 3],
    /// BC at 1X / 0.5X / 0.25X.
    pub bc: [f64; 3],
    /// SEC at 1X / 0.5X / 0.25X.
    pub sec: [f64; 3],
}

impl PerfRow {
    /// The published 1X / 0.5X / 0.25X cells of `ext`'s column.
    pub fn cells(&self, ext: ExtKind) -> [f64; 3] {
        match ext {
            ExtKind::Umc => self.umc,
            ExtKind::Dift => self.dift,
            ExtKind::Bc => self.bc,
            ExtKind::Sec => self.sec,
        }
    }
}

/// Table IV, per benchmark, plus the geometric-mean row.
pub const TABLE_IV: [PerfRow; 7] = [
    PerfRow {
        benchmark: "sha",
        umc: [1.01, 1.01, 1.01],
        dift: [1.01, 1.06, 1.16],
        bc: [1.03, 1.07, 1.15],
        sec: [1.00, 1.33, 1.50],
    },
    PerfRow {
        benchmark: "gmac",
        umc: [1.01, 1.01, 1.09],
        dift: [1.01, 1.15, 1.34],
        bc: [1.02, 1.17, 1.37],
        sec: [1.00, 1.20, 1.47],
    },
    PerfRow {
        benchmark: "stringsearch",
        umc: [1.03, 1.05, 1.12],
        dift: [1.16, 1.46, 1.89],
        bc: [1.22, 1.45, 1.84],
        sec: [1.00, 1.00, 1.11],
    },
    PerfRow {
        benchmark: "fft",
        umc: [1.01, 1.01, 1.01],
        dift: [1.02, 1.05, 1.31],
        bc: [1.02, 1.03, 1.35],
        sec: [1.00, 1.15, 1.45],
    },
    PerfRow {
        benchmark: "basicmath",
        umc: [1.01, 1.01, 1.01],
        dift: [1.03, 1.08, 1.34],
        bc: [1.04, 1.07, 1.37],
        sec: [1.00, 1.14, 1.43],
    },
    PerfRow {
        benchmark: "bitcount",
        umc: [1.04, 1.06, 1.07],
        dift: [1.08, 1.36, 1.69],
        bc: [1.13, 1.27, 1.64],
        sec: [1.00, 1.19, 1.48],
    },
    PerfRow {
        benchmark: "geomean",
        umc: [1.02, 1.02, 1.05],
        dift: [1.05, 1.18, 1.43],
        bc: [1.07, 1.17, 1.44],
        sec: [1.00, 1.16, 1.40],
    },
];

/// §V.C software-monitoring comparison points quoted by the paper.
pub const SOFTWARE_QUOTES: [(&str, &str); 3] = [
    ("DIFT", "3.6x average slowdown (LIFT, aggressively optimized, superscalar host); up to 37x unoptimized"),
    ("UMC", "up to 5.5x slowdown (Purify, byte-granular)"),
    ("BC", "up to 1.69x slowdown (compiler bound checks, extensively optimized)"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_overheads_are_consistent_with_areas() {
        for row in ASIC_ROWS {
            let implied = row.area_um2 / BASELINE.area_um2 - 1.0;
            let published = row.area_overhead.unwrap();
            assert!((implied - published).abs() < 0.01, "{}: {implied} vs {published}", row.name);
        }
    }

    #[test]
    fn fabric_lut_counts_match_paper_magnitudes() {
        let luts: Vec<f64> = FABRIC_ROWS.iter().map(fabric_luts).collect();
        // UMC ~112, DIFT ~153, BC ~252, SEC ~484.
        assert!((luts[0] - 112.0).abs() < 1.0);
        assert!((luts[3] - 484.0).abs() < 1.0);
        // Strictly increasing: UMC < DIFT < BC < SEC.
        assert!(luts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn table_iv_slowdowns_increase_with_slower_fabric() {
        for row in &TABLE_IV {
            for cols in [row.umc, row.dift, row.bc, row.sec] {
                assert!(
                    cols[0] <= cols[1] + 1e-9 && cols[1] <= cols[2] + 1e-9,
                    "{}",
                    row.benchmark
                );
            }
        }
    }
}
