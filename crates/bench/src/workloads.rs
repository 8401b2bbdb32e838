//! Standard workload configurations for the experiment harness.
//!
//! Two scales are provided: [`Scale::Paper`] uses the full Criteo-Kaggle
//! cardinalities and the paper's §5.1 defaults (pooling 80, batch 32);
//! [`Scale::Quick`] shrinks tables and trace length so criterion benches and
//! smoke runs finish in seconds while preserving the skew structure.

use recross_dram::DramConfig;
use recross_workload::{Trace, TraceGenerator};

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full Criteo-Kaggle cardinalities, paper-default trace sizes.
    Paper,
    /// 1/100 cardinalities, short traces (for benches and smoke tests).
    Quick,
    /// 1/1000 cardinalities, very short traces (criterion micro-runs).
    Tiny,
}

impl Scale {
    /// Scale name as it appears in emitted JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
            Scale::Tiny => "tiny",
        }
    }

    /// Batches to simulate.
    pub fn batches(self) -> usize {
        match self {
            Scale::Paper => 2,
            Scale::Quick | Scale::Tiny => 1,
        }
    }

    /// Table down-scaling factor.
    pub fn table_factor(self) -> u64 {
        match self {
            Scale::Paper => 1,
            Scale::Quick => 100,
            Scale::Tiny => 1_000,
        }
    }

    /// Default batch size (paper §5.1: 32).
    pub fn batch_size(self) -> usize {
        match self {
            Scale::Paper => 32,
            Scale::Quick => 8,
            Scale::Tiny => 2,
        }
    }

    /// Default pooling factor (paper §5.1: 80).
    pub fn pooling(self) -> u32 {
        match self {
            Scale::Paper => 80,
            Scale::Quick => 40,
            Scale::Tiny => 20,
        }
    }
}

/// The standard generator for a given vector length and scale.
pub fn generator(scale: Scale, dim: u32) -> TraceGenerator {
    let g = match scale {
        Scale::Paper => TraceGenerator::criteo_kaggle(dim),
        Scale::Quick | Scale::Tiny => TraceGenerator::criteo_scaled(dim, scale.table_factor()),
    };
    g.batch_size(scale.batch_size())
        .pooling(scale.pooling())
        .batches(scale.batches())
}

/// The standard trace (dim 64 unless specified) with the canonical seed.
pub fn standard_trace(scale: Scale, dim: u32) -> (TraceGenerator, Trace) {
    let g = generator(scale, dim);
    let t = g.generate(0xD17A);
    (g, t)
}

/// The Table 2 DRAM system.
pub fn dram() -> DramConfig {
    DramConfig::ddr5_4800()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_small() {
        let (_, t) = standard_trace(Scale::Quick, 16);
        assert!(t.lookups() < 20_000);
    }

    #[test]
    fn paper_scale_uses_full_tables() {
        let g = generator(Scale::Paper, 64);
        assert!(g.tables().iter().any(|t| t.rows > 10_000_000));
    }
}
