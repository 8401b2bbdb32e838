//! RecNMP (Liu et al., ISCA 2020): rank-level NMP with *horizontal* table
//! partitioning and a per-rank hot-entry cache.
//!
//! Whole vectors live in one rank (row-hashed), each rank-buffer PE reduces
//! locally, and a 1 MiB cache per rank PE (paper §5.1) filters the hottest
//! entries — the paper's §3.1 notes this helps but cannot cover the hot set
//! of large models.

use recross_dram::controller::BusScope;
use recross_dram::DramConfig;
use recross_workload::{EmbeddingTableSpec, Trace};

use crate::accel::{EmbeddingAccelerator, Planner};
use crate::cache::LruCache;
use crate::engine::{EngineConfig, LookupPlan, PlacedRead};
use crate::layout::TableLayout;

/// RecNMP accelerator model.
#[derive(Debug, Clone)]
pub struct RecNmp {
    dram: DramConfig,
    cache_bytes_per_rank: u64,
}

impl RecNmp {
    /// Creates the model with the paper's 1 MiB per-rank PE cache.
    pub fn new(dram: DramConfig) -> Self {
        Self {
            dram,
            cache_bytes_per_rank: 1024 * 1024,
        }
    }

    /// Overrides the per-rank cache size (bytes); 0 disables caching.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes_per_rank = bytes;
        self
    }

    /// Per-rank PE-cache capacity in entries for a table universe.
    fn cache_entries(&self, tables: &[EmbeddingTableSpec]) -> usize {
        let max_vec = tables.iter().map(|t| t.vector_bytes()).max().unwrap_or(256);
        (self.cache_bytes_per_rank / max_vec.max(1)) as usize
    }
}

/// RecNMP's prepared planning state: the row-hashed layout and each rank
/// PE cache's entry count.
struct RecNmpPlanner {
    layout: TableLayout,
    cache_entries: usize,
    ranks: u32,
}

impl Planner for RecNmpPlanner {
    /// Each lookup reads its whole vector from its rank unless that rank's
    /// PE cache holds it. The PE caches start cold on every call (per-call
    /// semantics keep the serving memo cache exact).
    fn plans(&self, trace: &Trace) -> Vec<LookupPlan> {
        let entries = self.cache_entries;
        let mut caches: Vec<Option<LruCache<(usize, u64)>>> = (0..self.ranks)
            .map(|_| (entries > 0).then(|| LruCache::new(entries)))
            .collect();
        let mut plans = Vec::with_capacity(trace.lookups());
        for (op_idx, op) in trace.iter_ops().enumerate() {
            for &row in &op.indices {
                let loc = self.layout.locate(op.table, row);
                let rank = loc.addr.rank as usize;
                let hit = caches[rank]
                    .as_mut()
                    .map(|c| c.touch((op.table, row)))
                    .unwrap_or(false);
                if hit {
                    plans.push(LookupPlan {
                        op: op_idx,
                        reads: vec![],
                        cached: true,
                    });
                } else {
                    plans.push(LookupPlan {
                        op: op_idx,
                        reads: vec![PlacedRead {
                            addr: loc.addr,
                            bursts: loc.bursts,
                            dest: BusScope::Rank,
                            salp: false,
                            auto_precharge: true,
                            write: false,
                            node: rank,
                        }],
                        cached: false,
                    });
                }
            }
        }
        plans
    }
}

/// Rank PEs reduce whole vectors (cached or fetched) in trace order, so
/// the default golden-order `compute_results` is RecNMP's.
impl EmbeddingAccelerator for RecNmp {
    fn name(&self) -> &str {
        "RecNMP"
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig::nmp(
            "RecNMP",
            self.dram.clone(),
            self.dram.topology.ranks as usize,
        )
    }

    fn prepare(&self, tables: &[EmbeddingTableSpec]) -> Box<dyn Planner> {
        Box::new(RecNmpPlanner {
            layout: TableLayout::pack(self.dram.topology, tables, 0),
            cache_entries: self.cache_entries(tables),
            ranks: self.dram.topology.ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recross_workload::TraceGenerator;

    fn trace() -> Trace {
        TraceGenerator::criteo_scaled(64, 1000)
            .batch_size(4)
            .pooling(20)
            .generate(9)
    }

    #[test]
    fn cache_captures_hot_entries() {
        let t = trace();
        let no_cache = RecNmp::new(DramConfig::ddr5_4800())
            .with_cache_bytes(0)
            .run(&t);
        let cached = RecNmp::new(DramConfig::ddr5_4800()).run(&t);
        assert_eq!(no_cache.cache_hits, 0);
        assert!(cached.cache_hits > 0, "skewed trace must hit the PE cache");
        assert!(cached.counters.rd_wr_bits < no_cache.counters.rd_wr_bits);
        assert!(cached.cycles <= no_cache.cycles);
    }

    #[test]
    fn horizontal_partitioning_is_imbalanced() {
        let t = trace();
        let r = RecNmp::new(DramConfig::ddr5_4800())
            .with_cache_bytes(0)
            .run(&t);
        // Unlike TensorDIMM, per-op rank loads are skewed.
        assert!(r.imbalance.mean > 1.0);
    }

    #[test]
    fn results_match_golden() {
        let t = trace();
        let got = RecNmp::new(DramConfig::ddr5_4800()).compute_results(&t);
        let want = recross_workload::model::reduce_trace(&t);
        recross_workload::model::assert_results_close(&got, &want, 1e-6);
    }
}
