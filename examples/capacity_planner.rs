//! Deployment capacity planning: which ReCross configuration should a
//! cluster operator provision for a given model and latency target?
//!
//! Sweeps the paper's Figure 14 configurations (d, c1–c5) on the target
//! workload, reporting throughput, added silicon, and area efficiency —
//! reproducing the paper's conclusion that ReCross-d is the sweet spot.
//!
//! ```text
//! cargo run --release --example capacity_planner
//! ```

use recross_repro::dram::DramConfig;
use recross_repro::nmp::accel::EmbeddingAccelerator;
use recross_repro::nmp::AreaModel;
use recross_repro::recross::config::ReCrossConfig;
use recross_repro::recross::engine::ReCross;
use recross_repro::recross::profile::analytic_profiles;
use recross_repro::workload::TraceGenerator;

fn main() {
    let dram = DramConfig::ddr5_4800();
    let generator = TraceGenerator::criteo_scaled(64, 100)
        .batch_size(16)
        .pooling(80)
        .batches(2);
    let trace = generator.generate(7);
    let area_model = AreaModel::default();

    println!(
        "{:<12} {:>7} {:>12} {:>14} {:>14} {:>16}",
        "config", "R:G:B", "us/trace", "Mlookups/s", "PE area mm²", "Mlookups/s/mm²"
    );
    let mut best: Option<(String, f64)> = None;
    for cfg in ReCrossConfig::exploration_set(dram.clone()) {
        let name = cfg.name.clone();
        let (r, g, b) = cfg.region_banks();
        let area = area_model.recross(cfg.bg_pes_per_rank, cfg.bank_pes_per_rank);
        let profiles = analytic_profiles(&generator);
        let sys = ReCross::new(cfg, profiles, 16.0).expect("fits");
        let report = sys.run(&trace);
        let mlps = report.lookups as f64 / report.ns * 1e3; // M lookups/s
        let eff = mlps / area.total_mm2();
        println!(
            "{name:<12} {:>7} {:>12.1} {:>14.1} {:>14.2} {:>16.2}",
            format!("{r}:{g}:{b}"),
            report.ns / 1e3,
            mlps,
            area.total_mm2(),
            eff
        );
        if best.as_ref().is_none_or(|(_, e)| eff > *e) {
            best = Some((name, eff));
        }
    }
    let (winner, _) = best.expect("at least one config");
    println!("\nmost area-efficient configuration: {winner}");
    println!("(the paper's §5.4 finds ReCross-d the sweet spot: adding more bank-level");
    println!(" PEs only accelerates tail data, while area grows linearly)");
}
