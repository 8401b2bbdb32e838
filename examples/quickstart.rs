//! Quickstart: build a DLRM embedding workload, stand up ReCross, and
//! compare it with the strongest baseline (TRiM-B) on the same trace.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use recross_repro::dram::DramConfig;
use recross_repro::nmp::accel::EmbeddingAccelerator;
use recross_repro::nmp::{AccessProfile, Trim};
use recross_repro::recross::config::ReCrossConfig;
use recross_repro::recross::engine::ReCross;
use recross_repro::recross::profile::analytic_profiles;
use recross_repro::workload::TraceGenerator;

fn main() {
    // 1. The workload: a 1/100-scale Criteo-Kaggle embedding layer,
    //    64-dimension vectors, pooling factor 80, batches of 32 samples.
    let generator = TraceGenerator::criteo_scaled(64, 100)
        .batch_size(32)
        .pooling(80)
        .batches(2);
    let trace = generator.generate(42);
    println!(
        "workload: {} embedding ops, {} lookups, {:.1} MiB gathered",
        trace.ops(),
        trace.lookups(),
        trace.gathered_bytes() as f64 / (1024.0 * 1024.0)
    );

    // 2. The memory system: the paper's Table 2 DDR5-4800 channel.
    let dram = DramConfig::ddr5_4800();

    // 3. ReCross: profile → bandwidth-aware partition → placement → run.
    let profiles = analytic_profiles(&generator);
    let system = ReCross::new(ReCrossConfig::default_d(dram.clone()), profiles, 32.0)
        .expect("embedding tables fit the memory regions");
    let recross = system.run(&trace);

    // 4. The strongest baseline on the same trace.
    let profile = AccessProfile::from_trace(&trace);
    let trim_b = Trim::bank(dram).with_profile(profile).run(&trace);

    println!(
        "\n{:<10} {:>12} {:>10} {:>10} {:>12}",
        "arch", "cycles", "us", "rowhit", "energy (uJ)"
    );
    for r in [&trim_b, &recross] {
        println!(
            "{:<10} {:>12} {:>10.1} {:>10.2} {:>12.2}",
            r.name,
            r.cycles,
            r.ns / 1_000.0,
            r.row_hit_rate,
            r.energy.total_pj() / 1e6
        );
    }
    println!(
        "\nReCross speedup over TRiM-B: {:.2}x (paper reports 1.8x at full scale)",
        recross.speedup_over(&trim_b)
    );

    // 5. Functional check: the accelerated reduction equals the golden model.
    let golden = recross_repro::workload::model::reduce_trace(&trace);
    let results = system.compute_results(&trace);
    let dev = recross_repro::workload::model::assert_results_close(&results, &golden, 1e-3);
    println!("functional check passed (max FP deviation {dev:.2e})");
}
