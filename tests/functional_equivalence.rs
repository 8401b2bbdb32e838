//! Cross-crate functional correctness: every accelerator's gather-reduce
//! results must match the golden model, so a placement or dispatch bug can
//! never hide behind plausible timing numbers.

use recross_repro::dram::DramConfig;
use recross_repro::nmp::accel::EmbeddingAccelerator;
use recross_repro::nmp::{AccessProfile, CpuBaseline, RecNmp, TensorDimm, Trim};
use recross_repro::recross::config::ReCrossConfig;
use recross_repro::recross::engine::ReCross;
use recross_repro::recross::profile::{analytic_profiles, empirical_profiles};
use recross_repro::workload::model::{assert_results_close, reduce_trace};
use recross_repro::workload::TraceGenerator;

fn generator() -> TraceGenerator {
    TraceGenerator::criteo_scaled(32, 1000)
        .batch_size(4)
        .pooling(16)
}

#[test]
fn all_baselines_match_golden() {
    let g = generator();
    let trace = g.generate(77);
    let golden = reduce_trace(&trace);
    let dram = DramConfig::ddr5_4800();
    let profile = AccessProfile::from_trace(&trace);
    let mut accels: Vec<Box<dyn EmbeddingAccelerator>> = vec![
        Box::new(CpuBaseline::new(dram.clone())),
        Box::new(TensorDimm::new(dram.clone())),
        Box::new(RecNmp::new(dram.clone())),
        Box::new(Trim::bank_group(dram.clone()).with_profile(profile.clone())),
        Box::new(Trim::bank(dram).with_profile(profile)),
    ];
    for a in &mut accels {
        let results = a.compute_results(&trace);
        let name = a.name().to_owned();
        let dev = assert_results_close(&results, &golden, 1e-3);
        assert!(dev.is_finite(), "{name}");
    }
}

#[test]
fn recross_matches_golden_under_every_config() {
    let g = generator();
    let trace = g.generate(78);
    let golden = reduce_trace(&trace);
    for cfg in ReCrossConfig::exploration_set(DramConfig::ddr5_4800()) {
        let name = cfg.name.clone();
        let profiles = analytic_profiles(&g);
        let sys = ReCross::new(cfg, profiles, 4.0).unwrap_or_else(|e| panic!("{name}: {e}"));
        let results = sys.compute_results(&trace);
        assert_results_close(&results, &golden, 1e-3);
    }
}

#[test]
fn recross_matches_golden_with_empirical_profiles() {
    // The empirical path: profile a training trace, place by the measured
    // popularity, then serve a *different* trace correctly.
    let g = generator();
    let training = g.generate(100);
    let serving = g.generate(200);
    let profile = AccessProfile::from_trace(&training);
    let profiles = empirical_profiles(g.tables(), &profile);
    let sys = ReCross::new(ReCrossConfig::default(), profiles, 4.0).expect("fits");
    let results = sys.compute_results(&serving);
    assert_results_close(&results, &reduce_trace(&serving), 1e-3);
    // And it still simulates.
    let report = sys.run(&serving);
    assert!(report.cycles > 0);
}

#[test]
fn ablation_toggles_preserve_results() {
    let g = generator();
    let trace = g.generate(79);
    let golden = reduce_trace(&trace);
    for cfg in [
        ReCrossConfig::base(DramConfig::ddr5_4800()),
        ReCrossConfig::default().without_sap(),
        ReCrossConfig::default().without_bwp(),
        ReCrossConfig::default().without_las(),
    ] {
        let profiles = analytic_profiles(&g);
        let sys = ReCross::new(cfg, profiles, 4.0).expect("fits");
        assert_results_close(&sys.compute_results(&trace), &golden, 1e-3);
    }
}

/// 64-bit FNV-1a over the bit patterns of every result element, in order.
fn results_digest(results: &[Vec<f32>]) -> u64 {
    results
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Pins the exact bits of the two datapaths that do not reduce in lookup
/// order — ReCross's per-PE partial sums folded by the rank summarizer,
/// and TensorDIMM's per-rank vertical slices — so a refactor that changes
/// a summation order fails here even though it stays within the golden
/// model's tolerance.
#[test]
fn reassociating_results_are_bit_stable() {
    let g = generator();
    let trace = g.generate(80);
    let dram = DramConfig::ddr5_4800();
    let accels: Vec<Box<dyn EmbeddingAccelerator>> = vec![
        Box::new(ReCross::new(ReCrossConfig::default(), analytic_profiles(&g), 4.0).unwrap()),
        Box::new(
            ReCross::new(
                ReCrossConfig::base(dram.clone()),
                analytic_profiles(&g),
                4.0,
            )
            .unwrap(),
        ),
        Box::new(TensorDimm::new(dram)),
    ];
    let got: Vec<(String, u64, usize)> = accels
        .iter()
        .map(|a| {
            let results = a.compute_results(&trace);
            let values = results.iter().map(Vec::len).sum();
            (a.name().to_owned(), results_digest(&results), values)
        })
        .collect();
    let want = [
        ("ReCross-d", 14_209_965_448_321_756_838, 3328),
        ("ReCross-Base", 2_297_349_011_754_058_321, 3328),
        ("TensorDIMM", 6_197_625_816_615_962_240, 3328),
    ];
    for ((name, digest, values), (want_name, want_digest, want_values)) in got.iter().zip(want) {
        assert_eq!(name, want_name);
        assert_eq!((*digest, *values), (want_digest, want_values), "{name}");
    }
}
