//! Golden digests of every serving document, of the closed-loop run trace
//! and of the online aggregates: the FNV-1a hash and byte length of each
//! JSON the `repro serve` / `repro run` surfaces emit, at `Scale::Tiny` and
//! fixed seeds.
//!
//! The CI `cmp` gates only compare two runs of one binary; these pins tie
//! the emitted bytes to a fixed reference, so a refactor of the simulator
//! or the emitters that changes a single byte fails here.

use recross_bench::runtrace::closed_loop_trace_with;
use recross_bench::serving::{
    slo_search_at, slo_to_json, sweep_at, sweep_to_json, tenant_slo_search_at, tenant_slo_to_json,
    traced_point_to_json, traced_point_with, TraceOptions, SWEEP_FRACTIONS,
};
use recross_bench::workloads::Scale;
use recross_obs::SharedWriter;
use recross_serve::{Priority, QueuePolicy, TenantClass, TenantMix, TenantProcess};

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mix() -> TenantMix {
    TenantMix::new(vec![
        TenantClass::new("rt", 0.7, TenantProcess::Poisson, 200.0, Priority::High),
        TenantClass::new("batch", 0.3, TenantProcess::Bursty, 5_000.0, Priority::Low),
    ])
}

/// Compares every document against its pin and reports all mismatches at
/// once, with the observed values to re-pin a deliberate model change.
fn check(docs: &[(&str, String)], pins: &[(&str, u64, usize)]) {
    assert_eq!(docs.len(), pins.len());
    let mut bad = Vec::new();
    for ((name, doc), &(pin_name, digest, len)) in docs.iter().zip(pins) {
        assert_eq!(*name, pin_name);
        let got = (fnv1a(doc), doc.len());
        if got != (digest, len) {
            bad.push(format!("(\"{name}\", {:#018x}, {}),", got.0, got.1));
        }
    }
    assert!(bad.is_empty(), "digest mismatches:\n{}", bad.join("\n"));
}

#[test]
fn sweep_documents_match_golden_digests() {
    let m = mix();
    let poisson_fifo = sweep_at(
        Scale::Tiny,
        None,
        SWEEP_FRACTIONS,
        false,
        QueuePolicy::Fifo,
        0x5E21,
    );
    let bursty_sjf = sweep_at(
        Scale::Tiny,
        None,
        SWEEP_FRACTIONS,
        true,
        QueuePolicy::ShortestJobFirst,
        9,
    );
    let tenants = sweep_at(
        Scale::Tiny,
        Some(&m),
        SWEEP_FRACTIONS,
        false,
        QueuePolicy::Edf,
        7,
    );
    let docs = [
        (
            "sweep poisson/fifo",
            sweep_to_json(
                &poisson_fifo,
                Scale::Tiny,
                None,
                false,
                QueuePolicy::Fifo,
                0x5E21,
            ),
        ),
        (
            "sweep bursty/sjf",
            sweep_to_json(
                &bursty_sjf,
                Scale::Tiny,
                None,
                true,
                QueuePolicy::ShortestJobFirst,
                9,
            ),
        ),
        (
            "tenant sweep",
            sweep_to_json(&tenants, Scale::Tiny, Some(&m), false, QueuePolicy::Edf, 7),
        ),
    ];
    check(&docs, PINS_SWEEP);
}

#[test]
fn slo_documents_match_golden_digests() {
    let m = mix();
    let slo = slo_search_at(Scale::Tiny, false, QueuePolicy::Fifo, 0x510, 200.0, 6);
    let tenant_slo = tenant_slo_search_at(Scale::Tiny, &m, QueuePolicy::Edf, 0x79, 6);
    let docs = [
        (
            "slo search",
            slo_to_json(&slo, Scale::Tiny, false, QueuePolicy::Fifo, 0x510),
        ),
        (
            "tenant slo search",
            tenant_slo_to_json(&tenant_slo, Scale::Tiny, &m, QueuePolicy::Edf, 0x79),
        ),
    ];
    check(&docs, PINS_SLO);
}

#[test]
fn traced_documents_match_golden_digests() {
    let m = mix();
    let point = |mix: Option<&TenantMix>, arch, policy, seed, dram_trace| {
        let p = traced_point_with(
            Scale::Tiny,
            arch,
            mix,
            1.2,
            false,
            policy,
            seed,
            dram_trace,
            TraceOptions::default(),
        )
        .expect("in-memory tracing cannot fail");
        let json = traced_point_to_json(&p, Scale::Tiny, mix, false, policy, seed);
        (json, p.perfetto.expect("buffered run keeps the timeline"))
    };
    let (plain, plain_perfetto) = point(None, "ReCross", QueuePolicy::Fifo, 0x90, true);
    let (tenant, tenant_perfetto) = point(Some(&m), "CPU", QueuePolicy::Edf, 0x91, true);
    let run = closed_loop_trace_with(Scale::Tiny, "ReCross", 0xD17A, 0, TraceOptions::default())
        .expect("in-memory tracing cannot fail");
    let docs = [
        ("traced point", plain),
        ("traced point perfetto", plain_perfetto),
        ("traced tenant point", tenant),
        ("traced tenant point perfetto", tenant_perfetto),
        ("run trace", run.to_json(Scale::Tiny, 0xD17A)),
    ];
    check(&docs, PINS_TRACED);
}

#[test]
fn aggregate_and_streamed_documents_match_golden_digests() {
    let m = mix();
    // `serve --trace-stream --agg-out`: a streamed, unbuffered tenant point
    // whose recorder carries the `chrome-stream` and `agg` sinks.
    let out = SharedWriter::new();
    let p = traced_point_with(
        Scale::Tiny,
        "CPU",
        Some(&m),
        1.2,
        false,
        QueuePolicy::Edf,
        0x92,
        true,
        TraceOptions {
            stream: Some(Box::new(out.clone())),
            agg: true,
            buffered: false,
        },
    )
    .expect("in-memory stream cannot fail");
    let streamed = traced_point_to_json(&p, Scale::Tiny, Some(&m), false, QueuePolicy::Edf, 0x92);
    assert!(
        streamed.contains("\"kind\":\"chrome-stream\"") && streamed.contains("\"kind\":\"agg\"")
    );
    let serve_agg = p.agg.as_ref().expect("agg enabled").to_json();
    // `run --agg-out`: the closed-loop tracer's online aggregates.
    let run = closed_loop_trace_with(
        Scale::Tiny,
        "ReCross",
        0xD17A,
        0,
        TraceOptions {
            agg: true,
            ..TraceOptions::default()
        },
    )
    .expect("in-memory tracing cannot fail");
    let run_agg = run.aggregates().expect("agg enabled").to_json();
    let docs = [
        ("serve agg", serve_agg),
        ("run agg", run_agg),
        ("streamed tenant point", streamed),
    ];
    check(&docs, PINS_AGG);
}

const PINS_SWEEP: &[(&str, u64, usize)] = &[
    ("sweep poisson/fifo", 0xc1dbdd644894d0a2, 9805),
    ("sweep bursty/sjf", 0x135f746f107f8797, 9848),
    ("tenant sweep", 0x413be645afda0435, 17670),
];

const PINS_SLO: &[(&str, u64, usize)] = &[
    ("slo search", 0xa75abefe68d3fcdd, 2402),
    ("tenant slo search", 0x551524064a11be3b, 1801),
];

const PINS_TRACED: &[(&str, u64, usize)] = &[
    ("traced point", 0xe2f0254de9c687f5, 3619),
    ("traced point perfetto", 0x136b1b432ed28a3e, 4714851),
    ("traced tenant point", 0xfd222008d97d4b6b, 4562),
    ("traced tenant point perfetto", 0xb25676eb5d9f9f3b, 4985474),
    ("run trace", 0xb3548d3857f08340, 984),
];

const PINS_AGG: &[(&str, u64, usize)] = &[
    ("serve agg", 0xf3d2607b663ee561, 1900),
    ("run agg", 0x52e4492d0ba1b7b9, 795),
    ("streamed tenant point", 0x3fa9a8ff31e38c9f, 4519),
];
