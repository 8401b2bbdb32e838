//! Benches of the substrate crates: DRAM controller throughput, LP solver,
//! workload generation, and per-architecture simulation speed — plus
//! ablation benches for the design choices DESIGN.md calls out.

use recross::config::ReCrossConfig;
use recross::engine::ReCross;
use recross::profile::analytic_profiles;
use recross::{bandwidth_aware_partition, Region, RegionBandwidth, RegionMap};
use recross_bench::timer::BenchGroup;
use recross_bench::workloads::{dram, generator, standard_trace, Scale};
use recross_dram::controller::{BusScope, Controller, ReadRequest, SchedulePolicy};
use recross_dram::PhysAddr;
use recross_nmp::accel::EmbeddingAccelerator;
use recross_nmp::{CpuBaseline, RecNmp, TensorDimm, Trim};
use recross_workload::rng::Xoshiro256pp;
use recross_workload::zipf::Zipf;

fn controller_requests(n: u64, salp: bool, dest: BusScope) -> Vec<ReadRequest> {
    (0..n)
        .map(|i| {
            let mul = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ReadRequest {
                id: i,
                addr: PhysAddr {
                    channel: 0,
                    rank: (mul >> 7) as u32 % 2,
                    bank_group: (mul >> 13) as u32 % 8,
                    bank: (mul >> 23) as u32 % 4,
                    row: (mul >> 31) as u32 % 4096,
                    col_byte: ((mul >> 43) as u32 % 120) * 64,
                },
                bursts: 4,
                ready_at: 0,
                dest,
                salp,
                auto_precharge: false,
                write: false,
            }
        })
        .collect()
}

fn bench_controller() {
    let mut g = BenchGroup::new("dram_controller");
    let mut run = |name: &str, reqs: Vec<ReadRequest>, policy| {
        g.bench(name, || {
            let mut ctl = Controller::new(dram(), policy);
            for r in &reqs {
                ctl.enqueue(*r);
            }
            ctl.run().len()
        });
    };
    for (name, dest, salp, policy) in [
        (
            "host_frfcfs",
            BusScope::Channel,
            false,
            SchedulePolicy::FrFcfs,
        ),
        ("rank_nmp", BusScope::Rank, false, SchedulePolicy::FrFcfs),
        ("bank_nmp", BusScope::Bank, false, SchedulePolicy::FrFcfs),
        (
            "bank_salp_las",
            BusScope::Bank,
            true,
            SchedulePolicy::LocalityAware,
        ),
    ] {
        run(name, controller_requests(2_000, salp, dest), policy);
    }
    // ReCross's three regions in one controller, as it runs them: rank-,
    // group- and SALP bank-scoped reads by each bank's region. The only
    // case where group- and rank-wide invalidations meet the SALP banks'
    // overlap candidates.
    let map = RegionMap::new(&ReCrossConfig::default());
    let mixed = controller_requests(2_000, false, BusScope::Rank)
        .into_iter()
        .map(|r| match map.region_of(&r.addr) {
            Region::R => r,
            Region::G => ReadRequest {
                dest: BusScope::BankGroup,
                ..r
            },
            Region::B => ReadRequest {
                dest: BusScope::Bank,
                salp: true,
                ..r
            },
        })
        .collect();
    run("mixed_rgb_las", mixed, SchedulePolicy::LocalityAware);
}

fn bench_lp() {
    let mut g = BenchGroup::new("lp_solver");
    let gen = generator(Scale::Quick, 64);
    let profiles = analytic_profiles(&gen);
    let cfg = ReCrossConfig::default();
    let map = RegionMap::new(&cfg);
    let bw = RegionBandwidth::from_map(&map, &cfg.dram, 256, true);
    // Ablation: PWL segment count (solution quality vs solve time).
    for segments in [4usize, 16, 32] {
        g.bench(&format!("bwp_partition_segments/{segments}"), || {
            bandwidth_aware_partition(&profiles, &map, &bw, 32.0, segments).expect("feasible")
        });
    }
}

fn bench_workload() {
    let mut g = BenchGroup::new("workload");
    {
        let z = Zipf::new(1_000_000, 1.0).expect("valid");
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        g.bench("zipf_sampling_1m_rows", move || {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            acc
        });
    }
    {
        let gen = generator(Scale::Tiny, 64);
        g.bench("trace_generation", || gen.generate(7).lookups());
    }
}

fn bench_accelerators() {
    let mut g = BenchGroup::new("accelerators");
    g.sample_size(10);
    let (gen, trace) = standard_trace(Scale::Tiny, 64);
    g.bench("cpu", || CpuBaseline::new(dram()).run(&trace).cycles);
    g.bench("tensordimm", || TensorDimm::new(dram()).run(&trace).cycles);
    g.bench("recnmp", || RecNmp::new(dram()).run(&trace).cycles);
    g.bench("trim_g", || Trim::bank_group(dram()).run(&trace).cycles);
    g.bench("trim_b", || Trim::bank(dram()).run(&trace).cycles);
    {
        let profiles = analytic_profiles(&gen);
        let sys = ReCross::new(ReCrossConfig::default(), profiles, 2.0).expect("fits");
        g.bench("recross", move || sys.run(&trace).cycles);
    }
}

fn bench_ablations() {
    // Simulated-cycle ablations (the metric is the simulated cycle count;
    // the harness gives wall-clock — both are reported in EXPERIMENTS.md).
    let mut g = BenchGroup::new("ablations");
    g.sample_size(10);
    let (gen, trace) = standard_trace(Scale::Tiny, 64);
    for (name, cfg) in [
        ("recross_full", ReCrossConfig::default()),
        ("recross_no_sap", ReCrossConfig::default().without_sap()),
        ("recross_no_bwp", ReCrossConfig::default().without_bwp()),
        ("recross_no_las", ReCrossConfig::default().without_las()),
        ("recross_base", ReCrossConfig::base(dram())),
    ] {
        let profiles = analytic_profiles(&gen);
        let sys = ReCross::new(cfg, profiles, 2.0).expect("fits");
        let t = &trace;
        g.bench(name, move || sys.run(t).cycles);
    }
    let sys = Trim::bank(dram()).with_replication(0.0, 1);
    g.bench("trim_b_no_replication", move || sys.run(&trace).cycles);
}

fn main() {
    bench_controller();
    bench_lp();
    bench_workload();
    bench_accelerators();
    bench_ablations();
}
