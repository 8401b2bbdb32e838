//! Randomized tests of the DRAM substrate: whatever the scheduler does, the
//! emitted command stream must satisfy every timing constraint when
//! replayed by the independent checker, and key structural invariants must
//! hold for arbitrary request mixes.
//!
//! Cases come from the in-repo deterministic PRNG, so every run re-checks
//! the same seeded case set (no external property-testing dependency).

use recross_repro::dram::check::check_trace;
use recross_repro::dram::controller::{
    BusScope, Completion, Controller, ReadRequest, SchedulePolicy,
};
use recross_repro::dram::{CommandKind, DramConfig, IssuedCommand, PhysAddr};
use recross_repro::workload::rng::Xoshiro256pp;

const SCOPES: [BusScope; 4] = [
    BusScope::Channel,
    BusScope::Rank,
    BusScope::BankGroup,
    BusScope::Bank,
];

const POLICIES: [SchedulePolicy; 3] = [
    SchedulePolicy::Fcfs,
    SchedulePolicy::FrFcfs,
    SchedulePolicy::LocalityAware,
];

fn random_request(rng: &mut Xoshiro256pp) -> ReadRequest {
    let bg = rng.next_bounded(8) as u32;
    let bank = rng.next_bounded(4) as u32;
    let row = rng.next_bounded(2048) as u32;
    // SALP support is a per-bank hardware property: derive it from the bank
    // id (banks 0/2 of featured groups have it), mirroring the ReCross
    // B-region carve-out. Writes take the global row-buffer path (never
    // SALP).
    let salp = bank.is_multiple_of(2) && bg < 4;
    let write = !salp && row.is_multiple_of(5);
    let auto_precharge = rng.next_bool(0.5);
    ReadRequest {
        id: 0,
        addr: PhysAddr {
            channel: 0,
            rank: rng.next_bounded(2) as u32,
            bank_group: bg,
            bank,
            row,
            col_byte: rng.next_bounded(120) as u32 * 64,
        },
        bursts: 1 + rng.next_bounded(4) as u32,
        ready_at: rng.next_bounded(500),
        dest: SCOPES[rng.next_bounded(4) as usize],
        salp,
        auto_precharge: auto_precharge && !salp,
        write,
    }
}

fn random_requests(rng: &mut Xoshiro256pp, max: u64) -> Vec<ReadRequest> {
    let n = 1 + rng.next_bounded(max - 1) as usize;
    (0..n).map(|_| random_request(rng)).collect()
}

/// One scheduler input: a request mix and the controller it runs on.
struct Case {
    reqs: Vec<ReadRequest>,
    policy: SchedulePolicy,
    window: usize,
    global: Option<usize>,
}

/// The 48-case seeded set: random mixes of up to 120 requests, every
/// policy, bank windows 1..=19, half of them behind a global window.
fn seeded_cases() -> Vec<Case> {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD3A2_0001);
    (0..48)
        .map(|_| {
            let reqs = random_requests(&mut rng, 120);
            let policy = POLICIES[rng.next_bounded(3) as usize];
            let window = 1 + rng.next_bounded(19) as usize;
            let global = if rng.next_bool(0.5) {
                Some(1 + rng.next_bounded(31) as usize)
            } else {
                None
            };
            Case {
                reqs,
                policy,
                window,
                global,
            }
        })
        .collect()
}

/// Long mixed-scope cases: SALP and non-SALP banks, all four data scopes
/// and writes in one controller behind a global window, with `ready_at`
/// spread over ~48 k cycles so several tREFI refreshes per rank interleave
/// with the traffic.
fn long_mixed_cases() -> Vec<Case> {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD3A2_0004);
    let setups = [
        (SchedulePolicy::Fcfs, 16, 64),
        (SchedulePolicy::FrFcfs, 16, 64),
        (SchedulePolicy::LocalityAware, 16, 64),
        (SchedulePolicy::LocalityAware, 4, 8),
    ];
    setups
        .iter()
        .map(|&(policy, window, global)| {
            let reqs = (0..600u64)
                .map(|i| ReadRequest {
                    ready_at: i * 80 + rng.next_bounded(400),
                    ..random_request(&mut rng)
                })
                .collect();
            Case {
                reqs,
                policy,
                window,
                global: Some(global),
            }
        })
        .collect()
}

/// Runs `case` with tracing on, asserts that every request completes and
/// that the trace replays through the checker without a violation, and
/// returns the command stream and the completions.
fn run_valid(case: &Case, label: &str) -> (Vec<IssuedCommand>, Vec<Completion>) {
    let cfg = DramConfig::ddr5_4800();
    let mut ctl = Controller::new(cfg.clone(), case.policy).with_bank_window(case.window);
    if let Some(w) = case.global {
        ctl = ctl.with_global_window(w);
    }
    ctl.record_trace();
    for (i, mut r) in case.reqs.iter().copied().enumerate() {
        r.id = i as u64;
        ctl.enqueue(r);
    }
    let done = ctl.run();
    assert_eq!(
        done.len(),
        case.reqs.len(),
        "{label}: every request completes"
    );
    let trace = ctl.trace().expect("recording enabled");
    let violations = check_trace(cfg.topology, cfg.timing, &trace);
    assert!(
        violations.is_empty(),
        "{label}: violations: {:?}",
        &violations[..violations.len().min(3)]
    );
    (trace, done)
}

#[test]
fn any_schedule_is_timing_valid() {
    for (i, case) in seeded_cases().iter().enumerate() {
        run_valid(case, &format!("case {i}"));
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a schedule: every command (cycle, kind, address, data scope)
/// in trace order (by issue cycle), then every completion in finish order.
fn schedule_digest(trace: &[IssuedCommand], done: &[Completion]) -> u64 {
    let mut text = String::new();
    for ic in trace {
        let c = &ic.command;
        text += &format!("{} {} {} {:?}\n", ic.cycle, c.kind, c.addr, c.data_scope);
    }
    for c in done {
        text += &format!("{} {} {}\n", c.id, c.done_at, c.row_hit);
    }
    fnv1a(text.as_bytes())
}

/// `(digest, commands, completions)` of each seeded case, then of each
/// long mixed-scope case. A valid schedule can still be the wrong one: a
/// scheduler that picks the wrong bank emits legal commands the checker
/// accepts. These pins tie every case to its exact command stream.
const SCHEDULE_PINS: [(u64, usize, usize); 52] = [
    (0x61ee315ef18e0c61, 118, 26),
    (0x8123879072807a91, 167, 41),
    (0xaa63c17f74a307f4, 375, 81),
    (0x5de596afea096bc7, 440, 106),
    (0x43de575661c88e04, 109, 24),
    (0x4737eb667b118d27, 420, 99),
    (0xc42e72c9fbf97d0c, 424, 98),
    (0xc441d1024441015b, 230, 54),
    (0xaf15ed04ce92aaf0, 282, 65),
    (0x27e72b16e09754f1, 81, 18),
    (0xf54b09b77b9600b6, 402, 94),
    (0x9ff882349638975c, 476, 113),
    (0x1b21d50e77277c2a, 333, 76),
    (0xe48f094e2e7d19cb, 161, 42),
    (0xd800ad6a3bb1f0d1, 199, 48),
    (0x4d65b3107e3b2191, 142, 33),
    (0x1b2a8390e47b8f5f, 413, 98),
    (0x45485427f3dd046e, 487, 111),
    (0xdb136ab0046cb0a8, 510, 118),
    (0x3fdc23ca46c56f58, 443, 100),
    (0xda0b097699602819, 510, 117),
    (0xf8da3f00c888fead, 52, 13),
    (0xc63d75898c9b3ac8, 81, 18),
    (0x2e12be5311c1c032, 57, 13),
    (0x4b8a3bf54e4b4273, 51, 10),
    (0x7bb92119c963b8b2, 382, 93),
    (0x74d10d5256931eb9, 218, 51),
    (0xbb70734b5e7fabfe, 147, 39),
    (0x54a4633b20a75e5e, 169, 39),
    (0xfd0039115a6e75d6, 159, 37),
    (0x86532f8670140066, 66, 16),
    (0xc9344e85090dcc7a, 126, 27),
    (0x537c981d378471fb, 392, 87),
    (0x07aa9b6726ababb9, 29, 7),
    (0x780244b1d30013fb, 270, 63),
    (0xd5acdf234aa96f5e, 395, 89),
    (0x94654965b8d6a7f0, 438, 102),
    (0x724fdb5c1e7565d2, 278, 68),
    (0xe07e34117ff2ab29, 108, 24),
    (0xa5741f6e5182f93c, 35, 8),
    (0x009666a22aded9c5, 437, 103),
    (0xfd6095cc1dd186d1, 63, 16),
    (0x98e2da209e143c8e, 230, 55),
    (0x2fa0f2938299f4fe, 6, 1),
    (0x51c75d0b9d3c154d, 229, 54),
    (0xd26a6ce2f958b541, 132, 33),
    (0x18e45a3df659fa14, 125, 30),
    (0xb0dc561cff848c83, 508, 117),
    (0x29c9be9127e81cca, 2614, 600),
    (0x24ebaa9f204a1088, 2587, 600),
    (0x3a7d0f752db44d0c, 2651, 600),
    (0x1dd46edcbe9031c8, 2598, 600),
];

#[test]
fn schedules_match_golden_pins() {
    let cases: Vec<Case> = seeded_cases()
        .into_iter()
        .chain(long_mixed_cases())
        .collect();
    assert_eq!(cases.len(), SCHEDULE_PINS.len());
    let mut bad = Vec::new();
    for (i, (case, &pin)) in cases.iter().zip(&SCHEDULE_PINS).enumerate() {
        let (trace, done) = run_valid(case, &format!("pinned case {i}"));
        if i >= 48 {
            let refs = trace
                .iter()
                .filter(|ic| ic.command.kind == CommandKind::Ref);
            assert!(refs.count() >= 8, "case {i}: refreshes interleave");
        }
        let got = (schedule_digest(&trace, &done), trace.len(), done.len());
        if got != pin {
            bad.push(format!(
                "case {i}: ({:#018x}, {}, {}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(bad.is_empty(), "schedule mismatches:\n{}", bad.join("\n"));
}

#[test]
fn regression_same_address_back_to_back_salp() {
    // A past shrink: two back-to-back requests to the *same* row of one
    // SALP bank under FCFS with a 1-deep bank window — the tightest
    // serialization the controller supports.
    let addr = PhysAddr {
        channel: 0,
        rank: 0,
        bank_group: 2,
        bank: 2,
        row: 0,
        col_byte: 0,
    };
    let base = ReadRequest {
        id: 0,
        addr,
        bursts: 1,
        ready_at: 0,
        dest: BusScope::Channel,
        salp: true,
        auto_precharge: false,
        write: false,
    };
    let case = Case {
        reqs: vec![base, base],
        policy: SchedulePolicy::Fcfs,
        window: 1,
        global: None,
    };
    run_valid(&case, "regression");
}

#[test]
#[should_panic(expected = "mixed SALP modes")]
fn mixed_salp_modes_on_one_bank_rejected() {
    // SALP is a per-bank hardware property: enqueueing the same bank with
    // salp on and off is a model-misuse contract violation.
    let cfg = DramConfig::ddr5_4800();
    let mut ctl = Controller::new(cfg, SchedulePolicy::Fcfs);
    let base = ReadRequest {
        id: 0,
        addr: PhysAddr {
            channel: 0,
            rank: 0,
            bank_group: 2,
            bank: 2,
            row: 0,
            col_byte: 0,
        },
        bursts: 1,
        ready_at: 0,
        dest: BusScope::Channel,
        salp: true,
        auto_precharge: false,
        write: false,
    };
    ctl.enqueue(base);
    ctl.enqueue(ReadRequest {
        id: 1,
        salp: false,
        ..base
    });
}

#[test]
fn completions_respect_ready_time() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD3A2_0002);
    for case in 0..48 {
        let reqs = random_requests(&mut rng, 60);
        let cfg = DramConfig::ddr5_4800();
        let t = cfg.timing;
        let mut ctl = Controller::new(cfg, SchedulePolicy::FrFcfs);
        for (i, mut r) in reqs.iter().copied().enumerate() {
            r.id = i as u64;
            ctl.enqueue(r);
        }
        for c in ctl.run() {
            let r = &reqs[c.id as usize];
            // Data cannot finish before ready + CAS (write) latency + burst.
            let cas = if r.write { t.t_cwl } else { t.t_cl };
            assert!(
                c.done_at >= r.ready_at + cas + t.t_bl,
                "case {case}: done {} < ready {} + cas {} + bl {}",
                c.done_at,
                r.ready_at,
                cas,
                t.t_bl
            );
        }
    }
}

#[test]
fn stats_are_consistent() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD3A2_0003);
    for case in 0..48 {
        let reqs = random_requests(&mut rng, 80);
        let cfg = DramConfig::ddr5_4800();
        let mut ctl = Controller::new(cfg.clone(), SchedulePolicy::FrFcfs);
        for (i, mut r) in reqs.iter().copied().enumerate() {
            r.id = i as u64;
            ctl.enqueue(r);
        }
        let done = ctl.run();
        let stats = ctl.stats();
        // Every request classified exactly once.
        assert_eq!(
            stats.row_hits + stats.row_misses,
            reqs.len() as u64,
            "case {case}"
        );
        // Read bits match the requested bursts.
        let bursts: u64 = reqs.iter().map(|r| u64::from(r.bursts)).sum();
        assert_eq!(stats.energy.rd_wr_bits, bursts * 64 * 8, "case {case}");
        // Bank loads account for all requests.
        assert_eq!(
            stats.bank_loads.iter().sum::<u64>(),
            reqs.len() as u64,
            "case {case}"
        );
        // Finish is the last completion.
        let last = done.iter().map(|c| c.done_at).max().unwrap_or(0);
        assert!(stats.finish >= last, "case {case}");
    }
}
