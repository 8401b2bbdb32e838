//! Every DRAM command vector a serving session prices a batch with replays
//! through the independent `dram::check` replayer without a violation, for
//! all six device models.
//!
//! The controller's own tests check the schedules they build by hand; this
//! checks the schedules the serving layer actually emits (the
//! `service_traced` path the tracer records), at `Scale::Tiny`; a second
//! test replays each batch of a paper-scale closed-loop run trace.

use recross::config::ReCrossConfig;
use recross::engine::ReCross;
use recross::profile::empirical_profiles;
use recross_bench::runtrace::closed_loop_trace_with;
use recross_bench::serving::TraceOptions;
use recross_bench::workloads::{dram, generator, Scale};
use recross_dram::check::check_trace;
use recross_dram::IssuedCommand;
use recross_nmp::accel::EmbeddingAccelerator;
use recross_nmp::session::ServiceSession;
use recross_nmp::{AccessProfile, CpuBaseline, RecNmp, TensorDimm, Trim};

#[test]
fn traced_serving_batches_replay_without_violations() {
    let d = dram();
    let trace = generator(Scale::Tiny, 64).batches(3).generate(0x5E21);
    let tables = &trace.tables;
    let profile = AccessProfile::from_trace(&trace);
    let recross = ReCross::new(
        ReCrossConfig::default_d(d.clone()),
        empirical_profiles(tables, &profile),
        Scale::Tiny.batch_size() as f64,
    )
    .expect("placement fits");
    let mut sessions: Vec<Box<dyn ServiceSession>> = vec![
        CpuBaseline::new(d.clone()).open_session(tables),
        TensorDimm::new(d.clone()).open_session(tables),
        RecNmp::new(d.clone()).open_session(tables),
        Trim::bank_group(d.clone())
            .with_profile(profile.clone())
            .open_session(tables),
        Trim::bank(d.clone())
            .with_profile(profile)
            .open_session(tables),
        recross.open_session(tables),
    ];
    for session in &mut sessions {
        for (i, batch) in trace.batches.iter().enumerate() {
            let (cycles, commands) = session.service_traced(batch);
            let label = format!("{} batch {i}", session.name());
            assert!(cycles > 0 && !commands.is_empty(), "{label}: priced");
            let violations = check_trace(d.topology, d.timing, &commands);
            assert!(
                violations.is_empty(),
                "{label}: {} violations, first {:?}",
                violations.len(),
                &violations[..violations.len().min(3)]
            );
        }
    }
}

/// The closed-loop run tracer (`repro run`) concatenates batches that were
/// each priced on an idle DRAM, so its stream is legal batch by batch
/// (not across a join; see EXPERIMENTS.md). Each paper-scale ReCross
/// batch, re-based to its own start cycle, replays without a violation.
#[test]
fn run_trace_batches_replay_without_violations() {
    let d = dram();
    let rt = closed_loop_trace_with(Scale::Paper, "ReCross", 0xD17A, 2, TraceOptions::default())
        .expect("in-memory tracing cannot fail");
    assert_eq!(rt.batches.len(), 2);
    let mut replayed = 0;
    for &(i, start, cycles) in &rt.batches {
        let batch: Vec<IssuedCommand> = rt
            .commands
            .iter()
            .filter(|c| (start..start + cycles).contains(&c.cycle))
            .map(|c| IssuedCommand {
                cycle: c.cycle - start,
                ..*c
            })
            .collect();
        replayed += batch.len();
        let violations = check_trace(d.topology, d.timing, &batch);
        assert!(violations.is_empty(), "batch {i}: {violations:?}");
    }
    assert_eq!(replayed, rt.commands.len(), "every command is in its batch");
}
