//! Host-time benchmark of the ReCross simulator.
//!
//! ```text
//! perfbench --workload <paper_headline|slo_search|traced_tenants> \
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload all [--seed N] [--seconds S]
//! ```
//!
//! One run sets the workload up several times (the median is `setup_s`),
//! then repeats set-up plus measured phase while another unit still fits
//! in `--seconds` (the median measured phase is `run_s`), checks every
//! simulated output, and prints the `sim.*` results, the metrics, and last
//! a JSON line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` wraps every
//! layer call in a span and reports the per-layer metrics instead. `all`
//! runs each workload untraced and traced in child processes and adds the
//! tracing overhead and layer coverage. See README.md.

mod checks;
mod instr;
mod layers;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use layers::Layers;
use stats::median;
use workloads::{Unit, Workload};

/// Parsed command line.
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                let v = value()?;
                a.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed expects an unsigned integer, got {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => {
                        return Err(format!(
                            "--seconds expects a non-negative number, got {v:?}"
                        ))
                    }
                };
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (paper_headline, slo_search, traced_tenants, all)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(workload.pinned_seed());
    run_one(workload, seed, args.seconds, args.trace);
    ExitCode::SUCCESS
}

/// The end-to-end metrics as `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("sim_lookups_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

fn run_one(workload: Workload, seed: u64, seconds: f64, trace: bool) {
    let scale = workload.scale();
    if trace {
        instr::enable();
    }
    let reference = checks::reference(workload.name(), seed);
    println!(
        "perfbench {} seed {seed} ({}), {} s, trace {}",
        workload.name(),
        if reference.digest.is_some() {
            "pinned references"
        } else {
            "repeatability only"
        },
        seconds,
        u8::from(trace)
    );

    let mut setups: Vec<f64> = (0..workload.extra_setups())
        .map(|_| workload.setup_only(scale, seed, trace))
        .collect();
    let start = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    loop {
        attempted += 1;
        instr::set_group(attempted as u32);
        match catch_unwind(AssertUnwindSafe(|| {
            workload.unit(scale, seed, trace, &reference)
        })) {
            Ok(u) => {
                println!(
                    "unit {attempted}: setup {:.4} s, run {:.4} s, digest {:016x}",
                    u.setup_s,
                    u.run_s,
                    stats::fnv(&u.report)
                );
                for f in &u.failures {
                    println!("CHECK FAILED: {f}");
                }
                failed += u64::from(!u.failures.is_empty());
                setups.push(u.setup_s);
                units.push(u);
            }
            Err(_) => {
                println!("CHECK FAILED: unit {attempted} panicked");
                failed += 1;
                break;
            }
        }
        // Start another unit only if one as long as the longest so far
        // still ends within `seconds`, so a run never overshoots by a unit.
        let longest = units
            .iter()
            .map(|u| u.setup_s + u.run_s)
            .fold(0.0, f64::max);
        if start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    if let Some(first) = units.first() {
        let differing = units.iter().filter(|u| u.report != first.report).count() as u64;
        if differing > 0 {
            println!("CHECK FAILED: {differing} units' reports differ from the first unit's");
            failed += differing;
        }
        if let Err(e) = check_repeats(workload, seed, stats::fnv(&first.report)) {
            println!("CHECK FAILED: {e}");
            failed = attempted;
        }
        for line in &first.sim {
            println!("{line}");
        }
    }
    failed = failed.min(attempted);
    println!(
        "failed_share {} ({failed}/{attempted})",
        failed as f64 / attempted as f64
    );

    let metrics: Vec<(String, f64, &str)> = if trace {
        per_layer(workload, seed, &units)
    } else {
        let run_s = median(&units.iter().map(|u| u.run_s).collect::<Vec<_>>());
        let lookups = units.first().map_or(0.0, |u| u.sim_lookups);
        let values = [
            run_s,
            median(&setups),
            if run_s > 0.0 { lookups / run_s } else { 0.0 },
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect()
    };
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    let metrics: Vec<(String, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v + 0.0 } else { 0.0 }, u))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && !units.is_empty(),
        body.join(", ")
    );
}

/// Per-layer metrics of a traced run: span-timed ones from the recording
/// (written to a span file), counts from the simulated outputs.
fn per_layer(workload: Workload, seed: u64, units: &[Unit]) -> Vec<(String, f64, &'static str)> {
    let spans = instr::drain();
    let path = out_dir().join(format!("spans-{}-{seed}.json", workload.name()));
    match std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(&path, instr::spans_to_json(&spans)))
    {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    let mut l: Layers = layers::from_spans(&spans);
    for (name, _) in layers::catalogue() {
        let values: Vec<f64> = units
            .iter()
            .filter_map(|u| u.counts.get(&name).copied())
            .collect();
        if !values.is_empty() {
            l.insert(name, median(&values));
        }
    }
    for (what, n) in [
        ("serve.probe_ms", l.get("serve.probes")),
        ("nmp.miss_ms (cpu misses)", l.get("nmp.memo_misses.cpu")),
        (
            "nmp.miss_ms (recross misses)",
            l.get("nmp.memo_misses.recross"),
        ),
    ] {
        let n = n.copied().unwrap_or(0.0) as usize;
        if n > 0 {
            let p = stats::tail_percentile(n).unwrap_or(50.0);
            println!("tail: {what} reports p{p} of {n} samples");
        }
    }
    let traced_s = l.get("nmp.traced_s").copied().unwrap_or(0.0);
    let commands = l.get("dram.commands").copied().unwrap_or(0.0);
    l.insert(
        "dram.cmds_per_s".into(),
        if traced_s > 0.0 {
            commands / traced_s
        } else {
            0.0
        },
    );
    layers::catalogue()
        .into_iter()
        .map(|(name, unit)| {
            let v = l.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}

/// Where runs keep their span files and digests: beside the executable,
/// inside the build directory.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-out")))
        .unwrap_or_else(|| PathBuf::from("perfbench-out"))
}

/// Checks that `digest` equals the digest an earlier run of the same
/// workload and seed stored, storing it on the first run.
fn check_repeats(workload: Workload, seed: u64, digest: u64) -> Result<(), String> {
    let path = out_dir().join(format!("digest-{}-{seed}", workload.name()));
    let hex = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored.trim() == hex => Ok(()),
        Ok(stored) => Err(format!(
            "digest {hex} differs from {} stored by an earlier run of this seed",
            stored.trim()
        )),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::create_dir_all(out_dir())
                .and_then(|_| std::fs::write(&tmp, &hex))
                .and_then(|_| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("cannot store {}: {e}", path.display()))
        }
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs every workload untraced and traced, each in its own process, and
/// summarizes tracing overhead and layer coverage.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for w in Workload::ALL {
        let seed = args.seed.unwrap_or(w.pinned_seed());
        let mut results = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            let text = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!(
                        "perfbench: {} --trace {trace} exited with {}",
                        w.name(),
                        o.status
                    );
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {}: {e}", exe.display());
                    return ExitCode::from(2);
                }
            };
            print!("{text}");
            let last = text.lines().last().unwrap_or("");
            ok &= last.contains("\"correct\": true");
            results.push(last.to_string());
        }
        if let [untraced, traced] = &results[..] {
            let run = metric(untraced, "run_s");
            let traced_run = metric(traced, "bench.traced_run_s");
            let share = metric(traced, "bench.layer_share");
            let covered = (share - 1.0).abs() <= 0.05;
            ok &= covered;
            summary.push(format!(
                "{:<15} run_s {run:.3} s, traced {traced_run:.3} s, tracing overhead {:.3} s ({:+.1}%), layers cover {:.1}% of the traced run {}",
                w.name(),
                traced_run - run,
                100.0 * (traced_run - run) / run,
                100.0 * share,
                if covered { "(within 5%)" } else { "(OUTSIDE 5%)" }
            ));
        }
    }
    println!("\nsummary");
    for line in summary {
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("some runs failed their checks");
        ExitCode::FAILURE
    }
}

/// A metric's value from one result line (NaN when absent).
fn metric(result: &str, name: &str) -> f64 {
    let needle = format!("\"{name}\": {{\"value\": ");
    result
        .find(&needle)
        .map(|i| &result[i + needle.len()..])
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN)
}
