//! Reference values the output checks compare against, and the paper's
//! figures printed beside every simulated speedup.

/// The workload seed each workload's references are pinned at.
pub const HEADLINE_SEED: u64 = 0xD17A;
/// `repro --quick serve --slo-search`'s default seed.
pub const SLO_SEED: u64 = 0x5E21;
/// The seed of the traced tenant point's references.
pub const TENANTS_SEED: u64 = 7;

/// The headline cycle counts of `repro_paper_scale.txt` (seed `0xD17A`),
/// in [`crate::layers::ARCHS`] order.
pub const HEADLINE_CYCLES: [u64; 6] = [3_319_888, 1_978_089, 1_078_295, 753_563, 648_447, 359_896];

/// What a run's simulated outputs must equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reference {
    /// Per-architecture cycles (`paper_headline` only).
    pub cycles: Option<[u64; 6]>,
    /// Digest of the simulated report.
    pub digest: Option<u64>,
}

/// The stored reference for `workload` at `seed` (empty off the pinned
/// seeds, where only run-to-run repeatability is checked).
///
/// The digests are FNV-1a over the same bytes `repro` prints at the
/// pinned seeds: the six headline rows of `repro_paper_scale.txt`; the
/// `repro --quick serve --slo-search --out` JSON; and for the tenant point
/// its JSON line, its `--agg-out` JSON and the streamed Perfetto file's
/// length and digest (see the README for the exact commands).
pub fn reference(workload: &str, seed: u64) -> Reference {
    match (workload, seed) {
        ("paper_headline", HEADLINE_SEED) => Reference {
            cycles: Some(HEADLINE_CYCLES),
            digest: Some(0x8fc5_fc72_ec17_d73e),
        },
        ("slo_search", SLO_SEED) => Reference {
            cycles: None,
            digest: Some(0x3799_c286_0f6a_2e70),
        },
        ("traced_tenants", TENANTS_SEED) => Reference {
            cycles: None,
            digest: Some(0xee6b_1ece_a472_bb1f),
        },
        _ => Reference::default(),
    }
}

/// Compares `digest` (and `cycles`, when the reference has them) with the
/// reference; returns one line per mismatch.
pub fn compare(reference: &Reference, cycles: Option<&[u64]>, digest: u64) -> Vec<String> {
    let mut failures = Vec::new();
    if let (Some(want), Some(got)) = (reference.cycles, cycles) {
        if got != want {
            failures.push(format!("cycles {got:?} differ from the reference {want:?}"));
        }
    }
    if let Some(want) = reference.digest {
        if digest != want {
            failures.push(format!(
                "report digest {digest:016x} differs from the reference {want:016x}"
            ));
        }
    }
    failures
}

/// The paper's headline speedups (EXPERIMENTS.md, "Headline"):
/// `(faster arch, slower arch, paper figure)`.
pub const PAPER_SPEEDUPS: [(&str, &str, f64); 6] = [
    ("ReCross", "CPU", 15.5),
    ("ReCross", "TensorDIMM", 9.3),
    ("ReCross", "RecNMP", 7.9),
    ("ReCross", "TRiM-G", 2.5),
    ("ReCross", "TRiM-B", 1.8),
    // The paper gives this one as an upper bound (≤ 1.31×).
    ("TRiM-B", "TRiM-G", 1.31),
];

/// One `sim.speedup.*` line: the simulated speedup, the paper's figure
/// and their ratio.
pub fn speedup_line(fast: &str, slow: &str, measured: f64, paper: f64) -> String {
    format!(
        "sim.speedup.{}_vs_{} {measured:.2}x (paper {paper}x; model/paper {:.2})",
        key(fast),
        key(slow),
        measured / paper
    )
}

/// Metric key of an architecture name (`TRiM-G` → `trim_g`).
pub fn key(arch: &str) -> String {
    arch.to_ascii_lowercase().replace('-', "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_digest_or_tampered_cycles_fail() {
        let r = Reference {
            cycles: Some(HEADLINE_CYCLES),
            digest: Some(42),
        };
        assert!(compare(&r, Some(&HEADLINE_CYCLES), 42).is_empty());
        assert_eq!(compare(&r, Some(&HEADLINE_CYCLES), 43).len(), 1);
        let mut tampered = HEADLINE_CYCLES;
        tampered[5] += 1;
        assert_eq!(compare(&r, Some(&tampered), 42).len(), 1);
        assert!(compare(&Reference::default(), Some(&tampered), 7).is_empty());
    }

    #[test]
    fn keys_and_speedup_lines() {
        assert_eq!(key("TRiM-G"), "trim_g");
        assert_eq!(
            speedup_line("ReCross", "CPU", 9.224, 15.5),
            "sim.speedup.recross_vs_cpu 9.22x (paper 15.5x; model/paper 0.60)"
        );
    }
}
