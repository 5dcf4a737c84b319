//! The experiment registry: one entry per paper claim (DESIGN.md §5).
//!
//! Every experiment of the evaluation is described here once — id, human
//! name, claim description, tags, and runner function — and everything
//! else (the `run_all` CLI, DESIGN.md's index, the JSON artifacts) is
//! driven off this table. Adding an experiment means adding one
//! [`Experiment`] row; `run_all --only <id>` runs it alone.

use crate::table::Table;
use crate::{experiments as e, Scale};

/// One registered experiment.
pub struct Experiment {
    /// Short stable id (`e01` … `e19`, `a1` … `a3`), the `--only` key.
    pub id: &'static str,
    /// Human-readable slug (`rselect`, `byzantine`, …).
    pub name: &'static str,
    /// What the experiment measures and which paper claim it backs.
    pub description: &'static str,
    /// Free-form labels for filtering (`--only @tag` selects by tag).
    pub tags: &'static [&'static str],
    /// The measurement function. Runners build tables and return them
    /// without printing; rendering is the engine's job. Runners execute
    /// *concurrently* with other registry entries (`cli::collect`), so
    /// they must be pure functions of `(scale, hard-coded seeds)` — no
    /// shared mutable state beyond the process-wide knobs the engine sets
    /// before the fan-out (the thread budget).
    pub runner: fn(Scale) -> Vec<Table>,
}

/// All experiments, in evaluation order.
///
/// A `static` (not `const`) so every reference into the table shares one
/// address and entries can be compared by identity.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "e01",
        name: "rselect",
        description: "Thm 3: RSelect lands within O(1) of the best candidate in O(k²·log n) probes",
        tags: &["blocks", "honest"],
        runner: e::e01_rselect,
    },
    Experiment {
        id: "e02",
        name: "zero-radius",
        description: "Thm 4: ZeroRadius exactly recovers clone classes with O(B'·log n) probes",
        tags: &["blocks", "honest"],
        runner: e::e02_zero_radius,
    },
    Experiment {
        id: "e03",
        name: "small-radius",
        description: "Thm 5: SmallRadius error stays ≤ 5D on diameter-D clusters",
        tags: &["blocks", "honest"],
        runner: e::e03_small_radius,
    },
    Experiment {
        id: "e04",
        name: "sample-concentration",
        description: "Lemma 6: sampled Hamming distances separate close pairs from far pairs",
        tags: &["blocks", "honest"],
        runner: e::e04_sample_concentration,
    },
    Experiment {
        id: "e05",
        name: "clustering",
        description: "Lemmas 7–9: neighbor-graph clustering recovers the planted clusters",
        tags: &["protocol", "honest"],
        runner: e::e05_clustering,
    },
    Experiment {
        id: "e06",
        name: "probe-complexity",
        description: "Lemmas 10–11: max honest probes grow polylogarithmically in n",
        tags: &["protocol", "honest", "perf"],
        runner: e::e06_probe_complexity,
    },
    Experiment {
        id: "e07",
        name: "error-vs-d",
        description: "Lemma 12 / Thm 14: output error scales linearly with the planted diameter D",
        tags: &["protocol", "honest"],
        runner: e::e07_error_vs_d,
    },
    Experiment {
        id: "e08",
        name: "lower-bound",
        description:
            "Claim 2: on the lower-bound distribution every protocol pays Ω(n/B) probes or errs",
        tags: &["protocol", "bounds"],
        runner: e::e08_lower_bound,
    },
    Experiment {
        id: "e09",
        name: "byzantine",
        description:
            "Lemma 13 / Thm 14: honest error under growing Byzantine fractions and strategies",
        tags: &["byzantine", "protocol"],
        runner: e::e09_byzantine,
    },
    Experiment {
        id: "e10",
        name: "election",
        description: "§7.1: lightest-bin election honest-win probability vs rushing adversaries",
        tags: &["byzantine", "election"],
        runner: e::e10_election,
    },
    Experiment {
        id: "e11",
        name: "comparison",
        description: "§1: CalculatePreferences vs prior-art proxies and naive baselines",
        tags: &["protocol", "baselines"],
        runner: e::e11_comparison,
    },
    Experiment {
        id: "e12",
        name: "budgets",
        description: "§8: sensitivity of probes and error to the cluster budget B",
        tags: &["protocol", "ablation"],
        runner: e::e12_budgets,
    },
    Experiment {
        id: "e13",
        name: "scale_frontier",
        description:
            "Scale frontier: procedural O(1)-memory truth backend sweeps n up to 1e5 players",
        tags: &["scale", "baselines", "perf"],
        runner: e::e13_scale_frontier,
    },
    Experiment {
        id: "e14",
        name: "churn_robust",
        description:
            "Dynamic worlds: per-round error trajectory under seeded population churn (retire/join identity remap)",
        tags: &["dynamic", "protocol"],
        runner: e::e14_churn_robust,
    },
    Experiment {
        id: "e15",
        name: "adaptive_corruption",
        description:
            "Dynamic worlds: adversary re-targets its n/(3B) budget after observing each repetition's clustering/scores",
        tags: &["dynamic", "byzantine"],
        runner: e::e15_adaptive_corruption,
    },
    Experiment {
        id: "e16",
        name: "drifting_truth",
        description:
            "Dynamic worlds: drifting preferences on the procedural @scale backend, plus the multi-bit graded drift trajectory",
        tags: &["dynamic", "scale", "graded"],
        runner: e::e16_drifting_truth,
    },
    Experiment {
        id: "e17",
        name: "service_throughput",
        description:
            "Scoring as a service: resident engine replaying recorded request traces — gated response digests across batch splits, @scale and over the socket",
        tags: &["service", "scale", "perf"],
        runner: e::e17_service_throughput,
    },
    Experiment {
        id: "e18",
        name: "fault_recovery",
        description:
            "Fault-injected crash recovery: journaled engine killed at a seeded op schedule resumes with bit-identical digests; injected worker/barrier/connection faults are absorbed by typed retries",
        tags: &["service", "robustness"],
        runner: e::e18_fault_recovery,
    },
    Experiment {
        id: "e19",
        name: "compaction",
        description:
            "Checkpointed WAL compaction: session snapshots bound the replayable journal tail by the compaction threshold, torn checkpoints fall back to the rotated previous generation, and every recovery lands the pinned digest",
        tags: &["service", "robustness"],
        runner: e::e19_compaction,
    },
    Experiment {
        id: "a1",
        name: "select-ablation",
        description: "Ablation: Select batch size and elimination constants",
        tags: &["ablation", "blocks"],
        runner: e::a1_select,
    },
    Experiment {
        id: "a2",
        name: "votes-ablation",
        description: "Ablation: ZeroRadius vote-threshold denominator",
        tags: &["ablation", "blocks"],
        runner: e::a2_votes,
    },
    Experiment {
        id: "a3",
        name: "threshold-ablation",
        description: "Ablation: neighbor-graph edge threshold multiplier",
        tags: &["ablation", "protocol"],
        runner: e::a3_threshold,
    },
];

/// Look one experiment up by id, name, or the `<id>_<name>` binary-file
/// form (`e13_scale_frontier`), case-insensitively.
pub fn find(key: &str) -> Option<&'static Experiment> {
    let k = key.to_ascii_lowercase();
    REGISTRY.iter().find(|x| {
        x.id == k || x.name.eq_ignore_ascii_case(&k) || format!("{}_{}", x.id, x.name) == k
    })
}

/// Resolve one `--only` selector to experiments: an id (`e07`), a name
/// (`byzantine`), or `@tag` (all experiments carrying the tag).
pub fn select(selector: &str) -> Vec<&'static Experiment> {
    if let Some(tag) = selector.strip_prefix('@') {
        let t = tag.to_ascii_lowercase();
        REGISTRY
            .iter()
            .filter(|x| x.tags.iter().any(|have| *have == t))
            .collect()
    } else {
        find(selector).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_described() {
        let mut seen = std::collections::HashSet::new();
        for x in REGISTRY {
            assert!(seen.insert(x.id), "duplicate id {}", x.id);
            assert!(seen.insert(x.name), "name collides: {}", x.name);
            assert!(!x.description.is_empty(), "{} lacks a description", x.id);
            assert!(!x.tags.is_empty(), "{} lacks tags", x.id);
        }
        assert_eq!(REGISTRY.len(), 22);
    }

    #[test]
    fn find_matches_id_and_name() {
        assert!(std::ptr::eq(
            find("e09").unwrap(),
            find("byzantine").unwrap()
        ));
        assert!(find("E09").is_some(), "ids are case-insensitive");
        assert!(find("nope").is_none());
        // The binary-file form works too (acceptance surface of e13).
        assert!(std::ptr::eq(
            find("e13_scale_frontier").unwrap(),
            find("e13").unwrap()
        ));
    }

    #[test]
    fn tag_selection() {
        let byz = select("@byzantine");
        assert_eq!(byz.len(), 3);
        assert!(byz.iter().any(|x| x.id == "e10"));
        assert!(byz.iter().any(|x| x.id == "e15"));
        let dynamic = select("@dynamic");
        assert_eq!(dynamic.len(), 3, "e14–e16 carry the dynamic tag");
        assert_eq!(select("e07").len(), 1);
        assert!(select("@nope").is_empty());
    }
}
