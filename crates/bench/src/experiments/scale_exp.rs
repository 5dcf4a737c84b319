//! E13: the scale frontier — the procedural truth backend at player counts
//! a materialized matrix cannot reach comfortably.

use byzscore::{Algorithm, ClusterSpec, ProtocolParams, Session, SweepPoint};

use crate::table::{f2, Table};
use crate::Scale;

/// **E13 / ROADMAP "scale the substrate past simulation sizes"** — sweep
/// `n` up to 10⁵ players (2·10⁵ at full scale) on
/// [`byzscore::ProceduralTruth`]: truth bits are regenerated on demand from
/// `(seed, cluster model)`, so no `n × m` truth matrix is ever
/// materialized, and outcomes stream per-player errors
/// ([`byzscore::OutputSink::ErrorStream`]) instead of holding dense output
/// matrices. `GlobalMajority` and `NaiveSampling` run at every size;
/// neighbor discovery goes through `NeighborIndex`'s one pipeline —
/// bit-identical `z`-vectors (planted clusters collapse sample outputs
/// heavily) are deduplicated before banding, so every diameter guess,
/// including the mid-`τ` ones that used to fall onto the `O(n²)` blocked
/// scan, runs over a group graph orders of magnitude smaller than `n`
/// (DESIGN.md §4.8). Each size's algorithms execute as one parallel
/// [`Session::run_sweep`].
pub fn e13_scale_frontier(scale: Scale) -> Vec<Table> {
    let m = 1024usize;
    let b = 8usize;
    let d = 16usize;
    let ns = scale.pick(
        vec![1_000usize, 10_000, 100_000],
        vec![1_000, 10_000, 100_000, 200_000],
    );

    let mut table = Table::new(
        format!(
            "E13: scale frontier — ProceduralTruth (no materialized matrix), m={m}, B={b}, D={d}"
        ),
        &[
            "n",
            "algorithm",
            "max honest probes",
            "max err",
            "mean err",
            "peak claim slots",
            "claim posts",
            "peak candidate bytes",
        ],
    );

    for &n in &ns {
        let spec = ClusterSpec {
            players: n,
            objects: m,
            clusters: b,
            diameter: d,
            seed: 0xe13 + n as u64,
        };
        let session = Session::builder()
            .procedural(spec)
            .params(ProtocolParams::with_budget(b))
            .output_sink(byzscore::OutputSink::ErrorStream)
            .build();

        let points = vec![
            SweepPoint::new(Algorithm::GlobalMajority, 41),
            SweepPoint::new(Algorithm::NaiveSampling, 43),
        ];
        for out in session.run_sweep(&points) {
            table.row(vec![
                n.to_string(),
                out.algorithm.clone(),
                out.max_honest_probes.to_string(),
                out.errors.max.to_string(),
                f2(out.errors.mean),
                out.board.peak_claim_slots.to_string(),
                out.board.claim_posts.to_string(),
                out.peak_candidate_bytes.to_string(),
            ]);
        }
    }
    table.note(format!(
        "NaiveSampling is uncapped (was n≤10⁴): discovery groups \
         bit-identical z-vectors first (planted clusters collapse sample \
         outputs, so the group graph is far smaller than n), prunes the \
         group graph with τ+1 bit-bands — single-bit-flip multi-probe \
         bands at mid-τ, popcount-prefiltered scan beyond — and peels \
         lazily: per-player adjacency is never materialized, so each \
         planted cluster's clique (~{:.1}e8 adjacency-list entries at \
         n=100000) costs no memory. Dense truth at n=100000, m={m} would \
         be {:.1} MB per run; the procedural backend stores only {b} \
         cluster centers, and the ErrorStream sink drops output rows once \
         their errors are folded. Peak candidate bytes is the summed \
         per-player peak residency of the streaming RSelect tournaments — \
         fused into the guess loop it stays near n·m/8 instead of the \
         batch path's n·guesses·m/8 (zero for GlobalMajority, which runs \
         no tournament).",
        (100_000.0 / b as f64).powi(2) / 1.0e8,
        100_000.0 * m as f64 / 8.0 / 1.0e6,
    ));
    vec![table]
}
