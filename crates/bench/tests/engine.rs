//! Engine-level determinism: registry experiments run *concurrently*
//! (`cli::collect` fans them out under the hierarchical worker budget),
//! and their tables must be bit-identical to each other under any thread
//! count — the experiment-level analogue of the sweep- and phase-level
//! fences in `tests/determinism.rs`.

use byzscore_bench::cli::{collect, resolve};
use byzscore_bench::Scale;
use byzscore_board::par::set_thread_limit;

/// Every table of every record, whole: title, headers, every cell and
/// every note. No column is exempt — the registry carries no wall-clock.
fn tables(records: &[byzscore_bench::cli::RunRecord]) -> Vec<Vec<String>> {
    records
        .iter()
        .map(|rec| rec.tables.iter().map(|t| t.to_json()).collect())
        .collect()
}

#[test]
fn concurrent_experiments_are_bit_identical_across_thread_counts() {
    // A cheap but heterogeneous slice of the registry: block-level,
    // protocol-level, and election experiments, all with sub-second to
    // few-second quick runs, plus e12, whose table used to carry a
    // wall-clock column. They execute concurrently inside one `collect`.
    let picked = resolve(&[
        "e01".to_string(),
        "e02".to_string(),
        "e04".to_string(),
        "e10".to_string(),
        "e12".to_string(),
    ])
    .expect("selectors resolve");

    set_thread_limit(Some(1));
    let reference = tables(&collect(&picked, Scale::Quick));
    assert_eq!(reference.len(), 5, "one record per experiment, in order");

    for threads in [2usize, 8] {
        set_thread_limit(Some(threads));
        let got = tables(&collect(&picked, Scale::Quick));
        assert_eq!(
            got, reference,
            "experiment tables differ at {threads} worker thread(s)"
        );
    }
    set_thread_limit(None);
}
