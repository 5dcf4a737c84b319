//! One experiment per paper claim (DESIGN.md §5).
//!
//! Every function builds and **returns** its tables without printing;
//! rendering (markdown and/or `BENCH_*.json`) is the job of the
//! [`crate::cli`] engine, driven by [`crate::registry::REGISTRY`]. That
//! split is what lets `--json` emit clean artifacts and lets `run_all`
//! regenerate the complete evaluation that EXPERIMENTS.md quotes.

mod ablations;
mod blocks_exp;
mod byzantine_exp;
mod compaction_exp;
mod dynamic_exp;
mod protocol_exp;
mod recovery_exp;
mod scale_exp;
mod service_exp;

pub use ablations::{a1_select, a2_votes, a3_threshold};
pub use blocks_exp::{e01_rselect, e02_zero_radius, e03_small_radius, e04_sample_concentration};
pub use byzantine_exp::{e09_byzantine, e10_election, e11_comparison};
pub use compaction_exp::e19_compaction;
pub use dynamic_exp::{e14_churn_robust, e15_adaptive_corruption, e16_drifting_truth};
pub use protocol_exp::{
    e05_clustering, e06_probe_complexity, e07_error_vs_d, e08_lower_bound, e12_budgets,
};
pub use recovery_exp::e18_fault_recovery;
pub use scale_exp::e13_scale_frontier;
pub use service_exp::e17_service_throughput;

use byzscore_adversary::Behaviors;
use byzscore_bitset::BitMatrix;
use byzscore_blocks::{BlockParams, Ctx};
use byzscore_board::{Board, Oracle};
use byzscore_random::Beacon;

/// A self-owned honest-world harness around a truth matrix: oracle, board,
/// behaviours, and params, with a [`Harness::ctx`] accessor. Keeps the
/// block-level experiments free of lifetime plumbing.
pub struct Harness<'a> {
    /// Probe oracle over the instance truth.
    pub oracle: Oracle,
    /// Bulletin board.
    pub board: Board,
    /// Behaviour table.
    pub behaviors: Behaviors<'a>,
    /// Block constants.
    pub params: BlockParams,
    /// Beacon seed.
    pub seed: u64,
}

impl<'a> Harness<'a> {
    /// All-honest harness.
    pub fn honest(truth: &'a BitMatrix, params: BlockParams, seed: u64) -> Self {
        Harness {
            oracle: Oracle::new(truth),
            board: Board::new(),
            behaviors: Behaviors::all_honest(truth),
            params,
            seed,
        }
    }

    /// Harness with an installed adversary.
    pub fn adversarial(
        truth: &'a BitMatrix,
        dishonest: Vec<bool>,
        strategy: &'a dyn byzscore_adversary::Strategy,
        params: BlockParams,
        seed: u64,
    ) -> Self {
        Harness {
            oracle: Oracle::new(truth),
            board: Board::new(),
            behaviors: Behaviors::new(truth, dishonest, strategy),
            params,
            seed,
        }
    }

    /// Execution context.
    pub fn ctx(&self) -> Ctx<'_> {
        Ctx::new(
            &self.oracle,
            &self.board,
            &self.behaviors,
            Beacon::honest(self.seed),
            &self.params,
        )
    }
}
