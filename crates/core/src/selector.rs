//! Algorithm selection — the paper's closing open question.
//!
//! §VI observes that *which algorithm* wins for a given scene and machine
//! is itself a degree of freedom, but one that search techniques based on
//! "distance" and "direction" cannot tune (it is nominal, not ordinal).
//! The paper suggests the pragmatic fallback of "optimizing one algorithm
//! after another and then picking the best" — which is exactly what
//! [`select_algorithm`] implements on top of [`TunedPipeline`].

use crate::pipeline::TunedPipeline;
use kdtune_autotune::Config;
use kdtune_kdtree::Algorithm;
use kdtune_scenes::Scene;

/// Outcome of tuning a single candidate algorithm.
#[derive(Clone, Debug)]
pub struct AlgorithmCandidate {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Median steady-state frame time after its tuning budget (seconds).
    pub tuned_cost: f64,
    /// Configuration its tuner settled on.
    pub config: Config,
    /// Whether its search converged within the budget.
    pub converged: bool,
}

/// Result of a full selection round.
#[derive(Clone, Debug)]
pub struct SelectionReport {
    /// The winning algorithm (lowest tuned frame time).
    pub winner: Algorithm,
    /// All candidates with their tuned results, in [`Algorithm::ALL`]
    /// order.
    pub candidates: Vec<AlgorithmCandidate>,
}

impl SelectionReport {
    /// The winning candidate's record.
    pub fn winning_candidate(&self) -> &AlgorithmCandidate {
        self.candidates
            .iter()
            .find(|c| c.algorithm == self.winner)
            .expect("winner is always one of the candidates")
    }
}

/// Knobs for [`select_algorithm`].
#[derive(Clone, Copy, Debug)]
pub struct SelectorOpts {
    /// Tuning frames granted to each algorithm before judging it.
    pub budget_per_algorithm: usize,
    /// Frames measured at the tuned configuration for the verdict.
    pub steady_window: usize,
    /// Square render resolution.
    pub resolution: u32,
    /// Tuner seed (shared across candidates so the comparison is fair).
    pub seed: u64,
}

impl Default for SelectorOpts {
    fn default() -> Self {
        SelectorOpts {
            budget_per_algorithm: 80,
            steady_window: 5,
            resolution: 128,
            seed: 0x5e1ec7,
        }
    }
}

/// Tunes each of the four algorithms in turn on `scene` and picks the one
/// with the lowest steady-state frame time.
pub fn select_algorithm(scene: &Scene, opts: &SelectorOpts) -> SelectionReport {
    let candidates: Vec<AlgorithmCandidate> = Algorithm::ALL
        .iter()
        .map(|&algorithm| {
            let mut pipeline = TunedPipeline::new(scene.clone(), algorithm)
                .resolution(opts.resolution, opts.resolution)
                .tuner_seed(opts.seed);
            let converged = pipeline.run_until_converged(opts.budget_per_algorithm);
            let mut steady = Vec::with_capacity(opts.steady_window);
            for _ in 0..opts.steady_window.max(1) {
                steady.push(pipeline.step().total_secs);
            }
            steady.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let tuned_cost = steady[steady.len() / 2];
            let config = pipeline
                .workflow()
                .tuner()
                .best()
                .map(|(c, _)| c.clone())
                .expect("tuning ran");
            AlgorithmCandidate {
                algorithm,
                tuned_cost,
                config,
                converged,
            }
        })
        .collect();
    let winner = candidates
        .iter()
        .min_by(|a, b| a.tuned_cost.partial_cmp(&b.tuned_cost).unwrap())
        .expect("four candidates")
        .algorithm;
    SelectionReport { winner, candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_scenes::{fairy_forest, SceneParams};

    #[test]
    fn selection_covers_all_algorithms_and_picks_the_minimum() {
        let scene = fairy_forest(&SceneParams::tiny());
        let opts = SelectorOpts {
            budget_per_algorithm: 10,
            steady_window: 2,
            resolution: 16,
            seed: 3,
        };
        let report = select_algorithm(&scene, &opts);
        assert_eq!(report.candidates.len(), 4);
        let min = report
            .candidates
            .iter()
            .map(|c| c.tuned_cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(report.winning_candidate().tuned_cost, min);
        // Lazy carries 4 parameters, the rest 3.
        for c in &report.candidates {
            let expect = if c.algorithm == Algorithm::Lazy { 4 } else { 3 };
            assert_eq!(c.config.values().len(), expect, "{}", c.algorithm);
        }
    }
}
