//! Umbrella end-to-end guard for the staged pipeline + explorer stack:
//! the staged API must agree with the one-shot `solve`, and a small
//! parallel design search must produce a verified, reproducible winner.
//! The full default sweep must also be thread-count independent.

use wsp_core::{solve, Pipeline, PipelineOptions, WspInstance};
use wsp_explore::{evaluate_batch, sorting_center_sweep, DesignCandidate, ExploreOptions};
use wsp_maps::SortingCenterParams;
use wsp_traffic::RingOrientation;

fn small_candidates() -> Vec<DesignCandidate> {
    [RingOrientation::Forward, RingOrientation::Reversed]
        .into_iter()
        .flat_map(|orientation| {
            [60usize, 100].into_iter().map(move |max_component_len| {
                DesignCandidate::new(SortingCenterParams {
                    chute_rows: 3,
                    chute_cols: 4,
                    stations: 2,
                    orientation,
                    max_component_len,
                    ..SortingCenterParams::paper()
                })
            })
        })
        .collect()
}

#[test]
fn explore_winner_is_verified_and_reproducible() {
    let candidates = small_candidates();
    let options = ExploreOptions {
        threads: Some(2),
        units: 12,
        t_limit: 1_600,
        ..ExploreOptions::default()
    };
    let outcome = evaluate_batch(&candidates, &options);
    assert_eq!(outcome.reports.len(), 4);
    let best = outcome.best().expect("a small candidate solves");
    let eval = best.outcome.eval().expect("winner solved");
    assert!(eval.delivered >= 12);

    // Re-deriving the winner through both entry points agrees with the
    // batch evaluation (the whole stack is deterministic).
    let map = best.candidate.build().expect("winner rebuilds");
    let workload = map.uniform_workload(options.units);
    let instance = WspInstance::new(map.warehouse, map.traffic, workload, options.t_limit);
    let one_shot = solve(&instance, &PipelineOptions::default()).expect("winner solves");
    let staged = Pipeline::new()
        .run(&instance, &PipelineOptions::default())
        .expect("winner solves staged");
    assert_eq!(one_shot.objective(), staged.objective());
    assert_eq!(one_shot.objective(), (eval.agents, eval.makespan));
    assert_eq!(staged.flow.synthesis_cost(), eval.synthesis_cost);
}

/// The full default 20-candidate sorting-center sweep (160 units,
/// `T = 3600`): outcomes and Pareto front must fingerprint
/// byte-identically at 1, 2 and 4 worker threads.
#[test]
fn full_sweep_is_thread_count_independent() {
    let candidates = sorting_center_sweep();
    let fingerprints: Vec<String> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let options = ExploreOptions {
                threads: Some(threads),
                ..ExploreOptions::default()
            };
            evaluate_batch(&candidates, &options).fingerprint()
        })
        .collect();
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "thread counts disagreed on the full sweep — determinism bug"
    );
}
