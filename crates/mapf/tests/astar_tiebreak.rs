//! Tie-break regression: the exact paths optimal space-time A* returns
//! for seeded queries against reservations, and the exact solutions of a
//! prioritized and an optimal-CBS solve, pinned as literals. Open grids
//! hold many equal-cost paths, so any change to the order in which the
//! search pops equal-f states moves at least one of these paths. The
//! expected values are fixed: a drift is a behaviour change to review,
//! not a golden to regenerate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsp_mapf::{
    CbsPlanner, MapfProblem, PlanQuery, PrioritizedPlanner, ReservationTable, SearchScratch,
    SpaceTimeAstar,
};
use wsp_model::{FloorplanGraph, GridMap, VertexId};

/// A 10×6 floor with two short shelf stubs: wide open, so equal-f bands
/// are large.
fn floor() -> FloorplanGraph {
    let art = "\
..........
..xx......
..........
......xx..
..........
..........";
    FloorplanGraph::from_grid(&GridMap::from_ascii(art).expect("valid art"))
}

fn vertex(g: &FloorplanGraph, rng: &mut StdRng) -> VertexId {
    VertexId(rng.gen_range(0..g.vertex_count() as u64) as u32)
}

/// A seeded random walk of `len` cells (waits included) from a seeded
/// start: the trajectory of an already-planned agent.
fn walk(g: &FloorplanGraph, rng: &mut StdRng, len: usize) -> Vec<VertexId> {
    let mut path = vec![vertex(g, rng)];
    while path.len() < len {
        let at = *path.last().expect("non-empty");
        let moves = g.neighbors(at);
        let pick = rng.gen_range(0..moves.len() as u64 + 1) as usize;
        path.push(moves.get(pick).copied().unwrap_or(at));
    }
    path
}

fn ids(path: &[VertexId]) -> Vec<u32> {
    path.iter().map(|v| v.0).collect()
}

/// Seeded start/goal queries against a table of seeded trajectories,
/// planned through one shared scratch (as the sim's repair workers and the
/// prioritized planner do), at focal weight 1.0.
fn seeded_queries(seed: u64) -> Vec<Option<Vec<u32>>> {
    let g = floor();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = ReservationTable::new(g.vertex_count());
    for _ in 0..5 {
        table.reserve_path(&walk(&g, &mut rng, 12));
    }
    let astar = SpaceTimeAstar {
        max_time: 40,
        focal_weight: 1.0,
    };
    let mut scratch = SearchScratch::new();
    (0..8)
        .map(|i| {
            let query = PlanQuery {
                start: vertex(&g, &mut rng),
                start_time: 0,
                goal: vertex(&g, &mut rng),
                reservations: Some(&table),
                constraints: None,
                conflict_paths: None,
                require_parkable: i % 2 == 0,
            };
            astar
                .plan_with_scratch(&g, &query, &mut scratch)
                .map(|s| ids(&s.path))
        })
        .collect()
}

fn seeded_problem(
    g: &FloorplanGraph,
    seed: u64,
    agents: usize,
) -> (Vec<VertexId>, Vec<Vec<VertexId>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut starts: Vec<VertexId> = Vec::new();
    let mut goals: Vec<VertexId> = Vec::new();
    while starts.len() < agents {
        let (s, t) = (vertex(g, &mut rng), vertex(g, &mut rng));
        if !starts.contains(&s) && !goals.contains(&t) {
            starts.push(s);
            goals.push(t);
        }
    }
    (starts, goals.into_iter().map(|t| vec![t]).collect())
}

fn solve_paths(seed: u64, cbs: bool) -> Vec<Vec<u32>> {
    let g = floor();
    let (starts, goals) = seeded_problem(&g, seed, 5);
    let problem = MapfProblem::new(&g, starts, goals);
    let solution = if cbs {
        CbsPlanner::default().solve(&problem)
    } else {
        PrioritizedPlanner::default().solve(&problem)
    }
    .expect("solvable");
    assert!(solution.validate(&g).is_empty());
    solution.paths.iter().map(|p| ids(p)).collect()
}

#[test]
fn optimal_astar_paths_against_reservations_are_pinned() {
    assert_eq!(
        seeded_queries(3),
        [
            Some(vec![19, 18, 18, 17, 16, 15, 14, 13, 12, 11, 10]),
            Some(vec![49, 50, 40, 32, 24, 23]),
            Some(vec![28, 20, 21]),
            Some(vec![28, 29, 39, 47, 48, 49]),
            Some(vec![40, 32, 24]),
            Some(vec![16, 15, 5, 4, 3]),
            Some(vec![31, 31, 23, 24, 25]),
            Some(vec![18, 8, 7, 6, 5, 4]),
        ]
    );
    assert_eq!(
        seeded_queries(11),
        [
            Some(vec![25, 24, 23, 22, 30]),
            Some(vec![52, 42, 34, 35, 36]),
            Some(vec![43, 35, 34, 33, 32, 31, 30]),
            Some(vec![23, 22, 21, 20]),
            Some(vec![14, 14, 14, 14, 14, 4, 3, 2, 1]),
            Some(vec![55]),
            Some(vec![31, 30, 29, 39, 47, 48]),
            Some(vec![14, 15, 16, 17, 18, 26]),
        ]
    );
}

#[test]
fn prioritized_solution_is_pinned() {
    assert_eq!(
        solve_paths(5, false),
        [
            vec![21, 22, 23, 24, 25, 33, 34, 42],
            vec![13, 3, 4, 5],
            vec![10, 11, 21],
            vec![55, 45, 44, 43, 42, 41, 33, 32, 31, 30, 29, 28],
            vec![23, 23, 13, 13, 14, 15, 25, 33],
        ]
    );
}

#[test]
fn optimal_cbs_solution_is_pinned() {
    assert_eq!(
        solve_paths(5, true),
        [
            vec![21, 22, 23, 24, 32, 40, 41, 42],
            vec![13, 3, 4, 5],
            vec![10, 11, 21],
            vec![55, 54, 53, 52, 51, 50, 40, 32, 31, 30, 29, 28],
            vec![23, 24, 25, 33],
        ]
    );
}
