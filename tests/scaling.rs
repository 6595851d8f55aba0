//! End-to-end scale guard: the MAPF stack must plan on a ≥100k-vertex
//! `scaled_warehouse` instance, with reservation-table memory at least an
//! order of magnitude below the dense O(horizon × vertices) baseline.
//!
//! Hauls here are deliberately short (same-region shelf runs) so the test
//! stays fast in debug builds; the release-mode cross-warehouse sweep
//! lives in `wsp-bench` (the `scaling` binary, `BENCH_scaling.json`).

use wsp_mapf::{MapfProblem, PrioritizedPlanner, SpaceTimeAstar};
use wsp_maps::scaled_warehouse;
use wsp_model::VertexId;

#[test]
fn prioritized_mapf_solves_on_a_100k_vertex_warehouse() {
    let map = scaled_warehouse(101, 1000, 3, 3).expect("scaled map builds");
    let graph = map.warehouse.graph();
    let n = graph.vertex_count();
    assert!(n >= 100_000, "only {n} vertices");
    assert!(map.traffic.is_strongly_connected());

    // Eight agents, each hauling to a shelf-access vertex a few aisles
    // away from its start (row-major stride keeps the pairs in-region).
    let agents = 8usize;
    let access = map.warehouse.shelf_access();
    let stride = access.len() / agents;
    let starts: Vec<VertexId> = (0..agents).map(|i| access[i * stride]).collect();
    let goals: Vec<Vec<VertexId>> = (0..agents).map(|i| vec![access[i * stride + 50]]).collect();

    let planner = PrioritizedPlanner {
        astar: SpaceTimeAstar {
            max_time: 4_096,
            ..SpaceTimeAstar::default()
        },
        ..PrioritizedPlanner::default()
    };
    let problem = MapfProblem::new(graph, starts, goals.clone());
    let (solution, table) = planner.solve_with_table(&problem).expect("solvable");

    assert!(solution.validate(graph).is_empty());
    for (agent, itinerary) in goals.iter().enumerate() {
        assert_eq!(solution.paths[agent].last(), itinerary.last());
    }
    // The scale tentpole: adaptive storage keeps the table at least 10x
    // under the dense layout at this size.
    assert!(
        table.memory_bytes() * 10 < table.dense_equivalent_bytes(),
        "reservation table {} bytes vs dense baseline {}",
        table.memory_bytes(),
        table.dense_equivalent_bytes()
    );
}
