//! The scale experiment as a standalone harness: sweeps `scaled_warehouse`
//! sizes from ~10k to ~200k vertices, solves a cross-warehouse prioritized
//! MAPF instance on each [`REPEATS`] times, and prints the whole
//! `BENCH_scaling.json` document: one entry per size with the min and
//! median solve time and the reservation-table memory (actual adaptive
//! bytes vs the dense O(horizon × vertices) baseline), plus the host's
//! core count. See docs/BENCHMARKS.md.

use std::time::Instant;

use wsp_bench::{scaling_planner, scaling_scenario};
use wsp_mapf::MapfProblem;

/// Timed solves per size. Single-shot timings do not repeat on shared
/// hosts, so every size reports the min and median of these.
const REPEATS: usize = 5;

const NOTE: &str = "MAPF scale sweep on scaled_warehouse instances: one cross-warehouse \
prioritized solve per size, 8 agents hauling co-directionally a quarter of the floor each, \
timed 5 times per size (min and median seconds). reservation_table_bytes is the adaptive \
table's actual heap after the solve (its peak); dense_equivalent_bytes is what a dense \
O(horizon x vertices) layout would hold at the same horizon. Generated by \
`cargo run --release -p wsp-bench --bin scaling > BENCH_scaling.json`; schema in \
docs/BENCHMARKS.md.";

fn main() {
    // Optional override: `scaling <rows> <cols> [agents] [seed]` probes a
    // single configuration instead of the default sweep.
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let agents = args.get(2).copied().unwrap_or(8) as usize;
    let seed = args.get(3).copied().unwrap_or(7);
    let sizes: Vec<(u32, u32)> = match args[..] {
        [rows, cols, ..] => vec![(rows as u32, cols as u32)],
        [] => vec![(31, 320), (71, 700), (101, 1000), (141, 1400)],
        [_] => panic!("usage: scaling [<rows> <cols> [agents] [seed]]"),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{{");
    println!("  \"note\": \"{NOTE}\",");
    println!(
        "  \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cores\": {cores}}},",
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    println!("  \"repeats\": {REPEATS},");
    println!("  \"benches\": [");
    for (i, &(rows, cols)) in sizes.iter().enumerate() {
        let scenario = scaling_scenario(rows, cols, agents, seed);
        let graph = scenario.map.warehouse.graph();
        let vertices = graph.vertex_count();
        let planner = scaling_planner(&scenario.map);

        let mut seconds = Vec::with_capacity(REPEATS);
        let mut outcome = None;
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let p = MapfProblem::new(graph, scenario.starts.clone(), scenario.goals.clone());
            let (solution, table) = planner.solve_with_table(&p).expect("solvable");
            seconds.push(t0.elapsed().as_secs_f64());
            assert!(
                solution.validate(graph).is_empty(),
                "solution has conflicts at {vertices} vertices"
            );
            let solved = (
                solution.makespan(),
                table.memory_bytes(),
                table.dense_equivalent_bytes(),
            );
            assert!(
                outcome.is_none_or(|o| o == solved),
                "repeated solves disagree at {vertices} vertices"
            );
            outcome = Some(solved);
        }
        let (makespan, sparse, dense) = outcome.expect("at least one solve");
        seconds.sort_by(f64::total_cmp);
        let (min, median) = (seconds[0], seconds[REPEATS / 2]);
        println!(
            "    {{\"bench\": \"scaling/prioritized-{vertices}v-{agents}a\", \
             \"rows\": {rows}, \"cols\": {cols}, \"vertices\": {vertices}, \
             \"agents\": {agents}, \"makespan\": {makespan}, \
             \"solve_min_s\": {min:.6}, \"solve_median_s\": {median:.6}, \
             \"reservation_table_bytes\": {sparse}, \
             \"dense_equivalent_bytes\": {dense}, \
             \"dense_over_sparse\": {:.1}}}{}",
            dense as f64 / sparse as f64,
            if i + 1 == sizes.len() { "" } else { "," },
        );
    }
    println!("  ]");
    println!("}}");
}
