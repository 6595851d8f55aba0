//! Property tests for the lifelong assignment layer: the two invariants
//! the auction policy must hold under adversarial schedules.
//!
//! * **Task conservation, per tick.** `injected == completed + in_flight
//!   + queued` after *every single tick* under [`AssignPolicy::Auction`]
//!   with stall deviations and MAPF repair enabled — the engine's
//!   internal `debug_assert` promoted to a release-mode property over
//!   random seed draws, observed through `run_ticks(1)`.
//! * **Assignment determinism.** The matching is a pure function of
//!   `(queue, agent states, tick)`: shuffling the order bids are
//!   presented in never changes the selected agent
//!   ([`wsp_sim::select_agent`] is order-free), and repair thread count
//!   never changes the report (mirroring
//!   `crates/explore/tests/determinism.rs` for the co-design layer).

use std::collections::BTreeSet;

use proptest::prelude::*;
use wsp_core::WspInstance;
use wsp_model::{ProductId, Workload};
use wsp_sim::{
    direct_cycle_set, select_agent, AgentBid, AssignPolicy, DeviationConfig, RepairConfig,
    SimConfig, SimEngine, Simulation, StreamConfig,
};

/// A small (~400-vertex) production-shaped scenario: scaled-warehouse
/// grid, direct cycle set for starts, uniform mix over the products the
/// design can actually deliver.
fn small_scenario(seed: u64) -> (WspInstance, wsp_flow::AgentCycleSet, Workload) {
    let map = wsp_maps::scaled_warehouse(5, 40, 3, seed).expect("small scaled map builds");
    let instance = WspInstance::new(map.warehouse, map.traffic, Workload::zeros(0), 0);
    let cycles = direct_cycle_set(&instance.warehouse, &instance.traffic, 24);
    assert!(
        cycles.total_agents() > 0,
        "direct cycles produced no agents"
    );
    let mut mix = Workload::zeros(instance.warehouse.catalog().len());
    let delivered: BTreeSet<ProductId> = cycles
        .cycles()
        .iter()
        .flat_map(|c| c.delivered_products())
        .collect();
    for &p in &delivered {
        mix.set(p, 60 / delivered.len() as u64 + 1);
    }
    (instance, cycles, mix)
}

fn auction_config(
    mix: Workload,
    ticks: u64,
    stream_seed: u64,
    dev_seed: u64,
    stall_gap: u32,
    threads: usize,
) -> SimConfig {
    let mut config = SimConfig {
        ticks,
        stream: StreamConfig {
            mix,
            mean_gap: 2,
            seed: stream_seed,
        },
        deviations: DeviationConfig::stalls(stall_gap, 2, 8, dev_seed),
        repair: RepairConfig {
            enabled: true,
            threads: Some(threads),
            ..RepairConfig::default()
        },
        replan_lag: 24,
        ..SimConfig::default()
    };
    config.assign.policy = AssignPolicy::Auction;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Conservation after every tick, not just at the end: tasks are
    /// never minted or lost by assignment, batching, rebalancing, stalls,
    /// or repair — under both engines.
    #[test]
    fn auction_conserves_tasks_at_every_single_tick(
        map_seed in 0u64..50,
        stream_seed in 0u64..1_000,
        dev_seed in 0u64..1_000,
        stall_gap in 8u32..64,
    ) {
        let (instance, cycles, mix) = small_scenario(map_seed);
        for engine in [SimEngine::Event, SimEngine::Reference] {
            let mut config =
                auction_config(mix.clone(), 300, stream_seed, dev_seed, stall_gap, 2);
            config.engine = engine;
            let mut sim =
                Simulation::from_cycles(&instance, cycles.clone(), config).unwrap();
            for tick in 0..300u64 {
                sim.run_ticks(1).unwrap();
                let c = sim.counters();
                prop_assert!(
                    c.conserved(),
                    "conservation broke after tick {tick} ({engine:?}): injected {} != \
                     completed {} + in_flight {} + queued {}",
                    c.injected, c.completed, c.in_flight, c.queued
                );
            }
            let report = sim.report();
            prop_assert!(report.counters.assignments_made > 0, "auction idle: {}", report);
        }
    }

    /// `select_agent` is a pure min over `(cost, agent)`: presenting the
    /// same bids in any shuffled order yields the same winner, so the
    /// engine's internal agent iteration order can never leak into the
    /// matching.
    #[test]
    fn bid_selection_is_invariant_under_bid_order(
        costs in proptest::collection::vec(0u32..10_000, 1..40),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let bids: Vec<AgentBid> = costs
            .iter()
            .enumerate()
            .map(|(agent, &cost)| AgentBid { agent: agent as u32, cost })
            .collect();
        let baseline = select_agent(&bids).expect("non-empty");
        // Fisher-Yates with a splitmix-style LCG (the vendored proptest
        // lacks a shuffle strategy).
        let mut shuffled = bids.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let reordered = select_agent(&shuffled).expect("non-empty");
        prop_assert_eq!(baseline.agent, reordered.agent);
        prop_assert_eq!(baseline.cost, reordered.cost);
    }

    /// The dirty-set skip is unobservable: a simulation that skips
    /// provably-no-op assignment passes stays tick-for-tick identical —
    /// same `assignments_made` and `rebalance_moves` after every single
    /// tick, byte-identical final report — to an always-run oracle with
    /// the skip disabled, under both engines and adversarial stalls.
    #[test]
    fn dirty_set_skip_matches_always_run_oracle(
        map_seed in 0u64..50,
        stream_seed in 0u64..1_000,
        dev_seed in 0u64..1_000,
        stall_gap in 8u32..64,
    ) {
        let (instance, cycles, mix) = small_scenario(map_seed);
        for engine in [SimEngine::Event, SimEngine::Reference] {
            let mut config =
                auction_config(mix.clone(), 400, stream_seed, dev_seed, stall_gap, 2);
            config.engine = engine;
            let mut skipping =
                Simulation::from_cycles(&instance, cycles.clone(), config.clone()).unwrap();
            let mut oracle =
                Simulation::from_cycles(&instance, cycles.clone(), config).unwrap();
            oracle.disable_auction_dirty_skip();
            for tick in 0..400u64 {
                skipping.run_ticks(1).unwrap();
                oracle.run_ticks(1).unwrap();
                let (s, o) = (skipping.counters(), oracle.counters());
                prop_assert_eq!(
                    (s.assignments_made, s.rebalance_moves),
                    (o.assignments_made, o.rebalance_moves),
                    "dirty-set skip diverged from the always-run oracle after tick \
                     {} ({:?})",
                    tick,
                    engine
                );
            }
            prop_assert_eq!(
                skipping.report().to_json(),
                oracle.report().to_json(),
                "final report diverged ({:?})",
                engine
            );
        }
    }

    /// Repair thread count never changes the auction matching or the
    /// report: byte-identical renderings at 1, 2, and 4 threads.
    #[test]
    fn auction_report_is_thread_count_independent(
        stream_seed in 0u64..1_000,
        dev_seed in 0u64..1_000,
    ) {
        let (instance, cycles, mix) = small_scenario(5);
        let mut renderings = Vec::new();
        for threads in [1usize, 2, 4] {
            let config =
                auction_config(mix.clone(), 400, stream_seed, dev_seed, 16, threads);
            let mut sim =
                Simulation::from_cycles(&instance, cycles.clone(), config).unwrap();
            let report = sim.run().unwrap();
            prop_assert!(report.counters.conserved());
            // Auction agents follow missions, not the window plan: plan
            // lag is undefined and must never be banked.
            prop_assert_eq!(report.counters.max_lag, 0);
            renderings.push(report.to_json());
        }
        prop_assert_eq!(&renderings[0], &renderings[1], "2 threads diverged from 1");
        prop_assert_eq!(&renderings[0], &renderings[2], "4 threads diverged from 1");
    }
}

/// The route-work counters (`Simulation::route_work`) are deterministic
/// work counts: identical at 1, 2 and 4 repair threads, with the default
/// route cap and with a tight one that forces cap rejections, and all
/// zero under the static policy. Reports never render them.
#[test]
fn route_work_counters_are_thread_count_independent() {
    let (instance, cycles, mix) = small_scenario(5);
    for route_cap in [1024u32, 24] {
        let mut works = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut config = auction_config(mix.clone(), 400, 7, 11, 16, threads);
            config.assign.route_cap = route_cap;
            let mut sim = Simulation::from_cycles(&instance, cycles.clone(), config).unwrap();
            let report = sim.run().unwrap();
            assert!(!report.to_json().contains("cap_rejections"));
            works.push(sim.route_work());
        }
        assert_eq!(
            works[0], works[1],
            "2 threads diverged from 1 (cap {route_cap})"
        );
        assert_eq!(
            works[0], works[2],
            "4 threads diverged from 1 (cap {route_cap})"
        );
        let work = works[0];
        assert!(work.site_fields > 0 && work.site_expanded > 0, "{work:?}");
        assert!(
            work.forward_searches > 0 && work.forward_expanded > 0,
            "{work:?}"
        );
        if route_cap == 24 {
            assert!(
                work.cap_rejections > 0,
                "a 24-cell cap must reject: {work:?}"
            );
        }
    }

    let mut config = auction_config(mix, 200, 7, 11, 16, 1);
    config.assign.policy = AssignPolicy::Static;
    let mut sim = Simulation::from_cycles(&instance, cycles, config).unwrap();
    sim.run().unwrap();
    assert_eq!(sim.route_work(), wsp_sim::RouteWork::default());
}
