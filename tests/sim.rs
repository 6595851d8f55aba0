//! Lifelong-simulation regression tests: golden-file pins of two
//! fixed-seed scenarios (the paper-scale sorting center and a ~10k-vertex
//! `scaled_warehouse`), plus an end-to-end smoke over the full engine. The
//! `#[ignore]`d nightly tests add a 200k-tick elision budget, repair
//! thread-count independence at paper, ~11k and ≥100k-vertex scale, and
//! the auction and fault gates on the ≥100k-vertex floor.
//!
//! The golden files under `tests/golden/` store the canonical
//! `SimReport::to_json` rendering — every field an integer, byte-identical
//! across debug/release builds and repair thread counts. When an
//! intentional engine change shifts the numbers, regenerate with:
//!
//! ```text
//! WSP_BLESS=1 cargo test --test sim
//! ```
//!
//! and review the golden diff like any other code change. On mismatch the
//! test also writes the actual rendering to `target/golden-actual/` so CI
//! can upload it as an artifact.

use std::path::PathBuf;

use wsp_bench::{sim_scenario_paper, sim_scenario_scaled, SimScenario};
use wsp_sim::Simulation;

/// Directory-parameterized core of [`golden_check`], so the bless and
/// mismatch paths are testable against temp directories. Creates both
/// directories as needed — a fresh checkout has no `target/golden-actual`,
/// and `WSP_BLESS=1` on a pruned tree must not fail on a missing
/// `tests/golden` either.
fn golden_check_at(
    golden_dir: &std::path::Path,
    actual_dir: &std::path::Path,
    name: &str,
    actual: &str,
    bless: bool,
) -> Result<(), String> {
    let golden = golden_dir.join(format!("{name}.json"));
    if bless {
        std::fs::create_dir_all(golden_dir)
            .map_err(|e| format!("create golden dir {}: {e}", golden_dir.display()))?;
        std::fs::write(&golden, actual)
            .map_err(|e| format!("write golden {}: {e}", golden.display()))?;
        return Ok(());
    }
    let expected = std::fs::read_to_string(&golden).map_err(|e| {
        format!(
            "missing golden file {} ({e}); regenerate with WSP_BLESS=1 cargo test --test sim",
            golden.display()
        )
    })?;
    if actual != expected {
        std::fs::create_dir_all(actual_dir)
            .map_err(|e| format!("create actual dir {}: {e}", actual_dir.display()))?;
        let out = actual_dir.join(format!("{name}.json"));
        std::fs::write(&out, actual).map_err(|e| format!("write actual {}: {e}", out.display()))?;
        return Err(format!(
            "golden mismatch for {name}: expected {}, actual written to {}\n\
             (intentional change? review the diff, then WSP_BLESS=1 cargo test --test sim)",
            golden.display(),
            out.display()
        ));
    }
    Ok(())
}

fn golden_check(name: &str, actual: &str) {
    let golden_dir: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden"]
        .iter()
        .collect();
    let actual_dir: PathBuf = [env!("CARGO_MANIFEST_DIR"), "target", "golden-actual"]
        .iter()
        .collect();
    let bless = std::env::var_os("WSP_BLESS").is_some();
    if let Err(msg) = golden_check_at(&golden_dir, &actual_dir, name, actual, bless) {
        panic!("{msg}");
    }
}

/// Regression test for the bless/mismatch plumbing itself: both paths
/// must create their target directories on a fresh checkout (the actual
/// dir under `target/` never exists in CI until a mismatch writes it).
#[test]
fn golden_check_creates_missing_directories() {
    let root: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "target",
        "golden-selftest",
        concat!("pid-", env!("CARGO_PKG_VERSION")),
    ]
    .iter()
    .collect();
    let _ = std::fs::remove_dir_all(&root);
    let golden_dir = root.join("golden");
    let actual_dir = root.join("actual");

    // Bless into a directory that does not exist yet.
    golden_check_at(&golden_dir, &actual_dir, "g", "{\"x\": 1}\n", true).expect("bless creates");
    // Match against the blessed file.
    golden_check_at(&golden_dir, &actual_dir, "g", "{\"x\": 1}\n", false).expect("match passes");
    // Mismatch must create the actual dir and write the rendering.
    let err = golden_check_at(&golden_dir, &actual_dir, "g", "{\"x\": 2}\n", false)
        .expect_err("mismatch reported");
    assert!(err.contains("golden mismatch"), "{err}");
    let written = std::fs::read_to_string(actual_dir.join("g.json")).expect("actual written");
    assert_eq!(written, "{\"x\": 2}\n");
    // Missing golden without bless is an error, not a panic.
    let err = golden_check_at(&golden_dir, &actual_dir, "absent", "{}", false)
        .expect_err("missing golden reported");
    assert!(err.contains("missing golden file"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn golden_sorting_center_lifelong() {
    let scenario = sim_scenario_paper(2_000);
    let mut sim = Simulation::from_cycles(
        &scenario.instance,
        scenario.cycles.clone(),
        scenario.config(800),
    )
    .expect("paper scenario simulates");
    let report = sim.run().expect("runs to the tick budget");
    assert!(report.counters.conserved());
    assert!(report.counters.completed > 0, "{report}");
    golden_check("sim_sorting_center", &report.to_json());
}

#[test]
fn golden_scaled_warehouse_10k_lifelong() {
    let scenario = sim_scenario_scaled(31, 320, 400, 5);
    assert!(
        scenario.instance.warehouse.graph().vertex_count() >= 10_000,
        "scenario must stay production-scale"
    );
    let mut sim = Simulation::from_cycles(
        &scenario.instance,
        scenario.cycles.clone(),
        scenario.config(600),
    )
    .expect("scaled scenario simulates");
    let report = sim.run().expect("runs to the tick budget");
    assert!(report.counters.conserved());
    golden_check("sim_scaled_warehouse_10k", &report.to_json());
}

/// The same production-scale scenario under the auction assignment
/// policy: queued tasks are matched to idle agents instead of waiting for
/// a cycle to happen past their pickup, so the completed count must be a
/// different (far larger) number than the Static golden's — pinned in its
/// own golden file.
#[test]
fn golden_scaled_warehouse_10k_auction() {
    let scenario = sim_scenario_scaled(31, 320, 400, 5);
    let mut config = scenario.config(600);
    config.assign.policy = wsp_sim::AssignPolicy::Auction;
    let mut sim = Simulation::from_cycles(&scenario.instance, scenario.cycles.clone(), config)
        .expect("scaled scenario simulates");
    let report = sim.run().expect("runs to the tick budget");
    assert!(report.counters.conserved());
    assert!(
        report.counters.completed > 0,
        "auction must complete work on the production map: {report}"
    );
    assert!(report.counters.assignments_made > 0);
    golden_check("sim_scaled_warehouse_10k_auction", &report.to_json());
}

/// Nightly elision guard: 200k simulated ticks on the ~11k-vertex scaled
/// warehouse must fit a generous wall-clock budget. The event engine covers
/// quiescent stretches in O(events), so a regression that silently falls
/// back to per-tick sweeps blows the budget by an order of magnitude and
/// fails loudly. Run with `cargo test --release --test sim -- --ignored`.
#[test]
#[ignore = "nightly: 200k-tick release-profile smoke with a wall-clock budget"]
fn nightly_event_engine_200k_tick_smoke() {
    const TICKS: u64 = 200_000;
    const WALL_BUDGET: std::time::Duration = std::time::Duration::from_secs(120);
    let scenario = sim_scenario_scaled(31, 320, 400, 5);
    assert!(
        scenario.instance.warehouse.graph().vertex_count() >= 10_000,
        "scenario must stay production-scale"
    );
    let mut sim = Simulation::from_cycles(
        &scenario.instance,
        scenario.cycles.clone(),
        scenario.config(TICKS),
    )
    .expect("scaled scenario simulates");
    let start = std::time::Instant::now();
    let report = sim.run().expect("runs to the tick budget");
    let elapsed = start.elapsed();
    assert!(report.counters.conserved());
    assert_eq!(report.counters.ticks, TICKS);
    assert!(
        report.counters.ticks_elided > 0,
        "quiescent stretches should be elided on this instance"
    );
    println!(
        "200k-tick smoke: {elapsed:?} wall, {} ticks elided, {} events",
        report.counters.ticks_elided, report.counters.events_processed
    );
    assert!(
        elapsed < WALL_BUDGET,
        "200k simulated ticks took {elapsed:?}, budget {WALL_BUDGET:?} — \
         elision regression?"
    );
}

/// Runs `config` on `scenario` at 1, 2 and 4 repair threads, asserts the
/// three reports render byte-identically, and returns the counters.
fn run_at_thread_counts(
    label: &str,
    scenario: &SimScenario,
    config: &wsp_sim::SimConfig,
) -> wsp_sim::SimCounters {
    let mut renderings = Vec::new();
    let mut counters = wsp_sim::SimCounters::default();
    for threads in [1usize, 2, 4] {
        let mut config = config.clone();
        config.repair.threads = Some(threads);
        let mut sim = Simulation::from_cycles(&scenario.instance, scenario.cycles.clone(), config)
            .expect("scenario simulates");
        let report = sim.run().expect("runs to the tick budget");
        renderings.push(report.to_json());
        counters = report.counters;
    }
    assert!(
        renderings.windows(2).all(|w| w[0] == w[1]),
        "{label}: repair thread counts disagreed — determinism bug"
    );
    println!(
        "{label}: {} completed, {} ticks elided, {} agents lost, {} tasks shed",
        counters.completed, counters.ticks_elided, counters.agents_lost, counters.tasks_shed
    );
    counters
}

/// Nightly determinism guard at paper scale and on the ~11k-vertex floor:
/// 4k-tick Static runs render byte-identical reports at 1, 2 and 4 repair
/// threads. Run with `cargo test --release --test sim -- --ignored`.
#[test]
#[ignore = "nightly: 4k-tick paper and 11k runs at 1/2/4 repair threads"]
fn nightly_paper_and_11k_reports_are_thread_count_independent() {
    let paper = sim_scenario_paper(2_000);
    run_at_thread_counts("sorting-center", &paper, &paper.config(4_000));
    let scaled = sim_scenario_scaled(31, 320, 400, 5);
    run_at_thread_counts("11k", &scaled, &scaled.config(4_000));
}

/// Nightly guard on the ≥100k-vertex floor, at one 2k-tick budget per
/// run. Lifelong auction matching must complete ≥100× the static
/// design's tasks and elide its quiet stretches; under a fixed fault
/// schedule (~10% of the fleet permanently broken down, 500-tick station
/// outages from t=271 on, corridors closed for 400 ticks) the auction
/// must keep ≥80% of its fault-free completions. The stream's 401 tasks
/// arrive by ~t=800, so the outages are timed to start while orders
/// still arrive: an outage that fires after the last delivery costs no
/// completion and gates nothing. Every run, the ×10-stall reruns of
/// both policies included, renders byte-identical reports at 1, 2 and 4
/// repair threads. Run with `cargo test --release --test sim -- --ignored`.
#[test]
#[ignore = "nightly: five 2k-tick runs on the 105k-vertex floor at 1/2/4 repair threads"]
fn nightly_105k_auction_and_fault_gates() {
    let scenario = sim_scenario_scaled(101, 1000, 2000, 3);
    assert!(
        scenario.instance.warehouse.graph().vertex_count() > 100_000,
        "scenario must stay on the 105k-vertex floor"
    );
    let run = |label: &str, policy, stalls10x: bool, faults| {
        let mut config = scenario.config(2_000);
        if stalls10x {
            // Stall mean gap 64 → 6: agents keep getting knocked awake.
            config.deviations = wsp_sim::DeviationConfig::stalls(6, 2, 8, 9);
        }
        config.assign.policy = policy;
        config.faults = faults;
        run_at_thread_counts(&format!("105k {label}"), &scenario, &config)
    };
    let fault_free = wsp_sim::FaultConfig::none();
    let statik = run("static", wsp_sim::AssignPolicy::Static, false, fault_free);
    run(
        "static-stalls10x",
        wsp_sim::AssignPolicy::Static,
        true,
        fault_free,
    );
    let auction = run("auction", wsp_sim::AssignPolicy::Auction, false, fault_free);
    run(
        "auction-stalls10x",
        wsp_sim::AssignPolicy::Auction,
        true,
        fault_free,
    );
    let faulted = run(
        "faults",
        wsp_sim::AssignPolicy::Auction,
        false,
        wsp_sim::FaultConfig {
            breakdown_gap: 12,
            permanent_permille: 1000,
            outage_gap: 300,
            outage_min_ticks: 500,
            outage_max_ticks: 500,
            closure_gap: 1000,
            closure_min_ticks: 400,
            closure_max_ticks: 400,
            closure_len: 4,
            seed: 0xfa17,
            ..wsp_sim::FaultConfig::none()
        },
    );

    // The static cycle design completes a handful of tasks per 2k ticks
    // on this floor; lifelong matching must beat it by two orders of
    // magnitude.
    let static_completed = statik.completed.max(1);
    assert!(
        auction.completed >= 100 * static_completed,
        "auction throughput regression on the 105k floor: {} completed vs {static_completed} \
         static (need >= 100x)",
        auction.completed
    );
    // The auction's cost is O(dirty work), not O(ticks): zero elided ticks
    // means the dirty-set skip or the idle sleep rule regressed and every
    // tick pays for a full assignment pass again.
    assert!(
        auction.ticks_elided > 0,
        "the 105k auction run elided no ticks — quiet stretches are being executed"
    );
    // Graceful degradation: shed tasks re-queue and the auction routes
    // around the wreckage.
    assert!(
        faulted.agents_lost > 0 && faulted.tasks_shed > 0,
        "the fault schedule injected no breakdowns ({} lost, {} shed)",
        faulted.agents_lost,
        faulted.tasks_shed
    );
    assert!(
        faulted.completed * 5 >= auction.completed * 4,
        "fault-injection throughput collapse: {} completed under faults vs {} fault-free \
         (need >= 80%)",
        faulted.completed,
        auction.completed
    );
}

#[test]
fn lifelong_smoke_full_engine() {
    // A quick end-to-end pass over every engine feature: pipeline
    // synthesis, zipf stream, stalls, repair, early replans, recording —
    // and the executed plan feasible per the independent checker.
    let map = wsp_maps::sorting_center().expect("map builds");
    let mix = map.zipf_workload(300, 1.0, 3);
    let workload = map.uniform_workload(80);
    let warehouse = map.warehouse.clone();
    let instance = wsp_core::WspInstance::new(map.warehouse, map.traffic, workload, 3_600);
    let config = wsp_sim::SimConfig {
        ticks: 300,
        stream: wsp_sim::StreamConfig {
            mix,
            mean_gap: 2,
            seed: 3,
        },
        deviations: wsp_sim::DeviationConfig::stalls(40, 2, 6, 11),
        repair: wsp_sim::RepairConfig {
            enabled: true,
            ..wsp_sim::RepairConfig::default()
        },
        replan_lag: 20,
        record: true,
        ..wsp_sim::SimConfig::default()
    };
    let mut sim =
        Simulation::new(&instance, &wsp_core::PipelineOptions::default(), config).expect("builds");
    let report = sim.run().expect("runs");
    assert!(report.counters.conserved());
    assert!(report.counters.stalls_injected > 0);
    assert!(report.counters.completed > 0);
    let executed = sim.executed_plan().expect("recording on");
    wsp_model::PlanChecker::new(&warehouse)
        .check(executed)
        .expect("deviated execution stays feasible");
}
