//! Self-tests of the benchmark on shortened workloads: deterministic
//! counters repeat exactly, every output check passes, and the metric
//! lists agree with `BENCHMARK.json`. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use wsp_perfbench::floor::{self, Floor, FloorInputs};
use wsp_perfbench::probe::HostProbe;
use wsp_perfbench::trace::Tracer;
use wsp_perfbench::{served, sweep, Budget, Ops, END_TO_END, PER_LAYER};

const SHORT: Budget = Budget {
    seconds: 0.0,
    min_repeats: 2,
};

fn names(outcome: &wsp_perfbench::Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn shortened_floor_counters_repeat_exactly() {
    for floor in [Floor::Auction, Floor::Faults] {
        let inputs = FloorInputs {
            floor,
            horizon: 120,
            seed: 5,
        };
        let mut ops = Ops::default();
        let mut tracer = Tracer::new(false);
        let mut probe = HostProbe::new();
        let a = floor::repeat(&inputs, &mut probe, &mut tracer, &mut ops).expect("first run");
        tracer.set_enabled(true);
        let b = floor::repeat(&inputs, &mut probe, &mut tracer, &mut ops).expect("second run");
        assert_eq!(a.run.start, b.run.start, "{floor:?}: counters after build");
        assert_eq!(a.run.end, b.run.end, "{floor:?}: counters after the run");
        assert_eq!(a.run.rendering, b.run.rendering, "{floor:?}: rendering");
        assert!(
            a.run.conserved && b.run.conserved,
            "{floor:?}: conservation"
        );
        assert_eq!(a.run.step_ns.len(), 120);
        assert_eq!(ops.failed, 0);
        // Every step was wrapped and attributed to exactly one layer.
        let steps = tracer
            .spans()
            .iter()
            .filter(|s| floor::STEP_LAYERS.contains(&s.name))
            .count();
        assert_eq!(steps, 120, "{floor:?}: attributed steps");
    }
}

#[test]
fn a_different_seed_changes_the_stall_schedule() {
    let run = |seed| {
        let inputs = FloorInputs {
            floor: Floor::Faults,
            horizon: 120,
            seed,
        };
        floor::repeat(
            &inputs,
            &mut HostProbe::new(),
            &mut Tracer::new(false),
            &mut Ops::default(),
        )
        .expect("run")
        .run
        .rendering
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn shortened_served_sim_is_correct_in_both_modes() {
    for traced in [false, true] {
        let outcome = served::run_with(1, 300, 4, SHORT, traced);
        assert!(outcome.correct(), "traced={traced}: {:?}", outcome.ops);
        let got = names(&outcome);
        let expected: Vec<&str> = if traced {
            vec![
                "server.submit_ms",
                "server.queue_wait_ms",
                "server.run_ms",
                "server.overhead_ms",
                "flow.synthesize_s",
                "mapf.repairs_attempted",
                "realize.window.step_s",
                "trace.overhead_share",
            ]
        } else {
            END_TO_END.iter().map(|&(n, _)| n).collect()
        };
        for name in expected {
            assert!(got.contains(&name), "traced={traced}: {name} missing");
        }
    }
}

#[test]
fn design_sweep_is_correct_in_both_modes() {
    for traced in [false, true] {
        let outcome = sweep::run(7, SHORT, traced);
        assert!(outcome.correct(), "traced={traced}: {:?}", outcome.ops);
        if !traced {
            let got = names(&outcome);
            for &(name, _) in &END_TO_END {
                assert!(got.contains(&name), "{name} missing");
            }
        }
    }
}

#[test]
fn sweep_order_is_a_seeded_permutation() {
    let labels =
        |seed| -> Vec<String> { sweep::candidates(seed).iter().map(|c| c.label()).collect() };
    let (base, shuffled) = (labels(0), labels(3));
    assert_ne!(base, shuffled);
    assert_eq!(shuffled, labels(3));
    let (mut a, mut b) = (base.clone(), shuffled);
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

/// `BENCHMARK.json` lists the same end-to-end and per-layer metrics,
/// with the same units, as the binary prints.
#[test]
fn benchmark_json_matches_the_metric_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let entries = |section: &str| -> Vec<(String, String)> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|item| {
                let field = |key: &str| {
                    let at = item.find(&format!("\"{key}\"")).expect("field present");
                    item[at + key.len() + 2..]
                        .split('"')
                        .nth(1)
                        .expect("string value")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), own(&END_TO_END));
    assert_eq!(entries("per_layer"), own(&PER_LAYER));
}
