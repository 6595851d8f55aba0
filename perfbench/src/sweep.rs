//! The `design-sweep` workload: the 20-candidate
//! `wsp_explore::sorting_center_sweep()` (160 units, T = 3 600, lifelong
//! scoring off) evaluated back to back at one thread. It runs the `maps`,
//! `flow`, `realize` and `model` stages through `wsp_core::Pipeline` and
//! no simulation.
//!
//! The seed permutes the candidate order (seed 0 keeps the library's
//! order): the work per sweep is the same, the order in which one
//! pipeline's scratch meets the candidates is not.
//!
//! The traced run times the four pipeline stages by calling
//! `Pipeline::{synthesize, decompose, realize, verify}` directly for each
//! candidate (the same stages `evaluate_batch` runs), and compares their
//! results with the batch's.

use std::time::Instant;

use wsp_core::{Pipeline, PipelineError, PipelineOptions, WspInstance};
use wsp_explore::{
    evaluate_batch, sorting_center_sweep, CandidateOutcome, DesignCandidate, ExploreOptions,
    ExploreOutcome,
};
use wsp_flow::FlowError;

use crate::probe::HostProbe;
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;
use crate::{derive_seed, host, Budget, Ops, Outcome, THREADS};

/// The pipeline stages, as span names.
const STAGES: [&str; 4] = [
    "flow.synthesize",
    "flow.decompose",
    "realize.realize",
    "model.verify",
];

/// The sweep in seed order: a Fisher–Yates shuffle driven by splitmix64.
pub fn candidates(seed: u64) -> Vec<DesignCandidate> {
    let mut list = sorting_center_sweep();
    if seed != 0 {
        let mut state = derive_seed(0, seed);
        for i in (1..list.len()).rev() {
            state = derive_seed(state, 1);
            list.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }
    list
}

fn options(threads: usize) -> ExploreOptions {
    ExploreOptions {
        threads: Some(threads),
        ..ExploreOptions::default()
    }
}

/// The set-up a sweep needs: the candidate list and every candidate's
/// map built once (a candidate that fails to build fails the run).
fn setup(seed: u64, ops: &mut Ops) -> (Vec<DesignCandidate>, f64) {
    let t0 = Instant::now();
    let list = candidates(seed);
    for c in &list {
        let built = c.build();
        if let Err(e) = &built {
            ops.op(false, || {
                format!("candidate {} does not build: {e}", c.label())
            });
        }
        std::hint::black_box(built.ok());
    }
    (list, t0.elapsed().as_secs_f64())
}

/// One timed batch: wall seconds plus the outcome; each candidate is one
/// operation (`Failed` fails it, `Infeasible` is a result).
fn batch(list: &[DesignCandidate], threads: usize, ops: &mut Ops) -> (f64, ExploreOutcome) {
    let t0 = Instant::now();
    let outcome = evaluate_batch(list, &options(threads));
    let wall = t0.elapsed().as_secs_f64();
    for r in &outcome.reports {
        ops.op(!matches!(r.outcome, CandidateOutcome::Failed(_)), || {
            format!("candidate {} failed: {:?}", r.candidate.label(), r.outcome)
        });
    }
    (wall, outcome)
}

/// One sweep through the stages called directly, spans around each call;
/// checks every candidate's result against `reference` (the batch's).
/// Returns the sweep's wall seconds and summed `synthesis_cost`.
fn staged(
    list: &[DesignCandidate],
    reference: &ExploreOutcome,
    pipeline: &mut Pipeline,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> (f64, u64) {
    let opts = ExploreOptions::default();
    let popts = PipelineOptions::default();
    let t0 = Instant::now();
    let mut synthesis_cost = 0;
    for (c, expected) in list.iter().zip(&reference.reports) {
        let span = tracer.begin("explore.candidate");
        let result = stages(c, &opts, &popts, pipeline, tracer);
        tracer.end(span);
        let agrees = match (&result, &expected.outcome) {
            (Ok((objective, cost)), CandidateOutcome::Solved(eval)) => {
                synthesis_cost += cost;
                *objective == (eval.agents, eval.makespan) && *cost == eval.synthesis_cost
            }
            (Err(Some(_)), CandidateOutcome::Infeasible(_)) => true,
            (Err(None), CandidateOutcome::Failed(_)) => true,
            _ => false,
        };
        ops.check(agrees, || {
            format!("staged and batch results differ on {}", c.label())
        });
    }
    (t0.elapsed().as_secs_f64(), synthesis_cost)
}

/// The four stages for one candidate: `Ok((objective, synthesis cost))`,
/// `Err(Some(detail))` when infeasible, `Err(None)` on any other failure.
fn stages(
    c: &DesignCandidate,
    opts: &ExploreOptions,
    popts: &PipelineOptions,
    pipeline: &mut Pipeline,
    tracer: &mut Tracer,
) -> Result<((usize, usize), u64), Option<String>> {
    let span = tracer.begin("maps.generate");
    let map = c.build();
    tracer.end(span);
    let map = map.map_err(|_| None)?;
    let workload = map.uniform_workload(opts.units);
    let instance = WspInstance::new(map.warehouse, map.traffic, workload, opts.t_limit);
    let span = tracer.begin(STAGES[0]);
    let flow = pipeline.synthesize(&instance, popts);
    tracer.end(span);
    let flow = flow.map_err(|e| match e {
        PipelineError::Flow(FlowError::Infeasible { detail }) => Some(detail),
        _ => None,
    })?;
    let span = tracer.begin(STAGES[1]);
    let cycles = pipeline.decompose(&flow);
    tracer.end(span);
    let cycles = cycles.map_err(|_| None)?;
    let span = tracer.begin(STAGES[2]);
    let realized = pipeline.realize(&instance, popts, &cycles);
    tracer.end(span);
    let realized = realized.map_err(|_| None)?;
    let span = tracer.begin(STAGES[3]);
    let report = pipeline.verify(&instance, realized);
    tracer.end(span);
    let report = report.map_err(|_| None)?;
    Ok((report.objective(), report.flow.synthesis_cost()))
}

/// Runs the workload for `budget`.
pub fn run(seed: u64, budget: Budget, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = HostProbe::new();
    let (list, _) = setup(seed, &mut out.ops);
    // The first sweep is a warm-up, untimed; it is the reference every
    // later sweep's fingerprint must equal.
    let (_, reference) = batch(&list, THREADS, &mut out.ops);
    let rss = host::peak_rss_mb();
    let fingerprint = reference.fingerprint();
    let units = ExploreOptions::default().units;
    out.fact("candidates", list.len());
    out.fact("explore_threads", THREADS);
    out.fact("units", units);
    out.fact("t_limit", ExploreOptions::default().t_limit);
    let check = |ops: &mut Ops, o: &ExploreOutcome, what: &str| {
        ops.check(o.fingerprint() == fingerprint, || {
            format!("explore fingerprint differs ({what})")
        });
    };
    if !traced {
        // A sweep repeats identical work, so the spread of whole-sweep
        // times is the host's alone; latency is taken per candidate, whose
        // times differ by design, from the batch's own per-candidate
        // stage timings (`CandidateReport::timings`). The tail is p99, the
        // highest percentile with at least ten samples beyond it in a run,
        // as on the floors. Every timing is scaled by the host-speed probe
        // sampled just before its sweep (see `probe`); the raw medians are
        // facts.
        let (mut setups, mut walls, mut candidate_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut raw_walls, mut raw_candidate_ms) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        while budget.more(walls.len(), t0.elapsed()) {
            let scale = probe.sample();
            // One set-up per sweep: a millisecond of work, so its samples
            // are spread over the run like the sweeps' and see the same
            // host.
            setups.push(setup(seed, &mut out.ops).1 * scale);
            let (wall, outcome) = batch(&list, THREADS, &mut out.ops);
            check(&mut out.ops, &outcome, "across repeats");
            walls.push(wall * scale);
            raw_walls.push(wall);
            for t in outcome.reports.iter().filter_map(|r| r.timings) {
                let ms = t.total().as_secs_f64() * 1e3;
                candidate_ms.push(ms * scale);
                raw_candidate_ms.push(ms);
            }
        }
        out.fact("sweeps_timed", walls.len());
        out.fact("latency_tail", "p99 of one candidate's stage time");
        out.fact("candidates_beyond_p99", beyond(&candidate_ms, 99.0));
        out.fact("probe_ms", format!("{:.4}", probe.median_ms()));
        let rate = |w: &f64| list.len() as f64 / w;
        out.fact(
            "raw_throughput_per_s",
            format!(
                "{:.3}",
                median(&raw_walls.iter().map(rate).collect::<Vec<_>>())
            ),
        );
        out.fact(
            "raw_latency_ms.p50",
            format!("{:.4}", percentile(&raw_candidate_ms, 50.0)),
        );
        out.metric("setup_s", median(&setups), "s");
        out.metric(
            "throughput_per_s",
            median(&walls.iter().map(rate).collect::<Vec<_>>()),
            "1/s",
        );
        out.metric("latency_ms.p50", percentile(&candidate_ms, 50.0), "ms");
        out.metric("latency_ms.tail", percentile(&candidate_ms, 99.0), "ms");
        // Units each candidate's verified plan delivers against the units
        // it was asked for (an infeasible design delivers none), and the
        // mean makespan of the solved designs.
        let evals: Vec<_> = reference
            .reports
            .iter()
            .filter_map(|r| r.outcome.eval())
            .collect();
        let delivered: u64 = evals.iter().map(|e| e.delivered.min(units)).sum();
        out.metric(
            "tasks_completed_share",
            delivered as f64 / (units * list.len() as u64) as f64,
            "ratio",
        );
        out.metric(
            "delivery_ticks.mean",
            evals.iter().map(|e| e.makespan as f64).sum::<f64>() / evals.len().max(1) as f64,
            "ticks",
        );
        out.metric("peak_rss_mb", rss, "MiB");
        out.metric("ops_ok_share", out.ops.ok_share(), "ratio");
        return out;
    }

    // Traced run: rounds of a one-thread batch, an untraced and a traced
    // staged sweep, and a two-thread batch, so host drift hits all four
    // alike; each figure is a median over rounds of a within-round
    // difference or ratio.
    let mut pipeline = Pipeline::new();
    let mut tracer = Tracer::new(false);
    let (mut overhead, mut efficiency, mut trace_cost, mut costs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut round = 0u32;
    while budget.more(round as usize, t0.elapsed()) {
        probe.sample();
        let (wall1, outcome) = batch(&list, 1, &mut out.ops);
        check(&mut out.ops, &outcome, "across repeats");
        tracer.set_enabled(false);
        let (plain, _) = staged(&list, &reference, &mut pipeline, &mut tracer, &mut out.ops);
        tracer.set_enabled(true);
        tracer.set_run(round);
        let (wall, cost) = staged(&list, &reference, &mut pipeline, &mut tracer, &mut out.ops);
        tracer.set_enabled(false);
        let (wall2, outcome) = batch(&list, 2, &mut out.ops);
        check(&mut out.ops, &outcome, "between 1 and 2 threads");
        let stage_sum: f64 = STAGES.iter().map(|s| tracer.total_in(s, round)).sum();
        overhead.push(wall1 - stage_sum);
        efficiency.push(wall1 / (2.0 * wall2));
        trace_cost.push((wall - plain) / plain);
        costs.push(cost as f64);
        round += 1;
    }
    crate::save_trace(&tracer, &format!("design-sweep-seed{seed}"));
    let per_sweep = |name: &str| -> f64 {
        median(
            &(0..round)
                .map(|i| tracer.total_in(name, i))
                .collect::<Vec<_>>(),
        )
    };
    out.fact("rounds", round);
    for (name, span) in [
        ("maps.generate_s", "maps.generate"),
        ("flow.synthesize_s", STAGES[0]),
        ("flow.decompose_s", STAGES[1]),
        ("realize.realize_s", STAGES[2]),
        ("model.verify_s", STAGES[3]),
    ] {
        out.metric(name, per_sweep(span), "s");
    }
    out.metric("flow.synthesis_cost", median(&costs), "count");
    out.metric("explore.overhead_s", median(&overhead), "s");
    out.metric(
        "explore.candidate.self_s",
        tracer.self_time("explore.candidate") / f64::from(round.max(1)),
        "s",
    );
    out.metric("explore.parallel_efficiency", median(&efficiency), "ratio");
    let count = |f: fn(&CandidateOutcome) -> bool| {
        reference.reports.iter().filter(|r| f(&r.outcome)).count() as f64
    };
    out.metric("explore.solved", count(|o| o.eval().is_some()), "count");
    out.metric(
        "explore.infeasible",
        count(|o| matches!(o, CandidateOutcome::Infeasible(_))),
        "count",
    );
    out.metric("explore.front_size", reference.front.len() as f64, "count");
    out.metric("trace.overhead_share", median(&trace_cost), "ratio");
    out.metric("trace.spans", tracer.spans().len() as f64, "count");
    out.metric("host.probe_ms", probe.median_ms(), "ms");
    out
}
