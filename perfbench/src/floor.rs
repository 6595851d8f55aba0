//! The two lifelong floor workloads on the 105 836-vertex
//! `scaled_warehouse(101, 1000, 3, 3)` floor with 1 615 placed agents
//! (direct cycle set for 2 000), auction assignment, stalls (mean gap 64)
//! and MAPF catch-up repair.
//!
//! - `floor105k-auction`: a zipf stream over all 18 catalog products,
//!   sized (mean gap 2) to keep arriving for the whole horizon, so the
//!   assignment layer works through the whole run (21 of 2 000 ticks
//!   elide at seed 0).
//! - `floor105k-faults`: the `-faults` row of the repository's sim bench
//!   binary unchanged (401-task stream over the delivered products, ~10%
//!   of the fleet broken down for good, one station outage, one corridor
//!   closure). Dead robots keep every tick executed.
//!
//! One repeat sets the floor up from scratch (map, design, `Simulation`)
//! and steps it through the whole horizon one `Simulation::step` at a
//! time, timing each step from the outside.

use std::time::{Duration, Instant};

use wsp_core::WspInstance;
use wsp_model::{ProductId, Workload};
use wsp_sim::{
    direct_cycle_set, AssignPolicy, DeviationConfig, FaultConfig, RepairConfig, SimConfig,
    SimCounters, Simulation, StreamConfig,
};

use crate::probe::HostProbe;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{derive_seed, host, Budget, Ops, Outcome, THREADS};

/// Which floor workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Floor {
    /// Sustained zipf stream, auction assignment.
    Auction,
    /// The fault-injection row: breakdowns, an outage, a closure.
    Faults,
}

/// Simulated ticks per repeat on both floors.
const HORIZON: u64 = 2_000;

/// Agent budget handed to `direct_cycle_set` (1 615 are placed).
const AGENTS: usize = 2_000;

/// A step slower than this counts as heavy (`sim.heavy_step_share`).
const HEAVY_STEP_NS: f64 = 1e6;

/// Stepping time between two host-speed probe samples.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// The inputs of one floor repeat.
#[derive(Debug, Clone, Copy)]
pub struct FloorInputs {
    /// Which floor.
    pub floor: Floor,
    /// Ticks to simulate.
    pub horizon: u64,
    /// Workload seed; it draws the stall schedule only (the order
    /// stream and the fault schedule are fixed, see `README.md`).
    pub seed: u64,
}

/// The counters one step attribution reads.
#[derive(Clone, Copy)]
struct Probe {
    replans: u64,
    repairs: u64,
    faults: u64,
    assign: u64,
    injected: u64,
}

impl Probe {
    fn of(c: &SimCounters) -> Probe {
        Probe {
            replans: c.replans,
            repairs: c.repairs_attempted,
            faults: c.faults_injected,
            assign: c.assignments_made + c.rebalance_moves,
            injected: c.injected,
        }
    }

    /// The layer a step's wall time is attributed to: the first, in this
    /// order, whose counter moved during the step.
    fn layer(self, after: Probe) -> &'static str {
        if after.replans > self.replans {
            "realize.window.step"
        } else if after.repairs > self.repairs {
            "mapf.repair.step"
        } else if after.faults > self.faults {
            "sim.faults.step"
        } else if after.assign > self.assign {
            "sim.assign.step"
        } else if after.injected > self.injected {
            "sim.arrival.step"
        } else {
            "sim.unattributed.step"
        }
    }
}

/// Step-attribution span names, in attribution order.
pub const STEP_LAYERS: [&str; 6] = [
    "realize.window.step",
    "mapf.repair.step",
    "sim.faults.step",
    "sim.assign.step",
    "sim.arrival.step",
    "sim.unattributed.step",
];

/// What stepping one simulation through its horizon measured.
#[derive(Debug)]
pub struct Stepped {
    /// Wall seconds of the stepping loop, probe samples excluded.
    pub loop_s: f64,
    /// `loop_s` scaled to the reference host speed ([`HostProbe`]).
    pub scaled_loop_s: f64,
    /// Wall nanoseconds of each `step()` call.
    pub step_ns: Vec<f64>,
    /// `step_ns` scaled by the probe sample taken before each step.
    pub scaled_step_ns: Vec<f64>,
    /// Counters before the first step.
    pub start: SimCounters,
    /// Counters at the end of the horizon.
    pub end: SimCounters,
    /// Canonical `SimReport::to_json` of the run.
    pub rendering: String,
    /// Whether task conservation held after every step.
    pub conserved: bool,
}

/// What one floor repeat measured.
#[derive(Debug)]
pub struct Repeat {
    /// Set-up seconds: map + design + `Simulation` build.
    pub setup_s: f64,
    /// `setup_s` scaled by the probe sample taken just before it.
    pub scaled_setup_s: f64,
    /// The stepping loop.
    pub run: Stepped,
    /// Resident size of the auction distance cache.
    pub cache_bytes: usize,
    /// Agents placed on the floor.
    pub agents: usize,
}

/// Steps `sim` one `Simulation::step` at a time up to `horizon`, timing
/// every call and sampling `probe` every [`PROBE_EVERY`] of stepping; a
/// traced step span is named after the layer whose counter moved during
/// it ([`STEP_LAYERS`]). `None` when a step failed (counted in `ops`).
pub(crate) fn step_through(
    sim: &mut Simulation<'_>,
    horizon: u64,
    probe: &mut HostProbe,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Option<Stepped> {
    let start = sim.counters().clone();
    let mut step_ns = Vec::with_capacity(horizon as usize);
    let mut scaled_step_ns = Vec::with_capacity(horizon as usize);
    let mut conserved = true;
    let tracing = tracer.enabled();
    let mut scale = probe.sample();
    let (mut loop_s, mut scaled_loop_s) = (0.0, 0.0);
    let mut segment = Instant::now();
    while sim.now() < horizon {
        let before = tracing.then(|| Probe::of(sim.counters()));
        let span = tracer.begin("sim.step");
        let t = Instant::now();
        let stepped = sim.step();
        let dt = t.elapsed();
        let layer = before.map(|b| b.layer(Probe::of(sim.counters())));
        tracer.end_as(span, layer);
        if let Err(e) = stepped {
            ops.op(false, || format!("sim step at tick {}: {e}", sim.now()));
            return None;
        }
        step_ns.push(dt.as_nanos() as f64);
        scaled_step_ns.push(dt.as_nanos() as f64 * scale);
        conserved &= sim.counters().conserved();
        if segment.elapsed() >= PROBE_EVERY {
            let secs = segment.elapsed().as_secs_f64();
            loop_s += secs;
            scaled_loop_s += secs * scale;
            scale = probe.sample();
            segment = Instant::now();
        }
    }
    let secs = segment.elapsed().as_secs_f64();
    loop_s += secs;
    scaled_loop_s += secs * scale;
    ops.op(true, String::new);
    let report = sim.report();
    Some(Stepped {
        loop_s,
        scaled_loop_s,
        step_ns,
        scaled_step_ns,
        start,
        end: report.counters.clone(),
        rendering: report.to_json(),
        conserved,
    })
}

/// Step-attribution metrics over the traced runs `(run id, stepping)`:
/// wall time per attributed layer, the share of loop time the wrapped
/// steps cover, and the share of stepping time in heavy steps (medians
/// over runs).
pub(crate) fn step_metrics(out: &mut Outcome, runs: &[(u32, &Stepped)], tracer: &Tracer) {
    let med = |f: &dyn Fn(u32, &Stepped) -> f64| -> f64 {
        median(&runs.iter().map(|&(i, r)| f(i, r)).collect::<Vec<_>>())
    };
    for layer in STEP_LAYERS {
        out.metric(
            &format!("{layer}_s"),
            med(&|i, _| tracer.total_in(layer, i)),
            "s",
        );
    }
    let step_total = |i: u32| {
        STEP_LAYERS
            .iter()
            .map(|l| tracer.total_in(l, i))
            .sum::<f64>()
    };
    out.metric(
        "sim.step_coverage",
        med(&|i, r| step_total(i) / r.loop_s),
        "ratio",
    );
    out.metric(
        "sim.heavy_step_share",
        med(&|_, r| {
            let heavy: f64 = r.step_ns.iter().filter(|&&ns| ns > HEAVY_STEP_NS).sum();
            heavy / r.step_ns.iter().sum::<f64>()
        }),
        "ratio",
    );
    out.metric(
        "sim.us_per_active_agent_tick",
        med(&|_, r| {
            let active = r.end.active_agent_ticks - r.start.active_agent_ticks;
            r.loop_s * 1e6 / active.max(1) as f64
        }),
        "us",
    );
}

/// The deterministic counters of one run, as deltas over the run, plus
/// the ratios derived from them.
pub(crate) fn counter_metrics(out: &mut Outcome, r: &Stepped) {
    let d = |f: fn(&SimCounters) -> u64| (f(&r.end) - f(&r.start)) as f64;
    out.metric(
        "sim.executed_ticks",
        d(|c| c.ticks) - d(|c| c.ticks_elided),
        "count",
    );
    out.metric("sim.ticks_elided", d(|c| c.ticks_elided), "count");
    out.metric("sim.events_processed", d(|c| c.events_processed), "count");
    out.metric(
        "sim.active_agent_ticks",
        d(|c| c.active_agent_ticks),
        "count",
    );
    out.metric("sim.assignments_made", d(|c| c.assignments_made), "count");
    out.metric("sim.rebalance_moves", d(|c| c.rebalance_moves), "count");
    out.metric("sim.replans", d(|c| c.replans), "count");
    out.metric(
        "mapf.repairs_attempted",
        d(|c| c.repairs_attempted),
        "count",
    );
    out.metric("mapf.repairs_applied", d(|c| c.repairs_applied), "count");
    out.metric("sim.moves", d(|c| c.moves), "count");
    out.metric("sim.waits", d(|c| c.waits), "count");
    out.metric("sim.faults_injected", d(|c| c.faults_injected), "count");
    out.metric("sim.tasks_shed", d(|c| c.tasks_shed), "count");
    out.metric("sim.agents_lost", d(|c| c.agents_lost), "count");
    out.metric(
        "mapf.repair_yield",
        d(|c| c.repairs_applied) / d(|c| c.repairs_attempted).max(1.0),
        "ratio",
    );
    out.metric(
        "sim.wait_share",
        d(|c| c.waits) / (d(|c| c.moves) + d(|c| c.waits)).max(1.0),
        "ratio",
    );
}

fn config(inputs: &FloorInputs, mix: Workload) -> SimConfig {
    let mut config = SimConfig {
        ticks: inputs.horizon,
        stream: StreamConfig {
            mix,
            mean_gap: 2,
            seed: 7,
        },
        deviations: DeviationConfig::stalls(64, 2, 8, derive_seed(9, inputs.seed)),
        repair: RepairConfig {
            enabled: true,
            threads: Some(THREADS),
            ..RepairConfig::default()
        },
        replan_lag: 24,
        ..SimConfig::default()
    };
    config.assign.policy = AssignPolicy::Auction;
    if inputs.floor == Floor::Faults {
        config.faults = FaultConfig {
            breakdown_gap: 12,
            permanent_permille: 1000,
            outage_gap: 1000,
            outage_min_ticks: 500,
            outage_max_ticks: 500,
            closure_gap: 1000,
            closure_min_ticks: 400,
            closure_max_ticks: 400,
            closure_len: 4,
            seed: 0xfa17,
            ..FaultConfig::none()
        };
    }
    config
}

/// The faults row's mix: uniform over the products the design delivers,
/// `400 / n + 1` tasks each.
fn delivered_mix(catalog: usize, cycles: &wsp_flow::AgentCycleSet) -> Workload {
    let delivered: std::collections::BTreeSet<ProductId> = cycles
        .cycles()
        .iter()
        .flat_map(|c| c.delivered_products())
        .collect();
    let mut mix = Workload::zeros(catalog);
    for &p in &delivered {
        mix.set(p, 400 / delivered.len() as u64 + 1);
    }
    mix
}

/// Sets one floor up and steps it through the horizon. `None` when the
/// build or a step failed (already counted in `ops`).
pub fn repeat(
    inputs: &FloorInputs,
    probe: &mut HostProbe,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Option<Repeat> {
    let scale = probe.sample();
    let t0 = Instant::now();
    let span = tracer.begin("maps.generate");
    let map = wsp_maps::scaled_warehouse(101, 1000, 3, 3).expect("the 105k floor generates");
    tracer.end(span);
    // The auction stream: zipf over the whole catalog, one task per two
    // ticks of horizon.
    let zipf = map.zipf_workload(inputs.horizon / 2, 1.0, 7);
    let instance = WspInstance::new(map.warehouse, map.traffic, Workload::zeros(0), 0);
    let span = tracer.begin("sim.direct_cycles");
    let cycles = direct_cycle_set(&instance.warehouse, &instance.traffic, AGENTS);
    tracer.end(span);
    let mix = match inputs.floor {
        Floor::Auction => zipf,
        Floor::Faults => delivered_mix(instance.warehouse.catalog().len(), &cycles),
    };
    let span = tracer.begin("sim.build");
    let built = Simulation::from_cycles(&instance, cycles, config(inputs, mix));
    tracer.end(span);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut sim = match built {
        Ok(sim) => sim,
        Err(e) => {
            ops.op(false, || format!("floor build: {e}"));
            return None;
        }
    };
    let cache_bytes = sim.auction_cache_bytes();
    let agents = sim.agent_count();
    let run = step_through(&mut sim, inputs.horizon, probe, tracer, ops)?;
    Some(Repeat {
        setup_s,
        scaled_setup_s: setup_s * scale,
        run,
        cache_bytes,
        agents,
    })
}

/// Runs repeats within `budget`; the traced run records spans on every
/// repeat but the first, which runs untraced to price the tracing.
pub fn run(floor: Floor, seed: u64, budget: Budget, traced: bool) -> Outcome {
    let inputs = &FloorInputs {
        floor,
        horizon: HORIZON,
        seed,
    };
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    let mut probe = HostProbe::new();
    let mut repeats: Vec<Repeat> = Vec::new();
    // Peak memory of one set-up plus one run: read after the first repeat,
    // before later repeats' allocator reuse can move it.
    let mut rss_first = f64::NAN;
    let t0 = Instant::now();
    while budget.more(repeats.len(), t0.elapsed()) {
        tracer.set_enabled(traced && !repeats.is_empty());
        tracer.set_run(repeats.len() as u32);
        let Some(r) = repeat(inputs, &mut probe, &mut tracer, &mut out.ops) else {
            break;
        };
        out.ops.check(r.run.conserved, || {
            "task conservation broke on a tick".into()
        });
        if let Some(first) = repeats.first() {
            out.ops.check(first.run.rendering == r.run.rendering, || {
                "sim rendering differs across repeats".into()
            });
        }
        repeats.push(r);
        if repeats.len() == 1 {
            rss_first = host::peak_rss_mb();
        }
    }
    if traced {
        write_trace(&tracer, inputs);
    }
    let Some(last) = repeats.last() else {
        return out;
    };
    let end = &last.run.end;
    out.fact("repeats", repeats.len());
    out.fact("horizon_ticks", inputs.horizon);
    out.fact("agents", last.agents);
    out.fact("repair_threads", THREADS);
    out.fact("tasks_injected", end.injected);
    let loops: Vec<String> = repeats
        .iter()
        .map(|r| format!("{:.3}", r.run.loop_s))
        .collect();
    out.fact("repeat_loop_s", loops.join(","));
    let setups: Vec<String> = repeats
        .iter()
        .map(|r| format!("{:.3}", r.setup_s))
        .collect();
    out.fact("repeat_setup_s", setups.join(","));
    out.fact("probe_ms", format!("{:.4}", probe.median_ms()));
    if traced {
        per_layer(&mut out, &repeats, &tracer);
        out.metric("host.probe_ms", probe.median_ms(), "ms");
        return out;
    }
    // Every timing is scaled by the host-speed probe (see `probe`); the
    // raw figures are facts.
    let all_steps: Vec<f64> = repeats
        .iter()
        .flat_map(|r| r.run.scaled_step_ns.iter().copied())
        .collect();
    out.fact("steps_timed", all_steps.len());
    out.fact("latency_tail", "p99 of Simulation::step");
    out.fact("steps_beyond_p99", crate::stats::beyond(&all_steps, 99.0));
    let raw_steps: Vec<f64> = repeats
        .iter()
        .flat_map(|r| r.run.step_ns.iter().copied())
        .collect();
    let tps = |loop_s: fn(&Stepped) -> f64| {
        median(
            &repeats
                .iter()
                .map(|r| inputs.horizon as f64 / loop_s(&r.run))
                .collect::<Vec<_>>(),
        )
    };
    out.fact("raw_throughput_per_s", format!("{:.3}", tps(|r| r.loop_s)));
    out.fact(
        "raw_latency_ms.tail",
        format!("{:.4}", percentile(&raw_steps, 99.0) * 1e-6),
    );
    let setup: Vec<f64> = repeats.iter().map(|r| r.scaled_setup_s).collect();
    out.metric("setup_s", median(&setup), "s");
    out.metric("throughput_per_s", tps(|r| r.scaled_loop_s), "1/s");
    out.metric("latency_ms.p50", percentile(&all_steps, 50.0) * 1e-6, "ms");
    out.metric("latency_ms.tail", percentile(&all_steps, 99.0) * 1e-6, "ms");
    task_metrics(&mut out, end);
    out.metric("peak_rss_mb", rss_first, "MiB");
    out.metric("ops_ok_share", out.ops.ok_share(), "ratio");
    out
}

/// Task completion share and mean task latency of a finished run.
pub(crate) fn task_metrics(out: &mut Outcome, end: &SimCounters) {
    out.metric(
        "tasks_completed_share",
        end.completed as f64 / end.injected.max(1) as f64,
        "ratio",
    );
    out.metric(
        "delivery_ticks.mean",
        end.latency_sum as f64 / end.completed.max(1) as f64,
        "ticks",
    );
}

fn write_trace(tracer: &Tracer, inputs: &FloorInputs) {
    let name = match inputs.floor {
        Floor::Auction => "floor105k-auction",
        Floor::Faults => "floor105k-faults",
    };
    crate::save_trace(tracer, &format!("{name}-seed{}", inputs.seed));
}

fn per_layer(out: &mut Outcome, repeats: &[Repeat], tracer: &Tracer) {
    // Repeat 0 ran untraced; the rest carry spans under their index.
    let traced: Vec<(u32, &Repeat)> = (1u32..).zip(&repeats[1..]).collect();
    let med = |name: &str| -> f64 {
        median(
            &traced
                .iter()
                .map(|&(i, _)| tracer.total_in(name, i))
                .collect::<Vec<_>>(),
        )
    };
    out.fact("traced_repeats", traced.len());
    out.metric("maps.generate_s", med("maps.generate"), "s");
    out.metric("sim.direct_cycles_s", med("sim.direct_cycles"), "s");
    out.metric("sim.build_s", med("sim.build"), "s");
    out.metric("sim.cache_bytes", repeats[0].cache_bytes as f64, "bytes");
    let runs: Vec<(u32, &Stepped)> = traced.iter().map(|&(i, r)| (i, &r.run)).collect();
    step_metrics(out, &runs, tracer);
    counter_metrics(out, &repeats[0].run);
    out.metric("trace.spans", tracer.spans().len() as f64, "count");
    let untraced = repeats[0].run.loop_s;
    let traced_loop = median(&traced.iter().map(|(_, r)| r.run.loop_s).collect::<Vec<_>>());
    out.metric(
        "trace.overhead_share",
        (traced_loop - untraced) / untraced,
        "ratio",
    );
}
