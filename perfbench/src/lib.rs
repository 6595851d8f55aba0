//! End-to-end and per-layer benchmark of the wsp stack.
//!
//! Four workloads, each a function from (seed, time budget, trace flag)
//! to an [`Outcome`]: two lifelong simulations on a 105k-vertex floor
//! ([`floor`]), a design-space sweep ([`sweep`]), and sim jobs served
//! over loopback HTTP ([`served`]). Untraced runs report the end-to-end
//! metrics, their timings scaled to a reference host speed by a probe
//! sampled next to the work ([`probe`]); traced runs time calls into each
//! crate's public functions from the outside ([`trace`]) and report
//! per-layer metrics. See
//! `README.md` beside this crate for the metric, workload and layer
//! tables.

pub mod floor;
pub mod host;
pub mod http;
pub mod probe;
pub mod served;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::time::Duration;

/// Repair and explore thread budget of every timed run. Two spinning
/// threads take about twice as long as one on the host the benchmark was
/// tuned on (see the recorded `effective_parallelism` fact), so the budget
/// matches the one core of throughput it gets. Results are byte-identical
/// at any thread count; only speed depends on it.
pub const THREADS: usize = 1;

/// The end-to-end metrics every untraced run prints, with units. Each is
/// defined on every workload (see `README.md` for what it measures where).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("tasks_completed_share", "ratio"),
    ("delivery_ticks.mean", "ticks"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_share", "ratio"),
];

/// The per-layer metrics every traced run prints, with units. A workload
/// that does not exercise a layer reports 0 for its metrics and names
/// them in the `not_exercised` fact.
pub const PER_LAYER: [(&str, &str); 53] = [
    // Set-up spans.
    ("maps.generate_s", "s"),
    ("sim.direct_cycles_s", "s"),
    ("sim.build_s", "s"),
    ("sim.cache_bytes", "bytes"),
    // Pipeline stages, timed at `wsp_core::Pipeline`.
    ("flow.synthesize_s", "s"),
    ("flow.decompose_s", "s"),
    ("realize.realize_s", "s"),
    ("model.verify_s", "s"),
    ("flow.synthesis_cost", "count"),
    // The explorer around the stages.
    ("explore.overhead_s", "s"),
    ("explore.candidate.self_s", "s"),
    ("explore.parallel_efficiency", "ratio"),
    ("explore.solved", "count"),
    ("explore.infeasible", "count"),
    ("explore.front_size", "count"),
    // `Simulation::step` wall time, attributed by the counter that moved.
    ("realize.window.step_s", "s"),
    ("mapf.repair.step_s", "s"),
    ("sim.faults.step_s", "s"),
    ("sim.assign.step_s", "s"),
    ("sim.arrival.step_s", "s"),
    ("sim.unattributed.step_s", "s"),
    ("sim.step_coverage", "ratio"),
    ("sim.heavy_step_share", "ratio"),
    // Deterministic simulation counters over one run.
    ("sim.executed_ticks", "count"),
    ("sim.ticks_elided", "count"),
    ("sim.events_processed", "count"),
    ("sim.active_agent_ticks", "count"),
    ("sim.assignments_made", "count"),
    ("sim.rebalance_moves", "count"),
    ("sim.replans", "count"),
    ("mapf.repairs_attempted", "count"),
    ("mapf.repairs_applied", "count"),
    ("sim.moves", "count"),
    ("sim.waits", "count"),
    ("sim.faults_injected", "count"),
    ("sim.tasks_shed", "count"),
    ("sim.agents_lost", "count"),
    ("sim.us_per_active_agent_tick", "us"),
    ("mapf.repair_yield", "ratio"),
    ("sim.wait_share", "ratio"),
    // The job server, seen from its clients.
    ("server.submit_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.run_ms", "ms"),
    ("server.fetch_ms", "ms"),
    ("server.job.self_ms", "ms"),
    ("server.requests_per_job", "count"),
    ("server.direct_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.rejected", "count"),
    ("server.failed", "count"),
    // The benchmark's own instruments.
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("host.probe_ms", "ms"),
];

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Operation and output-check accounting for one run.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted (sim runs, candidate evaluations, job
    /// submissions, output checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; `what` describes it on failure (to stderr).
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed operation: {}", what());
        }
    }

    /// Counts one output check; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok, || format!("check: {}", what()));
    }

    /// `ok ÷ attempted`: 1.0 when nothing failed.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting.
    pub ops: Ops,
    /// The metrics of this run (end-to-end when untraced, per-layer when
    /// traced).
    pub metrics: Vec<Metric>,
    /// Descriptive facts printed beside the result (sample counts, thread
    /// budgets, poll interval, ...).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Appends a descriptive fact.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Whether every operation, output checks included, succeeded.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }
}

/// The time budget of one run: keep repeating the workload's unit of work
/// until `seconds` have passed and at least `min_repeats` units ran.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Repeats to run even past the deadline.
    pub min_repeats: usize,
}

impl Budget {
    /// Whether another repeat should start after `done` repeats taking
    /// `elapsed` so far.
    pub fn more(&self, done: usize, elapsed: Duration) -> bool {
        done < self.min_repeats || elapsed.as_secs_f64() < self.seconds
    }
}

/// Derives a per-purpose seed from the workload seed: seed 0 reproduces
/// the `base` seed of the inputs the workload was defined with, any other
/// seed scrambles it (splitmix64), so streams, stalls and faults vary
/// together but independently of each other.
pub fn derive_seed(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    base ^ (z ^ (z >> 31))
}

/// Writes a traced run's spans to `perfbench/traces/<name>.jsonl` inside
/// the checkout the benchmark was built in. A failed write is reported on
/// stderr; the run's metrics do not depend on it.
pub fn save_trace(tracer: &trace::Tracer, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{name}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
