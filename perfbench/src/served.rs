//! The `served-sim` workload: `wsp_server` on loopback with its default
//! configuration (one job worker, four HTTP threads, queue of 64) and a
//! closed loop of two clients. Each client submits a paper
//! sorting-center sim job (480 units, 4 000 ticks, mean gap 8, static
//! assignment, stalls mean gap 64, repair on, one thread), polls it every
//! [`POLL`], fetches the result, checks it byte for byte against
//! `SimReport::to_json` of the same spec run directly through the
//! library, and deletes the job. The jobs go round [`STREAMS`] order
//! streams drawn from the seed. Two clients against one worker means jobs
//! queue by construction. The run is pinned to one CPU, and the clients
//! meet between jobs every [`SETUP_EVERY`] so that a host-speed probe
//! sample runs with the worker idle (see `crate::probe`).
//!
//! It is the only workload that exercises `server`, the MAPF repair path
//! and the static engine's window realization; the traced run steps the
//! direct call with the floor workloads' step attribution to show them.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use wsp_core::{Pipeline, PipelineOptions, WspInstance};
use wsp_server::json::Json;
use wsp_server::spec::SimSpec;
use wsp_server::{serve, ServerConfig, ServerHandle};
use wsp_sim::{SimCounters, Simulation};

use crate::floor::{counter_metrics, step_metrics, step_through, task_metrics};
use crate::http::{json_str, json_u64, request};
use crate::probe::HostProbe;
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;
use crate::{derive_seed, host, Budget, Ops, Outcome, THREADS};

/// Client poll interval; queue-wait and run times are quantized to it.
const POLL: Duration = Duration::from_millis(10);

/// Closed-loop clients (each holds at most one connection at a time).
const CLIENTS: usize = 2;

/// Jobs to complete even past the deadline, so the p90 latency rests on
/// at least ten jobs beyond it.
const MIN_JOBS: usize = 100;

/// Interval between the extra server start-ups timed while the clients
/// run, so that `setup_s` samples span the run; a host-speed probe sample
/// falls due at the same interval.
const SETUP_EVERY: Duration = Duration::from_millis(500);

/// No job starts after this many seconds, whatever the budget.
const HARD_STOP_S: f64 = 120.0;

/// Order streams the clients rotate through in one run. Each job's
/// movement work is the same for every stream (static assignment follows
/// the cycles whatever the orders); its task outcomes are not, so the task
/// metrics average over the rotation.
const STREAMS: u64 = 4;

/// The job spec for stream `k` of workload seed `seed` (seed 0, stream 0
/// is the server's default stream seed). Seeds are cut to 53 bits: the
/// server reads JSON numbers as `f64`.
fn spec_body(seed: u64, k: u64, ticks: u64) -> String {
    let stream = derive_seed(derive_seed(0x5eed, seed), k) & ((1 << 53) - 1);
    format!(
        "{{\"units\": 480, \"ticks\": {ticks}, \"mean_gap\": 8, \"policy\": \"static\", \
         \"stream_seed\": {}, \"deviations\": {{\"mean_gap\": 64, \"min_ticks\": 2, \
         \"max_ticks\": 8, \"seed\": 9}}, \"repair\": {{\"enabled\": true}}, \"threads\": {THREADS}}}",
        stream,
    )
}

/// The spec as the server parses it.
fn parse_spec(body: &str) -> SimSpec {
    let json = Json::parse(body).expect("the benchmark's spec is valid JSON");
    SimSpec::from_json(&json).expect("the benchmark's spec is a valid sim spec")
}

/// One job spec of the rotation and what the library returns for it.
struct Job {
    body: String,
    spec: SimSpec,
    /// `SimReport::to_json` of the direct call.
    reference: String,
    counters: SimCounters,
    /// Wall seconds of the direct call.
    direct_s: f64,
}

/// The arrival mix the server's worker draws for `spec`.
fn arrival_mix(spec: &SimSpec, map: &wsp_maps::MapInstance) -> wsp_model::Workload {
    match spec.zipf_exponent {
        Some(exponent) => map.zipf_workload(spec.units, exponent, spec.workload_seed),
        None => map.uniform_workload(spec.units),
    }
}

/// The same job run directly through the library, the way the server's
/// worker runs it: `(rendering, final counters)`.
fn direct(spec: &SimSpec) -> Result<(String, SimCounters), String> {
    let map = wsp_maps::sorting_center_variant(&spec.params).map_err(|e| e.to_string())?;
    let mix = arrival_mix(spec, &map);
    let workload = map.uniform_workload(spec.units);
    let instance = WspInstance::new(map.warehouse, map.traffic, workload, spec.t_limit);
    let mut sim = Simulation::new(&instance, &PipelineOptions::default(), spec.config(mix))
        .map_err(|e| e.to_string())?;
    let report = sim.run().map_err(|e| e.to_string())?;
    Ok((report.to_json(), report.counters))
}

/// The direct call split into its stages, each in a span, and stepped one
/// tick at a time with step attribution. Returns the stepping.
fn direct_staged(
    spec: &SimSpec,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Option<crate::floor::Stepped> {
    let span = tracer.begin("maps.generate");
    let map = wsp_maps::sorting_center_variant(&spec.params).expect("paper map builds");
    tracer.end(span);
    let mix = arrival_mix(spec, &map);
    let workload = map.uniform_workload(spec.units);
    let instance = WspInstance::new(map.warehouse, map.traffic, workload, spec.t_limit);
    let mut pipeline = Pipeline::new();
    let popts = PipelineOptions::default();
    let span = tracer.begin("flow.synthesize");
    let flow = pipeline.synthesize(&instance, &popts);
    tracer.end(span);
    let span = tracer.begin("flow.decompose");
    let cycles = flow.and_then(|f| pipeline.decompose(&f));
    tracer.end(span);
    let span = tracer.begin("sim.build");
    let built = cycles
        .map_err(wsp_sim::SimError::from)
        .and_then(|c| Simulation::from_cycles(&instance, c.cycles, spec.config(mix)));
    tracer.end(span);
    match built {
        Ok(mut sim) => step_through(&mut sim, spec.ticks, &mut HostProbe::new(), tracer, ops),
        Err(e) => {
            ops.op(false, || format!("direct build: {e}"));
            None
        }
    }
}

/// One served job as a client saw it.
#[derive(Debug, Clone, Default)]
struct JobRecord {
    /// Submit sent → result bytes in hand.
    latency_s: f64,
    /// The host-speed scale factor current when the result came in.
    scale: f64,
    submit_s: f64,
    /// Submit answered → first poll seeing the job running (or done).
    queue_s: f64,
    /// First poll seeing it running → first poll seeing it done.
    run_s: f64,
    fetch_s: f64,
    requests: u32,
    /// Whether this job's requests were traced.
    traced: bool,
}

/// What one client did.
#[derive(Debug, Default)]
struct ClientLog {
    jobs: Vec<JobRecord>,
    rejected: u64,
    failed: u64,
    ops: Ops,
    tracer: Option<Tracer>,
}

struct Shared<'a> {
    addr: SocketAddr,
    jobs: &'a [Job],
    start: Instant,
    deadline: Duration,
    done: AtomicUsize,
    min_jobs: usize,
    /// Set by the main thread when a probe sample is due.
    probe_due: AtomicBool,
    /// The latest host-speed scale factor (`f64` bits).
    scale: AtomicU64,
    gate: Mutex<Gate>,
    gate_open: Condvar,
}

/// Where the clients meet to let a probe sample run on an idle server.
struct Gate {
    probe: HostProbe,
    /// Clients still in their loop.
    active: usize,
    /// Clients waiting at the gate, none with a job in flight.
    parked: usize,
    /// Bumped by every sample; parked clients wait for it to move.
    samples: u64,
    /// Client-loop wall time up to `mark`, each stretch scaled by the
    /// factor current during it; probe samples excluded.
    scaled_wall: f64,
    mark: Instant,
}

impl Shared<'_> {
    fn more(&self) -> bool {
        let elapsed = self.start.elapsed();
        elapsed.as_secs_f64() < HARD_STOP_S
            && (elapsed < self.deadline || self.done.load(Ordering::SeqCst) < self.min_jobs)
    }

    /// Called by a client between jobs. When a probe sample is due, the
    /// client waits until every active client is here, so no job is
    /// queued or running, and the last to arrive takes the sample: on the
    /// CPU the job worker runs on (the run is pinned to one), with the
    /// worker idle.
    fn gate(&self) {
        if !self.probe_due.load(Ordering::SeqCst) {
            return;
        }
        let mut gate = self.gate.lock().expect("gate lock");
        gate.parked += 1;
        if gate.parked >= gate.active {
            self.sample(&mut gate);
        } else {
            let samples = gate.samples;
            while gate.samples == samples {
                gate = self.gate_open.wait(gate).expect("gate lock");
            }
        }
    }

    /// Called by a client leaving its loop: the clients still parked must
    /// not wait for it.
    fn leave(&self) {
        let mut gate = self.gate.lock().expect("gate lock");
        gate.active -= 1;
        if gate.parked > 0 && gate.parked >= gate.active {
            self.sample(&mut gate);
        }
    }

    fn sample(&self, gate: &mut Gate) {
        let scale = f64::from_bits(self.scale.load(Ordering::SeqCst));
        gate.scaled_wall += gate.mark.elapsed().as_secs_f64() * scale;
        let scale = gate.probe.sample();
        gate.mark = Instant::now();
        self.scale.store(scale.to_bits(), Ordering::SeqCst);
        self.probe_due.store(false, Ordering::SeqCst);
        gate.parked = 0;
        gate.samples += 1;
        self.gate_open.notify_all();
    }
}

/// A client's closed loop: submit, poll, fetch, delete, repeat, going
/// round the spec rotation. With `traced`, every other job records spans
/// around its requests.
fn client(shared: &Shared<'_>, traced: bool, id: u32) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tracer = Tracer::new(false);
    let mut seq = 0u32;
    while shared.more() {
        shared.gate();
        seq += 1;
        let trace_this = traced && seq % 2 == 0;
        tracer.set_enabled(trace_this);
        tracer.set_run(id * 1_000_000 + seq);
        let mut rec = JobRecord {
            traced: trace_this,
            ..JobRecord::default()
        };
        let job = &shared.jobs[(seq + id) as usize % shared.jobs.len()];
        let job_span = tracer.begin("server.job");
        let outcome = one_job(shared, job, &mut tracer, &mut rec, &mut log);
        tracer.end(job_span);
        match outcome {
            JobEnd::Done => {
                log.jobs.push(rec);
                shared.done.fetch_add(1, Ordering::SeqCst);
            }
            JobEnd::Rejected => std::thread::sleep(POLL),
            JobEnd::Failed => {}
            JobEnd::Unreachable => break,
        }
    }
    shared.leave();
    if traced {
        log.tracer = Some(tracer);
    }
    log
}

enum JobEnd {
    Done,
    Rejected,
    Failed,
    Unreachable,
}

fn one_job(
    shared: &Shared<'_>,
    job: &Job,
    tracer: &mut Tracer,
    rec: &mut JobRecord,
    log: &mut ClientLog,
) -> JobEnd {
    let addr = shared.addr;
    let t0 = Instant::now();
    let span = tracer.begin("server.submit");
    let submitted = request(addr, "POST", "/api/v1/jobs/sim", &job.body);
    tracer.end(span);
    rec.requests += 1;
    rec.submit_s = t0.elapsed().as_secs_f64();
    let id = match submitted {
        Ok(r) if r.status == 202 => match json_u64(&r.body, "id") {
            Some(id) => id,
            None => return fail(log, format!("submit answered without an id: {}", r.body)),
        },
        Ok(r) if r.status == 503 => {
            log.rejected += 1;
            log.ops.op(false, || "submit rejected with 503".into());
            return JobEnd::Rejected;
        }
        Ok(r) => return fail(log, format!("submit answered {}: {}", r.status, r.body)),
        Err(e) => {
            log.failed += 1;
            log.ops.op(false, || format!("submit: {e}"));
            return JobEnd::Unreachable;
        }
    };
    let t_submitted = Instant::now();
    let mut t_running = None;
    let t_done = loop {
        std::thread::sleep(POLL);
        let span = tracer.begin("server.poll");
        let polled = request(addr, "GET", &format!("/api/v1/jobs/{id}"), "");
        tracer.end(span);
        rec.requests += 1;
        let now = Instant::now();
        match polled
            .as_ref()
            .map(|r| (r.status, json_str(&r.body, "status")))
        {
            Ok((200, Some("queued"))) => {}
            Ok((200, Some("running"))) => {
                t_running.get_or_insert(now);
            }
            Ok((200, Some("done"))) => break now,
            Ok(_) => {
                let body = polled.map(|r| r.body).unwrap_or_default();
                return fail(log, format!("job {id} ended badly: {body}"));
            }
            Err(e) => return fail(log, format!("poll job {id}: {e}")),
        }
    };
    let t_running = t_running.unwrap_or(t_done);
    rec.queue_s = (t_running - t_submitted).as_secs_f64();
    rec.run_s = (t_done - t_running).as_secs_f64();
    let t_fetch = Instant::now();
    let span = tracer.begin("server.fetch");
    let fetched = request(addr, "GET", &format!("/api/v1/jobs/{id}/result"), "");
    tracer.end(span);
    rec.requests += 1;
    rec.fetch_s = t_fetch.elapsed().as_secs_f64();
    rec.latency_s = t0.elapsed().as_secs_f64();
    rec.scale = f64::from_bits(shared.scale.load(Ordering::SeqCst));
    let result = match fetched {
        Ok(r) if r.status == 200 => r.body,
        Ok(r) => return fail(log, format!("result of job {id}: {} {}", r.status, r.body)),
        Err(e) => return fail(log, format!("result of job {id}: {e}")),
    };
    log.ops.check(result == job.reference, || {
        format!("served result of job {id} differs from the direct call")
    });
    let span = tracer.begin("server.delete");
    let deleted = request(addr, "DELETE", &format!("/api/v1/jobs/{id}"), "");
    tracer.end(span);
    rec.requests += 1;
    match deleted {
        Ok(r) if r.status == 200 => {}
        Ok(r) => return fail(log, format!("delete job {id}: {} {}", r.status, r.body)),
        Err(e) => return fail(log, format!("delete job {id}: {e}")),
    }
    log.ops.op(true, String::new);
    JobEnd::Done
}

fn fail(log: &mut ClientLog, what: String) -> JobEnd {
    log.failed += 1;
    log.ops.op(false, || what);
    JobEnd::Failed
}

/// Starts a server and waits for its first `/healthz` answer: the handle
/// and the seconds that took.
fn start_server(ops: &mut Ops) -> Option<(ServerHandle, f64)> {
    let t0 = Instant::now();
    let handle = match serve("127.0.0.1:0", ServerConfig::default()) {
        Ok(h) => h,
        Err(e) => {
            ops.op(false, || format!("server start: {e}"));
            return None;
        }
    };
    let healthy = request(handle.addr(), "GET", "/healthz", "").map(|r| r.status);
    let secs = t0.elapsed().as_secs_f64();
    ops.op(matches!(healthy, Ok(200)), || {
        format!("healthz: {healthy:?}")
    });
    Some((handle, secs))
}

/// Runs the workload for `budget`.
pub fn run(seed: u64, budget: Budget, traced: bool) -> Outcome {
    run_with(seed, 4_000, MIN_JOBS, budget, traced)
}

/// [`run`] with an explicit tick count and job minimum (the self-test
/// shortens both).
pub fn run_with(seed: u64, ticks: u64, min_jobs: usize, budget: Budget, traced: bool) -> Outcome {
    // Server, clients and probe share one CPU, so that the probe measures
    // the speed the job worker gets.
    let _pinned = host::pin_to_current_cpu();
    let mut out = Outcome::default();
    let mut specs = Vec::new();
    for k in 0..STREAMS {
        let body = spec_body(seed, k, ticks);
        let spec = parse_spec(&body);
        let t0 = Instant::now();
        let reference = direct(&spec);
        let direct_s = t0.elapsed().as_secs_f64();
        match reference {
            Ok((reference, counters)) => {
                out.ops.op(true, String::new);
                out.ops
                    .check(counters.conserved(), || "task conservation broke".into());
                specs.push(Job {
                    body,
                    spec,
                    reference,
                    counters,
                    direct_s,
                });
            }
            Err(e) => {
                out.ops.op(false, || format!("direct sim: {e}"));
                return out;
            }
        }
    }
    // Task outcomes pooled over the rotation.
    let mut counters = SimCounters::default();
    for job in &specs {
        counters.injected += job.counters.injected;
        counters.completed += job.counters.completed;
        counters.latency_sum += job.counters.latency_sum;
    }
    let Some((server, first_setup)) = start_server(&mut out.ops) else {
        return out;
    };
    let mut probe = HostProbe::new();
    let scale = probe.sample();
    let mut setups = vec![first_setup * scale];
    let shared = Shared {
        addr: server.addr(),
        jobs: &specs,
        start: Instant::now(),
        deadline: Duration::from_secs_f64(budget.seconds),
        done: AtomicUsize::new(0),
        min_jobs,
        probe_due: AtomicBool::new(false),
        scale: AtomicU64::new(scale.to_bits()),
        gate: Mutex::new(Gate {
            probe,
            active: CLIENTS,
            parked: 0,
            samples: 0,
            scaled_wall: 0.0,
            mark: Instant::now(),
        }),
        gate_open: Condvar::new(),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u32)
            .map(|id| {
                let shared = &shared;
                s.spawn(move || client(shared, traced, id))
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(SETUP_EVERY);
            shared.probe_due.store(true, Ordering::SeqCst);
            if let Some((extra, secs)) = start_server(&mut out.ops) {
                extra.shutdown();
                setups.push(secs * f64::from_bits(shared.scale.load(Ordering::SeqCst)));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = shared.start.elapsed().as_secs_f64();
    let scale = f64::from_bits(shared.scale.load(Ordering::SeqCst));
    let gate = shared.gate.into_inner().expect("gate lock");
    let scaled_wall = gate.scaled_wall + gate.mark.elapsed().as_secs_f64() * scale;
    let probe = gate.probe;
    server.shutdown();

    let mut jobs: Vec<JobRecord> = Vec::new();
    let (mut rejected, mut failed) = (0, 0);
    let mut tracers = Vec::new();
    for log in logs {
        out.ops.attempted += log.ops.attempted;
        out.ops.failed += log.ops.failed;
        rejected += log.rejected;
        failed += log.failed;
        jobs.extend(log.jobs);
        tracers.extend(log.tracer);
    }
    let latency_ms: Vec<f64> = jobs.iter().map(|j| j.latency_s * 1e3).collect();
    let scaled_latency_ms: Vec<f64> = jobs.iter().map(|j| j.latency_s * j.scale * 1e3).collect();
    out.fact("jobs", jobs.len());
    out.fact("jobs_beyond_p90", beyond(&latency_ms, 90.0));
    out.fact("clients", CLIENTS);
    out.fact("job_workers", ServerConfig::default().job_workers);
    out.fact("poll_ms", POLL.as_millis());
    out.fact("sim_threads", THREADS);
    out.fact("ticks", ticks);
    out.fact("streams", STREAMS);
    out.fact("tasks_injected", counters.injected);
    out.fact("probe_ms", format!("{:.4}", probe.median_ms()));
    if !traced {
        // Every timing is scaled by the host-speed probe (see `probe`);
        // the raw figures are facts.
        out.fact("latency_tail", "p90 of job latency");
        out.fact(
            "raw_throughput_per_s",
            format!("{:.4}", jobs.len() as f64 / wall),
        );
        out.fact(
            "raw_latency_ms.p50",
            format!("{:.4}", percentile(&latency_ms, 50.0)),
        );
        out.metric("setup_s", median(&setups), "s");
        out.metric("throughput_per_s", jobs.len() as f64 / scaled_wall, "1/s");
        out.metric("latency_ms.p50", percentile(&scaled_latency_ms, 50.0), "ms");
        out.metric(
            "latency_ms.tail",
            percentile(&scaled_latency_ms, 90.0),
            "ms",
        );
        task_metrics(&mut out, &counters);
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
        out.metric("ops_ok_share", out.ops.ok_share(), "ratio");
        return out;
    }

    // Traced: the first spec run directly once more (it must render the
    // same), then split into stages and stepped with step attribution.
    let first = &specs[0];
    let again = direct(&first.spec);
    out.ops
        .check(again.is_ok_and(|(r, _)| r == first.reference), || {
            "direct sim rendering differs across repeats".into()
        });
    let direct_ms = median(&specs.iter().map(|j| j.direct_s * 1e3).collect::<Vec<_>>());
    let mut tracer = Tracer::new(true);
    let stepped = direct_staged(&first.spec, &mut tracer, &mut out.ops);
    if let Some(st) = &stepped {
        out.ops.check(st.rendering == first.reference, || {
            "stepped direct sim differs from the direct call".into()
        });
    }
    tracers.push(tracer);
    for (i, t) in tracers.iter().enumerate() {
        crate::save_trace(t, &format!("served-sim-seed{seed}-part{i}"));
    }
    let direct_tracer = tracers.last().expect("direct tracer pushed");
    let med = |f: fn(&JobRecord) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    out.metric("server.submit_ms", med(|j| j.submit_s * 1e3), "ms");
    out.metric("server.queue_wait_ms", med(|j| j.queue_s * 1e3), "ms");
    out.metric("server.run_ms", med(|j| j.run_s * 1e3), "ms");
    out.metric("server.fetch_ms", med(|j| j.fetch_s * 1e3), "ms");
    out.metric(
        "server.requests_per_job",
        jobs.iter().map(|j| f64::from(j.requests)).sum::<f64>() / jobs.len().max(1) as f64,
        "count",
    );
    out.metric(
        "server.overhead_ms",
        percentile(&latency_ms, 50.0) - direct_ms,
        "ms",
    );
    let traced_jobs = jobs.iter().filter(|j| j.traced).count().max(1) as f64;
    let job_self: f64 = tracers[..tracers.len() - 1]
        .iter()
        .map(|t| t.self_time("server.job"))
        .sum();
    out.metric("server.job.self_ms", job_self * 1e3 / traced_jobs, "ms");
    out.metric("server.rejected", rejected as f64, "count");
    out.metric("server.failed", failed as f64, "count");
    out.metric("server.direct_ms", direct_ms, "ms");
    out.metric("maps.generate_s", direct_tracer.total("maps.generate"), "s");
    out.metric(
        "flow.synthesize_s",
        direct_tracer.total("flow.synthesize"),
        "s",
    );
    out.metric(
        "flow.decompose_s",
        direct_tracer.total("flow.decompose"),
        "s",
    );
    out.metric("sim.build_s", direct_tracer.total("sim.build"), "s");
    if let Some(st) = &stepped {
        step_metrics(&mut out, &[(0, st)], direct_tracer);
        counter_metrics(&mut out, st);
    }
    let split = |traced: bool| {
        median(
            &jobs
                .iter()
                .filter(|j| j.traced == traced)
                .map(|j| j.latency_s)
                .collect::<Vec<_>>(),
        )
    };
    let plain = split(false);
    out.metric(
        "trace.overhead_share",
        (split(true) - plain) / plain,
        "ratio",
    );
    let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
    out.metric("trace.spans", spans as f64, "count");
    out.metric("host.probe_ms", probe.median_ms(), "ms");
    out
}
