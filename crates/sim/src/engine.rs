//! The lifelong simulation engine: executes a synthesized design tick by
//! tick against a task stream, with rolling-horizon replanning through the
//! staged pipeline's realize stage, stall deviations, and MAPF catch-up
//! repair.
//!
//! # Event model
//!
//! Each tick `t`, in order:
//!
//! 1. **Arrivals** — the seeded [`TaskStream`] delivers this tick's tasks
//!    into per-product FIFO queues (under
//!    [`AssignPolicy::Auction`](crate::AssignPolicy), into the auction's
//!    pending queue instead).
//! 2. **Deviations** — the seeded [`DeviationSchedule`] freezes victims in
//!    place for a few ticks. Then **faults** — the seeded
//!    [`FaultSchedule`] breaks agents (an unbounded stall whose assigned
//!    tasks are shed back to the queue), darkens stations (no new
//!    assignments until the outage expires), and closes corridor cells
//!    (moves into them are vetoed; routes and repairs detour around).
//!    Expired faults re-open symmetrically, and every fire/expiry is a
//!    forced tick, so chaos runs elide and parallelize exactly like
//!    clean ones.
//! 3. **Assignment** (`Auction` only) — a deterministic auction matches
//!    pending tasks to idle or soon-idle agents by minimum
//!    `(BFS-distance, agent index)` bid, batches same-product tasks onto
//!    the winner, and stages leftover idle agents toward pressured
//!    stations ([`crate::assign`] states the exact cost model); matched
//!    agents receive pickup→drop *missions* that replace the window plan
//!    as their movement source.
//! 4. **Repair** — agents far enough behind their window plan get a
//!    space-time A* catch-up path planned against a reservation table of
//!    everyone else's projected trajectory (parallel fan-out, slot-indexed
//!    for determinism). Skipped under `Auction`: missions re-route
//!    themselves, and plan lag is undefined off-plan.
//! 5. **Movement** — every agent names its desired next cell (its repair
//!    path, else its mission path under `Auction`, else its window plan);
//!    a fixpoint grant pass then executes all
//!    conflict-free chains simultaneously. Grants require the target cell
//!    empty or its occupant granted away, and one grant per cell, so
//!    vertex collisions and edge swaps are impossible *by construction*
//!    regardless of how badly deviations scrambled the schedule — blocked
//!    agents simply wait and accrue lag.
//! 6. **Bookkeeping** — executed pickups debit the authoritative stock
//!    ledger and attach the oldest queued task (mission legs fire their
//!    own pickup/drop actions); executed drop-offs
//!    complete tasks and record latency; conservation
//!    (`injected == completed + in_flight + queued`) is asserted. Mission
//!    agents blocked long enough file deferred nudges, applied after the
//!    sweep (phase 8b) so wake ordering stays engine-independent.
//!
//! When the window is exhausted (or lag crosses the early-replan
//! threshold) the engine snapshots the *actual* agent states and resumes
//! the pipeline's realize stage from them
//! ([`Pipeline::realize_window`]) — deviation divergence heals at every
//! replan, and in a deviation-free run the windows concatenate to exactly
//! the one-shot realization (the differential tests pin this).
//!
//! # Event-driven stepping
//!
//! The default [`SimEngine::Event`] engine runs that tick model through a
//! time-ordered event queue instead of sweeping every agent every tick.
//! Agents whose next ticks are provably no-ops under the reference loop
//! go to sleep ([`crate::event`] states the exact contract) with a
//! wake-up — their next scheduled state change, read straight off the
//! window realization's `first_change` schedule — filed in a monotone
//! bucket queue ([`crate::queue`]); each executed tick then runs phases
//! 1–6 over the *active set* only, and when the active set is empty the
//! engine advances time directly to the next forced tick (queued event,
//! task arrival, stall firing, window boundary, or a pending replan's
//! minimum-gap expiry), bulk-accounting the skipped ticks.
//!
//! Elision is unobservable by construction: [`SimEngine::Reference`]
//! keeps the original full-sweep loop (plus the same scheduler
//! bookkeeping, run virtually, with `debug_assert`s that every sleeping
//! agent really did stay quiescent) and the differential tests pin the
//! two engines to byte-identical [`SimReport`] JSON at every repair
//! thread count.

use std::collections::VecDeque;

use wsp_core::{Pipeline, PipelineError, PipelineOptions, WspInstance};
use wsp_flow::AgentCycleSet;
use wsp_mapf::ReservationTable;
use wsp_model::{AgentState, Carry, Coord, LocationMatrix, Plan, ProductId, VertexId, NO_INDEX};
use wsp_realize::AgentSnapshot;

use crate::assign::{
    select_agent, AgentBid, AssignConfig, AssignPolicy, AuctionState, ClosedSet, Leg, LegAction,
    Mission, MissionKind, PendingTask, RouteWork, SiteField,
};
use crate::deviation::{
    DeviationConfig, DeviationSchedule, FaultConfig, FaultEvent, FaultSchedule, Stall, NEVER,
};
use crate::event::{self, SleepBook, SleepMode};
use crate::queue::BucketQueue;
use crate::repair::{accept_repairs, plan_repairs, RepairPath, RepairRequest};
use crate::report::{Fnv, SimCounters, SimReport};
use crate::stream::{StreamConfig, TaskStream};

/// Sentinel rejoin index for repairs that outlived their window plan: the
/// agent finishes its detour, then parks until the next replan re-anchors
/// it.
const STRAY_REJOIN: usize = usize::MAX;

// The auction's fixed tuning ([`crate::assign`] states the cost model).
/// Most tasks batched onto one agent per assignment (the first task plus
/// up to `BATCH - 1` queued same-product followers).
const BATCH: usize = 4;
/// Idle agents the rebalancer stages near each station.
const REBALANCE_PER_STATION: u32 = 2;
/// Station-pressure weight: each already-assigned undelivered task at a
/// station adds this many BFS steps to its bid, spreading load.
const STATION_BIAS: u32 = 8;
/// Ticks a mission agent stays blocked before nudging a parked blocker
/// into a drift walk.
const YIELD_AFTER: u32 = 2;
/// Ticks blocked before a task mission reroutes around the contested cell
/// (repositioning missions give up and park instead).
const REROUTE_AFTER: u32 = 8;

/// The task-assignment policy's runtime state, built once from
/// `config.assign.policy` and owned by the engine for its lifetime: every
/// policy test reads this value, and phases borrow the auction state in
/// place beside the engine's other fields.
#[derive(Debug)]
enum Dispatch {
    /// [`AssignPolicy::Static`]: one FIFO of arrival ticks per product;
    /// tasks attach to whichever agent's window plan executes a matching
    /// pickup.
    Static { queues: Vec<VecDeque<u64>> },
    /// [`AssignPolicy::Auction`]: the pending queue, missions,
    /// reservations and route scratch.
    Auction(Box<AuctionState>),
}

impl Dispatch {
    fn is_static(&self) -> bool {
        matches!(self, Dispatch::Static { .. })
    }

    fn auction(&self) -> Option<&AuctionState> {
        match self {
            Dispatch::Static { .. } => None,
            Dispatch::Auction(auc) => Some(auc),
        }
    }

    /// Records that an assignment input changed, so the next auction pass
    /// must really run. A no-op under Static.
    fn mark_dirty(&mut self) {
        if let Dispatch::Auction(auc) = self {
            auc.dirty = true;
        }
    }
}

/// Configuration of the MAPF catch-up repair stage.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Master switch (off by default: deviations then heal at replans
    /// only).
    pub enabled: bool,
    /// Attempt a catch-up once an agent's lag reaches this many ticks.
    pub lag_threshold: usize,
    /// Rejoin target: the plan cell `lag + slack` indices ahead of the
    /// cursor; the detour must arrive within `slack` ticks (the schedule
    /// recovered in full).
    pub slack: usize,
    /// How far ahead (ticks) other agents' trajectories are projected
    /// into the reservation table the catch-up searches plan against (the
    /// searches themselves are capped at `slack`, the arrival budget).
    pub lookahead: usize,
    /// Per-agent ticks between repair attempts.
    pub cooldown: u64,
    /// Most catch-up searches per tick; when more agents are eligible,
    /// the deepest-lagged (ties: lowest agent index) go first and the rest
    /// retry next tick. Bounds repair cost on convoy pile-ups with
    /// thousands of lagged agents.
    pub max_batch: usize,
    /// Worker threads for the A* fan-out (`None`: `WSP_THREADS`, then
    /// available parallelism). Results are byte-identical at any count.
    pub threads: Option<usize>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            enabled: false,
            lag_threshold: 4,
            slack: 6,
            lookahead: 96,
            cooldown: 8,
            max_batch: 16,
            threads: None,
        }
    }
}

/// Which stepping core drives the simulation. Both produce byte-identical
/// [`SimReport`] JSON for identical `(instance, config)` at every repair
/// thread count — the differential tests pin this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Event-driven (the default): quiescent agents sleep on a bucket
    /// queue, fully quiescent ticks are skipped outright, and each
    /// executed tick sweeps only the active set.
    #[default]
    Event,
    /// The original full-sweep tick loop, kept as the oracle for the
    /// event engine (it still runs the scheduler bookkeeping virtually so
    /// the event counters match).
    Reference,
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Rolling-horizon window length in ticks (`0`: twice the design's
    /// cycle time, at least 32).
    pub window: usize,
    /// Ticks [`Simulation::run`] executes.
    pub ticks: u64,
    /// The task arrival stream.
    pub stream: StreamConfig,
    /// The task-assignment layer ([`AssignPolicy::Static`] by default —
    /// the seed pickup-attach behavior, bit-for-bit).
    pub assign: AssignConfig,
    /// The stall-deviation process.
    pub deviations: DeviationConfig,
    /// The structural fault-injection process (agent breakdowns, station
    /// outages, corridor closures; all streams off by default). Enabling
    /// any stream also turns on the report's fault counters.
    pub faults: FaultConfig,
    /// The MAPF catch-up repair stage.
    pub repair: RepairConfig,
    /// Replan early once any agent's lag reaches this (`0`: replan at
    /// window boundaries only).
    pub replan_lag: usize,
    /// Minimum ticks between early replans (boundary replans are exempt).
    pub min_replan_gap: u64,
    /// Record the executed trajectories as a [`Plan`] (for the
    /// differential tests; costs O(agents × ticks) memory — and makes
    /// elided ticks cost O(agents) each, since their unchanged states
    /// still get recorded).
    pub record: bool,
    /// The stepping core (event-driven by default).
    pub engine: SimEngine,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            window: 0,
            ticks: 1_000,
            stream: StreamConfig::default(),
            assign: AssignConfig::default(),
            deviations: DeviationConfig::default(),
            faults: FaultConfig::default(),
            repair: RepairConfig::default(),
            replan_lag: 0,
            min_replan_gap: 8,
            record: false,
            engine: SimEngine::default(),
        }
    }
}

/// Ways a simulation can fail to build or step.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The staged pipeline failed (synthesis, decomposition, or a window
    /// realization).
    Pipeline(PipelineError),
    /// The design has no agents to simulate.
    NoAgents,
    /// The configuration is inconsistent with the instance (e.g. the task
    /// mix demands products outside the catalog).
    BadConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Pipeline(e) => write!(f, "pipeline: {e}"),
            SimError::NoAgents => f.write_str("design has no agents"),
            SimError::BadConfig(detail) => write!(f, "bad sim config: {detail}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for SimError {
    fn from(e: PipelineError) -> Self {
        SimError::Pipeline(e)
    }
}

/// The lifelong simulator. Borrows the instance; owns everything else,
/// including the [`Pipeline`] whose realize scratch serves every window
/// replan — steady-state ticks are allocation-light (only window plans and
/// task bookkeeping allocate).
#[derive(Debug)]
pub struct Simulation<'a> {
    instance: &'a WspInstance,
    cycles: AgentCycleSet,
    pipeline: Pipeline,
    config: SimConfig,
    window_len: usize,

    stream: TaskStream,
    deviations: DeviationSchedule,
    stall_buf: Vec<Stall>,
    faults: FaultSchedule,
    fault_buf: Vec<FaultEvent>,

    // Fault state. A station is dark while `t < dark_until[q]`
    // (`dark_active` counts the currently dark ones); a vertex is closed
    // while `t < closed_until[v]`, with `closed_cells` listing exactly
    // the currently closed cells so expiry and repair scans stay
    // O(closures), never O(vertices). Breakdowns need no state of their
    // own: they ride the stall machinery (`stall_until`, with `NEVER`
    // for permanent losses).
    dark_until: Vec<u64>,
    dark_active: usize,
    closed_until: Vec<u64>,
    closed_cells: Vec<VertexId>,

    // Authoritative stock ledger (debited by *executed* pickups) and the
    // clone handed to each window realization.
    ledger: LocationMatrix,
    plan_ledger: LocationMatrix,

    // Current window plan; `window_start + cursor` is an agent's scheduled
    // absolute tick when on time.
    window_plan: Plan,
    window_start: u64,

    // Per-agent runtime state.
    pos: Vec<VertexId>,
    carry: Vec<Option<ProductId>>,
    cycle_of: Vec<usize>,
    step_of: Vec<usize>,
    advance_t: Vec<i64>,
    cursor: Vec<usize>,
    stall_until: Vec<u64>,
    attached: Vec<Option<u64>>,
    repair: Vec<Option<RepairPath>>,
    repair_cooldown_until: Vec<u64>,

    // Dense per-vertex occupancy plus per-tick movement scratch, all
    // preallocated and cleared through touched lists; the tick body is
    // O(agents), independent of vertices.
    occupant: Vec<u32>,
    claimed: Vec<bool>,
    claimed_cells: Vec<u32>,
    desired: Vec<VertexId>,
    granted: Vec<bool>,
    movers: Vec<usize>,
    // Vacancy-chain worklist: per-cell FIFO of movers waiting on that
    // cell (ascending agent order), as an intrusive linked list.
    waiter_head: Vec<u32>,
    waiter_tail: Vec<u32>,
    waiter_next: Vec<u32>,
    waiter_cells: Vec<u32>,
    grant_queue: Vec<usize>,

    // Repair scratch. The reservation table is held for the simulation's
    // lifetime and cleared per repair event via its touched-list
    // `reset`, so a repair costs O(reservations projected), never the
    // O(vertices) re-init a fresh table would pay.
    requests: Vec<RepairRequest>,
    is_candidate: Vec<bool>,
    projection: Vec<VertexId>,
    repair_table: ReservationTable,

    // Event scheduler: the sleep ledger, the tick-keyed event queue, the
    // active set rebuilt each executed tick, and the current window's
    // per-agent first-change schedule from the realize stage. The
    // reference engine maintains all of it virtually (its processing
    // domain stays 0..n), which is what keeps the two engines'
    // event/elision counters byte-identical.
    sleep: SleepBook,
    queue: BucketQueue,
    active: Vec<u32>,
    due_buf: Vec<u64>,
    first_change: Vec<u32>,

    // Task-assignment policy state. `nudge_buf` defers the auction's
    // yield-nudges of parked blockers to the end of the tick so mid-sweep
    // sleep accounting stays phase-stable, and `bids` is the auction's
    // candidate scratch.
    dispatch: Dispatch,
    nudge_buf: Vec<u32>,
    bids: Vec<AgentBid>,

    t: u64,
    last_replan: u64,
    replan_requested: bool,
    counters: SimCounters,
    checksum: Fnv,
    executed: Option<Plan>,
}

impl<'a> Simulation<'a> {
    /// Builds a simulation by running the staged pipeline's synthesize and
    /// decompose stages on the instance, then realizing the first window.
    ///
    /// # Errors
    ///
    /// [`SimError::Pipeline`] if synthesis/decomposition/realization fail,
    /// [`SimError::NoAgents`] for agent-free designs,
    /// [`SimError::BadConfig`] for a task mix outside the catalog.
    pub fn new(
        instance: &'a WspInstance,
        options: &PipelineOptions,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        let mut pipeline = Pipeline::new();
        let flow = pipeline.synthesize(instance, options)?;
        let cycles = pipeline.decompose(&flow)?;
        Self::from_cycles_with_pipeline(instance, cycles.cycles, pipeline, config)
    }

    /// Builds a simulation from an explicit cycle set (e.g.
    /// [`direct_cycle_set`](crate::direct_cycle_set) on instances too
    /// large for the flow-synthesis ILP).
    ///
    /// # Errors
    ///
    /// As for [`Simulation::new`], minus the synthesis stage.
    pub fn from_cycles(
        instance: &'a WspInstance,
        cycles: AgentCycleSet,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        Self::from_cycles_with_pipeline(instance, cycles, Pipeline::new(), config)
    }

    fn from_cycles_with_pipeline(
        instance: &'a WspInstance,
        cycles: AgentCycleSet,
        pipeline: Pipeline,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        let agents = cycles.total_agents();
        if agents == 0 {
            return Err(SimError::NoAgents);
        }
        config
            .stream
            .mix
            .validate_against(instance.warehouse.catalog())
            .map_err(|e| SimError::BadConfig(e.to_string()))?;
        let snapshots = wsp_realize::initial_snapshots(&instance.traffic, &cycles)
            .map_err(|e| SimError::Pipeline(PipelineError::Realize(e)))?;
        let window_len = if config.window == 0 {
            (2 * cycles.cycle_time()).max(32)
        } else {
            config.window.max(1)
        };
        let n_vertices = instance.warehouse.graph().vertex_count();
        let n_products = instance.warehouse.catalog().len();
        let n_stations = instance.warehouse.stations().len();

        let mut occupant = vec![NO_INDEX; n_vertices];
        for (i, s) in snapshots.iter().enumerate() {
            occupant[s.pos.index()] = i as u32;
        }
        let executed = config.record.then(|| {
            let mut plan = Plan::new();
            for s in &snapshots {
                plan.add_agent(AgentState {
                    at: s.pos,
                    carry: s.carry.map_or(Carry::Empty, Carry::Product),
                });
            }
            plan
        });
        let mut checksum = Fnv::new();
        for s in &snapshots {
            checksum.write(u64::from(s.pos.0));
            checksum.write(s.carry.map_or(0, |p| u64::from(p.0) + 1));
        }

        let stream = TaskStream::new(&config.stream);
        let deviations = DeviationSchedule::new(&config.deviations, agents);
        let dispatch = match config.assign.policy {
            AssignPolicy::Static => Dispatch::Static {
                queues: (0..n_products).map(|_| VecDeque::new()).collect(),
            },
            AssignPolicy::Auction => {
                Dispatch::Auction(Box::new(AuctionState::new(&instance.warehouse, agents)))
            }
        };
        let mut sim = Simulation {
            instance,
            cycles,
            pipeline,
            window_len,
            stream,
            deviations,
            stall_buf: Vec::with_capacity(8),
            faults: FaultSchedule::new(&config.faults, agents, n_stations, n_vertices),
            fault_buf: Vec::with_capacity(8),
            dark_until: vec![0; n_stations],
            dark_active: 0,
            closed_until: vec![0; n_vertices],
            closed_cells: Vec::new(),
            ledger: instance.warehouse.location_matrix().clone(),
            plan_ledger: LocationMatrix::new(),
            window_plan: Plan::new(),
            window_start: 0,
            pos: snapshots.iter().map(|s| s.pos).collect(),
            carry: snapshots.iter().map(|s| s.carry).collect(),
            cycle_of: snapshots.iter().map(|s| s.cycle).collect(),
            step_of: snapshots.iter().map(|s| s.step).collect(),
            advance_t: snapshots.iter().map(|s| s.advance_t).collect(),
            cursor: vec![0; agents],
            stall_until: vec![0; agents],
            attached: vec![None; agents],
            repair: (0..agents).map(|_| None).collect(),
            repair_cooldown_until: vec![0; agents],
            occupant,
            claimed: vec![false; n_vertices],
            claimed_cells: Vec::with_capacity(agents),
            desired: vec![VertexId(0); agents],
            granted: vec![false; agents],
            movers: Vec::with_capacity(agents),
            waiter_head: vec![NO_INDEX; n_vertices],
            waiter_tail: vec![NO_INDEX; n_vertices],
            waiter_next: vec![NO_INDEX; agents],
            waiter_cells: Vec::with_capacity(agents),
            grant_queue: Vec::with_capacity(agents),
            requests: Vec::with_capacity(config.repair.max_batch.max(1)),
            is_candidate: vec![false; agents],
            projection: Vec::with_capacity(config.repair.lookahead + 1),
            repair_table: ReservationTable::new(n_vertices),
            sleep: SleepBook::new(agents),
            queue: BucketQueue::new(window_len),
            active: Vec::with_capacity(agents),
            due_buf: Vec::with_capacity(16),
            first_change: Vec::new(),
            dispatch,
            nudge_buf: Vec::new(),
            bids: Vec::with_capacity(agents),
            t: 0,
            last_replan: 0,
            replan_requested: false,
            counters: SimCounters::default(),
            checksum,
            executed,
            config,
        };
        sim.replan()?;
        Ok(sim)
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.t
    }

    /// The effective rolling-horizon window length.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Number of simulated agents.
    pub fn agent_count(&self) -> usize {
        self.pos.len()
    }

    /// The cycle set being executed.
    pub fn cycles(&self) -> &AgentCycleSet {
        &self.cycles
    }

    /// Live counters (the conservation invariant holds after every tick).
    /// `max_lag` folds lazily for sleeping agents under the event engine;
    /// [`report`](Self::report) compensates — compare reports, not raw
    /// counters, across engines.
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// The executed trajectories, when `config.record` was set.
    pub fn executed_plan(&self) -> Option<&Plan> {
        self.executed.as_ref()
    }

    /// The report at this instant (cheap; callable mid-run). Sleeping
    /// agents' accrued lag is folded in here without disturbing the run,
    /// so mid-run reports match across engines too.
    pub fn report(&self) -> SimReport {
        let mut counters = self.counters.clone();
        counters.max_lag = counters.max_lag.max(self.pending_sleep_lag());
        SimReport {
            agents: self.pos.len() as u64,
            vertices: self.instance.warehouse.graph().vertex_count() as u64,
            window: self.window_len as u64,
            stream_seed: self.config.stream.seed,
            deviation_seed: self.config.deviations.seed,
            policy: self.config.assign.policy,
            faults: self.config.faults.enabled(),
            trajectory_checksum: self.checksum.0,
            counters,
        }
    }

    /// Resident bytes of the auction's precomputed distance-field cache
    /// (0 under the static policy) — for bench memory accounting.
    pub fn auction_cache_bytes(&self) -> usize {
        self.dispatch.auction().map_or(0, |a| a.fields.bytes())
    }

    /// Deterministic route-work counters of the auction's path searches
    /// (all zero under the static policy). Never rendered in reports;
    /// identical at every repair thread count.
    pub fn route_work(&self) -> RouteWork {
        self.dispatch
            .auction()
            .map_or_else(RouteWork::default, |a| a.work)
    }

    /// Test hook: force the assignment pass to run on every executed
    /// tick instead of skipping provably-no-op ones. The dirty-set
    /// property test drives one simulation with the skip disabled as the
    /// always-run oracle and compares it tick for tick.
    #[doc(hidden)]
    pub fn disable_auction_dirty_skip(&mut self) {
        if let Dispatch::Auction(auc) = &mut self.dispatch {
            auc.dirty_skip = false;
        }
    }

    /// Runs until `config.ticks` and returns the final report.
    ///
    /// # Errors
    ///
    /// [`SimError::Pipeline`] if a window replan fails.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.advance_until(self.config.ticks)?;
        Ok(self.report())
    }

    /// Runs `n` more ticks (for tests that interleave assertions).
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_ticks(&mut self, n: u64) -> Result<(), SimError> {
        self.advance_until(self.t.saturating_add(n))
    }

    /// Runs to `config.ticks` like [`run`](Self::run), but supervised:
    /// between chunks of at most `chunk` simulated ticks the `control`
    /// progress counter advances by the ticks just covered (elided ticks
    /// included — progress is simulated time, monotone toward
    /// `config.ticks`) and cancellation is checked, so a cancel request is
    /// observed within one chunk of simulated work.
    ///
    /// Chunking is unobservable in the result: the engine's stepping is
    /// exactly resumable (this is the same entry point
    /// [`run_ticks`](Self::run_ticks) uses), so an uncancelled supervised
    /// run returns a report byte-identical to [`run`](Self::run). A
    /// cancelled run returns the report at the point it stopped — still a
    /// valid mid-run report, but callers (e.g. the `wsp-server` job
    /// engine) typically discard it.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_controlled(
        &mut self,
        control: &wsp_core::RunControl,
        chunk: u64,
    ) -> Result<SimReport, SimError> {
        let chunk = chunk.max(1);
        while self.t < self.config.ticks && !control.is_cancelled() {
            let target = self.config.ticks.min(self.t.saturating_add(chunk));
            let before = self.t;
            self.advance_until(target)?;
            control.add_progress(self.t - before);
        }
        Ok(self.report())
    }

    /// Advances simulated time to `until`, executing forced ticks and
    /// (under the event engine) skipping provably quiescent stretches.
    fn advance_until(&mut self, until: u64) -> Result<(), SimError> {
        while self.t < until {
            if self.sleep.sleeping == self.pos.len() {
                let forced = self.next_forced_tick();
                if forced > self.t {
                    match self.config.engine {
                        SimEngine::Event => {
                            self.elide_to(forced.min(until));
                            continue;
                        }
                        // The reference engine executes the tick anyway
                        // and only keeps the elision ledger honest.
                        SimEngine::Reference => self.counters.ticks_elided += 1,
                    }
                }
            }
            self.step_executed()?;
        }
        Ok(())
    }

    /// The earliest tick at or after `self.t` that must be executed: the
    /// window-boundary tick, the next task arrival, the next stall or
    /// fault firing, the next outage/closure expiry, the next queued
    /// wake-up / crossing check, and — while a replan is pending
    /// (requested by a stray rejoin or held open by a frozen sleeper
    /// past its lag crossing) — the tick the minimum replan gap expires.
    fn next_forced_tick(&self) -> u64 {
        let mut forced = self.window_start + self.window_len as u64 - 1;
        if let Some(t) = self.stream.next_arrival() {
            forced = forced.min(t);
        }
        if let Some(t) = self.deviations.next_fire() {
            forced = forced.min(t);
        }
        if let Some(t) = self.faults.next_fire() {
            forced = forced.min(t);
        }
        // Fault expiries must execute: a re-opened station or corridor
        // changes assignment and routing outcomes on that very tick.
        // (Breakdown recoveries ride the stall wake-ups in the queue.)
        if self.dark_active > 0 {
            for &u in &self.dark_until {
                if u > self.t {
                    forced = forced.min(u);
                }
            }
        }
        for &v in &self.closed_cells {
            let u = self.closed_until[v.index()];
            if u > self.t {
                forced = forced.min(u);
            }
        }
        if self.replan_requested || self.sleep.frozen_over_replan > 0 {
            let gap = (self.last_replan + self.config.min_replan_gap).saturating_sub(1);
            forced = forced.min(gap);
        }
        if let Some(t) = self.queue.next_event(self.t, forced) {
            forced = forced.min(t);
        }
        forced.max(self.t)
    }

    /// Skips `target - t` fully quiescent ticks in O(1) per counter
    /// (plus O(agents) per tick when recording): every agent waits,
    /// sleeping carriers keep carrying, nothing else can change.
    fn elide_to(&mut self, target: u64) {
        let n = self.pos.len() as u64;
        let k = target - self.t;
        self.counters.ticks += k;
        self.counters.ticks_elided += k;
        self.counters.waits += k * n;
        self.counters.carrying_ticks += k * self.sleep.sleeping_carriers;
        if let Some(plan) = self.executed.as_mut() {
            for _ in 0..k {
                for a in 0..n as usize {
                    plan.push_state(
                        a,
                        AgentState {
                            at: self.pos[a],
                            carry: self.carry[a].map_or(Carry::Empty, Carry::Product),
                        },
                    );
                }
            }
        }
        self.t = target;
    }

    /// Largest lag any *sleeping* agent has analytically accrued up to
    /// (not including) tick `self.t`. Sleep lag is non-decreasing, so the
    /// peak is the latest value; folding this at replans and into
    /// [`report`](Self::report) reproduces exactly what the reference
    /// sweep folds tick by tick. Under the auction policy agents don't
    /// follow the window plan, so plan lag is meaningless and `max_lag`
    /// stays 0 by contract.
    fn pending_sleep_lag(&self) -> u64 {
        if self.sleep.sleeping == 0 || !self.dispatch.is_static() {
            return 0;
        }
        let elapsed = self.t.saturating_sub(self.window_start) as usize;
        let mut worst = 0usize;
        for a in 0..self.pos.len() {
            if !self.sleep.is_awake(a) {
                let settled = self.sleep.settled_cursor(a, self.t, self.window_len);
                worst = worst.max(elapsed.saturating_sub(settled));
            }
        }
        worst as u64
    }

    /// Pops every event due at tick `t`. Valid wake-ups re-activate their
    /// agent (the event engine materializes the settled cursor; the
    /// reference engine asserts it matches the truth); valid crossing
    /// checks flip the frozen sleeper's over-replan flag. Stale payloads
    /// (sequence mismatch) pop silently.
    fn pop_due_events(&mut self, t: u64) {
        let mut due = std::mem::take(&mut self.due_buf);
        self.queue.drain_due(t, |payload| due.push(payload));
        for payload in due.drain(..) {
            let (is_check, a, seq) = event::unpack(payload);
            if self.sleep.is_awake(a) || self.sleep.seq(a) != seq {
                continue;
            }
            if is_check {
                if self.sleep.mode(a) == SleepMode::Frozen && self.sleep.mark_over_replan(a) {
                    self.counters.events_processed += 1;
                }
            } else {
                self.wake(a, t);
                self.counters.events_processed += 1;
            }
        }
        self.due_buf = due;
    }

    /// Wakes `agent` at tick `t`, settling its cursor and banking the
    /// lag peak its sleep accrued (the reference sweep folded it tick by
    /// tick; sleep lag is monotone, so the final value is the peak — and
    /// it must be banked *here* because the wake tick's own fold skips
    /// the agent if a repair gets spliced onto it this very tick).
    fn wake(&mut self, agent: usize, t: u64) {
        let settled = self.sleep.settled_cursor(agent, t, self.window_len);
        match self.config.engine {
            SimEngine::Event => self.cursor[agent] = settled,
            SimEngine::Reference => debug_assert_eq!(
                settled, self.cursor[agent],
                "virtual sleep of agent {agent} diverged from the reference sweep at t={t}"
            ),
        }
        // Only plan followers accrue lag; auction agents run missions.
        if self.dispatch.is_static() {
            let elapsed = t.saturating_sub(self.window_start) as usize;
            let slept_lag = elapsed.saturating_sub(settled) as u64;
            self.counters.max_lag = self.counters.max_lag.max(slept_lag);
        }
        self.sleep.wake(agent, self.carry[agent].is_some());
        self.granted[agent] = false;
        // A wake changes the eligible pool.
        self.dispatch.mark_dirty();
    }

    /// Settles every sleeping agent's cursor in place (without waking)
    /// so an outside observer — the repair projector — sees current
    /// state. Queued wake-ups stay valid.
    fn settle_sleepers(&mut self, t: u64) {
        if self.sleep.sleeping == 0 {
            return;
        }
        for a in 0..self.pos.len() {
            if !self.sleep.is_awake(a) {
                let settled = self.sleep.rebase(a, t, self.window_len);
                match self.config.engine {
                    SimEngine::Event => self.cursor[a] = settled,
                    SimEngine::Reference => debug_assert_eq!(
                        settled, self.cursor[a],
                        "virtual sleep of agent {a} diverged at repair projection, t={t}"
                    ),
                }
            }
        }
    }

    /// Whether `agent`'s position matches its window-plan cursor cell (the
    /// precondition for following the plan).
    fn aligned(&self, agent: usize) -> bool {
        self.window_plan
            .state(agent, self.cursor[agent])
            .is_some_and(|s| s.at == self.pos[agent])
    }

    fn component_of(&self, v: VertexId) -> Option<wsp_traffic::ComponentId> {
        self.instance.traffic.component_of(v)
    }

    /// Snapshot the *actual* runtime state and realize the next window
    /// from it through the pipeline's realize stage.
    fn replan(&mut self) -> Result<(), SimError> {
        let t = self.t;
        // Sleep lag folds lazily; bank the accrued peak before the replan
        // wipes the ledger (cursors need no materializing — they reset to
        // zero below and the snapshots don't read them).
        self.counters.max_lag = self.counters.max_lag.max(self.pending_sleep_lag());
        self.sleep.reset();
        self.queue.clear(t);
        // Under the auction policy agents execute missions instead of the
        // window plan, so the realize stage is told to treat every agent
        // as detached: the window realizes with all of them parked as
        // static obstacles and the replan machinery (boundary cadence,
        // ledger snapshots, counters) keeps running unchanged. The replan
        // wakes every agent (sleep ledger reset), which changes the
        // auction's eligible pool.
        let detached = !self.dispatch.is_static();
        self.dispatch.mark_dirty();
        let snapshots: Vec<AgentSnapshot> = (0..self.pos.len())
            .map(|a| AgentSnapshot {
                cycle: self.cycle_of[a],
                step: self.step_of[a],
                pos: self.pos[a],
                carry: self.carry[a],
                advance_t: self.advance_t[a],
                detached,
            })
            .collect();
        self.plan_ledger.clone_from(&self.ledger);
        let out = self.pipeline.realize_window(
            self.instance,
            &self.cycles,
            t as usize,
            self.window_len,
            &snapshots,
            &mut self.plan_ledger,
        )?;
        self.window_plan = out.plan;
        self.first_change = out.first_change;
        self.window_start = t;
        self.cursor.fill(0);
        self.last_replan = t;
        self.replan_requested = false;
        self.counters.replans += 1;
        self.counters.events_processed += 1;
        // Repairs of on-component agents are healed by the replan itself;
        // off-component agents keep their detour but now rejoin as strays
        // (park until the next replan re-anchors them).
        for a in 0..self.pos.len() {
            if self.repair[a].is_none() {
                continue;
            }
            let comp = self.cycles.cycles()[self.cycle_of[a]].steps()[self.step_of[a]].component;
            let on_component = self
                .instance
                .traffic
                .locate(self.pos[a])
                .is_some_and(|(owner, _)| owner == comp);
            if on_component {
                self.repair[a] = None;
            } else if let Some(r) = self.repair[a].as_mut() {
                r.rejoin_cursor = STRAY_REJOIN;
            }
        }
        Ok(())
    }

    /// Advances one tick (which the event engine may elide outright when
    /// every agent is asleep and nothing is scheduled — observable state
    /// is identical either way).
    ///
    /// # Errors
    ///
    /// [`SimError::Pipeline`] if the tick ends on a window boundary and
    /// the replan fails.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.advance_until(self.t + 1)
    }

    /// Executes one tick for real: both engines share this body, the only
    /// difference being the processing domain (`active`) it sweeps —
    /// the awake set under [`SimEngine::Event`], every agent under
    /// [`SimEngine::Reference`].
    fn step_executed(&mut self) -> Result<(), SimError> {
        let t = self.t;
        let n = self.pos.len();
        let reference = self.config.engine == SimEngine::Reference;

        // 0. Scheduler: pop due wake-ups and crossing checks.
        self.pop_due_events(t);

        // 1. Arrivals. Under the auction policy tasks land in the global
        // assignment queue instead of the per-product execution queues.
        for task in self.stream.arrivals_at(t) {
            match &mut self.dispatch {
                Dispatch::Static { queues } => {
                    queues[task.product.index()].push_back(task.arrival);
                }
                Dispatch::Auction(auc) => {
                    auc.pending.push_back(PendingTask {
                        product: task.product,
                        arrival: task.arrival,
                    });
                    auc.dirty = true;
                }
            }
            self.counters.injected += 1;
            self.counters.queued += 1;
            self.counters.events_processed += 1;
        }

        // 2. Deviations. A stall ends a victim's sleep: its remaining
        // ticks would no longer be cursor-advancing no-ops.
        self.stall_buf.clear();
        let buf = &mut self.stall_buf;
        self.deviations.fire_at(t, |s| buf.push(s));
        for i in 0..self.stall_buf.len() {
            let s = self.stall_buf[i];
            let until = t + u64::from(s.ticks);
            self.stall_until[s.agent] = self.stall_until[s.agent].max(until);
            self.counters.stalls_injected += 1;
            self.counters.stall_ticks_injected += u64::from(s.ticks);
            self.counters.events_processed += 1;
            // Eligibility (`t >= stall_until`) just changed.
            self.dispatch.mark_dirty();
            if !self.sleep.is_awake(s.agent) {
                self.wake(s.agent, t);
            }
        }

        // 2f. Structural faults: expire elapsed outages and closures
        // first (a resource with `until == t` is open *at* `t`, the
        // stall convention), then fire this tick's seeded fault events.
        // Fires and expiries land only on forced ticks and are applied
        // identically by both engines, which is what keeps elision and
        // the auction's dirty-set skip sound with chaos on.
        if self.config.faults.enabled() {
            self.expire_faults(t);
            self.fault_buf.clear();
            let buf = &mut self.fault_buf;
            self.faults.fire_at(t, |e| buf.push(e));
            for i in 0..self.fault_buf.len() {
                let e = self.fault_buf[i];
                self.apply_fault(e, t);
            }
        }

        // 2c. Auction task assignment (both engines, identically: its
        // decisions are a pure function of the queue and agent states).
        // Runs before the active set is built so fresh assignees are
        // swept — and can move — this very tick. Skipped outright when
        // the pass is provably a no-op (see [`Self::auction_phase_skippable`]):
        // this is what makes quiet stretches O(dirty work) instead of
        // O(ticks), and — with every idle agent asleep — lets the event
        // engine elide them entirely.
        if !self.auction_phase_skippable() {
            self.run_assignment(t);
        }

        // 2b. The processing domain: awake agents (ascending), or every
        // agent under the reference sweep. Either way the *active* count
        // this tick is agents-minus-sleepers.
        self.active.clear();
        if reference {
            self.active.extend(0..n as u32);
        } else {
            for a in 0..n {
                if self.sleep.is_awake(a) {
                    self.active.push(a as u32);
                }
            }
            debug_assert_eq!(self.active.len(), n - self.sleep.sleeping);
        }
        self.counters.active_agent_ticks += (n - self.sleep.sleeping) as u64;

        // 3. MAPF catch-up repair. Auction agents don't follow the
        // window plan, so there is no schedule to catch up to — the
        // candidate filter would reject everyone anyway; skip the scan.
        if self.config.repair.enabled && self.dispatch.is_static() {
            self.try_repairs(t);
        }

        // 4. Desired moves.
        self.movers.clear();
        for cell in self.claimed_cells.drain(..) {
            self.claimed[cell as usize] = false;
        }
        for i in 0..self.active.len() {
            let a = self.active[i] as usize;
            self.granted[a] = false;
            let d = if t < self.stall_until[a] {
                self.pos[a]
            } else if let Dispatch::Auction(auc) = &self.dispatch {
                // Mission route next hop; idle auction agents park.
                auc.missions[a]
                    .as_ref()
                    .map_or(self.pos[a], |m| m.desired(self.pos[a]))
            } else if let Some(r) = &self.repair[a] {
                if r.at + 1 < r.path.len() {
                    r.path[r.at + 1]
                } else {
                    self.pos[a]
                }
            } else if self.aligned(a) && self.cursor[a] < self.window_len {
                self.window_plan
                    .state(a, self.cursor[a] + 1)
                    .expect("cursor below horizon")
                    .at
            } else {
                self.pos[a]
            };
            // A move into a closed corridor cell is vetoed into a wait:
            // missions hit their blocked → reroute → wedge path, plan
            // followers lag and catch up via repair or replan. The gate
            // only ever turns moves into stays — stationary (and so
            // sleeping) agents are untouched, which keeps every sleep
            // contract intact.
            let d = if d != self.pos[a] && self.closed_until[d.index()] > t {
                self.pos[a]
            } else {
                d
            };
            self.desired[a] = d;
            if reference && !self.sleep.is_awake(a) {
                // Oracle check: a virtually sleeping agent must be
                // exactly as quiescent as its sleep mode promised.
                debug_assert_eq!(
                    d, self.pos[a],
                    "virtually sleeping agent {a} wanted to move at t={t}"
                );
            }
            if d != self.pos[a] {
                self.movers.push(a);
            }
        }

        // 5. Vacancy-chain grants, O(movers): a move is granted when its
        // target is unclaimed and either empty or freed by another granted
        // move. Movers into occupied cells register as waiters on the
        // cell; every grant then wakes the lowest-indexed waiter of the
        // freed cell, so convoy chains thousands of agents long resolve in
        // one linear sweep instead of a quadratic fixpoint. Pure cycles
        // (incl. head-on swaps) can never self-activate, so only
        // conflict-free chains execute — collision freedom by
        // construction, at any deviation load.
        for cell in self.waiter_cells.drain(..) {
            self.waiter_head[cell as usize] = NO_INDEX;
            self.waiter_tail[cell as usize] = NO_INDEX;
        }
        self.grant_queue.clear();
        for &a in &self.movers {
            let v = self.desired[a];
            let vi = v.index();
            if self.claimed[vi] {
                // Already granted away to an earlier mover: dead this tick.
                continue;
            }
            if self.occupant[vi] == NO_INDEX {
                self.granted[a] = true;
                self.claimed[vi] = true;
                self.claimed_cells.push(v.0);
                self.grant_queue.push(a);
            } else {
                // Waiter on an occupied cell, appended in ascending agent
                // order (movers are scanned ascending).
                self.waiter_next[a] = NO_INDEX;
                if self.waiter_head[vi] == NO_INDEX {
                    self.waiter_head[vi] = a as u32;
                    self.waiter_cells.push(v.0);
                } else {
                    self.waiter_next[self.waiter_tail[vi] as usize] = a as u32;
                }
                self.waiter_tail[vi] = a as u32;
            }
        }
        let mut qi = 0;
        while qi < self.grant_queue.len() {
            let a = self.grant_queue[qi];
            qi += 1;
            let freed = self.pos[a];
            let head = self.waiter_head[freed.index()];
            if head != NO_INDEX && !self.claimed[freed.index()] {
                let b = head as usize;
                self.granted[b] = true;
                self.claimed[freed.index()] = true;
                self.claimed_cells.push(freed.0);
                self.grant_queue.push(b);
            }
        }

        // 6. Apply moves (vacate first, then occupy, so chains are safe).
        for &a in &self.movers {
            if self.granted[a] {
                self.occupant[self.pos[a].index()] = NO_INDEX;
            }
        }
        for &a in &self.movers {
            if self.granted[a] {
                self.occupant[self.desired[a].index()] = a as u32;
            }
        }

        // 7. Per-agent advancement, events, counters, and the per-change
        // trajectory checksum (ascending agent order keeps the digest
        // canonical; agents outside the domain can contribute no change
        // by construction, so the two engines write identical streams).
        let mut max_lag = 0u64;
        for i in 0..self.active.len() {
            let a = self.active[i] as usize;
            let old = self.pos[a];
            let old_carry = self.carry[a];
            let moved = self.granted[a];
            if moved {
                self.pos[a] = self.desired[a];
                self.counters.moves += 1;
            } else {
                self.counters.waits += 1;
            }

            if t < self.stall_until[a] {
                // Frozen: no cursor/repair/mission progress, no events.
            } else if !self.dispatch.is_static() {
                self.step_mission(a, old, moved, t);
            } else if self.repair[a].is_some() {
                let done = {
                    let r = self.repair[a].as_mut().expect("checked");
                    let wanted_wait = r.at + 1 >= r.path.len() || r.path[r.at + 1] == old;
                    if moved || wanted_wait {
                        r.at = (r.at + 1).min(r.path.len() - 1);
                    }
                    r.at + 1 >= r.path.len() && self.pos[a] == *r.path.last().expect("non-empty")
                };
                if done {
                    let rejoin = self.repair[a].as_ref().expect("checked").rejoin_cursor;
                    self.repair[a] = None;
                    self.counters.events_processed += 1;
                    if rejoin == STRAY_REJOIN {
                        // Parked off-plan; ask for a replan to re-anchor.
                        self.replan_requested = true;
                    } else {
                        self.cursor[a] = rejoin;
                    }
                }
            } else if let Some(cur) = self.window_plan.state(a, self.cursor[a]) {
                if cur.at == old && self.cursor[a] < self.window_len {
                    let next = self
                        .window_plan
                        .state(a, self.cursor[a] + 1)
                        .expect("below horizon");
                    let advanced = next.at == old || moved;
                    if advanced {
                        self.apply_carry_event(a, cur.carry, next.carry, old, t);
                        if next.at != old {
                            let hop = self.component_of(next.at) != self.component_of(old);
                            if hop {
                                let len = self.cycles.cycles()[self.cycle_of[a]].steps().len();
                                self.step_of[a] = (self.step_of[a] + 1) % len;
                                self.advance_t[a] = (t + 1) as i64;
                            }
                        }
                        self.cursor[a] += 1;
                    }
                }
            }

            if self.carry[a].is_some() {
                self.counters.carrying_ticks += 1;
            }
            // Lag of plan-following agents (repairing/stray agents are
            // re-anchored by rejoin or replan instead; auction agents
            // don't follow the plan at all, so their lag is undefined
            // and `max_lag` stays 0 by contract). Sleeping agents are
            // absent here under the event engine; their (monotone) lag
            // folds at wake-up, replan, or report time instead.
            if self.dispatch.is_static() && self.repair[a].is_none() {
                let scheduled = (t + 1).saturating_sub(self.window_start) as usize;
                let lag = scheduled.saturating_sub(self.cursor[a]) as u64;
                max_lag = max_lag.max(lag);
            }
            // Checksum the state *change*, if any, at t + 1. Quiescent
            // agents write nothing, which is exactly what lets elided
            // ticks leave the digest untouched.
            if self.pos[a] != old || self.carry[a] != old_carry {
                self.checksum.write(((t + 1) << 21) | a as u64);
                self.checksum.write(
                    (u64::from(self.pos[a].0) << 32)
                        | self.carry[a].map_or(0, |p| u64::from(p.0) + 1),
                );
            }
        }
        self.counters.max_lag = self.counters.max_lag.max(max_lag);

        // 8. Sleeping agents under the event engine: bulk-account their
        // waits and carries; record everyone at t + 1 when asked to.
        if !reference && self.sleep.sleeping > 0 {
            self.counters.waits += self.sleep.sleeping as u64;
            self.counters.carrying_ticks += self.sleep.sleeping_carriers;
        }
        if let Some(plan) = self.executed.as_mut() {
            for a in 0..n {
                plan.push_state(
                    a,
                    AgentState {
                        at: self.pos[a],
                        carry: self.carry[a].map_or(Carry::Empty, Carry::Product),
                    },
                );
            }
        }

        self.counters.ticks += 1;
        debug_assert!(
            self.counters.conserved(),
            "task conservation violated at t={}: {} injected != {} completed + {} in flight + {} queued",
            t,
            self.counters.injected,
            self.counters.completed,
            self.counters.in_flight,
            self.counters.queued,
        );

        // 8b. Apply deferred yield-nudges: blocked mission agents asked
        // parked blockers to drift clear. Applied here — after the
        // sweep's wait/carry accounting — so waking a sleeping blocker
        // cannot skew this tick's bulk bookkeeping; the buffer order is
        // the sweep's ascending blocked-agent order, identical under
        // both engines (only mission agents, always awake, file nudges).
        if !self.nudge_buf.is_empty() {
            self.apply_nudges(t);
        }

        // 9. Window boundary / early replan (boundaries are mandatory;
        // early replans respect the minimum gap). The frozen-crossing
        // count stands in for sleeping agents whose lag passed the
        // threshold — the awake sweep would have seen exactly them.
        self.t = t + 1;
        let boundary = (self.t - self.window_start) as usize >= self.window_len;
        let early = (self.replan_requested
            || (self.config.replan_lag > 0 && max_lag as usize >= self.config.replan_lag)
            || self.sleep.frozen_over_replan > 0)
            && self.t - self.last_replan >= self.config.min_replan_gap;
        if boundary || early {
            self.replan()?;
        } else {
            // 10. Sleep decisions for the agents just processed (under
            // the reference sweep this books the sleep virtually; agents
            // stay in the domain). After a replan everyone stays awake
            // for the fresh window's first tick instead.
            for i in 0..self.active.len() {
                let a = self.active[i] as usize;
                if self.sleep.is_awake(a) {
                    if self.dispatch.is_static() {
                        self.maybe_sleep(a);
                    } else {
                        self.maybe_sleep_auction(a);
                    }
                }
            }
        }
        Ok(())
    }

    /// Auction assignment phase, run identically by both engines at the
    /// top of every executed tick: one rotation over the pending queue
    /// matching each task to its cheapest `(station, site)` pair and the
    /// nearest eligible agent, with same-product batching; then, when
    /// the queue is drained and an agent just went idle, an idle-
    /// rebalance pass staging agents near high-pressure stations.
    ///
    /// Everything here is a pure index-deterministic function of the
    /// queue, the agent states, and the tick: candidate order is agent
    /// order, winners come from [`select_agent`]'s `(cost, agent)`
    /// minimum, and unassignable tasks rotate to the queue's back in
    /// arrival order. No wall clock, no thread count — and no per-tick
    /// work caps, so elided quiescent stretches provably contain no
    /// assignment the reference sweep would have made (see
    /// [`maybe_sleep_auction`](Self::maybe_sleep_auction) and the
    /// dirty-set skip in [`auction_phase_skippable`](Self::auction_phase_skippable)).
    ///
    /// On exit the pass records whether it was *clean* — committed
    /// nothing and left the queue in arrival order (a full dry rotation
    /// or an immediate no-eligible-agents bail) — which, with the dirty
    /// flag staying clear, licenses skipping the next pass outright.
    /// Winners asleep at commit time wake once the pass is done (the pass
    /// reads no sleep state, and a commit already makes it unclean).
    fn run_assignment(&mut self, t: u64) {
        let Dispatch::Auction(auc) = &mut self.dispatch else {
            return;
        };
        let route_cap = self.config.assign.route_cap;
        let graph = self.instance.warehouse.graph();
        let n = self.pos.len();
        let (stall_until, carry) = (&self.stall_until, &self.carry);
        let dark = ClosedSet {
            until: &self.dark_until,
            t,
        };
        let closed = ClosedSet {
            until: &self.closed_until,
            t,
        };
        // The rebalancer's idle pool: mission-less, unstaged, unstalled,
        // empty-handed agents.
        let idle = |auc: &AuctionState, a: usize| {
            auc.missions[a].is_none()
                && auc.staged_of[a].is_none()
                && t >= stall_until[a]
                && carry[a].is_none()
        };
        let mut woken = Vec::new();
        auc.dirty = false;
        let mut rotations = 0usize;
        let mut committed = false;

        let mut rounds = auc.pending.len();
        'tasks: while rounds > 0 {
            rounds -= 1;
            let Some(&task) = auc.pending.front() else {
                break;
            };
            let Some((q, site)) = auc.pick_station_site(task.product, STATION_BIAS, dark) else {
                // No stocked, field-reachable site right now: rotate the
                // task to the back and look at the next one.
                auc.pending.rotate_left(1);
                rotations += 1;
                continue;
            };
            // The nearest eligible agent by undirected BFS distance from
            // the pickup site, probing escalating neighbourhood caps so
            // the common case never scans the whole floor; each
            // escalation resumes the previous cap's frontier instead of
            // re-running the BFS from scratch.
            self.bids.clear();
            let mut probe = None;
            for cap in [32u32, 128, 512, u32::MAX] {
                match probe.as_mut() {
                    None => {
                        probe = Some(graph.bfs_bounded_begin(
                            site,
                            cap,
                            &mut auc.probe_dist,
                            &mut auc.probe_touched,
                        ));
                    }
                    Some(cursor) => graph.bfs_bounded_resume(
                        cursor,
                        cap,
                        &mut auc.probe_dist,
                        &mut auc.probe_touched,
                    ),
                }
                self.bids.clear();
                let mut any_eligible = false;
                for a in 0..n {
                    // The carry check bars a recovered agent still
                    // hauling a shed task's stranded unit from taking a
                    // new pickup; fault-free it is vacuous (an agent
                    // only carries inside a task mission or with a drop
                    // action pending, and neither is replaceable).
                    let eligible = t >= stall_until[a]
                        && carry[a].is_none()
                        && auc.missions[a].as_ref().is_none_or(Mission::replaceable);
                    if !eligible {
                        continue;
                    }
                    any_eligible = true;
                    let d = auc.probe_dist[self.pos[a].index()];
                    if d != u32::MAX {
                        self.bids.push(AgentBid {
                            agent: a as u32,
                            cost: d,
                        });
                    }
                }
                if !any_eligible {
                    // Eligibility is task-independent: nobody can take
                    // any task this tick.
                    break 'tasks;
                }
                if !self.bids.is_empty() {
                    break;
                }
            }
            // Auction order over the probed slate; a winner whose field
            // route is missing (rare: the field strongly connects these
            // maps) or longer than the route cap (on one-way aisles, a
            // bidder just downstream of the site) falls through to the
            // next-best bid. Every bidder reads one reverse field from
            // the site, expanded lazily up to the cap.
            let mut commit = None;
            let mut field = SiteField::new(site);
            while let Some(bid) = select_agent(&self.bids) {
                self.bids.retain(|b| b.agent != bid.agent);
                let from = self.pos[bid.agent as usize];
                if let Some(path) = auc.site_route(graph, &mut field, from, route_cap, closed) {
                    commit = Some((bid.agent as usize, path));
                    break;
                }
            }
            let Some((a, path)) = commit else {
                // Eligible agents exist but none can reach this site;
                // rotate and retry later (stock or topology may change).
                auc.pending.rotate_left(1);
                rotations += 1;
                continue;
            };
            committed = true;

            // Commit: per task, reserve stock and append its pickup/drop
            // legs; then batch the oldest queued same-product task onto
            // this agent, priced from the drop station just appended.
            auc.pending.pop_front();
            let mut legs = VecDeque::with_capacity(2 * BATCH);
            let (mut task, mut q, mut site) = (task, q, site);
            loop {
                auc.reserved.remove_units(site, task.product, 1);
                auc.open[q as usize] += 1;
                let (product, arrival) = (task.product, task.arrival);
                let pickup = LegAction::Pickup { product, arrival };
                legs.push_back(Leg {
                    goal: site,
                    action: pickup,
                });
                legs.push_back(Leg {
                    goal: auc.stations[q as usize],
                    action: LegAction::Drop {
                        arrival,
                        station: q,
                    },
                });
                self.counters.assignments_made += 1;
                self.counters.events_processed += 1;
                if legs.len() == 2 * BATCH {
                    break;
                }
                let Some(i) = auc.pending.iter().position(|p| p.product == product) else {
                    break;
                };
                let Some((q2, s2)) = auc.pick_followup(product, q, STATION_BIAS, dark) else {
                    break;
                };
                task = auc.pending.remove(i).expect("index in range");
                (q, site) = (q2, s2);
            }
            if let Some(qq) = auc.staged_of[a].take() {
                auc.staged[qq as usize] -= 1;
            }
            auc.missions[a] = Some(Mission::new(MissionKind::Task, path, legs));
            if !self.sleep.is_awake(a) {
                woken.push(a);
            }
        }

        // Idle rebalance: only when the queue is drained (pending tasks
        // outrank staging for every idle agent) and an agent went idle
        // since the last pass.
        if auc.pending.is_empty() && auc.idle_dirty {
            auc.idle_dirty = false;
            let mut pool = (0..n).filter(|&a| idle(auc, a)).count() as u32;
            let mut order: Vec<u16> = (0..auc.stations.len() as u16).collect();
            order.sort_unstable_by_key(|&q| {
                (
                    auc.staged[q as usize],
                    std::cmp::Reverse(auc.open[q as usize]),
                    q,
                )
            });
            'stations: for &q in &order {
                if dark.closed(q as usize) {
                    // No point staging idle agents at a dark station; its
                    // backlog redistributes instead.
                    continue;
                }
                while auc.staged[q as usize] < REBALANCE_PER_STATION {
                    if pool == 0 {
                        break 'stations;
                    }
                    let anchor = auc.anchors[q as usize];
                    // The bid slate the retired escalating-cap BFS probes
                    // produced, reconstructed exactly from the anchor's
                    // cached full field: the slate is every eligible idle
                    // agent within the first cap that catches the nearest
                    // one (bounded BFS yields exact distances within its
                    // cap, so field lookups are value-identical).
                    self.bids.clear();
                    let field = auc.fields.anchor_field(q as usize);
                    let dmin = (0..n)
                        .filter(|&a| idle(auc, a))
                        .map(|a| field[self.pos[a].index()])
                        .min()
                        .unwrap_or(u32::MAX);
                    if dmin != u32::MAX {
                        let cap = *[32u32, 128, 512, u32::MAX]
                            .iter()
                            .find(|&&c| dmin <= c)
                            .expect("u32::MAX cap catches everything");
                        for a in 0..n {
                            let d = field[self.pos[a].index()];
                            if d <= cap && idle(auc, a) {
                                self.bids.push(AgentBid {
                                    agent: a as u32,
                                    cost: d,
                                });
                            }
                        }
                    }
                    let mut commit = None;
                    while let Some(bid) = select_agent(&self.bids) {
                        self.bids.retain(|b| b.agent != bid.agent);
                        let from = self.pos[bid.agent as usize];
                        if let Some(path) = auc.route(graph, from, anchor, None, closed) {
                            commit = Some((bid.agent as usize, path));
                            break;
                        }
                    }
                    let Some((a, path)) = commit else {
                        // The remaining pool can't reach any anchor worth
                        // staging; stop the pass.
                        break 'stations;
                    };
                    let kind = MissionKind::Reposition(q);
                    auc.missions[a] = Some(Mission::new(kind, path, VecDeque::new()));
                    auc.staged_of[a] = Some(q);
                    auc.staged[q as usize] += 1;
                    pool -= 1;
                    committed = true;
                    self.counters.rebalance_moves += 1;
                    self.counters.events_processed += 1;
                    if !self.sleep.is_awake(a) {
                        woken.push(a);
                    }
                }
            }
        }
        // Clean = nothing committed and the queue is back in arrival
        // order: either untouched (an immediate no-eligible bail before
        // any rotation) or rotated all the way around. A partial
        // rotation (bail after some site-less tasks already moved back)
        // leaves a reordered queue, so the next pass must really run.
        auc.pass_clean = !committed && (rotations == 0 || rotations == auc.pending.len());
        for a in woken {
            self.wake(a, t);
        }
    }

    /// Whether this tick's assignment phase is provably a byte-identical
    /// no-op and may be skipped outright: the last pass was clean, no
    /// assignment input changed since (arrivals, sheds, drops, mission
    /// retirements, nudges, stalls, wakes, replans all set the dirty
    /// flag), and no awake agent carries a replaceable mission — those
    /// are eligible bidders whose positions (and so bid costs and route
    /// outcomes) change every tick. Awake *idle* agents park in place
    /// and awake task-mission agents are not bidders, so neither
    /// perturbs a dry pass. Both engines evaluate the same predicate,
    /// which keeps skipping — like elision — unobservable.
    fn auction_phase_skippable(&self) -> bool {
        let Dispatch::Auction(auc) = &self.dispatch else {
            return true;
        };
        if !auc.dirty_skip || auc.dirty || !auc.pass_clean {
            return false;
        }
        (0..self.pos.len()).all(|a| {
            !self.sleep.is_awake(a) || !auc.missions[a].as_ref().is_some_and(Mission::replaceable)
        })
    }

    /// Advances `agent`'s auction mission after the move phase: fires a
    /// carry action pending from last tick's arrival (on the *pre-move*
    /// cell, the plan checker's condition (3) convention), tracks route
    /// progress and blocking (yield-nudges and reroutes), pops legs on
    /// arrival, and retires the mission when the last leg is done. No-op
    /// for idle agents.
    fn step_mission(&mut self, a: usize, old: VertexId, moved: bool, t: u64) {
        let Dispatch::Auction(auc) = &mut self.dispatch else {
            return;
        };
        let Some(mut m) = auc.missions[a].take() else {
            return;
        };
        let graph = self.instance.warehouse.graph();
        let closed = ClosedSet {
            until: &self.closed_until,
            t,
        };

        // 1. Pending carry action fires on this transition.
        if let Some(act) = m.action.take() {
            match act {
                LegAction::Pickup { product, arrival } => {
                    debug_assert!(
                        self.ledger.units_at(old, product) > 0,
                        "assigned pickup of {product} at {old} with an empty ledger"
                    );
                    debug_assert!(self.carry[a].is_none(), "pickup while carrying");
                    self.ledger.remove_units(old, product, 1);
                    self.carry[a] = Some(product);
                    self.attached[a] = Some(arrival);
                    self.counters.queued -= 1;
                    self.counters.in_flight += 1;
                }
                LegAction::Drop { arrival, station } => {
                    debug_assert!(self.carry[a].is_some(), "drop while empty");
                    self.carry[a] = None;
                    self.attached[a] = None;
                    self.counters.delivered += 1;
                    self.counters.in_flight -= 1;
                    self.counters.record_latency(t + 1 - arrival);
                    let open = &mut auc.open[station as usize];
                    *open = open.saturating_sub(1);
                    auc.dirty = true;
                }
            }
        }

        // 2. Route progress / blocking.
        if moved {
            m.at += 1;
            debug_assert_eq!(m.path[m.at], self.pos[a], "mission route desync");
            m.blocked = 0;
            m.wedged = false;
        } else if m.at + 1 < m.path.len() {
            m.blocked += 1;
            let want = m.path[m.at + 1];
            let b = self.occupant[want.index()];
            if m.blocked >= YIELD_AFTER && b != NO_INDEX {
                // Deferred to phase 8b; idle blockers drift clear, moving
                // or stalled ones are filtered at application time.
                self.nudge_buf.push(b);
            }
            if m.blocked >= REROUTE_AFTER {
                match m.kind {
                    MissionKind::Task => {
                        if m.blocked % REROUTE_AFTER == 0 {
                            let goal = *m.path.last().expect("non-empty route");
                            match auc.route(graph, self.pos[a], goal, Some(want), closed) {
                                Some(path)
                                    if path.len() <= self.config.assign.route_cap as usize =>
                                {
                                    m.path = path;
                                    m.at = 0;
                                    m.blocked = 0;
                                    m.wedged = false;
                                }
                                Some(_) => {
                                    auc.work.cap_rejections += 1;
                                    // A detour this long means the direct
                                    // corridor is walled off by parked
                                    // agents; taking it would tour the
                                    // floor. Wedge instead: park frozen
                                    // and retry when something moves.
                                    m.wedged = true;
                                }
                                None => {}
                            }
                        }
                    }
                    // Staging and drifting are best-effort: park here.
                    MissionKind::Reposition(_) | MissionKind::Drift => {
                        m.path.truncate(m.at + 1);
                    }
                }
            }
        }

        // 3. Arrival at the route's end: pop the next leg (its action
        // fires on the next transition), plan the following hop, or
        // retire the mission.
        let mut done = false;
        if m.at + 1 >= m.path.len() && m.action.is_none() {
            match m.legs.pop_front() {
                Some(leg) => {
                    debug_assert_eq!(leg.goal, self.pos[a], "mission leg desync");
                    m.action = Some(leg.action);
                    if let Some(&Leg { goal, .. }) = m.legs.front() {
                        let cap = self.config.assign.route_cap;
                        match auc.route_capped(graph, self.pos[a], goal, cap, closed) {
                            Some(path) => {
                                m.path = path;
                                m.at = 0;
                                m.blocked = 0;
                            }
                            None => {
                                // Defensive only: assignment verified
                                // field reachability for every leg, but a
                                // closure or the route cap can still cut
                                // the next one. Shed the remaining legs
                                // back to the queue; a pending pickup
                                // (whose drop is among them) goes first,
                                // unexecuted.
                                if let Some(action @ LegAction::Pickup { .. }) = m.action {
                                    m.action = None;
                                    m.legs.push_front(Leg {
                                        goal: self.pos[a],
                                        action,
                                    });
                                }
                                Self::shed_legs(auc, &mut m, &mut self.counters);
                                auc.dirty = true;
                            }
                        }
                    }
                    if m.legs.is_empty() {
                        if matches!(m.action, Some(LegAction::Drop { .. })) {
                            // Final drop: walk off along the field while
                            // it fires, so the station clears for the
                            // next delivery instead of being parked on.
                            m.kind = MissionKind::Drift;
                            m.path = auc.drift_walk(graph, self.pos[a], &self.occupant, closed);
                            m.at = 0;
                            m.blocked = 0;
                        } else if m.action.is_none() {
                            done = true;
                        }
                    }
                }
                None => done = true,
            }
        }

        if done {
            self.counters.events_processed += 1;
            auc.idle_dirty = true;
            auc.dirty = true;
        } else {
            auc.missions[a] = Some(m);
        }
    }

    /// Applies the yield-nudges deferred during phase 7: each still-idle,
    /// unstalled blocker gets a drift mission toward the next junction
    /// (waking it if asleep). Duplicates collapse on the mission check.
    fn apply_nudges(&mut self, t: u64) {
        let mut buf = std::mem::take(&mut self.nudge_buf);
        for &b in &buf {
            let b = b as usize;
            let Dispatch::Auction(auc) = &mut self.dispatch else {
                break;
            };
            if t < self.stall_until[b] || auc.missions[b].is_some() {
                continue;
            }
            let path = auc.drift_walk(
                self.instance.warehouse.graph(),
                self.pos[b],
                &self.occupant,
                ClosedSet {
                    until: &self.closed_until,
                    t,
                },
            );
            if path.len() <= 1 {
                continue;
            }
            auc.missions[b] = Some(Mission::new(MissionKind::Drift, path, VecDeque::new()));
            auc.dirty = true;
            self.counters.events_processed += 1;
            if !self.sleep.is_awake(b) {
                self.wake(b, t);
            }
        }
        buf.clear();
        self.nudge_buf = buf;
    }

    /// Sleep decision under the auction policy. Mission agents advance
    /// every tick and stay awake — except a wedged one (its reroute is
    /// cap-rejected), which parks frozen until a replan or stall retries
    /// it. Stalled agents freeze with a wake-up at the stall's end. Idle
    /// agents freeze when no assignable work could touch them next tick:
    /// either the pending queue is empty (the assignment pass runs only
    /// on executed ticks, so an idle sleeper next to a pending task
    /// would desynchronize the engines), or the last pass was clean and
    /// nothing has dirtied its inputs since — a re-run provably assigns
    /// nothing, so sleeping through it is safe. In both arms no agent
    /// may have gone idle this tick (the rebalance pass gets one
    /// executed tick to see them). Every wake path — assignment,
    /// rebalance, nudge, stall, boundary replan — runs identically under
    /// both engines, which is what keeps elision unobservable.
    fn maybe_sleep_auction(&mut self, agent: usize) {
        let auc = self.dispatch.auction().expect("auction engine");
        let stalled = self.t < self.stall_until[agent];
        if let Some(m) = &auc.missions[agent] {
            if m.wedged && !stalled {
                // Wedged mission: its reroute is rejected and its blocker
                // is not yielding. Park frozen (no event); the boundary
                // replan or a stall wakes it for the next retry.
                self.sleep_agent(agent, SleepMode::Frozen);
            }
            return;
        }
        if stalled {
            self.sleep_stalled(agent);
        } else if !auc.idle_dirty && (auc.pending.is_empty() || (auc.pass_clean && !auc.dirty)) {
            // Frozen with no event: assignment, a stall, or the boundary
            // replan wakes it (the plan-exhausted precedent).
            self.sleep_agent(agent, SleepMode::Frozen);
        }
    }

    /// Puts awake `agent` to sleep in `mode` from tick `self.t` at its
    /// current cursor; returns the sleep's event sequence number.
    fn sleep_agent(&mut self, agent: usize, mode: SleepMode) -> u32 {
        self.granted[agent] = false;
        let carrying = self.carry[agent].is_some();
        self.sleep
            .sleep(agent, mode, self.t, self.cursor[agent], carrying)
    }

    /// Freezes stalled `agent` with a wake-up at the stall's end. A
    /// permanent breakdown (`NEVER`) files none: only the boundary
    /// replan's ledger reset re-examines it.
    fn sleep_stalled(&mut self, agent: usize) -> u32 {
        let seq = self.sleep_agent(agent, SleepMode::Frozen);
        let wake = self.stall_until[agent];
        if wake != NEVER {
            self.queue.push(wake, event::pack(event::WAKE, agent, seq));
        }
        seq
    }

    /// Decides whether `agent` — just processed, currently awake — can
    /// sleep starting at tick `self.t`, and books the sleep plus its
    /// wake-up/crossing events if so. Every guard here exists to keep a
    /// sleeper's skipped ticks *provably* identical to what the reference
    /// sweep would have done (see [`crate::event`] for the contract).
    fn maybe_sleep(&mut self, agent: usize) {
        if self.repair[agent].is_some() {
            // Repairing agents advance their detour every tick.
            return;
        }
        let from = self.t;
        let cursor = self.cursor[agent];
        let replan_lag = self.config.replan_lag;
        let elapsed = from.saturating_sub(self.window_start) as usize;
        let lag = elapsed.saturating_sub(cursor);
        // An agent at or past the early-replan threshold must stay in the
        // per-tick lag fold that re-arms the (possibly gap-deferred)
        // replan trigger.
        if replan_lag > 0 && lag >= replan_lag {
            return;
        }
        if from < self.stall_until[agent] {
            // Stalled: frozen until the stall ends; if its growing lag
            // would cross the replan threshold first, file the check.
            let seq = self.sleep_stalled(agent);
            if replan_lag > 0 {
                let crossing = self.window_start + (cursor + replan_lag) as u64 - 1;
                if crossing < self.stall_until[agent] {
                    self.queue
                        .push(crossing, event::pack(event::REPLAN_CHECK, agent, seq));
                }
            }
            return;
        }
        if self.aligned(agent) {
            if cursor >= self.window_len {
                // Plan exhausted: parked until the boundary replan, which
                // arrives before its lag could cross the threshold.
                self.sleep_agent(agent, SleepMode::Frozen);
                return;
            }
            // A lagged aligned agent may become a repair candidate any
            // tick (its constant lag stays over the threshold while its
            // cooldown drains), so it must stay in the candidate scan.
            if self.config.repair.enabled && lag >= self.config.repair.lag_threshold {
                return;
            }
            match self.silent_run_len(agent, cursor) {
                Some(1) => {} // next tick already changes state
                Some(run) => {
                    let seq = self.sleep_agent(agent, SleepMode::Silent);
                    self.queue
                        .push(from + run as u64 - 1, event::pack(event::WAKE, agent, seq));
                }
                None => {
                    // Stationary through the whole remaining window: the
                    // cursor analytically runs out and the boundary
                    // replan wakes it (no event needed; the lag crossing
                    // provably can't precede the boundary).
                    self.sleep_agent(agent, SleepMode::Silent);
                }
            }
            return;
        }
        // Unaligned (a stray parked off-plan): frozen until the next
        // replan re-anchors it, with its lag crossing filed.
        let seq = self.sleep_agent(agent, SleepMode::Frozen);
        if replan_lag > 0 {
            let crossing = self.window_start + (cursor + replan_lag) as u64 - 1;
            self.queue
                .push(crossing, event::pack(event::REPLAN_CHECK, agent, seq));
        }
    }

    /// Length of `agent`'s *silent run*: the smallest `j ≥ 1` whose
    /// window-plan state differs from the current one in position or
    /// carry (`None` if it stays identical through the window's end).
    /// For a fresh cursor this is exactly the realize stage's
    /// `first_change` schedule; otherwise a forward scan (amortized O(1)
    /// per tick: each scanned index is slept past before it is rescanned).
    fn silent_run_len(&self, agent: usize, cursor: usize) -> Option<usize> {
        debug_assert!(cursor < self.window_len);
        if cursor == 0 {
            let j = self.first_change[agent];
            return (j != u32::MAX).then_some(j as usize);
        }
        let pos = self.pos[agent];
        let carry = self
            .window_plan
            .state(agent, cursor)
            .expect("aligned cursor")
            .carry;
        for j in 1..=(self.window_len - cursor) {
            let s = self
                .window_plan
                .state(agent, cursor + j)
                .expect("within horizon");
            if s.at != pos || s.carry != carry {
                return Some(j);
            }
        }
        None
    }

    /// Applies an executed carry transition: stock debit + task matching.
    /// `at` is the vertex the action happened on (the *pre-move* cell, as
    /// in the plan checker's condition (3)); completion is stamped `t + 1`
    /// to match [`wsp_model::PlanStats::last_delivery`].
    fn apply_carry_event(
        &mut self,
        agent: usize,
        before: Carry,
        after: Carry,
        at: VertexId,
        t: u64,
    ) {
        let Dispatch::Static { queues } = &mut self.dispatch else {
            unreachable!("window-plan carry events run under the static policy only");
        };
        match (before, after) {
            (Carry::Empty, Carry::Product(p)) => {
                debug_assert!(
                    self.ledger.units_at(at, p) > 0,
                    "executed pickup of {p} at {at} with an empty ledger"
                );
                self.ledger.remove_units(at, p, 1);
                self.carry[agent] = Some(p);
                if let Some(arrival) = queues[p.index()].pop_front() {
                    self.attached[agent] = Some(arrival);
                    self.counters.queued -= 1;
                    self.counters.in_flight += 1;
                }
            }
            (Carry::Product(p), Carry::Empty) => {
                self.carry[agent] = None;
                self.counters.delivered += 1;
                if let Some(arrival) = self.attached[agent].take() {
                    self.counters.in_flight -= 1;
                    self.counters.record_latency(t + 1 - arrival);
                } else if let Some(arrival) = queues[p.index()].pop_front() {
                    self.counters.queued -= 1;
                    self.counters.record_latency(t + 1 - arrival);
                } else {
                    self.counters.unmatched_deliveries += 1;
                }
            }
            (Carry::Product(p), Carry::Product(q)) => {
                debug_assert_eq!(p, q, "carried product mutated in the window plan");
            }
            (Carry::Empty, Carry::Empty) => {}
        }
    }

    /// Applies one fired [`FaultEvent`] — both engines, identically.
    /// Every kind changes an assignment input (eligibility, the station
    /// slate, route outcomes), so each dirties the auction.
    fn apply_fault(&mut self, e: FaultEvent, t: u64) {
        self.counters.faults_injected += 1;
        self.counters.events_processed += 1;
        self.dispatch.mark_dirty();
        match e {
            FaultEvent::Breakdown { agent, until, .. } => {
                // A breakdown is a (possibly unbounded) stall: all the
                // stall machinery — parked desire, frozen sleep, repair
                // projection, grant-pass obstacle, auction ineligibility
                // — applies as-is. On top, the victim's assigned work is
                // shed so the rest of the fleet absorbs it.
                let was = self.stall_until[agent];
                if until == NEVER && was != NEVER {
                    self.counters.agents_lost += 1;
                }
                self.stall_until[agent] = was.max(until);
                self.shed_agent_tasks(agent, until == NEVER);
                if !self.sleep.is_awake(agent) {
                    self.wake(agent, t);
                }
            }
            FaultEvent::Outage { station, until, .. } => {
                // Dark stations take no new assignments; their queued
                // tasks wait (rotating in the pending queue) and the
                // station-pressure bias pushes fresh work toward the
                // remaining stations. In-flight deliveries already en
                // route still complete.
                let was = self.dark_until[station];
                if was <= t {
                    self.dark_active += 1;
                }
                self.dark_until[station] = was.max(until);
            }
            FaultEvent::Closure {
                anchor,
                axis,
                until,
                ..
            } => {
                self.close_corridor(anchor, axis, until, t);
            }
        }
    }

    /// Re-opens every faulted resource whose span elapsed: a station or
    /// corridor with `until <= t` serves again *at* `t` (symmetric with
    /// stalls). Each re-opening dirties the auction — newly possible
    /// assignments and routes must be re-examined on this very tick,
    /// which is why expiries are forced ticks.
    fn expire_faults(&mut self, t: u64) {
        if self.dark_active > 0 {
            let live = self.dark_until.iter().filter(|&&u| u > t).count();
            if live < self.dark_active {
                self.dark_active = live;
                self.dispatch.mark_dirty();
            }
        }
        if !self.closed_cells.is_empty() {
            let mut cells = std::mem::take(&mut self.closed_cells);
            let before = cells.len();
            cells.retain(|v| self.closed_until[v.index()] > t);
            if cells.len() < before {
                self.dispatch.mark_dirty();
            }
            self.closed_cells = cells;
        }
    }

    /// Expands a closure event to its concrete corridor: up to
    /// `closure_len` cells walked from the anchor along the seeded axis
    /// while grid edges continue, each marked closed until `until`.
    /// Overlapping closures max-merge their expiries.
    fn close_corridor(&mut self, anchor: usize, axis: u32, until: u64, t: u64) {
        let graph = self.instance.warehouse.graph();
        let (dx, dy): (i64, i64) = match axis % 4 {
            0 => (1, 0),
            1 => (0, 1),
            2 => (-1, 0),
            _ => (0, -1),
        };
        let len = self.config.faults.closure_len.max(1);
        let mut v = VertexId(anchor as u32);
        for step in 0u32.. {
            if self.closed_until[v.index()] <= t {
                // Not currently closed, so not in the list yet (expiry
                // retains exactly the still-closed cells).
                self.closed_cells.push(v);
            }
            self.closed_until[v.index()] = self.closed_until[v.index()].max(until);
            if step + 1 >= len {
                break;
            }
            let c = graph.coord(v);
            let nx = i64::from(c.x) + dx;
            let ny = i64::from(c.y) + dy;
            if nx < 0 || ny < 0 {
                break;
            }
            let Some(w) = graph.vertex_at(Coord::new(nx as u32, ny as u32)) else {
                break;
            };
            if !graph.has_edge(v, w) {
                break;
            }
            v = w;
        }
    }

    /// Sheds a broken-down agent's assigned tasks back to the queue in
    /// arrival order. Unexecuted pickups restore their stock reservation
    /// and re-queue; their drop legs release the station's open slot.
    /// The *carried* task (pickup executed, drop pending) is kept on a
    /// temporary breakdown — the unit physically rides the robot and is
    /// delivered after recovery — but re-queued on a permanent one: the
    /// unit strands on the dead robot and another agent re-picks the
    /// task from remaining stock (`in_flight → queued`, so the classic
    /// conservation identity never bends; `tasks_shed` counts every
    /// shed).
    fn shed_agent_tasks(&mut self, a: usize, permanent: bool) {
        let auc = match &mut self.dispatch {
            Dispatch::Static { queues } => {
                // Detach the carried task and re-queue it by arrival. The
                // agent's window plan still executes its drop after
                // recovery, which then completes the queue's new front
                // task instead (`apply_carry_event`'s unattached arm) —
                // late delivery, exact conservation.
                if let Some(arrival) = self.attached[a].take() {
                    let product = self.carry[a].expect("attached implies carrying");
                    let q = &mut queues[product.index()];
                    let i = q.partition_point(|&x| x <= arrival);
                    q.insert(i, arrival);
                    self.counters.in_flight -= 1;
                    self.counters.queued += 1;
                    self.counters.tasks_shed += 1;
                }
                return;
            }
            Dispatch::Auction(auc) => auc,
        };
        if let Some(qq) = auc.staged_of[a].take() {
            auc.staged[qq as usize] -= 1;
        }
        if let Some(mut m) = auc.missions[a].take() {
            // Carried iff the next drop precedes the next pickup: either
            // the drop action is already pending, or the front leg is a
            // drop (legs strictly alternate pickup/drop per task).
            let carried = matches!(m.action, Some(LegAction::Drop { .. }))
                || (m.action.is_none()
                    && matches!(
                        m.legs.front(),
                        Some(Leg {
                            action: LegAction::Drop { .. },
                            ..
                        })
                    ));
            if carried && !permanent {
                // Keep exactly the pending delivery; shed the rest.
                let kept = if m.action.is_some() {
                    None
                } else {
                    m.legs.pop_front()
                };
                Self::shed_legs(auc, &mut m, &mut self.counters);
                match kept {
                    Some(leg) => m.legs.push_back(leg),
                    // Only the pending drop action remains; stop walking
                    // the stale route toward the next (now shed) leg.
                    None => m.path.truncate(m.at + 1),
                }
                auc.missions[a] = Some(m);
            } else {
                if let Some(action) = m.action.take() {
                    m.legs.push_front(Leg {
                        goal: self.pos[a],
                        action,
                    });
                }
                if carried {
                    let leg = m.legs.pop_front().expect("carried mission fronts its drop");
                    let LegAction::Drop { arrival, station } = leg.action else {
                        unreachable!("carried mission fronts a drop leg");
                    };
                    let open = &mut auc.open[station as usize];
                    *open = open.saturating_sub(1);
                    let product = self.carry[a].expect("carried drop leg");
                    self.attached[a] = None;
                    self.counters.in_flight -= 1;
                    self.counters.queued += 1;
                    self.counters.tasks_shed += 1;
                    Self::requeue_pending(&mut auc.pending, PendingTask { product, arrival });
                }
                Self::shed_legs(auc, &mut m, &mut self.counters);
                // Mission dissolved; a recovered (task-less) agent goes
                // back to the idle pool.
                auc.idle_dirty = true;
            }
            auc.dirty = true;
        }
    }

    /// Drains `m.legs`, restoring each unexecuted pickup's reservation
    /// (and re-queueing its task) and releasing each drop's open slot.
    /// The carried task's drop, if any, must already be removed.
    fn shed_legs(auc: &mut AuctionState, m: &mut Mission, counters: &mut SimCounters) {
        while let Some(leg) = m.legs.pop_front() {
            match leg.action {
                LegAction::Pickup { product, arrival } => {
                    auc.reserved.add_units(leg.goal, product, 1);
                    counters.tasks_shed += 1;
                    Self::requeue_pending(&mut auc.pending, PendingTask { product, arrival });
                }
                LegAction::Drop { station, .. } => {
                    let open = &mut auc.open[station as usize];
                    *open = open.saturating_sub(1);
                }
            }
        }
    }

    /// Re-queues a shed task by arrival tick: the insertion point is the
    /// end of the run of arrivals ≤ the task's — deterministic under
    /// both engines even when rotations have the queue mid-cycle.
    fn requeue_pending(pending: &mut VecDeque<PendingTask>, task: PendingTask) {
        let i = pending.partition_point(|p| p.arrival <= task.arrival);
        pending.insert(i, task);
    }

    /// Collects catch-up candidates, plans them in parallel against the
    /// projected reservation table, and splices in the accepted detours.
    fn try_repairs(&mut self, t: u64) {
        let n = self.pos.len();
        let cfg = self.config.repair.clone();
        self.requests.clear();
        // Only awake agents can be candidates: a silent sleeper's lag is
        // constant below the threshold (the sleep guard keeps lagged
        // agents awake) and frozen sleepers are stalled, unaligned, or
        // past the rejoin horizon — all disqualified below anyway. The
        // reference sweep scans everyone and so double-checks this.
        for i in 0..self.active.len() {
            let a = self.active[i] as usize;
            if t < self.stall_until[a]
                || self.repair[a].is_some()
                || t < self.repair_cooldown_until[a]
                || !self.aligned(a)
            {
                continue;
            }
            let elapsed = (t - self.window_start) as usize;
            let lag = elapsed.saturating_sub(self.cursor[a]);
            if lag < cfg.lag_threshold {
                continue;
            }
            let rejoin = self.cursor[a] + lag + cfg.slack;
            if rejoin > self.window_len {
                continue;
            }
            // Eligibility: constant carry and zero hops over the skipped
            // segment, so rejoin preserves every pickup/drop-off and the
            // cycle-step bookkeeping.
            let base = self
                .window_plan
                .state(a, self.cursor[a])
                .expect("aligned cursor");
            let base_comp = self.component_of(base.at);
            let eligible = (self.cursor[a] + 1..=rejoin).all(|i| {
                let s = self.window_plan.state(a, i).expect("within horizon");
                s.carry == base.carry && self.component_of(s.at) == base_comp
            });
            if !eligible {
                continue;
            }
            let goal = self
                .window_plan
                .state(a, rejoin)
                .expect("within horizon")
                .at;
            if goal == self.pos[a] || cfg.slack == 0 {
                continue;
            }
            debug_assert!(
                self.sleep.is_awake(a),
                "virtually sleeping agent {a} qualified as a repair candidate at t={t}"
            );
            self.requests.push(RepairRequest {
                agent: a,
                start: self.pos[a],
                goal,
                deadline: cfg.slack,
                rejoin_cursor: rejoin,
                lag,
            });
        }
        if self.requests.is_empty() {
            return;
        }
        // The projection below reads every agent's cursor; materialize
        // the sleepers' analytic ones first (they stay asleep — their
        // trajectories are unchanged, the observer just needs them).
        self.settle_sleepers(t);
        // Deepest-lagged first when the batch is over budget (ties break
        // toward the lowest agent index), then back to agent order so the
        // acceptance pass stays order-deterministic.
        if self.requests.len() > cfg.max_batch.max(1) {
            self.requests
                .sort_unstable_by(|x, y| y.lag.cmp(&x.lag).then(x.agent.cmp(&y.agent)));
            self.requests.truncate(cfg.max_batch.max(1));
            self.requests.sort_unstable_by_key(|r| r.agent);
        }
        for r in &self.requests {
            self.repair_cooldown_until[r.agent] = t + cfg.cooldown;
            self.counters.repairs_attempted += 1;
            self.is_candidate[r.agent] = true;
        }

        // Shared reservation table: everyone except the candidates whose
        // reservations the searches could actually query, projected ahead
        // (stall first, then plan or active repair path, then parked
        // forever). The table persists across repair events; `reset`
        // clears it in O(touched). (Temporarily moved out of `self` so the
        // projection buffer can be borrowed alongside it.)
        //
        // Locality: a deadline-capped search expands states within
        // `slack + 1` steps of its start and queries times up to
        // `slack + 1`, while agent `b`'s projection at relative time `k`
        // lies within `k` steps of `pos[b]` (one cell per tick, Manhattan
        // distance bounds graph distance from below). So an agent beyond
        // Manhattan distance `2 * (slack + 1)` of every candidate start
        // can never collide with any query, and projected trajectories
        // never need more than `slack + 2` cells (the `slack + 2`nd cell
        // parks the agent at exactly the last queryable time, answering
        // every in-budget query identically to the full projection).
        // Both cuts are what keeps a repair event on a 100k-vertex floor
        // O(neighbourhood), not O(agents × lookahead).
        let graph = self.instance.warehouse.graph();
        let mut table = std::mem::replace(&mut self.repair_table, ReservationTable::new(0));
        table.reset();
        let radius = 2 * (cfg.slack as u64 + 1);
        let span = cfg.lookahead.min(cfg.slack + 2);
        for b in 0..n {
            if self.is_candidate[b] {
                continue;
            }
            let at = graph.coord(self.pos[b]);
            let near = self.requests.iter().any(|r| {
                let s = graph.coord(r.start);
                u64::from(at.x.abs_diff(s.x)) + u64::from(at.y.abs_diff(s.y)) <= radius
            });
            if !near {
                continue;
            }
            self.projection.clear();
            self.projection.push(self.pos[b]);
            let mut stall_left = self.stall_until[b].saturating_sub(t) as usize;
            while stall_left > 0 && self.projection.len() < span {
                self.projection.push(self.pos[b]);
                stall_left -= 1;
            }
            if let Some(r) = &self.repair[b] {
                for &v in r.path.iter().skip(r.at + 1) {
                    if self.projection.len() >= span {
                        break;
                    }
                    self.projection.push(v);
                }
            } else if self.aligned(b) {
                let mut k = self.cursor[b] + 1;
                while self.projection.len() < span && k <= self.window_len {
                    self.projection
                        .push(self.window_plan.state(b, k).expect("within horizon").at);
                    k += 1;
                }
            }
            // `reserve_path` parks the final projected cell from its
            // arrival time onward, so truncated projections stay
            // conservatively blocked past the horizon.
            table.reserve_path(&self.projection);
        }
        // Closed corridor cells are blanket obstacles for catch-up
        // searches: each one near a candidate is parked from time zero
        // (a single-cell `reserve_path`; reservations are idempotent
        // bitsets, so overlap with an occupant's projection is
        // harmless).
        for &v in &self.closed_cells {
            let at = graph.coord(v);
            let near = self.requests.iter().any(|r| {
                let s = graph.coord(r.start);
                u64::from(at.x.abs_diff(s.x)) + u64::from(at.y.abs_diff(s.y)) <= radius
            });
            if near {
                table.reserve_path(std::slice::from_ref(&v));
            }
        }

        let threads = wsp_core::resolve_threads(cfg.threads);
        let found = plan_repairs(graph, &table, &self.requests, threads);
        self.repair_table = table;
        for (agent, path) in accept_repairs(&self.requests, found) {
            self.repair[agent] = Some(path);
            self.counters.repairs_applied += 1;
        }
        // Clear the candidate flags through the request list instead of a
        // full O(agents) sweep per call.
        for i in 0..self.requests.len() {
            self.is_candidate[self.requests[i].agent] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use wsp_model::Workload;

    use super::*;

    /// The leg-transition fallback in `step_mission`: every station cell
    /// is closed for the first stretch of the run, so each agent that
    /// reaches its pickup site finds no route to its drop station. The
    /// pickup must shed back to the queue unexecuted, with its stock
    /// reservation restored, and once the stations re-open every task
    /// must be assigned and delivered again — with no unit of stock left
    /// reserved behind.
    #[test]
    fn a_cut_drop_leg_sheds_its_pickup_and_the_task_is_delivered_again() {
        let map = wsp_maps::scaled_warehouse(5, 40, 3, 5).expect("small scaled map builds");
        let instance = WspInstance::new(map.warehouse, map.traffic, Workload::zeros(0), 0);
        let cycles = crate::direct_cycle_set(&instance.warehouse, &instance.traffic, 24);
        let mut mix = Workload::zeros(instance.warehouse.catalog().len());
        for p in cycles.cycles().iter().flat_map(|c| c.delivered_products()) {
            mix.set(p, 2);
        }
        let stream = StreamConfig {
            mix,
            mean_gap: 2,
            seed: 3,
        };
        let mut config = SimConfig {
            ticks: 2_000,
            stream,
            ..SimConfig::default()
        };
        config.assign.policy = AssignPolicy::Auction;
        let mut sim = Simulation::from_cycles(&instance, cycles, config).unwrap();
        let reopen = 150;
        for &v in instance.warehouse.stations() {
            sim.closed_until[v.index()] = reopen;
            sim.closed_cells.push(v);
        }

        sim.run_ticks(reopen).unwrap();
        let c = sim.counters();
        assert!(c.tasks_shed > 0, "no drop leg was cut: {c:?}");
        assert_eq!((c.delivered, c.in_flight), (0, 0), "a pickup fired");
        sim.run().unwrap();
        let c = sim.counters();
        assert!(c.injected > 0 && c.conserved());
        assert_eq!(c.completed, c.injected, "shed tasks were not delivered");
        assert!(c.assignments_made > c.injected, "no task was re-assigned");
        let auc = sim.dispatch.auction().expect("auction policy");
        assert!(auc.pending.is_empty() && auc.missions.iter().flatten().all(|m| m.legs.is_empty()));
        let units = |m: &LocationMatrix| m.iter().map(|(_, _, u)| u).sum::<u64>();
        let leaked = units(&sim.ledger) - units(&auc.reserved);
        assert!(
            auc.reserved == sim.ledger,
            "shed pickups left {leaked} units reserved"
        );
    }
}
