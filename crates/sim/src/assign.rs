//! Lifelong task assignment: the policy layer deciding *which* agent
//! serves *which* queued task.
//!
//! [`AssignPolicy::Static`] keeps the seed behavior bit-for-bit: tasks sit
//! in per-product FIFO queues and attach to whichever agent's synthesized
//! cycle happens to execute a matching pickup — assignment is implicit in
//! the design, and on production-scale floors (where `direct_cycle_set`
//! pairs shelving rows with stations over ring distances of tens of
//! thousands of ticks) throughput starves.
//!
//! [`AssignPolicy::Auction`] adds an explicit dispatcher, after Shi et
//! al.'s adaptive task planning for large-scale robotized warehouses
//! (arXiv:2205.00831): each queued task is auctioned to the cheapest
//! eligible agent over BFS-distance costs
//! ([`FloorplanGraph::bfs_bounded_begin`] probes the idle neighbourhood of
//! the chosen shelf slot, and [`FloorplanGraph::bfs_bounded_resume`]
//! widens that probe's frontier at each escalating cap), compatible
//! same-product tasks are batched onto one agent, and idle agents are
//! rebalanced toward high-pressure stations. Every decision is a pure
//! function of `(queue, agent states, tick)` — index-deterministic
//! tie-breaks, no wall clock, no thread count — so the simulation's
//! byte-identical-report contract survives intact.
//!
//! # Deadlock-free routing: the parity direction field
//!
//! Mission routes ignore the synthesized traffic system (that is the
//! point: the static pairing is what starves), so they need their own
//! defense against head-on meetings in one-agent-wide aisles, which the
//! engine's grant pass — correctly — never resolves. Routes follow a
//! *direction field* over the grid: a horizontal edge may be traversed
//! east iff its row index is even (west iff odd), a vertical edge north
//! iff its column index is even (south iff odd). Adjacent corridors
//! alternate direction like one-way streets, so two field-following
//! agents can never meet head-on inside a corridor; cells the parity
//! rule would leave without an entry or an exit (map corners) are
//! *relaxed* to bidirectional, keeping the field usable on arbitrary
//! floorplans. Unroutable (site, station) pairs are skipped
//! deterministically — assignment degrades gracefully rather than
//! wedging.
//!
//! Residual contention (a parked agent occupying a corridor cell, convoy
//! pile-ups behind a stall) is handled by the engine's yield/reroute
//! pass: blocked mission agents nudge parked blockers into a
//! field-following drift walk toward the next junction, and reroute
//! around cells that stay contested.

use std::collections::VecDeque;

use wsp_model::{Coord, FloorplanGraph, LocationMatrix, ProductId, VertexId, Warehouse, NO_INDEX};

use crate::distfield::DistFields;

/// Which task-assignment policy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignPolicy {
    /// The seed behavior, bit-for-bit: tasks attach to whichever agent's
    /// synthesized cycle executes a matching pickup. Golden files pin
    /// this rendering.
    #[default]
    Static,
    /// Deterministic auction dispatch: queued tasks are matched to idle
    /// (or re-targetable) agents over BFS-distance costs, batched per
    /// station, with idle-agent rebalancing toward high-pressure
    /// stations.
    Auction,
}

/// Configuration of the task-assignment layer.
#[derive(Debug, Clone)]
pub struct AssignConfig {
    /// The policy (Static by default — existing configs are unchanged).
    pub policy: AssignPolicy,
    /// Longest route (in cells, endpoints included) the auction will
    /// install. The parity field occasionally prices a `(agent, site)`
    /// pair at thousands of cells — a detour the whole width of the
    /// floor around one parked blocker — and committing one seeds a
    /// self-sustaining convoy/nudge cascade. Over the cap, assignment
    /// falls back to the next-best bid, a follow-up leg sheds back to
    /// the queue, and a blocked-mission reroute parks wedged until its
    /// blocker yields. Keep this comfortably above any route a healthy
    /// floor produces (the 10k golden's maximum is 979).
    pub route_cap: u32,
}

impl Default for AssignConfig {
    fn default() -> Self {
        AssignConfig {
            policy: AssignPolicy::Static,
            route_cap: 1024,
        }
    }
}

/// One agent's bid for a task: its index and its BFS-distance cost from
/// the task's pickup slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentBid {
    /// Agent index.
    pub agent: u32,
    /// BFS distance from the pickup site to the agent (engine bids read
    /// the [`FloorplanGraph::bfs_bounded_begin`] /
    /// [`FloorplanGraph::bfs_bounded_resume`] probe's distances, or the
    /// rebalancer's cached station-anchor fields).
    pub cost: u32,
}

/// The auction's winner rule, factored out as a pure function: the
/// minimum bid by `(cost, agent)`. Any permutation of `bids` yields the
/// same winner — the property test in `tests/assign_properties.rs`
/// shuffles the slate and pins exactly this invariant, which is what
/// makes the matching independent of internal iteration order.
pub fn select_agent(bids: &[AgentBid]) -> Option<AgentBid> {
    bids.iter().copied().min_by_key(|b| (b.cost, b.agent))
}

/// A task waiting for assignment (product plus arrival tick, FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingTask {
    pub product: ProductId,
    pub arrival: u64,
}

/// A carry transition a mission executes on its next tick transition,
/// with the pre-move cell as the action vertex (the plan checker's
/// condition (3) convention, shared with window-plan execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LegAction {
    /// Pick one unit of `product` up; the task arrived at `arrival`.
    Pickup { product: ProductId, arrival: u64 },
    /// Drop the carried unit at a station, completing the task that
    /// arrived at `arrival`; `station` indexes the auction's station
    /// table for pressure bookkeeping.
    Drop { arrival: u64, station: u16 },
}

/// One mission leg: travel to `goal`, then execute `action` on the next
/// transition out of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Leg {
    pub goal: VertexId,
    pub action: LegAction,
}

/// What a mission is for — task service, station staging, or a nudge out
/// of somebody's way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MissionKind {
    /// Serving one or more assigned tasks (pickup/drop leg pairs).
    Task,
    /// Rebalancing toward the station with this index's anchor.
    Reposition(u16),
    /// A field-following drift walk clearing a contested cell (also the
    /// automatic walk-off after a mission's final drop).
    Drift,
}

/// An agent's current auction mission: the route to the front leg's goal
/// plus the remaining legs. `path[at]` is the agent's expected position;
/// legs are popped on arrival, and the popped leg's action fires on the
/// following transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Mission {
    pub kind: MissionKind,
    pub path: Vec<VertexId>,
    pub at: usize,
    pub legs: VecDeque<Leg>,
    /// Carry transition pending on the next tick transition.
    pub action: Option<LegAction>,
    /// Consecutive ticks this mission wanted a move and was not granted.
    pub blocked: u32,
    /// Set when a blocked-triggered reroute failed or came back with a
    /// pathological detour: the agent parks (and may sleep) until its
    /// blocker moves or the boundary replan wakes it for a retry.
    pub wedged: bool,
}

impl Mission {
    /// A fresh mission at the start of `path`, with no action pending.
    pub(crate) fn new(kind: MissionKind, path: Vec<VertexId>, legs: VecDeque<Leg>) -> Self {
        Mission {
            kind,
            path,
            at: 0,
            legs,
            action: None,
            blocked: 0,
            wedged: false,
        }
    }

    /// Whether assignment may replace this mission with a task mission
    /// (staging and drifting are best-effort; a pending carry action is
    /// not).
    pub(crate) fn replaceable(&self) -> bool {
        !matches!(self.kind, MissionKind::Task) && self.action.is_none()
    }

    /// The next cell this mission wants, or `at` when the route is done.
    pub(crate) fn desired(&self, at: VertexId) -> VertexId {
        if self.at + 1 < self.path.len() {
            self.path[self.at + 1]
        } else {
            at
        }
    }
}

/// Deterministic route-work counters of the auction's path searches,
/// read through [`Simulation::route_work`](crate::Simulation::route_work).
/// They are a pure function of the run (assignment is single-threaded),
/// so they repeat exactly at any repair thread count — a regression
/// tripwire for search work. They are never rendered in
/// [`SimReport::to_json`](crate::SimReport::to_json), so goldens do not
/// depend on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteWork {
    /// Forward field-directed searches run: leg transitions, reroutes,
    /// rebalance routes, and bidders standing on a closed cell.
    pub forward_searches: u64,
    /// Vertices those forward searches expanded.
    pub forward_expanded: u64,
    /// Reverse site fields started (at most one per auctioned task).
    pub site_fields: u64,
    /// Vertices the site fields expanded, over all bidders they served.
    pub site_expanded: u64,
    /// Routes refused for exceeding the route cap: a forward route longer
    /// than the cap, or a bidder a cap-truncated site field never reached.
    pub cap_rejections: u64,
}

/// A lazily expanded reverse field into one pickup site, shared by every
/// bidder of one auction slate (see [`AuctionState::site_route`]). It
/// lives on the probe scratch, which is free once the slate is built.
#[derive(Debug)]
pub(crate) struct SiteField {
    site: VertexId,
    /// Start of the unexpanded suffix of `probe_touched`; `None` until
    /// the first bidder that needs the field seeds it.
    head: Option<usize>,
}

impl SiteField {
    /// An unseeded field into `site`.
    pub(crate) fn new(site: VertexId) -> Self {
        SiteField { site, head: None }
    }
}

/// A read-only view of one of the engine's fault tables: per-resource
/// first-open tick plus the current tick. Route searches read the
/// per-vertex corridor closures, the site pickers the per-station
/// outages. A default (empty) view closes nothing, so fault-free callers
/// and tests pay only a bounds-checked load per lookup.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClosedSet<'c> {
    /// `until[i]` is the first tick resource `i` is open again.
    pub until: &'c [u64],
    /// The current tick.
    pub t: u64,
}

impl ClosedSet<'_> {
    /// Whether resource `i` is closed right now (never true for the
    /// empty view).
    #[inline]
    pub(crate) fn closed(&self, i: usize) -> bool {
        self.until.get(i).is_some_and(|&u| self.t < u)
    }

    /// Whether vertex `v` is closed right now.
    #[inline]
    pub(crate) fn blocks(&self, v: VertexId) -> bool {
        self.closed(v.index())
    }
}

/// Whether the parity direction field permits traversing the edge
/// `a -> b` (adjacent grid cells): horizontal edges run east on even
/// rows and west on odd rows; vertical edges run north on even columns
/// and south on odd columns.
#[inline]
fn parity_allows(a: Coord, b: Coord) -> bool {
    if a.y == b.y {
        if b.x > a.x {
            a.y & 1 == 0
        } else {
            a.y & 1 == 1
        }
    } else if b.y > a.y {
        a.x & 1 == 0
    } else {
        a.x & 1 == 1
    }
}

/// All mutable and precomputed state behind [`AssignPolicy::Auction`],
/// boxed into the engine's policy value only when the policy is on —
/// `Static` runs pay nothing.
#[derive(Debug)]
pub(crate) struct AuctionState {
    /// Tasks awaiting assignment, in arrival order (arrivals are
    /// redirected here instead of the per-product execution queues).
    pub pending: VecDeque<PendingTask>,
    /// Assignment-time stock reservations: debited when a task is
    /// assigned a slot, so concurrent missions never over-commit a slot
    /// and executed pickups never underflow the authoritative ledger.
    pub reserved: LocationMatrix,
    /// Station vertices, in warehouse order.
    pub stations: Vec<VertexId>,
    /// Per station: assigned-but-undelivered tasks (the pressure term).
    pub open: Vec<u32>,
    /// Per station: idle agents staged at (or repositioning toward) its
    /// anchor.
    pub staged: Vec<u32>,
    /// Which station each agent is staged under, if any.
    pub staged_of: Vec<Option<u16>>,
    /// Per-agent current mission.
    pub missions: Vec<Option<Mission>>,
    /// Per station: the staging cell repositioned agents park at (a
    /// junction cell a few steps off the station, so staged agents leave
    /// the station approach clear).
    pub anchors: Vec<VertexId>,
    /// Set when an agent went idle (mission completed) — the rebalancer
    /// runs on the next assignment pass and idle agents stay awake until
    /// it has; both are what keep tick elision unobservable.
    pub idle_dirty: bool,
    /// Set when any assignment input changed since the last pass ran:
    /// queue arrivals, shed legs, drops (station pressure), mission
    /// retirements, nudges, stalls, wakes, replans. Cleared when a pass
    /// runs; while it stays clear and the last pass was
    /// [`pass_clean`](Self::pass_clean), the phase is provably a no-op
    /// and the engine skips it outright.
    pub dirty: bool,
    /// Whether the last assignment pass was *clean*: committed nothing
    /// and left the pending queue in its original order (a full dry
    /// rotation, or an immediate no-eligible-agents bail). A clean pass
    /// re-run on unchanged inputs is guaranteed to be a byte-identical
    /// no-op — the dirty-set skip's soundness condition.
    pub pass_clean: bool,
    /// Test hook: `false` forces the assignment pass to run every
    /// executed tick (the always-run oracle the dirty-set property test
    /// compares against).
    pub dirty_skip: bool,
    /// Precomputed distance structures (anchor fields, sorted stocked-
    /// site lists); see [`crate::distfield`].
    pub fields: DistFields,

    /// Per station: field-directed distance from every vertex *to* the
    /// station (reverse BFS over the direction field). The forward
    /// (station-to-vertex) fields live on only through the sorted site
    /// lists in [`fields`](Self::fields).
    to_station: Vec<Vec<u32>>,
    /// Cells where the parity rule is relaxed to bidirectional (no entry
    /// or no exit otherwise — map corners and degenerate dead ends).
    relaxed: Vec<bool>,

    // Route scratch (epoch-stamped dense arrays, O(visited) per search).
    seen: Vec<u32>,
    parent: Vec<u32>,
    epoch: u32,
    frontier: VecDeque<u32>,
    // Scratch for the bounded idle-neighbourhood probes, reused by the
    // reverse site field once a task's bid slate is built.
    pub probe_dist: Vec<u32>,
    pub probe_touched: Vec<u32>,
    /// Route-work counters (never rendered in reports).
    pub work: RouteWork,
}

impl AuctionState {
    /// Builds the auction tables for a warehouse and team size: direction
    /// field relaxation, per-station distance fields, per-product site
    /// lists, staging anchors, and the distance-field cache.
    pub(crate) fn new(warehouse: &Warehouse, agents: usize) -> Self {
        let graph = warehouse.graph();
        let n = graph.vertex_count();

        // Relax cells the parity rule would leave unenterable or
        // unleavable (corners): all their edges become bidirectional,
        // which cannot de-relax any other cell (edges only get added).
        let mut relaxed = vec![false; n];
        for v in graph.vertices() {
            let a = graph.coord(v);
            let mut out = 0usize;
            let mut inc = 0usize;
            for &w in graph.neighbors(v) {
                let b = graph.coord(w);
                if parity_allows(a, b) {
                    out += 1;
                }
                if parity_allows(b, a) {
                    inc += 1;
                }
            }
            relaxed[v.index()] = out == 0 || inc == 0;
        }

        let stations: Vec<VertexId> = warehouse.stations().to_vec();
        let to_station: Vec<Vec<u32>> = stations
            .iter()
            .map(|&s| directed_distances(graph, &relaxed, s, true))
            .collect();
        let from_station: Vec<Vec<u32>> = stations
            .iter()
            .map(|&s| directed_distances(graph, &relaxed, s, false))
            .collect();

        let mut sites: Vec<Vec<VertexId>> = vec![Vec::new(); warehouse.catalog().len()];
        for (v, p, units) in warehouse.location_matrix().iter() {
            if units > 0 {
                sites[p.index()].push(v);
            }
        }
        for list in &mut sites {
            list.sort_unstable_by_key(|v| v.index());
            list.dedup();
        }

        // Anchor per station: the lowest-indexed junction cell (3+ free
        // neighbors) a few field-steps out and able to route back, so
        // staged agents wait beside the flow instead of inside it.
        let anchors: Vec<VertexId> = (0..stations.len())
            .map(|q| {
                let pick = |lo: u32, hi: u32, need_junction: bool| {
                    graph.vertices().find(|&v| {
                        let d = from_station[q][v.index()];
                        (lo..=hi).contains(&d)
                            && to_station[q][v.index()] != u32::MAX
                            && !warehouse.is_station(v)
                            && (!need_junction || graph.neighbors(v).len() >= 3)
                    })
                };
                pick(2, 8, true)
                    .or_else(|| pick(1, 16, false))
                    .unwrap_or(stations[q])
            })
            .collect();

        let fields = DistFields::new(graph, &anchors, &to_station, &from_station, &sites);

        AuctionState {
            pending: VecDeque::new(),
            reserved: warehouse.location_matrix().clone(),
            open: vec![0; stations.len()],
            staged: vec![0; stations.len()],
            staged_of: vec![None; agents],
            missions: (0..agents).map(|_| None).collect(),
            // Dirty at construction: the first executed tick runs one
            // rebalance pass over the initial placement.
            idle_dirty: true,
            dirty: true,
            pass_clean: false,
            dirty_skip: true,
            fields,
            anchors,
            stations,
            to_station,
            relaxed,
            seen: vec![0; n],
            parent: vec![NO_INDEX; n],
            epoch: 0,
            frontier: VecDeque::new(),
            probe_dist: Vec::new(),
            probe_touched: Vec::new(),
            work: RouteWork::default(),
        }
    }

    /// Whether a mission may traverse `u -> v` (parity rule, or either
    /// endpoint relaxed).
    #[inline]
    pub(crate) fn edge_allowed(&self, graph: &FloorplanGraph, u: VertexId, v: VertexId) -> bool {
        parity_allows(graph.coord(u), graph.coord(v))
            || self.relaxed[u.index()]
            || self.relaxed[v.index()]
    }

    /// The cheapest `(station, site)` pair for a task of `product`:
    /// minimizes field-directed site-to-station distance plus
    /// `bias × open[station]`, over sites with unreserved stock.
    /// Tie-breaks by station index then site index — pure and
    /// order-independent. Per station this reads the first stocked
    /// entry of the cached ascending site list (amortized O(1); the
    /// pre-cache full scan is the oracle it is property-tested against).
    /// Stations `dark` (the engine's per-station outage table) marks
    /// closed are skipped outright: an outage removes them from the slate
    /// until it expires, and pressure redistributes through the bias
    /// term; queued tasks wait rather than vanish.
    pub(crate) fn pick_station_site(
        &mut self,
        product: ProductId,
        bias: u32,
        dark: ClosedSet<'_>,
    ) -> Option<(u16, VertexId)> {
        let mut best: Option<(u64, u16, VertexId)> = None;
        for q in 0..self.stations.len() {
            if dark.closed(q) {
                continue;
            }
            let Some((d, s)) = self.fields.first_stocked_in(q, product, &self.reserved) else {
                continue;
            };
            let cost = u64::from(d) + u64::from(bias) * u64::from(self.open[q]);
            if best.is_none_or(|(bc, bq, _)| (cost, q as u16) < (bc, bq)) {
                best = Some((cost, q as u16, s));
            }
        }
        best.map(|(_, q, s)| (q, s))
    }

    /// A follow-up `(station, site)` pair for batching: like
    /// [`pick_station_site`](Self::pick_station_site) but the agent
    /// starts from station `from`'s vertex, so the site leg is priced
    /// with the forward field distance out of that station.
    /// Walks the cached site list of the *from* station in ascending
    /// out-distance, so the scan stops as soon as the remaining
    /// out-distance alone exceeds the best total cost — the same pure
    /// `(cost, station, site)` minimum as a full scan (ties at the
    /// cutoff are still scanned: `d_out == best` can still win its
    /// tie-break with a zero in-distance-plus-pressure term). Skips dark
    /// stations like the first pick.
    pub(crate) fn pick_followup(
        &mut self,
        product: ProductId,
        from: u16,
        bias: u32,
        dark: ClosedSet<'_>,
    ) -> Option<(u16, VertexId)> {
        let stations = self.stations.len();
        let tail = self
            .fields
            .stocked_out_tail(from as usize, product, &self.reserved);
        let mut best: Option<(u64, u16, VertexId)> = None;
        for e in tail {
            if let Some((bc, _, _)) = best {
                if u64::from(e.d) > bc {
                    break;
                }
            }
            if self.reserved.units_at(e.site, product) == 0 {
                continue;
            }
            for q in 0..stations {
                if dark.closed(q) {
                    continue;
                }
                let d_in = self.to_station[q][e.site.index()];
                if d_in == u32::MAX {
                    continue;
                }
                let cost =
                    u64::from(e.d) + u64::from(d_in) + u64::from(bias) * u64::from(self.open[q]);
                if best.is_none_or(|(bc, bq, bs)| {
                    (cost, q as u16, e.site.index()) < (bc, bq, bs.index())
                }) {
                    best = Some((cost, q as u16, e.site));
                }
            }
        }
        best.map(|(_, q, s)| (q, s))
    }

    /// Field-directed BFS route from `from` to `to`, optionally banning
    /// one cell (reroutes ban the contested cell) and never expanding
    /// into a currently closed vertex (`from` itself may be closed — an
    /// agent caught inside a closing corridor routes *out* of it).
    /// Returns the vertex path including both endpoints, or `None` when
    /// the field admits no route. Deterministic: CSR neighbor order,
    /// dense parent table.
    pub(crate) fn route(
        &mut self,
        graph: &FloorplanGraph,
        from: VertexId,
        to: VertexId,
        ban: Option<VertexId>,
        closed: ClosedSet<'_>,
    ) -> Option<Vec<VertexId>> {
        if from == to {
            return Some(vec![from]);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.frontier.clear();
        self.seen[from.index()] = epoch;
        self.frontier.push_back(from.0);
        self.work.forward_searches += 1;
        while let Some(u) = self.frontier.pop_front() {
            self.work.forward_expanded += 1;
            let u = VertexId(u);
            for &v in graph.neighbors(u) {
                if self.seen[v.index()] == epoch
                    || Some(v) == ban
                    || closed.blocks(v)
                    || !self.edge_allowed(graph, u, v)
                {
                    continue;
                }
                self.seen[v.index()] = epoch;
                self.parent[v.index()] = u.0;
                if v == to {
                    let mut path = vec![v];
                    let mut cur = v;
                    while cur != from {
                        cur = VertexId(self.parent[cur.index()]);
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                self.frontier.push_back(v.0);
            }
        }
        None
    }

    /// [`route`](Self::route) without a ban, refusing (and counting as a
    /// cap rejection) any route longer than `cap` cells.
    pub(crate) fn route_capped(
        &mut self,
        graph: &FloorplanGraph,
        from: VertexId,
        to: VertexId,
        cap: u32,
        closed: ClosedSet<'_>,
    ) -> Option<Vec<VertexId>> {
        let path = self.route(graph, from, to, None, closed)?;
        if path.len() > cap as usize {
            self.work.cap_rejections += 1;
            return None;
        }
        Some(path)
    }

    /// The route from `from` to `field`'s site, exactly
    /// [`route_capped`](Self::route_capped)`(from, site, cap)`, served from
    /// one reverse field per site instead of one forward search per
    /// bidder.
    ///
    /// The field is a field-directed BFS *into* the site (edges `w -> u`
    /// that [`edge_allowed`](Self::edge_allowed) permits, never entering
    /// a closed cell; a closed site has no field). It lives on the probe
    /// scratch in the touched-list/cursor style of
    /// [`FloorplanGraph::bfs_bounded_begin`], is seeded by the first
    /// bidder that needs it, and expands only until the bidder's cell is
    /// labelled or the depth reaches `cap - 1` — so later bidders of the
    /// same slate are mostly O(1) lookups, and a bidder beyond the cap
    /// costs at most a cap-sized ball, not a floor-wide search.
    ///
    /// The path walks downhill from `from`, taking at each cell the first
    /// neighbour in CSR order whose edge is allowed and whose distance is
    /// one lower. That is the lexicographically first shortest path by
    /// CSR neighbour position — the same path `route`'s BFS parent
    /// pointers give. A bidder on a closed cell (inside a closing
    /// corridor, routing out of it) is outside the field and falls back
    /// to the forward search.
    pub(crate) fn site_route(
        &mut self,
        graph: &FloorplanGraph,
        field: &mut SiteField,
        from: VertexId,
        cap: u32,
        closed: ClosedSet<'_>,
    ) -> Option<Vec<VertexId>> {
        if cap == 0 {
            self.work.cap_rejections += 1;
            return None;
        }
        if from == field.site {
            return Some(vec![from]);
        }
        if closed.blocks(field.site) {
            // No route enters a closed site: the field would be empty.
            return None;
        }
        if closed.blocks(from) {
            return self.route_capped(graph, from, field.site, cap, closed);
        }
        let mut head = *field.head.get_or_insert_with(|| {
            // A depth-0 bounded BFS clears the probe's touched entries
            // and seeds the site, expanding nothing.
            let _ = graph.bfs_bounded_begin(
                field.site,
                0,
                &mut self.probe_dist,
                &mut self.probe_touched,
            );
            self.work.site_fields += 1;
            0
        });
        // Cells at depth `cap - 1` end paths of exactly `cap` cells; their
        // predecessors would not fit.
        let limit = cap - 1;
        while head < self.probe_touched.len() && self.probe_dist[from.index()] == u32::MAX {
            let u = VertexId(self.probe_touched[head]);
            let d = self.probe_dist[u.index()];
            if d >= limit {
                break;
            }
            head += 1;
            self.work.site_expanded += 1;
            for &w in graph.neighbors(u) {
                if self.probe_dist[w.index()] == u32::MAX
                    && !closed.blocks(w)
                    && self.edge_allowed(graph, w, u)
                {
                    self.probe_dist[w.index()] = d + 1;
                    self.probe_touched.push(w.0);
                }
            }
        }
        field.head = Some(head);

        let mut d = self.probe_dist[from.index()];
        if d == u32::MAX {
            // Unreached: either the field ran dry (no route at all) or it
            // stopped at the cap with cells still to expand.
            if head < self.probe_touched.len() {
                self.work.cap_rejections += 1;
            }
            return None;
        }
        // Every cell nearer the site than `from` is labelled (the BFS
        // finished those levels before labelling `from`), so the descent
        // always finds its next cell.
        let mut path = Vec::with_capacity(d as usize + 1);
        let mut cur = from;
        path.push(cur);
        while d > 0 {
            d -= 1;
            cur = graph
                .neighbors(cur)
                .iter()
                .copied()
                .find(|&w| self.probe_dist[w.index()] == d && self.edge_allowed(graph, cur, w))
                .expect("a labelled cell has a downhill neighbour");
            path.push(cur);
        }
        debug_assert_eq!(cur, field.site, "site-field descent ends at the site");
        Some(path)
    }

    /// A drift walk out of `from`: one field-allowed step (preferring an
    /// empty cell, then the lowest vertex index), then straight along the
    /// field while the corridor stays one cell wide, stopping at the
    /// first junction (3+ free neighbors — room for traffic to pass).
    /// Used to clear nudged blockers and to walk agents off stations
    /// after their final drop. Always returns a path starting at `from`
    /// (length 1 when the cell has no exit).
    pub(crate) fn drift_walk(
        &self,
        graph: &FloorplanGraph,
        from: VertexId,
        occupant: &[u32],
        closed: ClosedSet<'_>,
    ) -> Vec<VertexId> {
        let mut path = vec![from];
        let mut first: Option<(bool, u32)> = None;
        for &v in graph.neighbors(from) {
            if closed.blocks(v) || !self.edge_allowed(graph, from, v) {
                continue;
            }
            let occupied = occupant[v.index()] != NO_INDEX;
            if first.is_none_or(|(bo, bv)| (occupied, v.0) < (bo, bv)) {
                first = Some((occupied, v.0));
            }
        }
        let Some((_, v)) = first else { return path };
        let mut prev = from;
        let mut cur = VertexId(v);
        path.push(cur);
        while path.len() < 2_048 && graph.neighbors(cur).len() < 3 {
            let next = graph
                .neighbors(cur)
                .iter()
                .copied()
                .find(|&w| w != prev && !closed.blocks(w) && self.edge_allowed(graph, cur, w));
            let Some(w) = next else { break };
            if w == from {
                break;
            }
            path.push(w);
            prev = cur;
            cur = w;
        }
        path
    }
}

/// Field-directed BFS distances over the whole graph: from `source`
/// outward (`reverse == false`, "how far from the station") or from
/// everywhere into `source` (`reverse == true`, "how far to the
/// station").
fn directed_distances(
    graph: &FloorplanGraph,
    relaxed: &[bool],
    source: VertexId,
    reverse: bool,
) -> Vec<u32> {
    let allowed = |u: VertexId, v: VertexId| {
        parity_allows(graph.coord(u), graph.coord(v)) || relaxed[u.index()] || relaxed[v.index()]
    };
    let mut dist = vec![u32::MAX; graph.vertex_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()];
        for &w in graph.neighbors(u) {
            let ok = if reverse {
                allowed(w, u)
            } else {
                allowed(u, w)
            };
            if ok && dist[w.index()] == u32::MAX {
                dist[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_agent_is_a_pure_min_by_cost_then_index() {
        let bids = [
            AgentBid { agent: 7, cost: 3 },
            AgentBid { agent: 2, cost: 3 },
            AgentBid { agent: 5, cost: 1 },
        ];
        assert_eq!(select_agent(&bids), Some(AgentBid { agent: 5, cost: 1 }));
        let mut rev = bids;
        rev.reverse();
        assert_eq!(select_agent(&rev), select_agent(&bids));
        assert_eq!(select_agent(&[]), None);
        // Equal costs break toward the lower agent index.
        assert_eq!(
            select_agent(&bids[..2]),
            Some(AgentBid { agent: 2, cost: 3 })
        );
    }

    #[test]
    fn parity_field_is_antisymmetric_on_unrelaxed_edges() {
        // One cell per quadrant of parity: exactly one direction each.
        for (a, b) in [
            (Coord::new(4, 2), Coord::new(5, 2)), // even row: east only
            (Coord::new(4, 3), Coord::new(5, 3)), // odd row: west only
            (Coord::new(4, 2), Coord::new(4, 3)), // even col: north only
            (Coord::new(5, 2), Coord::new(5, 3)), // odd col: south only
        ] {
            assert_ne!(parity_allows(a, b), parity_allows(b, a));
        }
    }

    use proptest::prelude::*;

    /// The pre-cache site pickers, reconstructed fresh: full scans over
    /// every `(station, site)` pair with a `units_at` lookup each — the
    /// behaviour [`AuctionState::pick_station_site`] and
    /// [`AuctionState::pick_followup`] replaced with cached sorted lists.
    fn oracle_station_site(
        auc: &AuctionState,
        sites: &[Vec<VertexId>],
        product: ProductId,
        bias: u32,
    ) -> Option<(u16, VertexId)> {
        let mut best: Option<(u64, u16, VertexId)> = None;
        for q in 0..auc.stations.len() {
            let near = sites[product.index()]
                .iter()
                .filter(|&&s| auc.reserved.units_at(s, product) > 0)
                .filter_map(|&s| {
                    let d = auc.to_station[q][s.index()];
                    (d != u32::MAX).then_some((d, s))
                })
                .min_by_key(|&(d, s)| (d, s.index()));
            let Some((d, s)) = near else { continue };
            let cost = u64::from(d) + u64::from(bias) * u64::from(auc.open[q]);
            if best.is_none_or(|(bc, bq, _)| (cost, q as u16) < (bc, bq)) {
                best = Some((cost, q as u16, s));
            }
        }
        best.map(|(_, q, s)| (q, s))
    }

    fn oracle_followup(
        auc: &AuctionState,
        from_station: &[Vec<u32>],
        sites: &[Vec<VertexId>],
        product: ProductId,
        from: u16,
        bias: u32,
    ) -> Option<(u16, VertexId)> {
        let mut best: Option<(u64, u16, VertexId)> = None;
        for &s in &sites[product.index()] {
            if auc.reserved.units_at(s, product) == 0 {
                continue;
            }
            let d_out = from_station[from as usize][s.index()];
            if d_out == u32::MAX {
                continue;
            }
            for q in 0..auc.stations.len() {
                let d_in = auc.to_station[q][s.index()];
                if d_in == u32::MAX {
                    continue;
                }
                let cost =
                    u64::from(d_out) + u64::from(d_in) + u64::from(bias) * u64::from(auc.open[q]);
                if best
                    .is_none_or(|(bc, bq, bs)| (cost, q as u16, s.index()) < (bc, bq, bs.index()))
                {
                    best = Some((cost, q as u16, s));
                }
            }
        }
        best.map(|(_, q, s)| (q, s))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The distance-field cache agrees with fresh computations on
        /// random scaled-warehouse instances: every anchor field equals a
        /// fresh full [`FloorplanGraph::bfs_distances`], and both cached
        /// site pickers return exactly what the pre-cache full scans
        /// return — under random station pressure and as random
        /// assignment-style reservations monotonically drain the stock.
        #[test]
        fn cached_fields_and_pickers_agree_with_fresh_scans(
            map_seed in 0u64..50,
            opens in proptest::collection::vec(0u32..5, 16),
            ops in proptest::collection::vec((0usize..64, 0u32..3, 0usize..16), 1..80),
        ) {
            let map = wsp_maps::scaled_warehouse(5, 40, 3, map_seed)
                .expect("small scaled map builds");
            let warehouse = &map.warehouse;
            let graph = warehouse.graph();
            let mut auc = AuctionState::new(warehouse, 8);

            // Anchor fields: cached == fresh full BFS.
            for (q, &a) in auc.anchors.clone().iter().enumerate() {
                prop_assert_eq!(auc.fields.anchor_field(q), &graph.bfs_distances(a)[..]);
            }

            // Rebuild the site lists the constructor derived (the oracle
            // scans them the way the pre-cache pickers did).
            let mut sites: Vec<Vec<VertexId>> = vec![Vec::new(); warehouse.catalog().len()];
            for (v, p, units) in warehouse.location_matrix().iter() {
                if units > 0 {
                    sites[p.index()].push(v);
                }
            }
            for list in &mut sites {
                list.sort_unstable_by_key(|v| v.index());
                list.dedup();
            }
            let from_station: Vec<Vec<u32>> = auc
                .stations
                .iter()
                .map(|&s| directed_distances(graph, &auc.relaxed, s, false))
                .collect();

            for (i, &q) in opens.iter().enumerate() {
                if i < auc.open.len() {
                    auc.open[i] = q;
                }
            }
            let products = warehouse.catalog().len();
            let stations = auc.stations.len();
            for &(raw_p, bias, raw_q) in &ops {
                let product = ProductId((raw_p % products) as u32);
                let from = (raw_q % stations) as u16;
                let expect_first = oracle_station_site(&auc, &sites, product, bias);
                let none_dark = ClosedSet::default();
                prop_assert_eq!(auc.pick_station_site(product, bias, none_dark), expect_first);
                let expect_follow =
                    oracle_followup(&auc, &from_station, &sites, product, from, bias);
                prop_assert_eq!(auc.pick_followup(product, from, bias, none_dark), expect_follow);
                // Reserve one unit at the picked site, exactly like an
                // assignment commit — the only way stock ever changes.
                if let Some((_, s)) = expect_first {
                    auc.reserved.remove_units(s, product, 1);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every site-field route is exactly the capped forward route it
        /// replaced, `route(from, site).filter(|p| p.len() <= cap)`, on
        /// small scaled-warehouse and sorting-center floors under random
        /// closures (closed sites and closed bidders included), at caps
        /// 0, 1, 2, small, 1 024 and unbounded, with many bidders — the
        /// site itself among them — sharing one lazily expanded field,
        /// and several slates in a row on the same (dirty) probe scratch.
        #[test]
        fn site_field_routes_equal_capped_forward_routes(
            floor in 0u32..3,
            map_seed in 0u64..50,
            closed_raw in proptest::collection::vec(0u32..100_000, 0..24),
            cap_pick in 0usize..6,
            small_cap in 3u32..80,
            slates in proptest::collection::vec(
                (
                    0u32..100_000,
                    0u32..4,
                    proptest::collection::vec(0u32..100_000, 1..24),
                    0usize..24,
                ),
                1..4,
            ),
        ) {
            let map = if floor == 2 {
                wsp_maps::sorting_center().expect("sorting center builds")
            } else {
                wsp_maps::scaled_warehouse(5, 40, 3, map_seed).expect("small scaled map builds")
            };
            let warehouse = &map.warehouse;
            let graph = warehouse.graph();
            let n = graph.vertex_count() as u32;
            let mut auc = AuctionState::new(warehouse, 8);
            let cap = [0, 1, 2, small_cap, 1024, u32::MAX][cap_pick];

            let closed_cells: Vec<u32> = closed_raw.iter().map(|&c| c % n).collect();
            let mut until = vec![0u64; n as usize];
            for &c in &closed_cells {
                until[c as usize] = 5;
            }
            for &(site_raw, site_mode, ref bidders_raw, site_at) in &slates {
                // Mode 0 closes the site; mode 1 puts a bidder on a closed
                // cell; the rest draw freely.
                let site = VertexId(site_raw % n);
                let site_closed_before = until[site.index()];
                if site_mode == 0 {
                    until[site.index()] = 5;
                }
                let closed = ClosedSet { until: &until, t: 3 };
                let mut bidders: Vec<VertexId> =
                    bidders_raw.iter().map(|&b| VertexId(b % n)).collect();
                if site_mode == 1 && !closed_cells.is_empty() {
                    let c = closed_cells[site_raw as usize % closed_cells.len()];
                    bidders[0] = VertexId(c);
                }
                bidders.insert(site_at % (bidders.len() + 1), site);

                // Leave the probe scratch as the bid slate does: an
                // undirected bounded BFS from the site.
                let (dist, touched) = (&mut auc.probe_dist, &mut auc.probe_touched);
                let _ = graph.bfs_bounded_begin(site, 32, dist, touched);
                let mut field = SiteField::new(site);
                for &from in &bidders {
                    let expect = auc
                        .route(graph, from, site, None, closed)
                        .filter(|p| p.len() <= cap as usize);
                    let got = auc.site_route(graph, &mut field, from, cap, closed);
                    prop_assert_eq!(got, expect, "from {:?} to {:?} at cap {}", from, site, cap);
                }
                until[site.index()] = site_closed_before;
            }
        }
    }
}
