//! Space-time A*: single-agent shortest paths over (vertex, time) with
//! wait moves, reservations, CBS constraints, and an optional focal layer
//! for bounded-suboptimal search.
//!
//! The search state is stored flat: one open-addressed, frontier-sized
//! layer map per reached time layer (see [`LayerMap`]), so the expansion
//! loop touches only array slots and the CSR neighbour slices of the graph
//! — no hasher, and memory proportional to the states actually reached
//! rather than to `horizon × vertices`.

use std::collections::BTreeSet;

use wsp_model::{FloorplanGraph, VertexId};

use crate::ReservationTable;

/// CBS-style hard constraints for one agent.
///
/// Stored as sorted vectors (constraint sets are tiny — one entry per CBS
/// branch on the path from the root), so membership checks in the A*
/// expansion loop are binary searches over contiguous memory.
#[derive(Debug, Clone, Default)]
pub struct Constraints {
    /// Forbidden (time, vertex) pairs, sorted.
    vertex: Vec<(u32, VertexId)>,
    /// Forbidden (departure-time, from, to) moves, sorted.
    edge: Vec<(u32, VertexId, VertexId)>,
}

impl Constraints {
    /// Forbids occupying `v` at time `t`.
    pub fn forbid_vertex(&mut self, v: VertexId, t: usize) {
        let key = (t as u32, v);
        if let Err(at) = self.vertex.binary_search(&key) {
            self.vertex.insert(at, key);
        }
    }

    /// Forbids the move `from → to` departing at time `t`.
    pub fn forbid_edge(&mut self, from: VertexId, to: VertexId, t: usize) {
        let key = (t as u32, from, to);
        if let Err(at) = self.edge.binary_search(&key) {
            self.edge.insert(at, key);
        }
    }

    /// Whether occupying `v` at `t` is allowed.
    pub fn allows_vertex(&self, v: VertexId, t: usize) -> bool {
        self.vertex.binary_search(&(t as u32, v)).is_err()
    }

    /// Whether the move `u → v` departing at `t` is allowed.
    pub fn allows_edge(&self, u: VertexId, v: VertexId, t: usize) -> bool {
        self.edge.binary_search(&(t as u32, u, v)).is_err()
    }

    /// The latest time at which `v` is constrained (an agent may only
    /// finish at `v` strictly after this).
    pub fn latest_vertex_constraint(&self, v: VertexId) -> Option<usize> {
        self.vertex
            .iter()
            .rev()
            .find(|&&(_, cv)| cv == v)
            .map(|&(t, _)| t as usize)
    }
}

/// A query for one path segment.
#[derive(Debug, Clone, Copy)]
pub struct PlanQuery<'a> {
    /// Start vertex.
    pub start: VertexId,
    /// Absolute timestep at which the agent stands on `start`.
    pub start_time: usize,
    /// Goal vertex of this segment.
    pub goal: VertexId,
    /// Reservations of already-planned agents (prioritized planning).
    pub reservations: Option<&'a ReservationTable>,
    /// Hard constraints of this agent (CBS).
    pub constraints: Option<&'a Constraints>,
    /// Other agents' committed paths, for focal conflict counting.
    pub conflict_paths: Option<&'a [Vec<VertexId>]>,
    /// Whether the agent must be able to stay at `goal` forever
    /// (final segment) rather than merely touch it (intermediate waypoint).
    pub require_parkable: bool,
}

/// The space-time A* searcher.
///
/// With `focal_weight = 1.0` this is plain optimal A*; with `w > 1` it runs
/// a focal search returning a path of cost at most `w ×` optimal while
/// minimizing conflicts against [`PlanQuery::conflict_paths`] — the
/// low-level of ECBS.
#[derive(Debug, Clone)]
pub struct SpaceTimeAstar {
    /// Hard horizon on path length (timesteps).
    pub max_time: usize,
    /// Focal suboptimality factor `w ≥ 1`.
    pub focal_weight: f64,
}

impl Default for SpaceTimeAstar {
    fn default() -> Self {
        SpaceTimeAstar {
            max_time: 512,
            focal_weight: 1.0,
        }
    }
}

/// A found segment: the timed path (absolute; `path[0]` is at
/// `query.start_time`) and the optimal-cost lower bound `f_min` observed
/// (used by ECBS's high level).
#[derive(Debug, Clone)]
pub struct SegmentPath {
    /// `path[i]` is the vertex at time `start_time + i`.
    pub path: Vec<VertexId>,
    /// Lower bound on the optimal segment cost.
    pub f_min: usize,
}

/// Sentinel for unvisited/empty slots in the layer maps.
const UNVISITED: u32 = wsp_model::NO_INDEX;

/// Reusable scratch for [`SpaceTimeAstar`]: the BFS heuristic field (an
/// O(vertices) buffer recomputed per segment) and the per-time-layer maps,
/// kept across searches so multi-segment and multi-agent planning loops
/// (prioritized planning runs one search per itinerary leg per agent) stop
/// allocating per segment. The prioritized planner threads one scratch
/// through every search of a solve automatically; callers driving
/// [`SpaceTimeAstar::plan_with_scratch`] directly get the same benefit.
#[derive(Debug, Default)]
pub struct SearchScratch {
    heuristic: Vec<u32>,
    /// Touched-list for the depth-bounded heuristic field; paired with
    /// `heuristic` whenever the bounded BFS maintains it.
    heuristic_touched: Vec<u32>,
    /// Whether `heuristic` was last written by the full-graph BFS (every
    /// entry finite where reachable) rather than the bounded one — the
    /// bounded path must rebuild from scratch after a dense fill, since
    /// its touched-list no longer covers the finite entries.
    heuristic_dense: bool,
    layers: Vec<LayerMap>,
}

impl SearchScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

/// One time layer of the search, stored as an open-addressed table sized by
/// the layer's *frontier* rather than by the whole graph. Slots are indexed
/// straight off the dense [`VertexId`] bits (a Fibonacci scramble plus
/// linear probing) — no hasher, no per-vertex allocation, O(reached) memory
/// per layer instead of the former O(vertex_count) dense rows, which is
/// what keeps space-time A* viable on ~100k-vertex maps.
///
/// Since every step costs 1, `g = t` is fixed by the layer; entries only
/// compete on conflict count.
#[derive(Debug, Default)]
struct LayerMap {
    /// Vertex id per slot ([`UNVISITED`] = empty). Length is a power of 2.
    keys: Vec<u32>,
    /// Fewest conflicts with which (v, t) was reached.
    best: Vec<u32>,
    /// The predecessor vertex at `t - 1` achieving `best` ([`UNVISITED`]
    /// for the root).
    parent: Vec<u32>,
    /// Whether (v, t) has been expanded.
    closed: Vec<bool>,
    /// Occupied slots.
    len: usize,
}

impl LayerMap {
    /// Smallest allocated capacity (slots); must be a power of 2.
    const MIN_CAPACITY: usize = 64;

    /// The slot holding `key`, or the empty slot where it belongs.
    fn probe(&self, key: u32) -> usize {
        let mask = self.keys.len() - 1;
        // Fibonacci scramble: spreads consecutive grid ids across slots
        // using only index arithmetic on the id.
        let mut at = (key.wrapping_mul(0x9e37_79b9) as usize) & mask;
        while self.keys[at] != UNVISITED && self.keys[at] != key {
            at = (at + 1) & mask;
        }
        at
    }

    /// The slot of `key`, if present.
    fn find(&self, key: u32) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let at = self.probe(key);
        (self.keys[at] == key).then_some(at)
    }

    /// The slot of `key`, inserting an unvisited entry if absent. Keeps the
    /// load factor at or below 1/2.
    fn entry(&mut self, key: u32) -> usize {
        if self.keys.is_empty() {
            self.grow();
        }
        let mut at = self.probe(key);
        if self.keys[at] == key {
            return at;
        }
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
            at = self.probe(key);
        }
        self.keys[at] = key;
        self.best[at] = UNVISITED;
        self.parent[at] = UNVISITED;
        self.closed[at] = false;
        self.len += 1;
        at
    }

    /// Empties the map while keeping its allocation (for scratch reuse);
    /// `best`/`parent`/`closed` need no wipe — [`entry`](Self::entry)
    /// initializes them on insertion. A no-op on already-empty maps, so
    /// the per-search reset sweep pays a table wipe only for the layers
    /// the *previous* search actually populated (not for every layer the
    /// deepest search of the scratch's lifetime ever reached).
    fn reset(&mut self) {
        if self.len == 0 {
            return;
        }
        self.keys.fill(UNVISITED);
        self.len = 0;
    }

    fn grow(&mut self) {
        let capacity = (self.keys.len() * 2).max(Self::MIN_CAPACITY);
        let old = std::mem::replace(
            self,
            LayerMap {
                keys: vec![UNVISITED; capacity],
                best: vec![UNVISITED; capacity],
                parent: vec![UNVISITED; capacity],
                closed: vec![false; capacity],
                len: 0,
            },
        );
        for (slot, &key) in old.keys.iter().enumerate() {
            if key == UNVISITED {
                continue;
            }
            let at = self.probe(key);
            self.keys[at] = key;
            self.best[at] = old.best[slot];
            self.parent[at] = old.parent[slot];
            self.closed[at] = old.closed[slot];
            self.len += 1;
        }
    }
}

/// Lazily grown stack of time layers, indexed by `t - start_time`, borrowed
/// from a [`SearchScratch`]. Unreached layers own no heap memory.
#[derive(Debug)]
struct LayerTable<'s> {
    start_time: usize,
    layers: &'s mut Vec<LayerMap>,
}

impl LayerTable<'_> {
    fn layer(&mut self, t: usize) -> &mut LayerMap {
        let rel = t - self.start_time;
        if rel >= self.layers.len() {
            self.layers.resize_with(rel + 1, LayerMap::default);
        }
        &mut self.layers[rel]
    }

    /// The recorded parent of (v, t), if any (`None` when the layer was
    /// never reached or the slot is a root).
    fn parent_of(&self, v: VertexId, t: usize) -> Option<VertexId> {
        let rel = t.checked_sub(self.start_time)?;
        let layer = self.layers.get(rel)?;
        let at = layer.find(v.0)?;
        let p = layer.parent[at];
        (p != UNVISITED).then_some(VertexId(p))
    }
}

impl SpaceTimeAstar {
    /// Plans one segment.
    ///
    /// Returns `None` if no path exists within `max_time`.
    pub fn plan(&self, graph: &FloorplanGraph, query: &PlanQuery<'_>) -> Option<SegmentPath> {
        self.plan_with_scratch(graph, query, &mut SearchScratch::new())
    }

    /// [`plan`](Self::plan) reusing caller-owned [`SearchScratch`] buffers,
    /// the allocation-light entry point for planners that run many segment
    /// searches over the same graph.
    pub fn plan_with_scratch(
        &self,
        graph: &FloorplanGraph,
        query: &PlanQuery<'_>,
        scratch: &mut SearchScratch,
    ) -> Option<SegmentPath> {
        let SearchScratch {
            heuristic,
            heuristic_touched,
            heuristic_dense,
            layers,
        } = scratch;
        // With no focal band (weight <= 1.0) a state whose heuristic
        // exceeds the remaining time budget can never reach the goal in
        // time nor outrank a viable state in the open-set order, so the
        // field only needs exact values within the budget: a depth-bounded
        // BFS with a touched-list reset makes deadline-capped searches
        // (the sim's catch-up repairs) cost O(budget area), not
        // O(vertices). Focal searches (ECBS) can expand beyond-budget
        // states out of f-order and keep the full field.
        if self.focal_weight <= 1.0 {
            if *heuristic_dense {
                heuristic.clear();
            }
            *heuristic_dense = false;
            let cap = self.max_time.saturating_sub(query.start_time) as u32;
            graph.bfs_distances_bounded_into(query.goal, cap, heuristic, heuristic_touched);
        } else {
            graph.bfs_distances_into(query.goal, heuristic);
            *heuristic_dense = true;
        }
        if heuristic[query.start.index()] == u32::MAX {
            return None;
        }
        let min_end = query
            .constraints
            .map(|c| c.latest_vertex_constraint(query.goal).map_or(0, |t| t + 1))
            .unwrap_or(0);
        // Deadline lift for park-at-goal queries: the agent cannot finish
        // before the goal is free forever, so every state's f is at least
        // that time (max of two consistent heuristics stays consistent). A
        // permanently parked goal has no plan at all.
        let earliest_park = match (query.require_parkable, query.reservations) {
            (true, Some(rt)) => rt.earliest_free_forever(query.goal)?,
            _ => 0,
        };

        for layer in layers.iter_mut() {
            layer.reset();
        }
        let mut layers = LayerTable {
            start_time: query.start_time,
            layers,
        };
        // Ordered open set: (f, conflicts, depth_seq, vertex, time).
        // BTreeSet gives both f_min (first element) and a scannable focal
        // range. `depth_seq` breaks f/conflict ties toward *larger t*
        // (deeper states first — admissible for any tie-break among equal
        // f): warehouse floors are corridor mazes whose equal-f bands can
        // hold tens of thousands of states, and depth-first tie-breaking
        // walks one shortest path through the band instead of flooding it.
        let mut open: BTreeSet<(usize, usize, u64, VertexId, usize)> = BTreeSet::new();
        let mut seq = 0u64;
        let depth_seq = |t: usize, seq: u64| {
            ((self.max_time + 1).saturating_sub(t) as u64) << 32 | (seq & 0xFFFF_FFFF)
        };

        let count_conflicts = |u: VertexId, v: VertexId, t_arrive: usize| -> usize {
            let Some(paths) = query.conflict_paths else {
                return 0;
            };
            let mut n = 0;
            for p in paths {
                if p.is_empty() {
                    continue;
                }
                let at = |time: usize| *p.get(time).unwrap_or(p.last().expect("non-empty"));
                if at(t_arrive) == v {
                    n += 1;
                }
                if t_arrive > 0 && u != v && at(t_arrive) == u && at(t_arrive - 1) == v {
                    n += 1;
                }
            }
            n
        };

        let h0 = heuristic[query.start.index()] as usize;
        let root_layer = layers.layer(query.start_time);
        let root_slot = root_layer.entry(query.start.0);
        root_layer.best[root_slot] = 0;
        open.insert((
            (query.start_time + h0).max(earliest_park),
            0,
            depth_seq(query.start_time, seq),
            query.start,
            query.start_time,
        ));
        seq += 1;

        while let Some(&(f_min, ..)) = open.first() {
            // Focal selection: among f <= w * f_min, minimize conflicts.
            // Without a focal band (w <= 1) that band is exactly the f_min
            // entries, ordered by conflicts next, so the choice is the
            // set's first element and needs no scan.
            let chosen = if self.focal_weight > 1.0 {
                let bound = (self.focal_weight * f_min as f64).floor() as usize;
                let chosen = *open
                    .range(..=(bound, usize::MAX, u64::MAX, VertexId(u32::MAX), usize::MAX))
                    .min_by_key(|&&(f, c, _, _, _)| (c, f))
                    .expect("range contains at least the f_min node");
                open.remove(&chosen);
                chosen
            } else {
                open.pop_first().expect("non-empty")
            };
            let (_, conflicts, _, v, t) = chosen;
            let layer = layers.layer(t);
            let slot = layer.entry(v.0);
            if layer.closed[slot] {
                continue;
            }
            // Stale entry: a cheaper-conflict duplicate was queued later.
            if (layer.best[slot] as usize) < conflicts {
                continue;
            }
            layer.closed[slot] = true;

            // Goal test.
            if v == query.goal && t >= min_end {
                let parkable = match (query.require_parkable, query.reservations) {
                    (true, Some(rt)) => rt.free_forever(v, t),
                    _ => true,
                };
                if parkable {
                    // Reconstruct along best-conflict parents.
                    let mut rev = vec![v];
                    let (mut cv, mut ct) = (v, t);
                    while let Some(p) = layers.parent_of(cv, ct) {
                        rev.push(p);
                        cv = p;
                        ct -= 1;
                    }
                    rev.reverse();
                    return Some(SegmentPath { path: rev, f_min });
                }
            }

            if t + 1 > self.max_time {
                continue;
            }

            // Expand: wait + moves along the CSR neighbour slice.
            let nt = t + 1;
            let mut push = |layers: &mut LayerTable, to: VertexId| {
                if let Some(rt) = query.reservations {
                    if !rt.vertex_free(to, nt) || !rt.edge_free(v, to, t) {
                        return;
                    }
                }
                if let Some(cs) = query.constraints {
                    if !cs.allows_vertex(to, nt) || !cs.allows_edge(v, to, t) {
                        return;
                    }
                }
                let h = heuristic[to.index()];
                if h == u32::MAX {
                    return;
                }
                let next = layers.layer(nt);
                let slot = next.entry(to.0);
                if next.closed[slot] {
                    return;
                }
                let f = (nt + h as usize).max(earliest_park);
                let c = conflicts + count_conflicts(v, to, nt);
                if (c as u32) < next.best[slot] {
                    next.best[slot] = c as u32;
                    next.parent[slot] = v.0;
                    open.insert((f, c, depth_seq(nt, seq), to, nt));
                    seq += 1;
                }
            };
            push(&mut layers, v); // wait
            for &n in graph.neighbors(v) {
                push(&mut layers, n);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::GridMap;

    fn graph(art: &str) -> FloorplanGraph {
        FloorplanGraph::from_grid(&GridMap::from_ascii(art).unwrap())
    }

    fn v(g: &FloorplanGraph, x: u32, y: u32) -> VertexId {
        g.vertex_at((x, y).into()).unwrap()
    }

    #[test]
    fn straight_line_optimal() {
        let g = graph(".....");
        let q = PlanQuery {
            start: v(&g, 0, 0),
            start_time: 0,
            goal: v(&g, 4, 0),
            reservations: None,
            constraints: None,
            conflict_paths: None,
            require_parkable: false,
        };
        let seg = SpaceTimeAstar::default().plan(&g, &q).unwrap();
        assert_eq!(seg.path.len(), 5);
        assert_eq!(seg.f_min, 4);
    }

    #[test]
    fn routes_around_reservations() {
        // A crossing agent sweeps (1,1) -> (1,0) -> (2,0) and parks there.
        let g = graph("...\n...");
        let mut rt = ReservationTable::new(g.vertex_count());
        rt.reserve_path(&[v(&g, 1, 1), v(&g, 1, 0), v(&g, 2, 0)]);
        let q = PlanQuery {
            start: v(&g, 0, 0),
            start_time: 0,
            goal: v(&g, 2, 1),
            reservations: Some(&rt),
            constraints: None,
            conflict_paths: None,
            require_parkable: true,
        };
        let seg = SpaceTimeAstar::default().plan(&g, &q).unwrap();
        assert_eq!(*seg.path.first().unwrap(), v(&g, 0, 0));
        assert_eq!(*seg.path.last().unwrap(), v(&g, 2, 1));
        assert!(seg.path.len() >= 4);
        // Verify the path respects every reservation slot.
        for (t, &pv) in seg.path.iter().enumerate() {
            assert!(rt.vertex_free(pv, t), "cell {pv} taken at t={t}");
        }
    }

    #[test]
    fn cbs_constraints_respected() {
        let g = graph("...");
        let mut cs = Constraints::default();
        cs.forbid_vertex(v(&g, 1, 0), 1);
        let q = PlanQuery {
            start: v(&g, 0, 0),
            start_time: 0,
            goal: v(&g, 2, 0),
            reservations: None,
            constraints: Some(&cs),
            conflict_paths: None,
            require_parkable: false,
        };
        let seg = SpaceTimeAstar::default().plan(&g, &q).unwrap();
        // Must wait one step: 0,0 -> wait -> 1,0 -> 2,0.
        assert_eq!(seg.path.len(), 4);
        assert_ne!(seg.path[1], v(&g, 1, 0));
    }

    #[test]
    fn goal_constraint_forces_late_arrival() {
        let g = graph("...");
        let mut cs = Constraints::default();
        cs.forbid_vertex(v(&g, 2, 0), 5);
        let q = PlanQuery {
            start: v(&g, 0, 0),
            start_time: 0,
            goal: v(&g, 2, 0),
            reservations: None,
            constraints: Some(&cs),
            conflict_paths: None,
            require_parkable: false,
        };
        let seg = SpaceTimeAstar::default().plan(&g, &q).unwrap();
        assert!(seg.path.len() >= 7); // arrive at t >= 6
    }

    #[test]
    fn unreachable_goal_is_none() {
        let g = graph(".x.");
        let q = PlanQuery {
            start: v(&g, 0, 0),
            start_time: 0,
            goal: v(&g, 2, 0),
            reservations: None,
            constraints: None,
            conflict_paths: None,
            require_parkable: false,
        };
        assert!(SpaceTimeAstar::default().plan(&g, &q).is_none());
    }

    #[test]
    fn focal_prefers_conflict_free_detour() {
        let g = graph("...\n...");
        // Another agent parks on the straight route's middle cell.
        let other = vec![vec![v(&g, 1, 0); 6]];
        let q = PlanQuery {
            start: v(&g, 0, 0),
            start_time: 0,
            goal: v(&g, 2, 0),
            reservations: None,
            constraints: None,
            conflict_paths: Some(&other),
            require_parkable: false,
        };
        let focal = SpaceTimeAstar {
            focal_weight: 2.0,
            ..SpaceTimeAstar::default()
        };
        let seg = focal.plan(&g, &q).unwrap();
        // The detour via row y=1 has zero conflicts and cost 4 <= 2 * 2.
        assert!(!seg.path.contains(&v(&g, 1, 0)));
    }

    #[test]
    fn start_time_offsets_are_respected() {
        let g = graph("..");
        let q = PlanQuery {
            start: v(&g, 0, 0),
            start_time: 7,
            goal: v(&g, 1, 0),
            reservations: None,
            constraints: None,
            conflict_paths: None,
            require_parkable: false,
        };
        let seg = SpaceTimeAstar::default().plan(&g, &q).unwrap();
        assert_eq!(seg.path.len(), 2);
        assert_eq!(seg.f_min, 8); // f accounts for the absolute clock
    }

    #[test]
    fn constraint_membership_checks() {
        let g = graph("...");
        let (a, b) = (v(&g, 0, 0), v(&g, 1, 0));
        let mut cs = Constraints::default();
        cs.forbid_vertex(a, 3);
        cs.forbid_vertex(a, 3); // idempotent
        cs.forbid_edge(a, b, 2);
        assert!(!cs.allows_vertex(a, 3));
        assert!(cs.allows_vertex(a, 2));
        assert!(!cs.allows_edge(a, b, 2));
        assert!(cs.allows_edge(b, a, 2));
        assert_eq!(cs.latest_vertex_constraint(a), Some(3));
        assert_eq!(cs.latest_vertex_constraint(b), None);
    }
}
