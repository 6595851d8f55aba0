//! MAPF catch-up repair: when an agent falls far enough behind its window
//! plan (a stall of its own, or a convoy queued behind one), the engine
//! tries to splice in a space-time A* detour that rejoins the plan
//! downstream *on schedule*, planned against a [`ReservationTable`]
//! holding every other agent's projected trajectory.
//!
//! The fan-out is the same determinism shape as `wsp-explore`'s batch
//! evaluator: workers claim request indices off an atomic counter, search
//! against the shared read-only table with per-worker
//! [`SearchScratch`] tables, and write results into request-indexed
//! slots — so the outcome is a pure function of the requests at every
//! thread count. The simulation keeps one scratch per worker for its
//! lifetime: every search starts from clean tables whatever ran before,
//! so a kept scratch answers exactly as a fresh one would. Requests whose
//! rejoin cell is reserved at the deadline are refused before any search
//! (see [`RepairWork::pruned`]). Acceptance then runs sequentially in
//! agent order, cross-checking accepted paths pairwise (candidates are
//! not in the shared table), which keeps the applied set
//! order-independent too.

use std::sync::atomic::{AtomicUsize, Ordering};

use wsp_mapf::{PlanQuery, ReservationTable, SearchScratch, SpaceTimeAstar};
use wsp_model::{FloorplanGraph, VertexId};

/// One catch-up request: route `agent` from `start` (its actual position,
/// relative time 0) to `goal` (its plan cell at the rejoin index),
/// arriving in at most `deadline` ticks so the rejoin is back on schedule.
#[derive(Debug, Clone)]
pub(crate) struct RepairRequest {
    pub agent: usize,
    pub start: VertexId,
    pub goal: VertexId,
    /// Relative arrival budget; the found path is padded with waits at
    /// `goal` to exactly this length, so acceptance means lag-zero rejoin.
    pub deadline: usize,
    /// Window-plan index the agent's cursor jumps to on completion.
    pub rejoin_cursor: usize,
    /// The agent's lag when the request was made (batch-cap priority).
    pub lag: usize,
}

/// An accepted catch-up: the padded relative path (`path[0] == start`,
/// `path[deadline] == goal`) and the rejoin index.
#[derive(Debug, Clone)]
pub(crate) struct RepairPath {
    pub path: Vec<VertexId>,
    /// Progress along `path` (index of the cell the agent stands on).
    pub at: usize,
    pub rejoin_cursor: usize,
}

/// Deterministic work counters of catch-up repair, read through
/// [`Simulation::repair_work`](crate::Simulation::repair_work). Every
/// attempted request is either searched or pruned, so `searches + pruned`
/// equals `SimCounters::repairs_attempted`. They are a pure function of
/// the requests, so they repeat exactly at any repair thread count, and
/// they are never rendered in [`SimReport::to_json`](crate::SimReport::to_json).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairWork {
    /// Requests that ran a space-time A* search.
    pub searches: u64,
    /// Requests refused without a search: their rejoin cell is reserved
    /// at the deadline, so no path could be padded to it.
    pub pruned: u64,
}

impl RepairWork {
    pub(crate) fn add(&mut self, other: RepairWork) {
        self.searches += other.searches;
        self.pruned += other.pruned;
    }
}

/// Plans every request against the shared reservation table on up to
/// `scratches.len()` scoped workers, one kept search scratch each, and
/// returns accepted, padded paths in request-indexed slots (`None` = no
/// path within the deadline) with the work it took.
pub(crate) fn plan_repairs(
    graph: &FloorplanGraph,
    table: &ReservationTable,
    requests: &[RepairRequest],
    scratches: &mut [SearchScratch],
) -> (Vec<Option<Vec<VertexId>>>, RepairWork) {
    let n = requests.len();
    let mut slots: Vec<Option<Vec<VertexId>>> = Vec::new();
    slots.resize_with(n, || None);
    let mut work = RepairWork::default();
    if n == 0 {
        return (slots, work);
    }
    // Deadline-capped searches are microseconds of work; below a handful
    // of requests the thread spawn/join overhead dwarfs them, so small
    // batches run inline. Results are slot-indexed either way, so the
    // outcome is byte-identical at any width.
    let threads = if n <= 4 {
        1
    } else {
        scratches.len().clamp(1, n)
    };
    let next = AtomicUsize::new(0);
    let worker = |scratch: &mut SearchScratch| {
        let mut work = RepairWork::default();
        let mut produced: Vec<(usize, Option<Vec<VertexId>>)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let found = plan_one(graph, table, &requests[i], scratch, &mut work);
            produced.push((i, found));
        }
        (produced, work)
    };

    if threads == 1 {
        let (produced, done) = worker(&mut scratches[0]);
        for (i, found) in produced {
            slots[i] = found;
        }
        work.add(done);
        return (slots, work);
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let workers: Vec<_> = scratches[..threads]
            .iter_mut()
            .map(|scratch| scope.spawn(move || worker(scratch)))
            .collect();
        for handle in workers {
            let (produced, done) = handle.join().expect("repair worker panicked");
            for (i, found) in produced {
                slots[i] = found;
            }
            work.add(done);
        }
    });
    (slots, work)
}

/// One catch-up search: deadline-capped space-time A* to the rejoin cell,
/// padded with validated waits so the agent camps at the goal only when
/// the reservation table says nobody reserved it.
fn plan_one(
    graph: &FloorplanGraph,
    table: &ReservationTable,
    r: &RepairRequest,
    scratch: &mut SearchScratch,
    work: &mut RepairWork,
) -> Option<Vec<VertexId>> {
    // The padding check below scans `path.len() - 1..=deadline`, which
    // contains `deadline` for every path short enough to keep: a rejoin
    // cell reserved at the deadline refuses every path, so skip the search.
    if !table.vertex_free(r.goal, r.deadline) {
        work.pruned += 1;
        return None;
    }
    work.searches += 1;
    // A path longer than the deadline is rejected anyway, so cap the
    // search horizon at the deadline instead of wasting expansions on
    // unacceptable paths.
    let astar = SpaceTimeAstar {
        max_time: r.deadline + 1,
        focal_weight: 1.0,
    };
    let query = PlanQuery {
        start: r.start,
        start_time: 0,
        goal: r.goal,
        reservations: Some(table),
        constraints: None,
        conflict_paths: None,
        require_parkable: false,
    };
    let segment = astar.plan_with_scratch(graph, &query, scratch)?;
    let mut path = segment.path;
    if path.len() > r.deadline + 1 {
        return None; // cannot rejoin on schedule
    }
    // The A* validated every step against the table; the goal-waits the
    // padding adds must be validated too, or the camped agent would block
    // a reserved trajectory passing through the rejoin cell and amplify
    // the very lag the repair is meant to remove.
    if (path.len() - 1..=r.deadline).any(|k| !table.vertex_free(r.goal, k)) {
        return None;
    }
    path.resize(r.deadline + 1, r.goal);
    Some(path)
}

/// Sequential acceptance in agent order: a candidate path is accepted only
/// if it has no vertex or edge conflict with any previously accepted one
/// (candidates are excluded from the shared table, so they must be checked
/// against each other). Execution-time occupancy checks remain the safety
/// net either way.
pub(crate) fn accept_repairs(
    requests: &[RepairRequest],
    found: Vec<Option<Vec<VertexId>>>,
) -> Vec<(usize, RepairPath)> {
    let mut accepted: Vec<(usize, RepairPath)> = Vec::new();
    for (r, path) in requests.iter().zip(found) {
        let Some(path) = path else { continue };
        let clashes = accepted.iter().any(|(_, other)| {
            let horizon = path.len().max(other.path.len());
            (0..horizon).any(|k| {
                let mine = *path.get(k).unwrap_or(path.last().expect("non-empty"));
                let theirs = *other
                    .path
                    .get(k)
                    .unwrap_or(other.path.last().expect("non-empty"));
                if mine == theirs {
                    return true;
                }
                if k == 0 {
                    return false;
                }
                let mine_prev = *path.get(k - 1).unwrap_or(path.last().expect("non-empty"));
                let theirs_prev = *other
                    .path
                    .get(k - 1)
                    .unwrap_or(other.path.last().expect("non-empty"));
                mine == theirs_prev && theirs == mine_prev && mine != mine_prev
            })
        });
        if !clashes {
            accepted.push((
                r.agent,
                RepairPath {
                    path,
                    at: 0,
                    rejoin_cursor: r.rejoin_cursor,
                },
            ));
        }
    }
    accepted
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

    fn scratches(threads: usize) -> Vec<SearchScratch> {
        (0..threads).map(|_| SearchScratch::new()).collect()
    }

    #[test]
    fn repairs_pad_to_the_deadline_and_slot_by_request() {
        let g = graph(".....\n.....");
        let table = ReservationTable::new(g.vertex_count());
        let requests = vec![
            RepairRequest {
                agent: 3,
                start: v(&g, 0, 0),
                goal: v(&g, 3, 0),
                deadline: 5,
                rejoin_cursor: 9,
                lag: 0,
            },
            RepairRequest {
                agent: 1,
                start: v(&g, 0, 1),
                goal: v(&g, 4, 1),
                deadline: 2, // unreachable: distance 4 > 2
                rejoin_cursor: 7,
                lag: 0,
            },
        ];
        for threads in [1usize, 2, 4] {
            let (found, work) = plan_repairs(&g, &table, &requests, &mut scratches(threads));
            assert_eq!((work.searches, work.pruned), (2, 0));
            assert_eq!(found.len(), 2);
            let path = found[0].as_ref().expect("reachable");
            assert_eq!(path.len(), 6);
            assert_eq!(path[0], v(&g, 0, 0));
            assert_eq!(*path.last().unwrap(), v(&g, 3, 0));
            assert!(found[1].is_none(), "deadline 2 must be unreachable");
        }
    }

    #[test]
    fn acceptance_rejects_mutually_conflicting_paths() {
        let g = graph("...");
        let a = v(&g, 0, 0);
        let b = v(&g, 1, 0);
        let c = v(&g, 2, 0);
        let requests = vec![
            RepairRequest {
                agent: 0,
                start: a,
                goal: c,
                deadline: 2,
                rejoin_cursor: 4,
                lag: 0,
            },
            RepairRequest {
                agent: 1,
                start: c,
                goal: a,
                deadline: 2,
                rejoin_cursor: 4,
                lag: 0,
            },
        ];
        // Head-on paths through the 1-wide corridor: the second must lose.
        let found = vec![Some(vec![a, b, c]), Some(vec![c, b, a])];
        let accepted = accept_repairs(&requests, found);
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted[0].0, 0);
        assert_eq!(accepted[0].1.rejoin_cursor, 4);
    }

    #[test]
    fn disjoint_paths_are_both_accepted() {
        let g = graph("...\n...");
        let requests = vec![
            RepairRequest {
                agent: 0,
                start: v(&g, 0, 0),
                goal: v(&g, 2, 0),
                deadline: 2,
                rejoin_cursor: 2,
                lag: 0,
            },
            RepairRequest {
                agent: 1,
                start: v(&g, 0, 1),
                goal: v(&g, 2, 1),
                deadline: 2,
                rejoin_cursor: 2,
                lag: 0,
            },
        ];
        let table = ReservationTable::new(g.vertex_count());
        let (found, _) = plan_repairs(&g, &table, &requests, &mut scratches(2));
        let accepted = accept_repairs(&requests, found);
        assert_eq!(accepted.len(), 2);
    }

    #[test]
    fn goal_reserved_at_the_deadline_is_pruned_without_a_search() {
        let g = graph(".....\n.....");
        let (start, goal) = (v(&g, 0, 0), v(&g, 2, 0));
        let request = RepairRequest {
            agent: 0,
            start,
            goal,
            deadline: 4,
            rejoin_cursor: 4,
            lag: 0,
        };
        let cells = |xy: &[(u32, u32)]| xy.iter().map(|&(x, y)| v(&g, x, y)).collect::<Vec<_>>();
        // Another agent passes through the goal, standing on it exactly at
        // the deadline and leaving the tick after.
        let mut table = ReservationTable::new(g.vertex_count());
        let through = [(4, 0), (4, 0), (4, 0), (3, 0), (2, 0), (2, 1), (3, 1)];
        table.reserve_path(&cells(&through));
        assert!(!table.vertex_free(goal, 4) && table.vertex_free(goal, 3));
        let mut work = RepairWork::default();
        let found = plan_one(&g, &table, &request, &mut SearchScratch::new(), &mut work);
        assert!(found.is_none());
        assert_eq!((work.searches, work.pruned), (0, 1));

        // Reserved only before the deadline: still searched, and the
        // padded path waits on the goal once the other agent has left.
        let mut table = ReservationTable::new(g.vertex_count());
        table.reserve_path(&cells(&[(3, 0), (2, 0), (2, 1), (3, 1), (4, 1)]));
        assert!(!table.vertex_free(goal, 1) && table.vertex_free(goal, 4));
        let mut work = RepairWork::default();
        let path = plan_one(&g, &table, &request, &mut SearchScratch::new(), &mut work)
            .expect("goal is free from t=2 on");
        assert_eq!((work.searches, work.pruned), (1, 0));
        assert_eq!((path[0], path[4]), (start, goal));
    }
}
