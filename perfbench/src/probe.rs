//! The host-speed probe: a fixed piece of work, independent of the
//! program under test, timed between units of the workload's work so that
//! the run can be scaled to a reference host speed.
//!
//! The benchmark's host is shared: while the other tenants' load comes
//! and goes, the same deterministic work runs up to 1.7× slower for
//! minutes at a time, and an end-to-end figure from one run then says
//! more about the host than about the program. The probe is half graph
//! search (a breadth-first search over a 400 × 400 grid floor with
//! shelving rows: branchy, instruction-level-parallel work like the
//! planners') and half random reads from a 4 MiB table (cache and memory
//! latency like the simulations'), and it slows with the host in step
//! with the workloads. Each timing is multiplied by
//! `NOMINAL_S ÷ probe seconds` of the probe sample taken next to it, so
//! it reads what it would on the host in its fast state. The probe calls
//! no repository code, so a change to the program moves the scaled
//! figures exactly as it moves the raw ones; the raw figures are printed
//! beside them as facts.

use std::collections::VecDeque;
use std::time::Instant;

use crate::stats::median;

/// What one probe sample takes on the reference host in a fast state (a
/// round figure on 2 vCPUs of an "Intel(R) Xeon(R) Processor", where the
/// median sample of a run ranged from 2.5 to 5.4 ms). Scaled timings read
/// as they would at that speed.
pub const NOMINAL_S: f64 = 0.003;

/// Samples the scale factor is a median over: the current one and those
/// just before it, which smooths one sample's noise and still follows a
/// host state that lasts seconds.
const WINDOW: usize = 5;

const SIDE: usize = 400;
const TABLE: usize = 1 << 20;
const READS: usize = 300_000;

/// The probe's fixed inputs and scratch, and the samples taken so far.
pub struct HostProbe {
    walls: Vec<bool>,
    dist: Vec<u32>,
    queue: VecDeque<u32>,
    table: Vec<u32>,
    samples: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Builds the inputs and runs the probe once, untimed, to warm it.
    pub fn new() -> Self {
        let mut probe = HostProbe {
            walls: (0..SIDE * SIDE)
                .map(|i| (i % SIDE) % 7 == 3 && (i / SIDE) % 11 != 5)
                .collect(),
            dist: Vec::with_capacity(SIDE * SIDE),
            queue: VecDeque::with_capacity(SIDE * SIDE),
            table: (0..TABLE as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            samples: Vec::new(),
        };
        std::hint::black_box(probe.work());
        probe
    }

    /// The fixed work: BFS distance sum plus a sum of random reads.
    fn work(&mut self) -> u64 {
        self.dist.clear();
        self.dist.resize(SIDE * SIDE, u32::MAX);
        self.queue.clear();
        self.dist[0] = 0;
        self.queue.push_back(0);
        let mut sum = 0u64;
        while let Some(v) = self.queue.pop_front() {
            let v = v as usize;
            let d = self.dist[v];
            sum += u64::from(d);
            let (x, y) = (v % SIDE, v / SIDE);
            let next = [
                (x > 0).then(|| v - 1),
                (x + 1 < SIDE).then(|| v + 1),
                (y > 0).then(|| v - SIDE),
                (y + 1 < SIDE).then(|| v + SIDE),
            ];
            for u in next.into_iter().flatten() {
                if !self.walls[u] && self.dist[u] == u32::MAX {
                    self.dist[u] = d + 1;
                    self.queue.push_back(u as u32);
                }
            }
        }
        let mut state = 1u64;
        for _ in 0..READS {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            sum = sum.wrapping_add(u64::from(self.table[((state >> 33) as usize) % TABLE]));
        }
        sum
    }

    /// Times one run of the probe, records it, and returns the factor
    /// `NOMINAL_S ÷ seconds` that scales a timing taken next to it, the
    /// seconds being the median of the last [`WINDOW`] samples.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.work());
        self.samples.push(t0.elapsed().as_secs_f64());
        let recent = &self.samples[self.samples.len().saturating_sub(WINDOW)..];
        NOMINAL_S / median(recent)
    }

    /// The median sample in milliseconds (`NaN` before the first).
    pub fn median_ms(&self) -> f64 {
        median(&self.samples) * 1e3
    }
}
