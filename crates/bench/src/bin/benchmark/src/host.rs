//! Host-speed calibration.
//!
//! The benchmark's host is shared, and its speed drifts by tens of
//! percent over minutes as the load of other machines comes and goes;
//! the drift slows every timing of a run alike. A fixed kernel, timed
//! between the crawl runs of an invocation, measures the host's speed
//! during that invocation, and the end-to-end times are reported in
//! host-normalized seconds: raw seconds × `NOMINAL_NS` / the median
//! kernel time. An invocation in a slow spell and one in a fast spell then
//! read alike, while a change to the crawler moves the crawl's time and
//! not the kernel's.

use crate::stats::median;
use std::time::Instant;

/// The kernel's time on an unloaded host of the reference machine (two
/// vCPUs, see README.md), in nanoseconds: a host-normalized second is a
/// second on a host where the kernel takes this long.
pub const NOMINAL_NS: f64 = 10e6;

/// Kernel passes per calibration point. One pass is short enough for a
/// burst of load to swamp it; the median of all passes is not.
const PASSES: usize = 3;

/// The kernel and its buffers, allocated and faulted in once so that a
/// sample never depends on the state of the process's heap.
pub struct HostClock {
    keys: Vec<u64>,
    table: Vec<u64>,
    /// Every pass timed, in nanoseconds.
    samples: Vec<u64>,
}

impl HostClock {
    pub fn new() -> Self {
        let mut clock = Self {
            keys: vec![0; 1 << 17],
            table: vec![0; 1 << 20],
            samples: Vec::new(),
        };
        // The first pass pays the page faults of the fresh buffers.
        clock.pass();
        clock
    }

    /// Takes one calibration point: `PASSES` timed passes of the kernel.
    pub fn sample(&mut self) {
        for _ in 0..PASSES {
            let ns = self.pass();
            self.samples.push(ns);
        }
    }

    /// The median pass, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|&ns| ns as f64 / 1e6).collect();
        median(&ms)
    }

    /// What raw times are multiplied by to be host-normalized.
    pub fn factor(&self) -> f64 {
        NOMINAL_NS / (self.median_ms() * 1e6)
    }

    /// Times one pass of the kernel, which mixes the crawl's kinds of
    /// work: a sort (compare-and-move over 1 MiB) and hash-table probes
    /// scattered over 8 MiB. Returns nanoseconds.
    fn pass(&mut self) -> u64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut probes = 0u64;
        for round in 0..4u64 {
            for &k in &self.keys {
                // `| 1`: 0 marks an empty slot.
                let key = (k ^ round.wrapping_mul(0xA076_1D64_78BD_642F)) | 1;
                let mut slot = (key.wrapping_mul(0xE703_7ED1_A0B4_28DB) >> 40) as usize & mask;
                while self.table[slot] != 0 && self.table[slot] != key {
                    slot = (slot + 1) & mask;
                    probes += 1;
                }
                self.table[slot] = key;
            }
        }
        std::hint::black_box(probes);
        start.elapsed().as_nanos() as u64
    }
}
