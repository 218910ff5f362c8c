//! A fixed reference kernel that shares no code with the program.
//!
//! The host's speed drifts by tens of percent over minutes (other tenants,
//! frequency changes), which no amount of repetition inside one run cancels.
//! Timing this kernel on every worker thread between passes measures that
//! drift under the same conditions, so the reported throughput and set-up
//! time can be scaled to the kernel's nominal speed. The kernel mimics the
//! simulator's hot loop: a binary-heap event queue over a cache-resident
//! table, driven by an integer generator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Heap operations per thread per measurement (several milliseconds).
const OPS: u64 = 200_000;

/// The kernel's typical speed with two threads on the 2-vCPU VM (Xeon,
/// 2.1 GHz nominal) the benchmark was tuned on, in operations per second.
/// Only ratios against it are reported, so it sets the scale of the
/// normalized figures and nothing else.
pub const NOMINAL_OPS_PER_S: f64 = 50e6;

fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x
    };
    let mut table = vec![0u64; 4096];
    let mut heap = BinaryHeap::with_capacity(1024);
    for _ in 0..1024 {
        heap.push(Reverse(next() >> 24));
    }
    let mut acc = 0u64;
    for _ in 0..OPS {
        let Some(Reverse(t)) = heap.pop() else { break };
        let r = next();
        let slot = (r >> 40) as usize & 4095;
        table[slot] = table[slot].wrapping_add(t);
        acc ^= table[t as usize & 4095];
        heap.push(Reverse(t + (r >> 52) + 1));
    }
    acc
}

/// Runs the kernel on `jobs` threads at once and returns the combined
/// operations per second.
pub fn ops_per_s(jobs: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for j in 0..jobs {
            s.spawn(move || black_box(kernel(black_box(j as u64 + 1))));
        }
    });
    (jobs as u64 * OPS) as f64 / start.elapsed().as_secs_f64()
}
