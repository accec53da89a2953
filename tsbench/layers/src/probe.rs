//! The host-speed probe: a fixed amount of memory-bound work whose
//! duration tracks how fast this machine is running right now.
//!
//! The simulator's time goes to hash lookups and cache-model state
//! scattered over tens of megabytes, so its speed follows the host's
//! memory latency and the share of the last-level cache that other
//! tenants leave it. The probe measures the same two things and none
//! of the simulator's own code, so a change to the simulator cannot
//! move it: a dependent pointer chase through a 64 MiB random cycle
//! (latency, TLB and LLC pressure), then a pass that faults in and
//! fills a fresh 32 MiB buffer (page-fault and write bandwidth, which
//! every replay process pays when it starts).
//!
//! `serve` builds the cycle once, then answers each stdin line with the
//! probe's duration in nanoseconds.

use std::io::{BufRead, Write};
use std::time::Instant;

const CHASE_BYTES: usize = 64 << 20;
const CHASE_STEPS: usize = 40_000;
const FILL_BYTES: usize = 32 << 20;

/// A single random cycle through every slot (Sattolo's algorithm), so
/// the chase visits the whole buffer with no short loops.
fn build_cycle() -> Vec<u32> {
    let n = CHASE_BYTES / std::mem::size_of::<u32>();
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

fn run_once(cycle: &[u32], pos: &mut u32) -> u128 {
    let t = Instant::now();
    let mut p = *pos;
    for _ in 0..CHASE_STEPS {
        p = cycle[p as usize];
    }
    *pos = std::hint::black_box(p);
    let mut fill = vec![0u8; FILL_BYTES];
    for (i, page) in fill.chunks_mut(4096).enumerate() {
        page.fill(i as u8);
    }
    std::hint::black_box(&fill);
    drop(fill);
    t.elapsed().as_nanos()
}

pub fn serve() -> Result<(), String> {
    let cycle = build_cycle();
    let mut pos = 0u32;
    // Warm the TLB and caches to a steady state before the first answer.
    run_once(&cycle, &mut pos);
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let ns = run_once(&cycle, &mut pos);
        writeln!(out, "{ns}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
