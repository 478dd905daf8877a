//! A fixed reference kernel, timed right before each pass so a pass's host
//! time can be read relative to the host's speed at that moment.
//!
//! The kernel is frozen code of the benchmark's own, independent of the
//! crates under test. It does the kind of work the simulator does: it
//! streams through a 16 MB input, looks each key up in a set-associative
//! LRU table with data-dependent branches, and bumps a counter in a 16 MB
//! table at random. Changing it changes every `pass_time_ratio`, so it
//! must stay as it is.

use std::time::Instant;

const SETS: usize = 32_768;
const WAYS: usize = 8;
const COUNTERS: usize = 1 << 23;
const STREAM: usize = 2_000_000;
const ACCESSES: usize = 6_000_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs the kernel once; returns its wall seconds and a checksum that
/// keeps the work observable.
pub fn reference_kernel() -> (f64, u64) {
    let t = Instant::now();
    let mut state = 0x1234_5678_9abc_def1u64;
    let stream: Vec<u64> = (0..STREAM).map(|_| xorshift(&mut state)).collect();
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut stamps = vec![0u32; SETS * WAYS];
    let mut counters = vec![0u16; COUNTERS];
    let (mut hits, mut sum) = (0u64, 0u64);
    for now in 0..ACCESSES {
        let r = xorshift(&mut state);
        let s = stream[now % STREAM];
        // Three quarters of the keys come from a hot range that fits the
        // table; the rest spread over a range four times its size.
        let key = if r & 3 != 0 {
            (s >> 8) % (SETS * WAYS / 2) as u64
        } else {
            (r >> 8) % (SETS * WAYS * 4) as u64
        };
        let set = (key as usize).wrapping_mul(0x9e37) % SETS;
        let ways = &mut tags[set * WAYS..(set + 1) * WAYS];
        let ages = &mut stamps[set * WAYS..(set + 1) * WAYS];
        let slot = match ways.iter().position(|&t| t == key) {
            Some(w) => {
                hits += 1;
                w
            }
            None => {
                let mut victim = 0;
                for w in 1..WAYS {
                    if ages[w] < ages[victim] {
                        victim = w;
                    }
                }
                ways[victim] = key;
                victim
            }
        };
        ages[slot] = now as u32;
        let c = &mut counters[(key as usize * 31 + s as usize) & (COUNTERS - 1)];
        *c = c.wrapping_add(1);
        sum = sum.wrapping_add(u64::from(*c));
    }
    (t.elapsed().as_secs_f64(), hits ^ sum)
}
