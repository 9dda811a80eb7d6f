//! The host's pace: a fixed reference kernel, owned by the benchmark and
//! timed next to every shard, that tells how fast the host ran while the
//! workload did.
//!
//! On a shared 2-vCPU KVM guest (Intel Xeon) the same code runs up to
//! 1.45× slower for spells of one second to minutes (see the noise
//! record in `README.md`). A spell that covers a whole run slows every
//! shard round alike, so no estimator over the run's own samples can
//! leave it out. The kernel slows with it: over runs of one workload the
//! log of its pace and the log of the workload's time correlate at 0.99
//! to 1.00, with a slope near 1. Scaling the workload's times by the
//! kernel's pace takes the spell out.
//!
//! The kernel does what the stack does most: small allocations, sorted
//! maps, hash lookups and pointer-linked graphs of a few MiB. It does not
//! call the program, so a change to the program cannot move it. Changing
//! the kernel changes every scaled metric, so it is part of the
//! benchmark's definition, as is [`REFERENCE_PACE_S`].

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's pace on the host of the noise record outside its slow
/// spells. Scaled times read as host seconds at that pace.
pub const REFERENCE_PACE_S: f64 = 0.043;

/// Host seconds of one run of the reference kernel, about 50 ms.
pub fn sample() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(1)));
    t.elapsed().as_secs_f64()
}

/// The reference kernel: a churn of small vectors under a sorted map, a
/// longest-path pass over a random DAG with hashed edge latencies, and a
/// sorted-map histogram. Deterministic in `seed`.
pub fn kernel(seed: u64) -> u64 {
    churn(150_000, seed) ^ longest_path(40_000, seed) ^ histogram(60_000, seed)
}

/// XorShift64.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn churn(n: usize, seed: u64) -> u64 {
    let mut next = rng(seed);
    let mut map = BTreeMap::new();
    let mut live: Vec<Vec<u32>> = Vec::new();
    for i in 0..n {
        let s = next();
        map.insert(s % 5000, i);
        let mut v = vec![0u32; (s % 40) as usize + 1];
        v[0] = i as u32;
        live.push(v);
        if live.len() > 300 {
            live.swap_remove((s % 300) as usize);
        }
    }
    (map.len() + live.len()) as u64
}

fn longest_path(n: usize, seed: u64) -> u64 {
    let mut next = rng(seed ^ 0x5EED);
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut latency: HashMap<(u32, u32), u64> = HashMap::new();
    for v in 1..n {
        for _ in 0..3 {
            let u = (next() % v as u64) as u32;
            succ[u as usize].push(v as u32);
            latency.insert((u, v as u32), next() % 7 + 1);
        }
    }
    let mut dist = vec![0u64; n];
    for u in 0..n {
        for &v in &succ[u] {
            let d = dist[u] + latency[&(u as u32, v)];
            dist[v as usize] = dist[v as usize].max(d);
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(dist[i]));
    dist[order[0]] + order[n / 2] as u64
}

fn histogram(n: u64, seed: u64) -> u64 {
    let mut next = rng(seed ^ 0xB7EE);
    let mut map = BTreeMap::new();
    for i in 0..n {
        *map.entry(next() % (2 * n)).or_insert(0u64) += i;
    }
    map.range(n / 3..n)
        .fold(0u64, |acc, (k, v)| acc.wrapping_add(k ^ v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(1), kernel(1));
        assert_ne!(kernel(1), kernel(2));
    }
}
