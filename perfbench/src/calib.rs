//! A fixed reference workload that tracks the host's current speed.
//!
//! On a shared host the speed available to one thread changes by a
//! third or more over tens of seconds, as neighbours come and go. The
//! benchmark times this loop beside every repetition and scales its host
//! times to the reference speed, so that a run in a slow spell and a run
//! in a quiet one report the same figure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// [`reference_s`] on an uninterfered 2-vCPU x86-64 host. Host times
/// are reported scaled to this speed: `t * REFERENCE_S / reference_s()`.
pub const REFERENCE_S: f64 = 0.019;

/// Host seconds of one pass of a fixed, allocation- and map-heavy loop
/// written against `std` alone, so that no change to the workspace can
/// move it.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut held: Vec<Box<[u64; 4]>> = Vec::new();
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 8192;
        match map.get(&key) {
            Some(v) => {
                let s = v.clone();
                black_box(&s);
                map.remove(&key);
            }
            None => {
                map.insert(key, format!("k{key}"));
            }
        }
        held.push(Box::new([i, x, key, 0]));
        if held.len() > 512 {
            held.swap_remove((x % 512) as usize);
        }
    }
    black_box((&map, &held));
    t.elapsed().as_secs_f64()
}
