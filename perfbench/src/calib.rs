//! The reference loop: a fixed amount of work, timed beside the program's,
//! that tells how fast the host runs at the moment.
//!
//! A shared host's speed drifts by a third or more over minutes, on every
//! CPU at once. A run times the reference loop just before each timed
//! unit, on the same CPU, and scales the unit's time by `REFERENCE_MS /
//! reference time`, where the reference time is the median of the loop's
//! runs next to that unit ([`around`]): one 10 ms run is a point sample,
//! while a unit may take a second. The result reads as milliseconds on a
//! host where the loop takes `REFERENCE_MS`; a program change moves it,
//! while a change of host speed mostly cancels. The raw times stay in the
//! run record.

use crate::gen::Rng;
use crate::stats::{median, ms};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Where the reference loop's data lives. Contention from other tenants
/// slows code that stays in a core's caches and code that reaches the
/// shared L3 or memory by different amounts, so each workload is scaled by
/// a loop that reaches as far as the workload does.
#[derive(Clone, Copy, Debug)]
pub enum Reach {
    /// A ~100 KB table, inside L2 (`search`, `serve`: inputs of at most a
    /// few thousand facts).
    Cache,
    /// A ~3 MB table, past L2 (`sync`, `keys`: working sets of 80–200 MB).
    Memory,
}

/// The reference loop's nominal time, ms: about its fastest on the 2-vCPU
/// host README.md describes.
pub const REFERENCE_MS: f64 = 10.0;

/// Run the reference loop once; its wall time, ms. Either reach does the
/// same work: 2^17 keys hashed, probed twice and sorted, in one table or
/// in 32 small ones.
pub fn reference_ms(reach: Reach) -> f64 {
    let (keys, passes) = match reach {
        Reach::Cache => (1 << 12, 32),
        Reach::Memory => (1 << 17, 1),
    };
    let t = Instant::now();
    for pass in 0..passes {
        let mut rng = Rng::new(0x5eed, pass);
        let keys: Vec<u64> = (0..keys).map(|_| rng.next_u64() >> 4).collect();
        let mut table: HashMap<u64, u32> = HashMap::with_capacity(keys.len());
        for (i, k) in keys.iter().enumerate() {
            table.insert(*k, i as u32);
        }
        let mut hits = 0u64;
        for k in &keys {
            hits += u64::from(table.contains_key(&(k ^ 1)));
            hits += u64::from(table[k]);
        }
        let mut sorted = keys;
        sorted.sort_unstable();
        black_box((hits, sorted));
    }
    ms(t.elapsed())
}

/// Reference runs on each side of a unit that [`around`] takes.
const NEIGHBOURS: usize = 2;

/// `took`, measured while the reference loop took `reference_ms`, at the
/// speed where the loop takes [`REFERENCE_MS`].
pub fn normalize(took: f64, reference_ms: f64) -> f64 {
    took * REFERENCE_MS / reference_ms
}

/// The reference time for the unit timed after reference run `i` of
/// `runs` (in run order): the median of that run and its
/// [`NEIGHBOURS`] on each side.
pub fn around(runs: &[f64], i: usize) -> f64 {
    let lo = i.saturating_sub(NEIGHBOURS);
    let hi = (i + NEIGHBOURS + 1).min(runs.len());
    median(&runs[lo..hi])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_loop_runs_and_normalizes() {
        assert!(reference_ms(Reach::Cache) > 0.0);
        assert!(reference_ms(Reach::Memory) > 0.0);
        assert!((normalize(30.0, REFERENCE_MS * 2.0) - 15.0).abs() < 1e-12);
        assert_eq!(normalize(30.0, REFERENCE_MS), 30.0);
        let runs = [10.0, 50.0, 11.0, 12.0, 13.0, 9.0];
        assert_eq!(around(&runs, 0), 11.0, "10, 50, 11");
        assert_eq!(around(&runs, 2), 12.0, "10, 50, 11, 12, 13");
        assert_eq!(around(&runs, 5), 12.0, "12, 13, 9");
    }
}
