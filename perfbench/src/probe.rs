//! Host-speed probe. On a shared host the simulator's speed drifts by a
//! third between runs a minute apart, because neighbours contend for
//! the cores, caches and memory. The probe is fixed work that never
//! changes with the simulator, in two parts: random read-modify-write
//! over an 8 MiB table with hash-map churn, which slows with cache and
//! memory contention, and an integer mix over registers, which slows
//! when a neighbour shares the physical core. A run times it between
//! repetitions, and `run.py` scales the run's times by how slow the
//! probe ran against its reference time, so a run made while the host
//! is busy is comparable with one made while it is quiet.

use std::collections::HashMap;
use std::time::Instant;

const TABLE_WORDS: usize = 1 << 20;
const MEMORY_STEPS: u64 = 400_000;
const COMPUTE_STEPS: u64 = 3_000_000;

/// The probe's memory, allocated and touched once per run so that every
/// probe does the same work and the process's peak memory carries it as
/// a constant.
pub struct Probe {
    table: Vec<u64>,
    map: HashMap<u64, u64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut probe = Probe {
            table: vec![1; TABLE_WORDS],
            map: HashMap::new(),
        };
        probe.run();
        probe
    }

    /// Seconds one probe takes.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        self.map.clear();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for k in 0..MEMORY_STEPS {
            x = xorshift(x);
            let i = (x as usize) & (TABLE_WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(k);
            *self.map.entry(x & 0xffff).or_insert(0) += self.table[(i * 7) & (TABLE_WORDS - 1)] & 3;
            if k % 4 == 0 {
                self.map.remove(&(x.rotate_left(7) & 0xffff));
            }
        }
        let mut acc = [0u64; 4];
        for k in 0..COMPUTE_STEPS {
            x = xorshift(x);
            let lane = (k & 3) as usize;
            acc[lane] = acc[lane].wrapping_mul(x | 1).rotate_left(5) ^ k;
            if x & 8 == 0 {
                acc[0] = acc[0].wrapping_add(1);
            }
        }
        std::hint::black_box((&self.table, &self.map, acc));
        t.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
