//! Correctness: a digest of every virtual-time output an episode
//! produces, the committed golden digests, and the in-run oracles'
//! verdicts.

use std::collections::BTreeMap;

use xemem::{SimTime, XememError};

/// FNV-1a over the little-endian bytes of every value fed in. Host
/// timings never enter it, so a host-speed change leaves it unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// An op's outcome: its virtual completion time, or which error.
    pub fn outcome<T>(&mut self, r: &Result<T, XememError>, end: impl Fn(&T) -> SimTime) {
        match r {
            Ok(v) => self.time(end(v)),
            Err(e) => {
                self.u64(u64::MAX);
                for b in error_kind(e).bytes() {
                    self.u64(u64::from(b));
                }
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The error's variant name, without its payload.
pub fn error_kind(e: &XememError) -> String {
    let s = format!("{e:?}");
    s.split(['(', ' ', '{']).next().unwrap_or("").to_string()
}

/// What one episode produced, besides host timings.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Digest of every virtual-time output.
    pub digest: u64,
    /// Oracle failures (empty when every in-run oracle held).
    pub violations: Vec<String>,
    /// Named virtual-time facts printed with the run (final clock, op
    /// tallies, ratios), all already folded into the digest.
    pub facts: Vec<(&'static str, f64)>,
    /// Typed errors the system's calls returned, by kind.
    pub errors: BTreeMap<String, u64>,
}

/// Committed golden digests: `workload size input-set digest` per line.
const GOLDEN: &str = include_str!("../golden.txt");

/// The committed digest for this workload, size and input set, if one
/// was recorded.
pub fn golden(workload: &str, size: &str, set: u64) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, n, d] if *w == workload && *s == size && n.parse() == Ok(set) => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}
