//! The tier state of one export, kept in its
//! [`crate::enclave::SegRecord`]: which memory tier each policy chunk's
//! frames live in and how hot the chunk has been, in virtual time.

use crate::error::XememError;
use xemem_mem::PAGE_SIZE;
use xemem_sim::{CostModel, MemTier, SimDuration, SimTime, TierPolicy};

/// Hot/cold state of one policy chunk.
#[derive(Debug, Clone, Copy)]
struct ChunkState {
    /// Tier the chunk's resident frames currently live in.
    tier: MemTier,
    /// Accesses observed in the open window.
    hits: u64,
    /// Consecutive closed windows at or above the hot threshold.
    hot: u32,
    /// Consecutive closed windows at or below the cold threshold.
    cold: u32,
}

impl ChunkState {
    fn new(tier: MemTier) -> Self {
        ChunkState {
            tier,
            hits: 0,
            hot: 0,
            cold: 0,
        }
    }
}

/// Per-chunk tier and hot/cold books of one exported segment.
#[derive(Debug)]
pub(crate) struct TierState {
    /// Tier cold chunks demote back to (the exporter's home tier).
    home: MemTier,
    chunks: Vec<ChunkState>,
    /// Start of the currently open counting window.
    window_start: SimTime,
}

fn chunk_bytes(policy: &TierPolicy) -> u64 {
    policy.chunk_pages * PAGE_SIZE
}

/// The chunk walk: each policy chunk `[offset, offset + len)` touches,
/// with the bytes of the range inside it, in address order.
fn walk(policy: &TierPolicy, offset: u64, len: u64) -> impl Iterator<Item = (usize, u64)> {
    let (chunk, end) = (chunk_bytes(policy), offset + len);
    let mut cur = offset;
    std::iter::from_fn(move || {
        (cur < end).then(|| {
            let ci = cur / chunk;
            let span = end.min((ci + 1) * chunk) - cur;
            cur += span;
            (ci as usize, span)
        })
    })
}

impl TierState {
    /// The books of a `len`-byte export made at `at`: every chunk starts
    /// on socket DRAM, where partitions are carved
    /// ([`crate::SystemBuilder::tier_reserve`] adds other tiers on top).
    pub(crate) fn new(policy: &TierPolicy, len: u64, at: SimTime) -> Self {
        let home = MemTier::LocalDram;
        let chunks = len.div_ceil(chunk_bytes(policy)) as usize;
        TierState {
            home,
            chunks: vec![ChunkState::new(home); chunks],
            window_start: at,
        }
    }

    /// The tier chunk `chunk` lives in.
    pub(crate) fn tier_of(&self, chunk: u64) -> Option<MemTier> {
        self.chunks.get(chunk as usize).map(|c| c.tier)
    }

    /// Pages of the window `[offset, offset + len)` on each tier, at
    /// chunk granularity.
    pub(crate) fn pages_by_tier(
        &self,
        policy: &TierPolicy,
        offset: u64,
        len: u64,
    ) -> [u64; MemTier::COUNT] {
        let mut out = [0u64; MemTier::COUNT];
        for (ci, span) in walk(policy, offset, len) {
            let tier = self.chunks.get(ci).map_or(self.home, |c| c.tier);
            out[tier.index()] += span.div_ceil(PAGE_SIZE);
        }
        out
    }

    /// The byte window `(offset, len)` of chunk `chunk` of a
    /// `seg_len`-byte export, or the whole export for `None`;
    /// `BadWindow` past the last chunk.
    pub(crate) fn span(
        &self,
        policy: &TierPolicy,
        chunk: Option<u64>,
        seg_len: u64,
    ) -> Result<(u64, u64), XememError> {
        let bytes = chunk_bytes(policy);
        match chunk {
            None => Ok((0, seg_len)),
            Some(i) if i < self.chunks.len() as u64 => {
                Ok((i * bytes, (seg_len - i * bytes).min(bytes)))
            }
            Some(i) => Err(XememError::BadWindow {
                offset: i * bytes,
                len: bytes,
                seg_len,
            }),
        }
    }

    /// Count one data access to `[offset, offset + len)` against every
    /// chunk it touches, after rolling the counting window to `at` (the
    /// signal the policy runs on), and return its stream surcharge over
    /// the flat-DRAM charge the kernel already made: zero for local-DRAM
    /// chunks, so runs that never migrate are reproduced byte for byte.
    pub(crate) fn access(
        &mut self,
        policy: &TierPolicy,
        cost: &CostModel,
        offset: u64,
        len: u64,
        at: SimTime,
        write: bool,
    ) -> SimDuration {
        self.roll(policy, at);
        let mut extra = SimDuration::ZERO;
        for (ci, span) in walk(policy, offset, len) {
            let Some(c) = self.chunks.get_mut(ci) else {
                continue;
            };
            c.hits = c.hits.saturating_add(1);
            if c.tier != MemTier::LocalDram {
                let tiered = if write {
                    cost.tier_stream_write(c.tier, span)
                } else {
                    cost.tier_stream_read(c.tier, span)
                };
                extra += tiered - cost.dram_stream(span);
            }
        }
        extra
    }

    /// Roll the counting window to `at`, then list the chunks whose
    /// streak reached the hysteresis threshold as `(chunk, from, to)`:
    /// hot chunks promote to the fast tier, cold ones demote home.
    pub(crate) fn due_moves(
        &mut self,
        policy: &TierPolicy,
        at: SimTime,
    ) -> Vec<(u64, MemTier, MemTier)> {
        self.roll(policy, at);
        let home = self.home;
        let to = |c: &ChunkState| {
            if c.hot >= policy.hysteresis && c.tier != policy.fast_tier {
                Some(policy.fast_tier)
            } else if c.cold >= policy.hysteresis && c.tier != home {
                Some(home)
            } else {
                None
            }
        };
        let chunks = self.chunks.iter().enumerate();
        chunks
            .filter_map(|(i, c)| Some((i as u64, c.tier, to(c)?)))
            .collect()
    }

    /// Record a completed move of chunk `chunk` to `dst` with fresh
    /// books. A whole-export move (`None`) also re-homes the export, so
    /// cold demotions now target `dst`, not the original export tier.
    pub(crate) fn moved(&mut self, chunk: Option<u64>, dst: MemTier) {
        let chunks = match chunk {
            Some(i) => &mut self.chunks[i as usize..=i as usize],
            None => {
                self.home = dst;
                &mut self.chunks[..]
            }
        };
        chunks.fill(ChunkState::new(dst));
    }

    /// Advance the counting window to cover `at`, closing every elapsed
    /// window: a closed window at or above the hot threshold extends
    /// each chunk's hot streak, one at or below the cold threshold
    /// extends the cold streak, anything between clears both. Windows
    /// after the first close with zero hits, so a long idle gap is O(1):
    /// the cold streak saturates rather than looping per window.
    fn roll(&mut self, policy: &TierPolicy, at: SimTime) {
        let elapsed = at.duration_since(self.window_start);
        if elapsed < policy.window {
            return;
        }
        let k = elapsed.as_nanos() / policy.window.as_nanos().max(1);
        for c in &mut self.chunks {
            // Window 1 closes with the counted hits…
            if c.hits >= policy.hot_threshold {
                c.hot = c.hot.saturating_add(1);
                c.cold = 0;
            } else if c.hits <= policy.cold_threshold {
                c.cold = c.cold.saturating_add(1);
                c.hot = 0;
            } else {
                c.hot = 0;
                c.cold = 0;
            }
            c.hits = 0;
            // …windows 2..=k close empty (always at or below the cold
            // threshold).
            if k > 1 {
                c.cold = c.cold.saturating_add((k - 1).min(u32::MAX as u64) as u32);
                c.hot = 0;
            }
        }
        self.window_start += policy.window.times(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> TierPolicy {
        TierPolicy {
            window: SimDuration::from_nanos(1_000),
            hot_threshold: 2,
            cold_threshold: 0,
            hysteresis: 2,
            chunk_pages: 1,
            fast_tier: MemTier::LocalDram,
        }
    }

    #[test]
    fn walk_splits_a_range_at_chunk_boundaries() {
        let spans: Vec<_> = walk(&policy(), 0x800, 0x2000).collect();
        assert_eq!(spans, [(0, 0x800), (1, 0x1000), (2, 0x800)]);
        assert_eq!(walk(&policy(), 0x1000, 0).count(), 0);
    }

    #[test]
    fn windows_roll_into_streaks_that_promote_hot_chunks_only() {
        let (p, cost) = (policy(), CostModel::default());
        let mut s = TierState::new(&p, 2 * PAGE_SIZE, SimTime::ZERO);
        s.moved(None, MemTier::Nvm);
        assert_eq!(
            s.pages_by_tier(&p, 0, 2 * PAGE_SIZE)[MemTier::Nvm.index()],
            2
        );
        for w in 0..2u64 {
            for _ in 0..2 {
                let at = SimTime::from_nanos(w * 1_000);
                assert!(s.access(&p, &cost, 0, PAGE_SIZE, at, false) > SimDuration::ZERO);
            }
        }
        // Chunk 0 ran hot for two windows; chunk 1 is cold but already
        // home, so only the promotion is due.
        let due = s.due_moves(&p, SimTime::from_nanos(2_000));
        assert_eq!(due, [(0, MemTier::Nvm, MemTier::LocalDram)]);
        s.moved(Some(0), MemTier::LocalDram);
        assert_eq!(s.tier_of(0), Some(MemTier::LocalDram));
        let at = SimTime::from_nanos(2_000);
        assert_eq!(
            s.access(&p, &cost, 0, PAGE_SIZE, at, true),
            SimDuration::ZERO
        );
        // A long idle gap closes every window at once: the cold streak
        // demotes chunk 0 back to its Nvm home.
        let due = s.due_moves(&p, SimTime::from_nanos(1_000_000));
        assert_eq!(due, [(0, MemTier::LocalDram, MemTier::Nvm)]);
    }

    #[test]
    fn span_names_one_chunk_or_the_whole_export() {
        let p = policy();
        let s = TierState::new(&p, PAGE_SIZE + 100, SimTime::ZERO);
        assert_eq!(
            s.span(&p, None, PAGE_SIZE + 100).unwrap(),
            (0, PAGE_SIZE + 100)
        );
        assert_eq!(
            s.span(&p, Some(1), PAGE_SIZE + 100).unwrap(),
            (PAGE_SIZE, 100)
        );
        assert!(matches!(
            s.span(&p, Some(2), PAGE_SIZE + 100),
            Err(XememError::BadWindow { .. })
        ));
    }
}
