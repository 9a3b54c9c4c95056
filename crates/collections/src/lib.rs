//! # xemem-collections
//!
//! Instrumented search structures for the Palacios guest memory map.
//!
//! The paper (§4.4, §5.4) attributes the ~3× throughput loss of VM
//! attachments to the VMM's memory map: a red-black tree in which each
//! entry maps a physically contiguous guest region to a physically
//! contiguous host region. XEMEM attachments install host frames that are
//! *not* guaranteed contiguous, so the map may grow one entry per 4 KiB
//! page, and insertion/rebalancing cost grows with tree depth. The paper's
//! stated future work is to replace the tree with "more intelligent radix
//! tree based data structures that can more appropriately mimic a page
//! table's organization".
//!
//! This crate provides both structures behind the [`GuestMemoryMap`]
//! trait, each reporting the *real structural work* (nodes visited,
//! rotations performed, levels touched) of every operation so the VMM can
//! charge virtual time for work actually done:
//!
//! * [`RbMemoryMap`] — a from-scratch CLRS red-black interval tree, which
//!   computes hot-plug cycles on a one-entry base in closed form with
//!   exact counts.
//! * [`RadixMemoryMap`] — a four-level, 512-way radix tree shaped like a
//!   page table (the future-work ablation).

pub mod radix;
pub mod rbtree;

pub use radix::RadixMemoryMap;
pub use rbtree::RbMemoryMap;

/// Structural work performed by one map operation. The VMM converts these
/// counts into virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpReport {
    /// Nodes (or radix levels) visited.
    pub visits: u32,
    /// Rotations performed (red-black only; zero for radix).
    pub rotations: u32,
}

/// Summed work of a batch of map operations and how many succeeded. The
/// VMM charges a fixed cost per operation plus a cost per visit, so
/// charging `ops` and `visits` once is bit-identical to summing each
/// operation's charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchReport {
    /// Operations that succeeded (entries inserted or removed).
    pub ops: u64,
    /// Sum of their [`OpReport::visits`].
    pub visits: u64,
    /// Sum of their [`OpReport::rotations`].
    pub rotations: u64,
}

impl BatchReport {
    /// Count one more successful operation.
    pub fn add(&mut self, report: OpReport) {
        self.ops += 1;
        self.visits += u64::from(report.visits);
        self.rotations += u64::from(report.rotations);
    }
}

/// `count` map entries of `len` frames each, back to back in guest and
/// host frames: entry `i` maps guest frames from `gfn + i·len` onward to
/// host frames from `hpfn + i·len` onward. A host run hot-plugged one
/// entry per page is one segment of single-frame entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First guest frame.
    pub gfn: u64,
    /// Frames per entry.
    pub len: u64,
    /// First host frame.
    pub hpfn: u64,
    /// Entries.
    pub count: u64,
}

impl Segment {
    /// A segment of one entry.
    pub fn entry(gfn: u64, len: u64, hpfn: u64) -> Segment {
        Segment {
            gfn,
            len,
            hpfn,
            count: 1,
        }
    }

    /// The first guest frame past the segment.
    pub fn end(&self) -> u64 {
        self.gfn + self.len * self.count
    }

    /// Its entries, as (gfn, len, hpfn).
    pub fn entries(self) -> impl Iterator<Item = (u64, u64, u64)> {
        (0..self.count).map(move |i| (self.gfn + i * self.len, self.len, self.hpfn + i * self.len))
    }
}

/// How a map served its non-empty [`GuestMemoryMap::insert_ascending`]
/// batches (see [`RbMemoryMap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Batches {
    /// Batches held unlinked, their reports computed in closed form. One
    /// that something later links for real still counts here.
    pub held: u64,
    /// Batches linked for real, entry by entry.
    pub linked: u64,
}

/// Errors from guest memory-map operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The inserted range overlaps an existing entry.
    Overlap { gfn: u64 },
    /// No entry covers the given guest frame.
    NotFound { gfn: u64 },
    /// Zero-length insert.
    EmptyRange,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Overlap { gfn } => write!(f, "guest frame {gfn:#x} overlaps existing entry"),
            MapError::NotFound { gfn } => write!(f, "guest frame {gfn:#x} not mapped"),
            MapError::EmptyRange => write!(f, "empty range"),
        }
    }
}

impl std::error::Error for MapError {}

/// A GPA→HPA region map: maps runs of guest frames to runs of host frames.
pub trait GuestMemoryMap {
    /// Insert a mapping of `len` guest frames starting at `gfn` to host
    /// frames starting at `hpfn`. Ranges must not overlap existing
    /// entries.
    fn insert(&mut self, gfn: u64, len: u64, hpfn: u64) -> Result<OpReport, MapError>;

    /// Translate one guest frame to its host frame, reporting the search
    /// work. Counted lookups take `&mut self`: their count depends on the
    /// tree as per-op inserts would build it.
    fn lookup(&mut self, gfn: u64) -> Result<(u64, OpReport), MapError>;

    /// Translate a run of consecutive guest frames resolved by a single
    /// entry: returns the host frame for `gfn` plus how many consecutive
    /// guest frames (capped at `max_len`, at least 1) the containing
    /// entry covers from `gfn` onward, with the report of the one shared
    /// search path. Every frame of an entry resolves through the same
    /// path, so charging `covered` × the reported work is identical to
    /// `covered` individual [`GuestMemoryMap::lookup`] calls — this is
    /// what lets callers walk the map in O(entries) instead of O(frames).
    fn lookup_run(&mut self, gfn: u64, max_len: u64) -> Result<((u64, u64), OpReport), MapError> {
        let _ = max_len;
        let (hpfn, report) = self.lookup(gfn)?;
        Ok(((hpfn, 1), report))
    }

    /// Translate `gfn` without counting any work: its host frame and how
    /// many guest frames, `gfn` included, the containing entry still
    /// covers. `None` when no entry covers `gfn`. This serves the guest's
    /// data path, which virtual time does not charge.
    fn translate_run(&self, gfn: u64) -> Option<(u64, u64)>;

    /// Remove the entry whose range contains `gfn`. Returns the removed
    /// (gfn_start, len, hpfn_start).
    fn remove(&mut self, gfn: u64) -> Result<((u64, u64, u64), OpReport), MapError>;

    /// Insert the entries of `segments` in order, each exactly as one
    /// [`GuestMemoryMap::insert`], stopping at the first error (the
    /// entries before it stay inserted). Returns the summed reports.
    /// Ascending entries above every existing one are the case an
    /// implementation may speed up; any order is correct.
    fn insert_ascending(
        &mut self,
        segments: &mut dyn Iterator<Item = Segment>,
    ) -> Result<BatchReport, MapError> {
        let mut total = BatchReport::default();
        for (gfn, len, hpfn) in segments.flat_map(Segment::entries) {
            total.add(self.insert(gfn, len, hpfn)?);
        }
        Ok(total)
    }

    /// Remove, in ascending order, every entry that meets the guest frames
    /// `[gfn, gfn + len)` — exactly the entries, order and reports of one
    /// [`GuestMemoryMap::remove`] per frame in ascending order — and return
    /// the summed reports of the removals. Frames of an entry just removed
    /// are not tried again: no other entry can contain them.
    fn remove_range(&mut self, gfn: u64, len: u64) -> BatchReport {
        let mut total = BatchReport::default();
        let end = gfn + len;
        let mut cur = gfn;
        while cur < end {
            match self.remove(cur) {
                Ok(((start, len, _), report)) => {
                    total.add(report);
                    cur = start + len;
                }
                Err(_) => cur += 1,
            }
        }
        total
    }

    /// Number of entries (regions, not frames).
    fn len(&self) -> usize;

    /// How batches were served so far; zero for a map that does not
    /// count them.
    fn batches(&self) -> Batches {
        Batches::default()
    }

    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
