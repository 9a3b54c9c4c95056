//! A per-frame reference model for `PhysicalMemory`.
//!
//! The model keeps every materialized frame as its own 4 KiB array and
//! moves bytes one at a time. Random writes and reads crossing frame and
//! zone ends (including a gap between zones and the end of the node),
//! relocations whose runs overlap one another's sources and
//! destinations, and discards of random run lists must leave the two
//! indistinguishable: same results and errors, same bytes everywhere,
//! same number of materialized frames.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xemem_mem::phys::NumaZone;
use xemem_mem::{FrameMove, MemError, Pfn, PfnList, PhysAccess, PhysAddr, PhysicalMemory};

const PAGE: usize = 4096;

/// Frames 0..40 and 48..100 (a gap between them), then 100..130 in a
/// zone of its own that starts where the previous one ends.
const ZONES: [(u32, u64, u64); 3] = [(0, 0, 40), (1, 48, 52), (2, 100, 30)];

fn zones() -> Vec<NumaZone> {
    ZONES
        .into_iter()
        .map(|(id, base, frames)| NumaZone {
            id,
            base: Pfn(base),
            frames,
        })
        .collect()
}

/// One past the highest frame any step touches: past the node's end.
const SPACE: u64 = 136;

#[derive(Debug, Default)]
struct Model {
    frames: BTreeMap<u64, Vec<u8>>,
}

impl Model {
    fn exists(pfn: u64) -> bool {
        ZONES
            .iter()
            .any(|&(_, base, frames)| (base..base + frames).contains(&pfn))
    }

    fn write(&mut self, at: u64, data: &[u8]) -> Result<(), MemError> {
        for (i, &b) in data.iter().enumerate() {
            let addr = at + i as u64;
            let pfn = addr / PAGE as u64;
            if !Self::exists(pfn) {
                return Err(MemError::BadPhysAccess(Pfn(pfn)));
            }
            let frame = self.frames.entry(pfn).or_insert_with(|| vec![0; PAGE]);
            frame[(addr % PAGE as u64) as usize] = b;
        }
        Ok(())
    }

    fn read(&self, at: u64, out: &mut [u8]) -> Result<(), MemError> {
        for (i, b) in out.iter_mut().enumerate() {
            let addr = at + i as u64;
            let pfn = addr / PAGE as u64;
            if !Self::exists(pfn) {
                return Err(MemError::BadPhysAccess(Pfn(pfn)));
            }
            *b = self
                .frames
                .get(&pfn)
                .map_or(0, |f| f[(addr % PAGE as u64) as usize]);
        }
        Ok(())
    }

    /// Every end of every run must exist, checked run by run; then every
    /// materialized source frame is lifted out before any lands, so a
    /// destination that is another run's source is never clobbered.
    fn relocate(&mut self, moves: &[FrameMove]) -> Result<(), MemError> {
        for m in moves.iter().filter(|m| m.frames > 0) {
            let last = m.frames - 1;
            for end in [m.src.0, m.src.0 + last, m.dst.0, m.dst.0 + last] {
                if !Self::exists(end) {
                    return Err(MemError::BadPhysAccess(Pfn(end)));
                }
            }
        }
        let mut lifted = Vec::new();
        for m in moves {
            for i in 0..m.frames {
                if let Some(frame) = self.frames.remove(&(m.src.0 + i)) {
                    lifted.push((m.dst.0 + i, frame));
                }
            }
        }
        self.frames.extend(lifted);
        Ok(())
    }

    fn discard(&mut self, list: &PfnList) {
        for pfn in list.iter_pages() {
            self.frames.remove(&pfn.0);
        }
    }
}

#[derive(Debug, Clone)]
enum Step {
    Write {
        at: u64,
        len: usize,
        seed: u8,
    },
    Read {
        at: u64,
        len: usize,
    },
    /// Runs of `(len, source gap, destination gap)`; sources are laid out
    /// in order from `src`, destinations in reverse order from `dst`.
    Relocate {
        src: u64,
        dst: u64,
        runs: Vec<(u64, u64, u64)>,
    },
    Discard {
        runs: Vec<(u64, u64)>,
    },
}

fn step() -> impl Strategy<Value = Step> {
    let addr = 0..SPACE * PAGE as u64;
    prop_oneof![
        (addr.clone(), 0usize..3 * PAGE, any::<u8>()).prop_map(|(at, len, seed)| Step::Write {
            at,
            len,
            seed
        }),
        (addr.clone(), 0usize..3 * PAGE, any::<u8>()).prop_map(|(at, len, seed)| Step::Write {
            at,
            len,
            seed
        }),
        (addr, 0usize..3 * PAGE).prop_map(|(at, len)| Step::Read { at, len }),
        (
            0..SPACE,
            0..SPACE,
            prop::collection::vec((0u64..12, 0u64..6, 0u64..6), 1..4)
        )
            .prop_map(|(src, dst, runs)| Step::Relocate { src, dst, runs }),
        prop::collection::vec((0..SPACE, 0u64..20), 0..4).prop_map(|runs| Step::Discard { runs }),
    ]
}

/// Disjoint source runs in order from `src`, disjoint destination runs
/// in reverse order from `dst`: sources and destinations overlap freely.
fn moves(src: u64, dst: u64, runs: &[(u64, u64, u64)]) -> Vec<FrameMove> {
    let mut s = src;
    let mut out: Vec<FrameMove> = runs
        .iter()
        .map(|&(frames, gap, _)| {
            let m = FrameMove {
                src: Pfn(s + gap),
                dst: Pfn(0),
                frames,
            };
            s += gap + frames;
            m
        })
        .collect();
    let mut d = dst;
    for (m, &(_, _, gap)) in out.iter_mut().zip(runs).rev() {
        m.dst = Pfn(d + gap);
        d += gap + m.frames;
    }
    out
}

fn apply(pm: &PhysicalMemory, model: &mut Model, step: &Step) {
    match step {
        Step::Write { at, len, seed } => {
            let data: Vec<u8> = (0..*len).map(|i| seed.wrapping_add(i as u8) | 1).collect();
            assert_eq!(pm.write(PhysAddr(*at), &data), model.write(*at, &data));
        }
        Step::Read { at, len } => {
            let (mut got, mut want) = (vec![0xA5; *len], vec![0xA5; *len]);
            assert_eq!(pm.read(PhysAddr(*at), &mut got), model.read(*at, &mut want));
            assert!(got == want, "read of {len} bytes at {at:#x}");
        }
        Step::Relocate { src, dst, runs } => {
            let moves = moves(*src, *dst, runs);
            assert_eq!(pm.relocate_frames(&moves), model.relocate(&moves));
        }
        Step::Discard { runs } => {
            let mut list = PfnList::new();
            for &(start, len) in runs {
                list.push_run(Pfn(start), len);
            }
            assert_eq!(pm.discard(&list), Ok(()));
            model.discard(&list);
        }
    }
}

/// Same materialized count and the same bytes in every zone.
fn assert_same(pm: &PhysicalMemory, model: &Model) {
    assert_eq!(pm.materialized_frames(), model.frames.len());
    let zero = vec![0; PAGE];
    for (id, base, frames) in ZONES {
        let mut got = vec![0xA5; frames as usize * PAGE];
        pm.read(Pfn(base).base(), &mut got).unwrap();
        for (pfn, frame) in (base..).zip(got.chunks(PAGE)) {
            let want = model.frames.get(&pfn).unwrap_or(&zero);
            assert!(frame == want, "zone {id}: frame {pfn} differs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn physical_memory_matches_per_frame_model(steps in prop::collection::vec(step(), 1..30)) {
        let pm = PhysicalMemory::with_zones(zones());
        let mut model = Model::default();
        for step in &steps {
            apply(&pm, &mut model, step);
            assert_same(&pm, &model);
        }
    }
}
