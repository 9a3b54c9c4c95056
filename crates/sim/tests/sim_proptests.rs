//! Property tests for the simulation substrate: noise-stream ordering,
//! the noise fixed-point's monotonicity, and the calendar resource's
//! no-overlap/conservation invariants and grant-for-grant equivalence
//! with the linear-scan reference calendar.

use proptest::prelude::*;
use std::collections::VecDeque;
use xemem_sim::des::{Grant, Resource};
use xemem_sim::noise::{finish_time_with_noise, CompositeNoise, NoiseGen};
use xemem_sim::{SimDuration, SimRng, SimTime};

/// The linear-scan calendar `Resource` must match grant for grant: one
/// scan over every booking to find the gap, a second to find the insert
/// position when the gap lies past the last booking.
#[derive(Default)]
struct RefCalendar {
    calendar: VecDeque<(SimTime, SimTime)>,
    low_water: SimTime,
    last_end: SimTime,
    busy: SimDuration,
    wait: SimDuration,
}

impl RefCalendar {
    fn acquire(&mut self, at: SimTime, service: SimDuration) -> Grant {
        let mut candidate = at;
        let mut insert_pos = self.calendar.len();
        for (i, &(s, e)) in self.calendar.iter().enumerate() {
            if e <= candidate {
                continue;
            }
            if s >= candidate + service {
                insert_pos = i;
                break;
            }
            candidate = candidate.max(e);
        }
        let start = candidate;
        let end = start + service;
        if insert_pos == self.calendar.len() {
            insert_pos = self
                .calendar
                .iter()
                .position(|&(s, _)| s > start)
                .unwrap_or(self.calendar.len());
        }
        if !service.is_zero() {
            self.calendar.insert(insert_pos, (start, end));
            self.last_end = self.last_end.max(end);
        }
        self.busy += service;
        self.wait += start.duration_since(at);
        Grant { start, end }
    }

    fn retire_before(&mut self, horizon: SimTime) {
        if horizon <= self.low_water {
            return;
        }
        self.low_water = horizon;
        while self.calendar.front().is_some_and(|&(_, e)| e <= horizon) {
            self.calendar.pop_front();
        }
    }
}

#[derive(Debug, Clone)]
enum CalOp {
    /// A request arriving `ahead` ns after the retired horizon.
    Acquire { ahead: u64, service: u64 },
    /// Retire up to `ahead` ns past the current horizon.
    Retire { ahead: u64 },
}

fn cal_op() -> impl Strategy<Value = CalOp> {
    prop_oneof![
        (0u64..2_000, 1u64..300).prop_map(|(ahead, service)| CalOp::Acquire { ahead, service }),
        (0u64..2_000, 1u64..300).prop_map(|(ahead, service)| CalOp::Acquire { ahead, service }),
        (0u64..2_000).prop_map(|ahead| CalOp::Acquire { ahead, service: 0 }),
        (0u64..400).prop_map(|ahead| CalOp::Retire { ahead }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Out-of-order arrivals, zero-service requests and interleaved
    /// retirement give the same grants, totals, `free_at` and live
    /// booking count as the linear-scan reference.
    #[test]
    fn calendar_matches_linear_scan_reference(ops in prop::collection::vec(cal_op(), 1..300)) {
        let mut r = Resource::new();
        let mut reference = RefCalendar::default();
        let mut horizon = 0u64;
        for op in ops {
            match op {
                CalOp::Acquire { ahead, service } => {
                    let at = SimTime::from_nanos(horizon + ahead);
                    let service = SimDuration::from_nanos(service);
                    prop_assert_eq!(r.acquire(at, service), reference.acquire(at, service));
                }
                CalOp::Retire { ahead } => {
                    horizon += ahead;
                    r.retire_before(SimTime::from_nanos(horizon));
                    reference.retire_before(SimTime::from_nanos(horizon));
                }
            }
            prop_assert_eq!(r.total_wait(), reference.wait);
            prop_assert_eq!(r.total_busy(), reference.busy);
            prop_assert_eq!(r.free_at(), reference.last_end);
            prop_assert_eq!(r.booked(), reference.calendar.len());
        }
    }

    #[test]
    fn noise_streams_are_ordered_across_windows(seed in any::<u64>(), windows in 1u64..20) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut gen = CompositeNoise::fwk(&mut rng);
        let mut last = SimTime::ZERO;
        let step = SimDuration::from_millis(50);
        let mut cursor = SimTime::ZERO;
        for _ in 0..windows {
            let next = cursor + step;
            for e in gen.events_in(cursor, next) {
                prop_assert!(e.start >= cursor && e.start < next, "event outside its window");
                prop_assert!(e.start >= last, "events regressed in time");
                last = e.start;
            }
            cursor = next;
        }
    }

    #[test]
    fn finish_time_is_at_least_start_plus_work(seed in any::<u64>(), work_us in 1u64..100_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut gen = CompositeNoise::fwk(&mut rng);
        let start = SimTime::from_nanos(17);
        let work = SimDuration::from_micros(work_us);
        let end = finish_time_with_noise(&mut gen, start, work);
        prop_assert!(end >= start + work, "noise can only delay completion");
    }

    #[test]
    fn noise_is_deterministic_per_seed(seed in any::<u64>()) {
        let run = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut gen = CompositeNoise::fwk(&mut rng);
            gen.events_in(SimTime::ZERO, SimTime::from_nanos(1_000_000_000))
                .iter()
                .map(|e| (e.start.as_nanos(), e.duration.as_nanos()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn resource_grants_never_overlap(
        requests in prop::collection::vec((0u64..10_000, 1u64..500), 1..120)
    ) {
        let mut r = Resource::new();
        let mut grants = Vec::new();
        let mut total_service = 0u64;
        for (at, service) in requests {
            let g = r.acquire(SimTime::from_nanos(at), SimDuration::from_nanos(service));
            prop_assert!(g.start >= SimTime::from_nanos(at), "grant before arrival");
            prop_assert_eq!(g.end.as_nanos() - g.start.as_nanos(), service);
            grants.push(g);
            total_service += service;
        }
        grants.sort_by_key(|g| g.start);
        for w in grants.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "grants overlap: {:?} / {:?}", w[0], w[1]);
        }
        prop_assert_eq!(r.total_busy().as_nanos(), total_service);
    }
}
