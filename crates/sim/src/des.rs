//! Shared-resource contention.
//!
//! The scalability experiments (paper Fig. 6) simulate many enclaves
//! concurrently performing attachments while contending for shared
//! hardware — most importantly the Pisces IPI channel, whose interrupt
//! handling is pinned to core 0 of the management enclave. [`Resource`]
//! models such hardware: a single-server queue with a busy calendar, where
//! each request books the earliest sufficient gap at or after its arrival.
//! Interleaving the actors that contend for it in global time order is the
//! job of the [`crate::pdes`] engine.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A single-server resource (e.g. the core-0 IPI handler) with a busy
/// calendar.
///
/// `acquire(at, service)` books the earliest gap of length `service` at or
/// after `at` in the resource's schedule. Requests arriving at the same
/// instant serialize; a request arriving at time `t` is *not* blocked by
/// reservations that lie entirely after `t + service` can fit — so callers
/// may submit requests out of global time order (as the worklist drivers
/// do, where each actor books its whole operation before the next actor
/// runs) and still get a correct contention model.
///
/// `acquire` binary-searches past the intervals that ended by the arrival
/// and then walks only the pending ones it must queue behind: O(log n +
/// intervals skipped) per grant. Long-running drivers also call
/// [`Resource::retire_before`] as virtual time advances: intervals that
/// end at or before the low-water mark can never affect a future booking,
/// so pruning them bounds the calendar's memory by the *pending* horizon
/// instead of the whole history.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    /// Booked intervals, sorted by start time. Non-overlapping, so also
    /// sorted by end time — which is what lets `retire_before` pop a
    /// prefix.
    calendar: VecDeque<(SimTime, SimTime)>,
    /// No future `acquire` may arrive earlier than this; intervals
    /// ending at or before it have been pruned.
    low_water: SimTime,
    /// End of the latest booking ever made (pruning-stable `free_at`).
    last_end: SimTime,
    /// Intervals pruned by `retire_before`.
    retired: u64,
    /// Total time the resource spent serving requests.
    busy_time: SimDuration,
    /// Total time requests spent waiting for the resource.
    wait_time: SimDuration,
    grants: u64,
}

/// The serviced interval returned by [`Resource::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (≥ the requested arrival time).
    pub start: SimTime,
    /// When service completed; the caller resumes at this time.
    pub end: SimTime,
}

impl Grant {
    /// How long the request waited before service began.
    pub fn queued(&self, arrival: SimTime) -> SimDuration {
        self.start.duration_since(arrival)
    }
}

impl Resource {
    /// A fresh, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `service` time starting no earlier than `at`: books the
    /// earliest sufficient gap in the calendar.
    pub fn acquire(&mut self, at: SimTime, service: SimDuration) -> Grant {
        debug_assert!(
            at >= self.low_water,
            "acquire at {} ns arrives before the retired horizon ({} ns)",
            at.as_nanos(),
            self.low_water.as_nanos()
        );
        // Intervals ending at or before the arrival never constrain it;
        // they are a prefix because the calendar is also sorted by end.
        // From there, walk the pending intervals until a gap of `service`
        // opens up before one of them (insert there) or they run out
        // (append: every interval then ends by `start`).
        let mut candidate = at;
        let mut insert_pos = self.calendar.len();
        let pending = self.calendar.partition_point(|&(_, e)| e <= at);
        for (i, &(s, e)) in self.calendar.range(pending..).enumerate() {
            if s >= candidate + service {
                insert_pos = pending + i;
                break;
            }
            candidate = candidate.max(e);
        }
        let start = candidate;
        let end = start + service;
        if !service.is_zero() {
            self.calendar.insert(insert_pos, (start, end));
            self.last_end = self.last_end.max(end);
        }
        self.busy_time += service;
        self.wait_time += start.duration_since(at);
        self.grants += 1;
        Grant { start, end }
    }

    /// Drop bookings that can no longer influence any future `acquire`:
    /// every interval ending at or before `horizon`, under the promise
    /// that no future request arrives earlier than `horizon` (asserted
    /// in debug builds).
    ///
    /// Behaviour-preserving by construction: an interval with
    /// `end <= horizon <= arrival` lies in the ended prefix `acquire`
    /// skips, so removing it changes no grant. The horizon is monotone;
    /// stale calls are no-ops.
    pub fn retire_before(&mut self, horizon: SimTime) {
        if horizon <= self.low_water {
            return;
        }
        self.low_water = horizon;
        while self.calendar.front().is_some_and(|&(_, e)| e <= horizon) {
            self.calendar.pop_front();
            self.retired += 1;
        }
    }

    /// The time at which the resource's last booking ends. Stable under
    /// [`Resource::retire_before`]: pruning never moves this back.
    pub fn free_at(&self) -> SimTime {
        self.last_end
    }

    /// Bookings currently held in the calendar (pruned ones excluded).
    pub fn booked(&self) -> usize {
        self.calendar.len()
    }

    /// Bookings pruned by [`Resource::retire_before`] so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Total service time granted so far.
    pub fn total_busy(&self) -> SimDuration {
        self.busy_time
    }

    /// Total queueing delay experienced by all requests so far.
    pub fn total_wait(&self) -> SimDuration {
        self.wait_time
    }

    /// Number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_serves_fifo() {
        let mut r = Resource::new();
        let g1 = r.acquire(SimTime::from_nanos(0), SimDuration::from_nanos(10));
        assert_eq!(g1.start.as_nanos(), 0);
        assert_eq!(g1.end.as_nanos(), 10);
        // Arrives while busy: waits.
        let g2 = r.acquire(SimTime::from_nanos(5), SimDuration::from_nanos(10));
        assert_eq!(g2.start.as_nanos(), 10);
        assert_eq!(g2.end.as_nanos(), 20);
        assert_eq!(g2.queued(SimTime::from_nanos(5)).as_nanos(), 5);
        // Arrives after idle gap: starts immediately.
        let g3 = r.acquire(SimTime::from_nanos(100), SimDuration::from_nanos(1));
        assert_eq!(g3.start.as_nanos(), 100);
        assert_eq!(r.grants(), 3);
        assert_eq!(r.total_busy().as_nanos(), 21);
        assert_eq!(r.total_wait().as_nanos(), 5);
    }
}

#[cfg(test)]
mod calendar_tests {
    use super::*;

    #[test]
    fn later_arrival_fills_an_earlier_gap() {
        let mut r = Resource::new();
        // Book [100, 200).
        r.acquire(SimTime::from_nanos(100), SimDuration::from_nanos(100));
        // A request arriving at 0 needing 50 fits in the gap before 100.
        let g = r.acquire(SimTime::from_nanos(0), SimDuration::from_nanos(50));
        assert_eq!((g.start.as_nanos(), g.end.as_nanos()), (0, 50));
        // Another 60-ns request at 0 does NOT fit in [50, 100): it lands
        // after the existing booking.
        let g2 = r.acquire(SimTime::from_nanos(0), SimDuration::from_nanos(60));
        assert_eq!(g2.start.as_nanos(), 200);
    }

    #[test]
    fn out_of_order_whole_operations_overlap_correctly() {
        // The fig6 worklist pattern: actor A books its two message slots
        // before actor B runs, but B's arrival time is earlier than A's
        // second slot — B must not queue behind it.
        let mut r = Resource::new();
        let a1 = r.acquire(SimTime::from_nanos(0), SimDuration::from_nanos(10));
        assert_eq!(a1.start.as_nanos(), 0);
        let a2 = r.acquire(SimTime::from_nanos(1_000), SimDuration::from_nanos(10));
        assert_eq!(a2.start.as_nanos(), 1_000);
        // B arrives at t=20 — the gap [10, 1000) is free.
        let b1 = r.acquire(SimTime::from_nanos(20), SimDuration::from_nanos(10));
        assert_eq!(b1.start.as_nanos(), 20);
        assert_eq!(r.total_wait(), SimDuration::ZERO);
    }

    #[test]
    fn exact_fit_gap_is_used() {
        let mut r = Resource::new();
        r.acquire(SimTime::from_nanos(0), SimDuration::from_nanos(10)); // [0,10)
        r.acquire(SimTime::from_nanos(20), SimDuration::from_nanos(10)); // [20,30)
                                                                         // Exactly 10 ns fits in [10, 20).
        let g = r.acquire(SimTime::from_nanos(5), SimDuration::from_nanos(10));
        assert_eq!((g.start.as_nanos(), g.end.as_nanos()), (10, 20));
    }

    #[test]
    fn zero_service_requests_do_not_pollute_the_calendar() {
        let mut r = Resource::new();
        for _ in 0..100 {
            let g = r.acquire(SimTime::from_nanos(50), SimDuration::ZERO);
            assert_eq!(g.start.as_nanos(), 50);
        }
        assert_eq!(r.free_at(), SimTime::ZERO, "no bookings should exist");
        assert_eq!(r.grants(), 100);
    }

    #[test]
    fn retirement_preserves_out_of_order_booking_against_zero_gap_intervals() {
        // Two resources fed the identical request sequence; one is pruned
        // aggressively between requests. Every grant must match.
        let mut pruned = Resource::new();
        let mut reference = Resource::new();
        let both = |r: &mut Resource| {
            // Adjacent, zero-gap prefix [0,10)[10,20)[20,30), then a
            // distant island [100,130).
            r.acquire(SimTime::from_nanos(0), SimDuration::from_nanos(10));
            r.acquire(SimTime::from_nanos(10), SimDuration::from_nanos(10));
            r.acquire(SimTime::from_nanos(20), SimDuration::from_nanos(10));
            r.acquire(SimTime::from_nanos(100), SimDuration::from_nanos(30));
        };
        both(&mut pruned);
        both(&mut reference);
        // The whole zero-gap prefix ends by 30; no future arrival is
        // earlier than 30, so it is retireable. [100,130) must survive.
        pruned.retire_before(SimTime::from_nanos(30));
        assert_eq!(pruned.booked(), 1);
        assert_eq!(pruned.retired(), 3);

        // Out-of-order arrivals around the surviving interval: one that
        // fits the gap [30,100) exactly at its zero-gap left edge, one
        // forced behind the island, one adjacent to the island's end.
        for (at, service) in [(30u64, 70u64), (35, 50), (40, 200)] {
            let a = pruned.acquire(SimTime::from_nanos(at), SimDuration::from_nanos(service));
            let b = reference.acquire(SimTime::from_nanos(at), SimDuration::from_nanos(service));
            assert_eq!(
                a, b,
                "grant diverged after pruning (at={at}, service={service})"
            );
        }
        assert_eq!(pruned.free_at(), reference.free_at());
        assert_eq!(pruned.total_busy(), reference.total_busy());
        assert_eq!(pruned.total_wait(), reference.total_wait());
        // Monotone horizon: a stale retire call is a no-op.
        let booked = pruned.booked();
        pruned.retire_before(SimTime::from_nanos(10));
        assert_eq!(pruned.booked(), booked);
    }

    #[test]
    fn retirement_bounds_calendar_growth() {
        // The chaos pattern: a steady stream of bookings with a rising
        // arrival horizon. With retirement the live calendar stays small.
        let mut r = Resource::new();
        for i in 0..10_000u64 {
            let at = SimTime::from_nanos(i * 100);
            r.acquire(at, SimDuration::from_nanos(40));
            if i % 64 == 0 {
                r.retire_before(at);
            }
        }
        assert!(
            r.booked() <= 80,
            "calendar grew: {} live entries",
            r.booked()
        );
        assert_eq!(r.retired() + r.booked() as u64, 10_000);
        assert_eq!(r.grants(), 10_000);
        assert_eq!(r.free_at().as_nanos(), 9_999 * 100 + 40);
    }

    #[test]
    fn calendar_stays_sorted_under_random_order() {
        // Insert bookings at scattered times and verify no two overlap.
        let mut r = Resource::new();
        let times = [500u64, 100, 900, 300, 700, 200, 800, 400, 600, 0];
        let mut grants = Vec::new();
        for &t in &times {
            grants.push(r.acquire(SimTime::from_nanos(t), SimDuration::from_nanos(80)));
        }
        grants.sort_by_key(|g| g.start);
        for w in grants.windows(2) {
            assert!(
                w[0].end <= w[1].start,
                "overlap: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        // Total booked time is exactly 10 × 80 ns.
        assert_eq!(r.total_busy().as_nanos(), 800);
    }
}
