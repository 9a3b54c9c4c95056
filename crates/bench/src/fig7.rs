//! Fig. 7 — noise profile of a Kitten enclave serving XEMEM attachments.
//!
//! Paper setup: a single-core Kitten enclave exports regions of 4 KB,
//! 2 MB and 1 GB; a Linux process attaches to each region, sleeps one
//! second, and repeats for 10 seconds, while Selfish Detour runs on the
//! Kitten core. Expected bands: dense ~12 µs hardware detours, sparse
//! ~100 µs SMIs, 4 KB attachments invisible, 2 MB attachments ~45 µs,
//! and 1 GB attachments two orders of magnitude above everything else
//! (~23.2–23.8 ms).

use xemem::{SystemBuilder, TraceHandle, XememError};
use xemem_sim::noise::{CompositeNoise, NoiseEvent, NoiseKind, ScheduledNoise};
use xemem_sim::{SimDuration, SimRng, SimTime};
use xemem_workloads::detour::SelfishDetour;

/// One detour observation.
#[derive(Debug, Clone)]
pub struct Fig7Sample {
    /// Seconds since the window began.
    pub t_secs: f64,
    /// Detour duration in microseconds.
    pub detour_us: f64,
    /// Cause label.
    pub kind: String,
}

/// The profile for one exported-region size.
#[derive(Debug, Clone)]
pub struct Fig7Series {
    /// Exported region size in bytes.
    pub region: u64,
    /// All detours observed in the window.
    pub samples: Vec<Fig7Sample>,
}

/// Run the experiment: for each region size, 10 attachments spaced one
/// second apart over a 10 s window (scaled down in smoke mode).
pub fn run(regions: &[u64], window_secs: u64, seed: u64) -> Result<Vec<Fig7Series>, XememError> {
    regions
        .iter()
        .map(|&r| run_region(r, window_secs, seed, &TraceHandle::disabled()))
        .collect()
}

/// One region's profile — the independent unit the parallel run driver
/// shards. The noise RNG is seeded from `seed` per region (as the
/// serial sweep always did), so concurrent regions share no state; the
/// unit's charges all land on its own `tracer`.
pub fn run_region(
    region: u64,
    window_secs: u64,
    seed: u64,
    tracer: &TraceHandle,
) -> Result<Fig7Series, XememError> {
    let mut sys = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .linux_management("linux", 4, 64 << 20)
        .kitten_cokernel("kitten", 1, region + (64 << 20))
        .build()?;
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, region + (16 << 20))?;
    let attacher = sys.spawn_process(linux, 8 << 20)?;
    let buf = sys.alloc_buffer(exporter, region)?;
    sys.prepare_buffer(exporter, buf, region)?;
    let segid = sys.xpmem_make(exporter, buf, region, None)?;
    let apid = sys.xpmem_get(attacher, segid)?;

    // One attachment per second; the serve (page-table walk) occupies
    // the Kitten core and is injected as an AttachService detour.
    let mut injected = Vec::new();
    for sec in 0..window_secs {
        let at = SimTime::from_nanos(sec * 1_000_000_000 + 137_000_000);
        let outcome = sys.attach_at(attacher, apid, 0, region, at)?;
        injected.push(NoiseEvent {
            start: at + outcome.route_request,
            duration: outcome.serve,
            kind: NoiseKind::AttachService,
        });
        sys.detach_at(attacher, outcome.va, outcome.end)?;
    }

    let mut rng = SimRng::seed_from_u64(seed);
    let mut noise = CompositeNoise::new(vec![
        Box::new(CompositeNoise::kitten(&mut rng)),
        Box::new(ScheduledNoise::new(injected)),
    ]);
    let detours = SelfishDetour::default().run(
        &mut noise,
        SimTime::ZERO,
        SimDuration::from_secs(window_secs),
    );
    let samples = detours
        .iter()
        .map(|d| Fig7Sample {
            t_secs: d.at.as_secs_f64(),
            detour_us: d.duration.as_micros_f64(),
            kind: format!("{:?}", d.kind),
        })
        .collect();
    Ok(Fig7Series { region, samples })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attachment_detours_scale_with_region() {
        let series = run(&[4 << 10, 2 << 20, 64 << 20], 4, 11).unwrap();
        let max_attach = |s: &Fig7Series| {
            s.samples
                .iter()
                .filter(|x| x.kind == "AttachService")
                .map(|x| x.detour_us)
                .fold(0.0f64, f64::max)
        };
        // 4 KB attachments vanish below the noise floor (sub-µs walk).
        assert_eq!(
            max_attach(&series[0]),
            0.0,
            "4 KB detours should be invisible"
        );
        // 2 MB ⇒ ~45 µs band.
        let two_mb = max_attach(&series[1]);
        assert!((20.0..90.0).contains(&two_mb), "2 MB detour {two_mb} µs");
        // 64 MB (smoke stand-in for 1 GB) ⇒ ~1.4 ms, far above SMIs.
        let big = max_attach(&series[2]);
        assert!(big > 1000.0, "64 MB detour {big} µs");
        // Baseline bands still present.
        assert!(series[2].samples.iter().any(|s| s.kind == "Hardware"));
    }
}
