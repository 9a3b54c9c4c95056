//! # xemem-sim
//!
//! Virtual-time simulation substrate underpinning the XEMEM reproduction.
//!
//! Every other crate in the workspace performs *real* data-structure work
//! (page tables are walked, red-black trees are rebalanced, conjugate
//! gradients converge) but charges *virtual* time through the facilities in
//! this crate:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual
//!   timestamps and intervals.
//! * [`Clock`] — a shared, cheaply clonable virtual clock.
//! * [`CostModel`] — every calibrated constant used by the simulators, with
//!   the calibration source documented on each field.
//! * [`des`] — a FIFO [`des::Resource`] with a busy calendar, used to
//!   simulate concurrent enclaves contending for shared hardware (e.g. the
//!   core-0 IPI handler of the Pisces channel).
//! * [`noise`] — composable OS-noise generators (Kitten hardware detours,
//!   SMIs, Linux timer/daemon noise, attachment-service detours) used both
//!   by the Selfish Detour reproduction (paper Fig. 7) and the in situ
//!   benchmarks (Figs. 8–9).
//! * [`stats`] — summary statistics and throughput helpers used by the
//!   figure-regeneration harnesses.
//! * [`rng`] — deterministic seeded RNG with the distribution samplers the
//!   noise models need (uniform, exponential, normal, lognormal).
//! * [`pdes`] — windowed conservative parallel discrete-event engine:
//!   partitions actors into hash-assigned event lanes, advances them in
//!   lock-step lookahead windows, and merges cross-lane effects at window
//!   barriers in a deterministic order, so one run's results are
//!   bit-identical for any lane/worker count.
//! * [`run`] — deterministic parallel run driver: shards independent runs
//!   (figure sweep points, fault schedules) across host workers with
//!   scheduling-independent split RNG streams and plan-order aggregation,
//!   so `-j1` and `-jN` produce bit-identical results.
//! * [`fx`] — [`FxHashMap`]/[`FxHashSet`], hash maps with a fast hasher
//!   that is the same in every process, for the id-keyed maps.
//! * [`fault`] — deterministic fault injection: scheduled enclave crashes,
//!   process kills, name-server outages and message drop/duplication
//!   windows, driven by a seeded [`FaultInjector`].

pub mod clock;
pub mod cost;
pub mod des;
pub mod fault;
pub mod fx;
pub mod noise;
pub mod pdes;
pub mod rng;
pub mod run;
pub mod stats;
pub mod tier;
pub mod time;

pub use clock::Clock;
pub use cost::CostModel;
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use pdes::{lane_of, run_lanes, LaneShared, PdesActor, PdesConfig, PdesStats};
pub use rng::SimRng;
pub use run::{host_parallelism, mix64, split_seed, RunCtx, RunDriver, RunPlan};
pub use stats::Summary;
pub use tier::{MemTier, TierCosts, TierModel, TierPolicy};
pub use time::{Costed, SimDuration, SimTime};
