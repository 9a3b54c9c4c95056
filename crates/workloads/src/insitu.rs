//! The composed in situ workload driver (paper §6).
//!
//! An HPC simulation (HPCCG) and an analytics program (STREAM) run in
//! configurable enclaves on one node and synchronize through stop/go
//! variables in XEMEM shared memory. The driver reproduces the paper's
//! two workflow parameters (§6.2):
//!
//! * **Execution model** — synchronous (the simulation waits for each
//!   analytics interval) or asynchronous (the analytics program signals
//!   "go" right after attaching and runs STREAM concurrently).
//! * **Attachment model** — one-time (a single region exported/attached
//!   at the start) or recurring (a new region exported and attached at
//!   every communication point).
//!
//! The enclave configurations cover Table 3 plus the multi-node paper
//! config (simulation inside a VM on a Kitten co-kernel host).
//!
//! The driver runs on two virtual timelines (simulation and analytics)
//! over a real [`xemem::System`]: attachments execute the actual XEMEM
//! protocol (routing, page-table walks, VMM memory-map updates), compute
//! phases charge the HPCCG/STREAM roofline models, and every phase is
//! perturbed by its enclave's noise profile. Each communication point
//! writes a real header into the shared region and verifies it on the
//! analytics side, so the data path is exercised end to end.

use crate::hpccg::{HpccgModel, HpccgProblem};
use crate::stream::stream_time;
use xemem::{GuestOs, MemoryMapKind, SystemBuilder, TraceHandle, VirtAddr, XememError};
use xemem_sim::noise::{finish_time_with_noise, CompositeNoise, NoiseGen};
use xemem_sim::{CostModel, SimDuration, SimRng, SimTime};

/// Where the HPC simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEnclave {
    /// Native Linux (the baseline single-OS configuration).
    LinuxNative,
    /// A Kitten co-kernel enclave (Table 3 rows 2–4).
    KittenCokernel,
    /// A Linux VM on an isolated Kitten co-kernel host (the multi-node
    /// Fig. 9 multi-enclave configuration).
    VmOnKittenHost,
}

/// Where the analytics program runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyticsEnclave {
    /// Native Linux.
    LinuxNative,
    /// A Linux VM hosted on the Linux management enclave.
    VmOnLinuxHost,
    /// A Linux VM hosted on a dedicated Kitten co-kernel.
    VmOnKittenHost,
}

/// Synchronous or asynchronous composition (paper §6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionModel {
    /// The simulation waits for each analytics interval to finish.
    Synchronous,
    /// The analytics program signals "go" after attaching; STREAM runs
    /// concurrently with the next simulation phase.
    Asynchronous,
}

/// One-time or recurring attachments (paper §6.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachModel {
    /// One region, exported and attached once at startup.
    OneTime,
    /// A fresh region exported and attached at every communication point.
    Recurring,
}

/// Full configuration of one in situ run.
#[derive(Debug, Clone)]
pub struct InsituConfig {
    /// Simulation placement.
    pub sim_enclave: SimEnclave,
    /// Analytics placement.
    pub analytics_enclave: AnalyticsEnclave,
    /// Execution model.
    pub execution: ExecutionModel,
    /// Attachment model.
    pub attach: AttachModel,
    /// Total CG iterations.
    pub iterations: u32,
    /// Communicate with analytics every this many iterations.
    pub comm_every: u32,
    /// Shared region size in bytes.
    pub region_bytes: u64,
    /// The HPCCG problem (per node).
    pub problem: HpccgProblem,
    /// Cores running the simulation.
    pub sim_cores: u32,
    /// RNG seed (controls all noise).
    pub seed: u64,
}

impl InsituConfig {
    /// The single-node Fig. 8 workload: 600 iterations, 15 communication
    /// points, STREAM over 512 MB.
    pub fn fig8(
        sim: SimEnclave,
        analytics: AnalyticsEnclave,
        execution: ExecutionModel,
        attach: AttachModel,
        seed: u64,
    ) -> Self {
        InsituConfig {
            sim_enclave: sim,
            analytics_enclave: analytics,
            execution,
            attach,
            iterations: 600,
            comm_every: 40,
            region_bytes: 512 << 20,
            problem: HpccgProblem::fig8(),
            sim_cores: 4,
            seed,
        }
    }

    /// The four enclave configurations of Table 3, in paper order.
    pub fn table3() -> [(SimEnclave, AnalyticsEnclave, &'static str); 4] {
        [
            (
                SimEnclave::LinuxNative,
                AnalyticsEnclave::LinuxNative,
                "Linux/Linux",
            ),
            (
                SimEnclave::KittenCokernel,
                AnalyticsEnclave::LinuxNative,
                "Kitten/Linux",
            ),
            (
                SimEnclave::KittenCokernel,
                AnalyticsEnclave::VmOnLinuxHost,
                "Kitten/Linux VM (Linux Host)",
            ),
            (
                SimEnclave::KittenCokernel,
                AnalyticsEnclave::VmOnKittenHost,
                "Kitten/Linux VM (Kitten Host)",
            ),
        ]
    }

    /// A scaled-down configuration for fast tests: tiny region, few
    /// iterations.
    pub fn smoke(
        sim: SimEnclave,
        analytics: AnalyticsEnclave,
        execution: ExecutionModel,
        attach: AttachModel,
    ) -> Self {
        InsituConfig {
            sim_enclave: sim,
            analytics_enclave: analytics,
            execution,
            attach,
            iterations: 20,
            comm_every: 5,
            region_bytes: 4 << 20,
            problem: HpccgProblem {
                nx: 64,
                ny: 64,
                nz: 64,
            },
            sim_cores: 4,
            seed: 42,
        }
    }
}

/// Result of one in situ run.
#[derive(Debug, Clone)]
pub struct InsituResult {
    /// The HPC simulation's completion time (the quantity Figs. 8–9
    /// plot).
    pub sim_completion: SimDuration,
    /// Communication points executed.
    pub comm_points: u32,
    /// Total virtual time the simulation spent blocked on attachment
    /// setup (export + get + attach handshakes).
    pub attach_overhead: SimDuration,
    /// Total analytics busy time.
    pub analytics_busy: SimDuration,
    /// True when every communication point's header round-tripped
    /// through shared memory intact.
    pub verified: bool,
}

struct Timelines {
    sim_t: SimTime,
    ana_free: SimTime,
    attach_overhead: SimDuration,
    analytics_busy: SimDuration,
}

/// Run the composed workload; see the module docs.
pub fn run_insitu(cfg: &InsituConfig) -> Result<InsituResult, XememError> {
    run_insitu_traced(cfg, &TraceHandle::disabled())
}

/// [`run_insitu`] with an explicit tracer: every charge the workload
/// drives through the system lands on `tracer`, so parallel bench units
/// can trace into per-unit handles.
pub fn run_insitu_traced(
    cfg: &InsituConfig,
    tracer: &TraceHandle,
) -> Result<InsituResult, XememError> {
    let cost = CostModel::default();
    let mut rng = SimRng::seed_from_u64(cfg.seed);

    // --- Build the topology for this configuration (Table 3). ---
    let region = cfg.region_bytes;
    let slack = 64 << 20;
    let sim_mem = 2 * region + slack;
    let ana_mem = region + slack;
    let mut b = SystemBuilder::new()
        .with_cost(cost.clone())
        .with_tracer(tracer.clone());
    b = match (cfg.sim_enclave, cfg.analytics_enclave) {
        (SimEnclave::LinuxNative, AnalyticsEnclave::LinuxNative) => {
            b.linux_management("linux", 8, sim_mem + ana_mem)
        }
        (SimEnclave::LinuxNative, _) => {
            return Err(XememError::Topology(
                "Linux-native simulation is only paired with Linux-native analytics".into(),
            ))
        }
        (SimEnclave::KittenCokernel, AnalyticsEnclave::LinuxNative) => b
            .linux_management("linux", 4, ana_mem)
            .kitten_cokernel("kitten-sim", cfg.sim_cores, sim_mem),
        (SimEnclave::KittenCokernel, AnalyticsEnclave::VmOnLinuxHost) => b
            .linux_management("linux", 4, slack)
            .kitten_cokernel("kitten-sim", cfg.sim_cores, sim_mem)
            .palacios_vm(
                "ana-vm",
                "linux",
                ana_mem,
                MemoryMapKind::RbTree,
                GuestOs::Fwk,
            ),
        (SimEnclave::KittenCokernel, AnalyticsEnclave::VmOnKittenHost) => b
            .linux_management("linux", 4, slack)
            .kitten_cokernel("kitten-sim", cfg.sim_cores, sim_mem)
            .kitten_cokernel("kitten-host", 1, slack)
            .palacios_vm(
                "ana-vm",
                "kitten-host",
                ana_mem,
                MemoryMapKind::RbTree,
                GuestOs::Fwk,
            ),
        (SimEnclave::VmOnKittenHost, AnalyticsEnclave::LinuxNative) => b
            .linux_management("linux", 8, ana_mem)
            .kitten_cokernel("kitten-host", cfg.sim_cores, slack)
            .palacios_vm(
                "sim-vm",
                "kitten-host",
                sim_mem,
                MemoryMapKind::RbTree,
                GuestOs::Fwk,
            ),
        (SimEnclave::VmOnKittenHost, _) => {
            return Err(XememError::Topology(
                "VM-hosted simulation is only paired with Linux-native analytics".into(),
            ))
        }
    };
    let mut sys = b.build()?;

    let sim_slot = ["kitten-sim", "sim-vm", "linux"]
        .iter()
        .find_map(|n| sys.enclave_by_name(n))
        .expect("topology has a simulation enclave");
    let ana_slot = ["ana-vm", "linux"]
        .iter()
        .find_map(|n| sys.enclave_by_name(n))
        .expect("topology has an analytics enclave");

    let sim_proc = sys.spawn_process(sim_slot, region + (16 << 20))?;
    let ana_proc = sys.spawn_process(ana_slot, 16 << 20)?;
    // The simulation's output buffer: allocated once and re-registered
    // per interval under the recurring model (a fresh *region
    // registration* each time, over memory the application reuses).
    // Its pages are resident after the first compute phase fills it.
    let buf = sys.alloc_buffer(sim_proc, region)?;
    sys.prepare_buffer(sim_proc, buf, region)?;

    // --- Compute models and noise profiles per placement. ---
    let sim_slowdown = match cfg.sim_enclave {
        SimEnclave::LinuxNative | SimEnclave::KittenCokernel => 1.0,
        SimEnclave::VmOnKittenHost => cost.vm_compute_overhead,
    };
    let hpccg =
        HpccgModel::new(cfg.problem, cfg.sim_cores, cost.clone()).with_slowdown(sim_slowdown);

    let ana_slowdown = match cfg.analytics_enclave {
        AnalyticsEnclave::LinuxNative => 1.0,
        AnalyticsEnclave::VmOnKittenHost => cost.vm_compute_overhead,
        AnalyticsEnclave::VmOnLinuxHost => cost.vm_compute_overhead * cost.vm_on_fwk_host_penalty,
    };
    let ana_interval_cpu = stream_time(&cost, region).scaled(ana_slowdown);

    let mut sim_noise: Box<dyn NoiseGen> = match cfg.sim_enclave {
        SimEnclave::LinuxNative => Box::new(CompositeNoise::fwk(&mut rng)),
        SimEnclave::KittenCokernel => Box::new(CompositeNoise::kitten(&mut rng)),
        SimEnclave::VmOnKittenHost => Box::new(CompositeNoise::vm_on_lwk_guest(&mut rng)),
    };
    // The analytics guest is Linux in every configuration; its own noise
    // applies wherever it runs.
    let mut ana_noise: Box<dyn NoiseGen> = Box::new(CompositeNoise::fwk(&mut rng));

    let same_os = cfg.sim_enclave == SimEnclave::LinuxNative
        && cfg.analytics_enclave == AnalyticsEnclave::LinuxNative;

    // Lazy single-OS attachments fault each page on first touch during
    // the analytics copy phase (paper §6.4 / Fig. 8(b)).
    let lazy_fault_time = if same_os {
        SimDuration::from_nanos(cost.fwk_fault_ns).times(region / xemem_mem::PAGE_SIZE)
    } else {
        SimDuration::ZERO
    };

    // --- The run. ---
    let mut tl = Timelines {
        sim_t: SimTime::ZERO,
        ana_free: SimTime::ZERO,
        attach_overhead: SimDuration::ZERO,
        analytics_busy: SimDuration::ZERO,
    };
    let mut verified = true;
    let mut comm_points = 0u32;
    // (segid, analytics-side va) of the live attachment.
    let mut live_attach: Option<(xemem::Segid, VirtAddr)> = None;

    let comm_count = cfg.iterations / cfg.comm_every;
    for point in 0..comm_count {
        // Simulation compute phase: `comm_every` iterations under noise,
        // with colocation contention while analytics STREAM overlaps in
        // the same OS.
        for _ in 0..cfg.comm_every {
            let mut iter_cpu = hpccg.iter_time();
            if same_os && tl.ana_free > tl.sim_t {
                iter_cpu = iter_cpu.scaled(cost.colocation_contention);
            }
            tl.sim_t = finish_time_with_noise(&mut *sim_noise, tl.sim_t, iter_cpu);
        }

        // Communication point.
        comm_points += 1;
        let handshake_start = tl.sim_t;
        let need_attach = cfg.attach == AttachModel::Recurring || live_attach.is_none();

        if need_attach {
            // Tear down the previous recurring attachment and
            // registration first.
            if let Some((old_segid, va)) = live_attach.take() {
                let t = sys.detach_at(ana_proc, va, tl.ana_free.max(tl.sim_t))?;
                tl.ana_free = t;
                tl.sim_t = sys.remove_at(sim_proc, old_segid, tl.sim_t)?;
            }
            // Export a fresh region registration on the simulation
            // timeline (over the reused, resident output buffer).
            let (segid, t_made) = sys.make_at(sim_proc, buf, region, None, tl.sim_t)?;
            // Write a real header so the data path is verified.
            sys.write(sim_proc, buf, &point_header(point))?;
            // The analytics program picks the request up when free.
            let ana_start = t_made.max(tl.ana_free);
            let (apid, t_got) = sys.get_at(ana_proc, segid, ana_start)?;
            let outcome = sys.attach_at(ana_proc, apid, 0, region, t_got)?;
            // The simulation resumes once the attachment handshake
            // completes (both execution models — §6.2.1).
            tl.sim_t = outcome.end;
            live_attach = Some((segid, outcome.va));
        } else if live_attach.is_some() {
            // One-time model: just refresh the header and signal.
            sys.write(sim_proc, buf, &point_header(point))?;
            tl.sim_t = tl.sim_t.max(tl.ana_free) + SimDuration::from_micros(2);
        }
        tl.attach_overhead += tl.sim_t.duration_since(handshake_start);

        // Analytics interval: verify the header, then copy + STREAM.
        let (_, ana_va) = live_attach.expect("attachment is live at a comm point");
        let mut header = vec![0u8; 16];
        sys.read(ana_proc, ana_va, &mut header)?;
        verified &= header == point_header(point);

        // Lazy single-OS attachments fault on first touch: only intervals
        // that installed a fresh attachment pay the fault storm.
        let ana_work = if need_attach {
            ana_interval_cpu + lazy_fault_time
        } else {
            ana_interval_cpu
        };
        let ana_start = tl.sim_t;
        let ana_end = finish_time_with_noise(&mut *ana_noise, ana_start, ana_work);
        tl.analytics_busy += ana_end.duration_since(ana_start);
        tl.ana_free = ana_end;

        if cfg.execution == ExecutionModel::Synchronous {
            // The simulation polls the "go" variable until analytics
            // finishes.
            tl.sim_t = ana_end + SimDuration::from_micros(2);
        }
    }

    // Remaining iterations after the last communication point.
    for _ in 0..(cfg.iterations % cfg.comm_every) {
        let iter_cpu = hpccg.iter_time();
        tl.sim_t = finish_time_with_noise(&mut *sim_noise, tl.sim_t, iter_cpu);
    }

    Ok(InsituResult {
        sim_completion: tl.sim_t.duration_since(SimTime::ZERO),
        comm_points,
        attach_overhead: tl.attach_overhead,
        analytics_busy: tl.analytics_busy,
        verified,
    })
}

fn point_header(point: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(16);
    h.extend_from_slice(b"XEMEMSIM");
    h.extend_from_slice(&point.to_le_bytes());
    h.extend_from_slice(&(!point).to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(
        sim: SimEnclave,
        ana: AnalyticsEnclave,
        exec: ExecutionModel,
        attach: AttachModel,
    ) -> InsituResult {
        run_insitu(&InsituConfig::smoke(sim, ana, exec, attach)).unwrap()
    }

    #[test]
    fn all_table3_configs_run_and_verify() {
        for (sim, ana, _) in InsituConfig::table3() {
            for exec in [ExecutionModel::Synchronous, ExecutionModel::Asynchronous] {
                for attach in [AttachModel::OneTime, AttachModel::Recurring] {
                    let r = smoke(sim, ana, exec, attach);
                    assert!(
                        r.verified,
                        "{sim:?}/{ana:?}/{exec:?}/{attach:?} failed verification"
                    );
                    assert_eq!(r.comm_points, 4);
                    assert!(r.sim_completion > SimDuration::ZERO);
                }
            }
        }
    }

    #[test]
    fn fig9_multi_enclave_config_runs() {
        let r = smoke(
            SimEnclave::VmOnKittenHost,
            AnalyticsEnclave::LinuxNative,
            ExecutionModel::Asynchronous,
            AttachModel::OneTime,
        );
        assert!(r.verified);
    }

    #[test]
    fn sync_is_slower_than_async() {
        let sync = smoke(
            SimEnclave::KittenCokernel,
            AnalyticsEnclave::LinuxNative,
            ExecutionModel::Synchronous,
            AttachModel::OneTime,
        );
        let async_ = smoke(
            SimEnclave::KittenCokernel,
            AnalyticsEnclave::LinuxNative,
            ExecutionModel::Asynchronous,
            AttachModel::OneTime,
        );
        assert!(
            sync.sim_completion > async_.sim_completion,
            "sync {:?} !> async {:?}",
            sync.sim_completion,
            async_.sim_completion
        );
    }

    #[test]
    fn recurring_attachments_cost_more_than_one_time() {
        let recurring = smoke(
            SimEnclave::KittenCokernel,
            AnalyticsEnclave::VmOnLinuxHost,
            ExecutionModel::Synchronous,
            AttachModel::Recurring,
        );
        let one_time = smoke(
            SimEnclave::KittenCokernel,
            AnalyticsEnclave::VmOnLinuxHost,
            ExecutionModel::Synchronous,
            AttachModel::OneTime,
        );
        assert!(recurring.attach_overhead > one_time.attach_overhead);
        assert!(recurring.sim_completion > one_time.sim_completion);
    }

    #[test]
    fn invalid_pairings_rejected() {
        assert!(run_insitu(&InsituConfig::smoke(
            SimEnclave::LinuxNative,
            AnalyticsEnclave::VmOnLinuxHost,
            ExecutionModel::Synchronous,
            AttachModel::OneTime,
        ))
        .is_err());
    }
}
