//! # xemem-cluster
//!
//! The multi-node experiment substrate for paper §7 (Fig. 9): every node
//! runs the same composed in situ workload (HPCCG simulation + STREAM
//! analytics over local-node XEMEM), and the simulation ranks couple
//! through per-iteration MPI collectives over an InfiniBand interconnect
//! model, in weak-scaling mode.
//!
//! The coupling is what makes the figure: every CG iteration ends in an
//! allreduce, so the *slowest* node's iteration time becomes everyone's.
//! Linux-only nodes occasionally take heavy-tailed OS-noise detours, and
//! the probability that *some* node is detoured grows with node count —
//! steady performance decline. Multi-enclave nodes (simulation in a
//! Palacios VM on an isolated Kitten co-kernel host) pay a small constant
//! virtualization overhead but stay flat past 2 nodes, exactly the
//! paper's headline crossover.
//!
//! Each node owns a real [`xemem::System`]; attachment handshakes at the
//! communication points execute the actual protocol with real page-table
//! and VMM memory-map work.

pub mod mpi;

use mpi::{Comm, Network};
use xemem::{GuestOs, MemoryMapKind, ProcessRef, SystemBuilder, TraceHandle, XememError};
use xemem_sim::noise::{finish_time_with_noise, CompositeNoise, NoiseGen};
use xemem_sim::{CostModel, SimDuration, SimRng, SimTime};
use xemem_workloads::decomp::SlabDecomposition;
use xemem_workloads::hpccg::{HpccgModel, HpccgProblem};
use xemem_workloads::insitu::AttachModel;
use xemem_workloads::stream::stream_time;

/// Per-node system-software configuration (paper §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeConfig {
    /// Both in situ components in the native Linux enclave; no other
    /// enclaves deployed.
    LinuxOnly,
    /// The HPC simulation in a Palacios VM on an isolated Kitten
    /// co-kernel host; analytics in the native Linux enclave.
    MultiEnclave,
}

/// Configuration of one weak-scaling run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (the paper sweeps 1, 2, 4, 8).
    pub nodes: u32,
    /// Per-node system software.
    pub node_config: NodeConfig,
    /// Attachment model (Fig. 9(a) one-time vs Fig. 9(b) recurring).
    pub attach: AttachModel,
    /// Total CG iterations (paper: 300).
    pub iterations: u32,
    /// Communication interval (paper: every 30 ⇒ 10 points).
    pub comm_every: u32,
    /// Shared region per node (paper: 1 GB).
    pub region_bytes: u64,
    /// Per-node problem size (weak scaling: constant per node).
    pub problem: HpccgProblem,
    /// Simulation cores per node (paper: 8).
    pub sim_cores: u32,
    /// Root RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's Fig. 9 workload at a given node count.
    pub fn fig9(nodes: u32, node_config: NodeConfig, attach: AttachModel, seed: u64) -> Self {
        ClusterConfig {
            nodes,
            node_config,
            attach,
            iterations: 300,
            comm_every: 30,
            region_bytes: 1 << 30,
            problem: HpccgProblem::fig9_per_node(),
            sim_cores: 8,
            seed,
        }
    }

    /// A scaled-down configuration for fast tests.
    pub fn smoke(nodes: u32, node_config: NodeConfig, attach: AttachModel) -> Self {
        ClusterConfig {
            nodes,
            node_config,
            attach,
            iterations: 12,
            comm_every: 4,
            region_bytes: 2 << 20,
            problem: HpccgProblem {
                nx: 48,
                ny: 48,
                nz: 48,
            },
            sim_cores: 8,
            seed: 7,
        }
    }
}

/// Result of one weak-scaling run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Global completion time of the coupled simulation.
    pub completion: SimDuration,
    /// Time lost to waiting at collectives (the max-over-nodes coupling),
    /// summed over iterations, averaged per node.
    pub coupling_wait: SimDuration,
    /// Total attachment-handshake overhead on the critical path, max
    /// across nodes.
    pub attach_overhead: SimDuration,
    /// True when every node verified its shared-memory headers.
    pub verified: bool,
}

struct Node {
    sys: xemem::System,
    sim_proc: ProcessRef,
    ana_proc: ProcessRef,
    /// The simulation's reused output buffer (resident after first fill).
    buf: xemem::VirtAddr,
    sim_noise: Box<dyn NoiseGen>,
    ana_noise: Box<dyn NoiseGen>,
    ana_free: SimTime,
    live_attach: Option<(xemem::Segid, xemem::VirtAddr)>,
    attach_overhead: SimDuration,
}

fn build_node(
    cfg: &ClusterConfig,
    cost: &CostModel,
    rng: &mut SimRng,
    tracer: &TraceHandle,
) -> Result<Node, XememError> {
    let region = cfg.region_bytes;
    let slack: u64 = 64 << 20;
    let sim_mem = region + region / 2 + slack;
    let ana_mem = region + slack;
    let builder = SystemBuilder::new()
        .with_cost(cost.clone())
        .with_tracer(tracer.clone());
    let sys = match cfg.node_config {
        NodeConfig::LinuxOnly => builder
            .linux_management("linux", 16, sim_mem + ana_mem)
            .build()?,
        NodeConfig::MultiEnclave => builder
            .linux_management("linux", 8, ana_mem)
            .kitten_cokernel("kitten-host", cfg.sim_cores, slack)
            .palacios_vm(
                "sim-vm",
                "kitten-host",
                sim_mem,
                MemoryMapKind::RbTree,
                GuestOs::Fwk,
            )
            .build()?,
    };
    let mut sys = sys;
    let sim_slot = match cfg.node_config {
        NodeConfig::LinuxOnly => sys.enclave_by_name("linux").unwrap(),
        NodeConfig::MultiEnclave => sys.enclave_by_name("sim-vm").unwrap(),
    };
    let ana_slot = sys.enclave_by_name("linux").unwrap();
    let sim_proc = sys.spawn_process(sim_slot, region + (16 << 20))?;
    let ana_proc = sys.spawn_process(ana_slot, 16 << 20)?;
    let buf = sys.alloc_buffer(sim_proc, region)?;
    sys.prepare_buffer(sim_proc, buf, region)?;
    let sim_noise: Box<dyn NoiseGen> = match cfg.node_config {
        NodeConfig::LinuxOnly => Box::new(CompositeNoise::fwk(rng)),
        NodeConfig::MultiEnclave => Box::new(CompositeNoise::vm_on_lwk_guest(rng)),
    };
    let ana_noise: Box<dyn NoiseGen> = Box::new(CompositeNoise::fwk(rng));
    Ok(Node {
        sys,
        sim_proc,
        ana_proc,
        buf,
        sim_noise,
        ana_noise,
        ana_free: SimTime::ZERO,
        live_attach: None,
        attach_overhead: SimDuration::ZERO,
    })
}

/// Run the weak-scaling experiment; see the module docs.
pub fn run_cluster(cfg: &ClusterConfig) -> Result<ClusterResult, XememError> {
    run_cluster_traced(cfg, &TraceHandle::disabled())
}

/// [`run_cluster`] with an explicit tracer: every node's system charges
/// into `tracer`, so parallel bench units can trace into per-unit
/// handles.
pub fn run_cluster_traced(
    cfg: &ClusterConfig,
    tracer: &TraceHandle,
) -> Result<ClusterResult, XememError> {
    let cost = CostModel::default();
    let mut root_rng = SimRng::seed_from_u64(cfg.seed);
    let comm = Comm::new(cfg.nodes as usize, Network::default());
    // The global weak-scaled grid: each node contributes its per-node
    // slab; ghost planes are one x-y plane.
    let global = xemem_workloads::hpccg::HpccgProblem {
        nx: cfg.problem.nx,
        ny: cfg.problem.ny,
        nz: cfg.problem.nz * cfg.nodes as usize,
    };
    let decomp = SlabDecomposition::new(global, cfg.nodes as usize);

    let mut nodes: Vec<Node> = (0..cfg.nodes)
        .map(|i| {
            let mut rng = root_rng.fork(i as u64);
            build_node(cfg, &cost, &mut rng, tracer)
        })
        .collect::<Result<_, _>>()?;

    let sim_slowdown = match cfg.node_config {
        NodeConfig::LinuxOnly => 1.0,
        NodeConfig::MultiEnclave => cost.vm_compute_overhead,
    };
    let hpccg =
        HpccgModel::new(cfg.problem, cfg.sim_cores, cost.clone()).with_slowdown(sim_slowdown);
    let ana_interval_cpu = stream_time(&cost, cfg.region_bytes);
    let same_os = cfg.node_config == NodeConfig::LinuxOnly;
    let lazy_fault_time = if same_os {
        SimDuration::from_nanos(cost.fwk_fault_ns).times(cfg.region_bytes / xemem_mem::PAGE_SIZE)
    } else {
        SimDuration::ZERO
    };

    let mut rank_t: Vec<SimTime> = vec![SimTime::ZERO; nodes.len()];
    let mut coupling_wait = SimDuration::ZERO;
    let mut verified = true;

    for iter in 0..cfg.iterations {
        // Local compute phase on every rank, under its own noise.
        let mut ends: Vec<SimTime> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut iter_cpu = hpccg.iter_time();
            if same_os && node.ana_free > rank_t[i] {
                iter_cpu = iter_cpu.scaled(cost.colocation_contention);
            }
            ends.push(finish_time_with_noise(
                &mut *node.sim_noise,
                rank_t[i],
                iter_cpu,
            ));
        }
        // SpMV ghost-plane exchange, then the iteration's two dot-product
        // allreduces (standard CG) — stragglers propagate through the
        // recursive-doubling rounds.
        let after_halo = comm.halo_exchange(&ends, decomp.halo_bytes());
        let mut after_reduce = after_halo;
        for _ in 0..SlabDecomposition::REDUCTIONS_PER_ITER {
            after_reduce = comm.allreduce(&after_reduce, 8);
        }
        let avg_wait: u64 = ends
            .iter()
            .zip(&after_reduce)
            .map(|(e, f)| f.duration_since(*e).as_nanos())
            .sum::<u64>()
            / nodes.len() as u64;
        coupling_wait += SimDuration::from_nanos(avg_wait);
        rank_t = after_reduce;

        // Communication point (asynchronous workflow — paper §7.2).
        if (iter + 1) % cfg.comm_every == 0 {
            let point = (iter + 1) / cfg.comm_every;
            let mut handshake_ends: Vec<SimTime> = Vec::with_capacity(nodes.len());
            for (i, node) in nodes.iter_mut().enumerate() {
                let need_attach =
                    cfg.attach == AttachModel::Recurring || node.live_attach.is_none();
                let mut t = rank_t[i];
                if need_attach {
                    if let Some((old_segid, va)) = node.live_attach.take() {
                        let done = node
                            .sys
                            .detach_at(node.ana_proc, va, node.ana_free.max(t))?;
                        node.ana_free = done;
                        t = node.sys.remove_at(node.sim_proc, old_segid, t)?;
                    }
                    let (segid, t_made) =
                        node.sys
                            .make_at(node.sim_proc, node.buf, cfg.region_bytes, None, t)?;
                    node.sys.write(node.sim_proc, node.buf, &header(point))?;
                    let ana_start = t_made.max(node.ana_free);
                    let (apid, t_got) = node.sys.get_at(node.ana_proc, segid, ana_start)?;
                    let outcome =
                        node.sys
                            .attach_at(node.ana_proc, apid, 0, cfg.region_bytes, t_got)?;
                    node.live_attach = Some((segid, outcome.va));
                    node.attach_overhead += outcome.end.duration_since(t);
                    t = outcome.end;
                } else if node.live_attach.is_some() {
                    node.sys.write(node.sim_proc, node.buf, &header(point))?;
                    t = t.max(node.ana_free) + SimDuration::from_micros(2);
                }
                // Verify the header through the attached mapping.
                let (_, ana_va) = node.live_attach.expect("live attachment");
                let mut h = vec![0u8; 12];
                node.sys.read(node.ana_proc, ana_va, &mut h)?;
                verified &= h == header(point);
                // Analytics interval runs asynchronously after the
                // handshake; fault storms only follow a fresh attachment.
                let ana_work = if need_attach {
                    ana_interval_cpu + lazy_fault_time
                } else {
                    ana_interval_cpu
                };
                node.ana_free = finish_time_with_noise(&mut *node.ana_noise, t, ana_work);
                handshake_ends.push(t);
            }
            // Ranks proceed from their own handshake completion; the next
            // iteration's collectives re-couple them.
            rank_t = handshake_ends;
        }
    }
    let global_t = rank_t.iter().copied().fold(SimTime::ZERO, SimTime::max);

    let attach_overhead = nodes
        .iter()
        .map(|n| n.attach_overhead)
        .fold(SimDuration::ZERO, SimDuration::max);
    Ok(ClusterResult {
        completion: global_t.duration_since(SimTime::ZERO),
        coupling_wait,
        attach_overhead,
        verified,
    })
}

fn header(point: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(12);
    h.extend_from_slice(b"XEMEMNOD");
    h.extend_from_slice(&point.to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_configs_run_and_verify() {
        for nc in [NodeConfig::LinuxOnly, NodeConfig::MultiEnclave] {
            for attach in [AttachModel::OneTime, AttachModel::Recurring] {
                let r = run_cluster(&ClusterConfig::smoke(2, nc, attach)).unwrap();
                assert!(r.verified, "{nc:?}/{attach:?}");
                assert!(r.completion > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn linux_only_degrades_with_node_count() {
        // The Fig. 9 mechanism in miniature: with more Linux nodes, the
        // max-over-nodes noise coupling grows; multi-enclave stays flat.
        // Use longer runs for statistical stability.
        let mut cfg1 = ClusterConfig::smoke(1, NodeConfig::LinuxOnly, AttachModel::OneTime);
        cfg1.iterations = 120;
        let mut cfg8 = cfg1.clone();
        cfg8.nodes = 8;
        let r1 = run_cluster(&cfg1).unwrap();
        let r8 = run_cluster(&cfg8).unwrap();
        assert!(
            r8.completion.as_secs_f64() > r1.completion.as_secs_f64() * 1.01,
            "linux-only 8 nodes {:?} not slower than 1 node {:?}",
            r8.completion,
            r1.completion
        );

        let mut m1 = ClusterConfig::smoke(1, NodeConfig::MultiEnclave, AttachModel::OneTime);
        m1.iterations = 120;
        let mut m8 = m1.clone();
        m8.nodes = 8;
        let s1 = run_cluster(&m1).unwrap();
        let s8 = run_cluster(&m8).unwrap();
        let multi_growth = s8.completion.as_secs_f64() / s1.completion.as_secs_f64();
        let linux_growth = r8.completion.as_secs_f64() / r1.completion.as_secs_f64();
        assert!(
            multi_growth < linux_growth,
            "multi-enclave grew {multi_growth} vs linux {linux_growth}"
        );
    }

    #[test]
    fn recurring_attach_overhead_visible() {
        let one = run_cluster(&ClusterConfig::smoke(
            2,
            NodeConfig::MultiEnclave,
            AttachModel::OneTime,
        ))
        .unwrap();
        let rec = run_cluster(&ClusterConfig::smoke(
            2,
            NodeConfig::MultiEnclave,
            AttachModel::Recurring,
        ))
        .unwrap();
        assert!(rec.attach_overhead > one.attach_overhead);
    }
}
