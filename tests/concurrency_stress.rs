//! Integration tests: concurrency stress over the simulator's shared
//! state (physical memory, the virtual clock, channel resources) using
//! real OS threads, plus determinism checks — equal seeds must produce
//! bit-identical experiment results.

use std::thread;
use xemem::SystemBuilder;
use xemem_mem::{Pfn, PhysAddr, PhysicalMemory};
use xemem_sim::{Clock, RunDriver, RunPlan, SimDuration};

const MIB: u64 = 1 << 20;

#[test]
fn physical_memory_is_thread_safe_under_mixed_load() {
    let phys = PhysicalMemory::new(4096);
    thread::scope(|s| {
        // Writers on disjoint frame ranges.
        for t in 0..8u64 {
            let phys = &phys;
            s.spawn(move || {
                let pattern = [t as u8 + 1; 4096];
                for round in 0..50u64 {
                    let frame = t * 512 + (round % 512);
                    phys.write(Pfn(frame).base(), &pattern).unwrap();
                }
            });
        }
        // Concurrent readers over everything.
        for _ in 0..4 {
            let phys = &phys;
            s.spawn(move || {
                let mut buf = [0u8; 4096];
                for frame in 0..4096u64 {
                    phys.read(Pfn(frame).base(), &mut buf).unwrap();
                }
            });
        }
    });
    // Every written frame holds exactly its writer's pattern.
    let mut buf = [0u8; 4096];
    for t in 0..8u64 {
        phys.read(PhysAddr((t * 512) << 12), &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == t as u8 + 1),
            "torn write in thread {t} range"
        );
    }
}

#[test]
fn clock_is_monotonic_across_threads() {
    let clock = Clock::new();
    thread::scope(|s| {
        for _ in 0..8 {
            let clock = clock.clone();
            s.spawn(move || {
                let mut last = clock.now();
                for _ in 0..10_000 {
                    let now = clock.advance(SimDuration::from_nanos(3));
                    assert!(now > last);
                    last = now;
                }
            });
        }
    });
    assert_eq!(clock.now().as_nanos(), 8 * 10_000 * 3);
}

#[test]
fn independent_systems_run_in_parallel_threads() {
    // Whole System instances are Send: run eight complete cross-enclave
    // workflows concurrently through the run driver and verify each
    // round trip comes back in unit order, whatever worker ran it.
    let driver = RunDriver::new(RunPlan::new(8).with_jobs(8));
    let echoed = driver.execute(|ctx| {
        let t = ctx.index as u8;
        let mut sys = SystemBuilder::new()
            .linux_management("linux", 2, 64 * MIB)
            .kitten_cokernel("kitten", 1, 64 * MIB)
            .build()
            .unwrap();
        let kitten = sys.enclave_by_name("kitten").unwrap();
        let linux = sys.enclave_by_name("linux").unwrap();
        let exporter = sys.spawn_process(kitten, 8 * MIB).unwrap();
        let attacher = sys.spawn_process(linux, 8 * MIB).unwrap();
        let buf = sys.alloc_buffer(exporter, MIB).unwrap();
        let msg = [t + 0x30; 64];
        sys.write(exporter, buf, &msg).unwrap();
        let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
        let apid = sys.xpmem_get(attacher, segid).unwrap();
        let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
        let mut got = [0u8; 64];
        sys.read(attacher, va, &mut got).unwrap();
        assert_eq!(got, msg);
        got[0]
    });
    let expected: Vec<u8> = (0..8u8).map(|t| t + 0x30).collect();
    assert_eq!(echoed, expected);
}

#[test]
fn many_segments_and_attachments_interleaved() {
    // A single system under a churn of 64 segments with interleaved
    // attach/detach across two attacher processes.
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 192 * MIB)
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 128 * MIB).unwrap();
    let a1 = sys.spawn_process(linux, 32 * MIB).unwrap();
    let a2 = sys.spawn_process(linux, 32 * MIB).unwrap();

    let mut live = Vec::new();
    for i in 0..64u64 {
        let buf = sys.alloc_buffer(exporter, MIB).unwrap();
        sys.write(exporter, buf, &i.to_le_bytes()).unwrap();
        let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
        let attacher = if i % 2 == 0 { a1 } else { a2 };
        let apid = sys.xpmem_get(attacher, segid).unwrap();
        let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
        live.push((attacher, segid, va, i));
        // Detach every third attachment as we go.
        if i % 3 == 2 {
            let (p, _, va, _) = live.remove((i % live.len() as u64) as usize);
            sys.xpmem_detach(p, va).unwrap();
        }
    }
    // Every surviving attachment still reads its own segment's value.
    for (p, _, va, i) in &live {
        let mut got = [0u8; 8];
        sys.read(*p, *va, &mut got).unwrap();
        assert_eq!(u64::from_le_bytes(got), *i);
    }
}

#[test]
fn equal_seeds_give_identical_experiment_results() {
    use xemem_workloads::insitu::{
        run_insitu, AnalyticsEnclave, AttachModel, ExecutionModel, InsituConfig, SimEnclave,
    };
    let cfg = InsituConfig::smoke(
        SimEnclave::KittenCokernel,
        AnalyticsEnclave::LinuxNative,
        ExecutionModel::Asynchronous,
        AttachModel::Recurring,
    );
    let a = run_insitu(&cfg).unwrap();
    let b = run_insitu(&cfg).unwrap();
    assert_eq!(
        a.sim_completion, b.sim_completion,
        "same seed must be deterministic"
    );
    let mut cfg2 = cfg.clone();
    cfg2.seed ^= 0xDEAD;
    let c = run_insitu(&cfg2).unwrap();
    assert_ne!(
        a.sim_completion, c.sim_completion,
        "different seeds must differ"
    );
}
