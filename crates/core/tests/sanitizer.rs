//! The cycle-level invariant sanitizer: a clean matrix
//! (topologies × faults on/off) must report
//! zero violations, and each seeded mutation — dropped response,
//! duplicated response, per-bank FIFO reorder, global pipeline stall —
//! must raise exactly the violation kind it was designed to trip.

use mempool::{
    Cluster, ClusterConfig, FaultPlan, FaultSpec, ResilienceConfig, SanitizerConfig,
    SanitizerReport, Topology, ViolationKind,
};
use mempool_riscv::assemble;

/// Every core, after a settle delay, fills its own 16-word slice of
/// `0x10000..` and reads it back. Loads and stores only, so retries are
/// idempotent under faults.
fn store_load_program() -> mempool_riscv::Program {
    assemble(
        "csrr t0, mhartid\n\
         li   t1, 200\n\
         delay:\n\
         addi t1, t1, -1\n\
         bnez t1, delay\n\
         li   t2, 0x10000\n\
         slli t3, t0, 6\n\
         add  t3, t3, t2\n\
         li   t4, 16\n\
         loop:\n\
         sw   t0, 0(t3)\n\
         lw   t5, 0(t3)\n\
         addi t3, t3, 4\n\
         addi t4, t4, -1\n\
         bnez t4, loop\n\
         ecall\n",
    )
    .expect("test program assembles")
}

fn resilient(topology: Topology) -> ClusterConfig {
    let mut config = ClusterConfig::small(topology);
    config.resilience = ResilienceConfig {
        request_timeout: 256,
        max_retries: 8,
        watchdog_cycles: 8192,
    };
    config
}

const ALL_TOPOLOGIES: [Topology; 4] =
    [Topology::Ideal, Topology::Top1, Topology::Top4, Topology::TopH];

/// Runs the store/load workload with the sanitizer attached and returns
/// its report.
fn sanitized_run(config: ClusterConfig, plan: Option<FaultPlan>) -> SanitizerReport {
    let mut cluster = Cluster::snitch(config).expect("valid config");
    cluster.load_program(&store_load_program()).expect("program loads");
    cluster.install_fault_plan(plan);
    cluster.enable_sanitizer(SanitizerConfig::default());
    cluster.run(400_000).expect("workload completes");
    cluster.sanitizer_report().expect("sanitizer attached").clone()
}

/// Matrix: every topology × faults off/on. The sanitizer must stay silent
/// everywhere and observe real traffic.
#[test]
fn topology_fault_matrix_is_clean() {
    let spec: FaultSpec = "bank_fail=2,link_drop=0.005,link_stall=0.01"
        .parse()
        .expect("valid spec");
    for topology in ALL_TOPOLOGIES {
        for faulted in [false, true] {
            let config = if faulted {
                resilient(topology)
            } else {
                ClusterConfig::small(topology)
            };
            let plan = faulted.then(|| FaultPlan::new(11, spec));
            let report = sanitized_run(config, plan);
            let ctx = format!("{topology:?} faulted={faulted}");
            assert!(report.is_clean(), "{ctx}: violations: {:?}", report.violations);
            assert!(report.completions > 0, "{ctx}: no traffic observed");
            assert_eq!(report.dropped, 0, "{ctx}: violations overflowed");
        }
    }
}

/// The sanitizer is pure checking: attaching it must not change the
/// simulation outcome (cycle count or state digest) of a faulted run.
#[test]
fn sanitizer_does_not_perturb_results() {
    let spec: FaultSpec = "link_drop=0.01".parse().expect("valid spec");
    let run = |sanitize: bool| {
        let mut cluster = Cluster::snitch(resilient(Topology::Top1)).expect("valid config");
        cluster.load_program(&store_load_program()).expect("program loads");
        cluster.install_fault_plan(Some(FaultPlan::new(9, spec)));
        if sanitize {
            cluster.enable_sanitizer(SanitizerConfig::default());
        }
        let cycles = cluster.run(400_000).expect("retries recover");
        (cycles, cluster.state_digest())
    };
    assert_eq!(run(false), run(true));
}

/// Seeded mutation: silently dropping a delivered response must age into
/// a conservation leak (`ResponseLeak`) once the response stays missing
/// past `leak_after`.
#[test]
fn dropped_response_raises_conservation_leak() {
    let mut cluster =
        Cluster::snitch(ClusterConfig::small(Topology::Top1)).expect("valid config");
    cluster.load_program(&store_load_program()).expect("program loads");
    cluster.enable_sanitizer(SanitizerConfig {
        leak_after: 64,
        liveness_cycles: 0,
        ..SanitizerConfig::default()
    });
    cluster.debug_drop_next_delivery();
    // The victim core can never retire its access, so the run times out;
    // the leak must be flagged long before the budget dies either way.
    let _ = cluster.run(20_000);
    let report = cluster.sanitizer_report().expect("attached");
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::ResponseLeak { age, .. } if age >= 64)),
        "expected a ResponseLeak, got {:?}",
        report.violations
    );
}

/// Seeded mutation: duplicating a delivered response must raise
/// `DuplicateResponse`. Run with request tracking on so the retry
/// layer's stale filter shields the core from the double delivery — the
/// sanitizer observes deliveries *before* that filter.
#[test]
fn duplicated_response_raises_duplicate_violation() {
    let mut cluster = Cluster::snitch(resilient(Topology::Top1)).expect("valid config");
    cluster.load_program(&store_load_program()).expect("program loads");
    cluster.enable_sanitizer(SanitizerConfig {
        liveness_cycles: 0,
        ..SanitizerConfig::default()
    });
    cluster.debug_duplicate_next_delivery();
    // The duplicate inflates the in-flight count by one forever, so the
    // run ends in a watchdog deadlock rather than a clean drain.
    let _ = cluster.run(40_000);
    let report = cluster.sanitizer_report().expect("attached");
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::DuplicateResponse { .. })),
        "expected a DuplicateResponse, got {:?}",
        report.violations
    );
    // The stale filter absorbed the duplicate before the core saw it.
    assert!(cluster.stats().faults.stale_responses > 0);
}

/// Seeded mutation: withholding the first of two same-bank responses
/// until after the second lands must trip the per-core/per-bank FIFO
/// ordering check (`FifoReorder`).
#[test]
fn held_response_raises_fifo_reorder() {
    let mut config = ClusterConfig::small(Topology::Top1);
    // Pure interleaved map so `tile << 6` addresses bank 0 of that tile.
    config.seq_region_bytes = None;
    let program = assemble(
        "csrr t0, mhartid\n\
         bnez t0, out\n\
         li   t1, 0x200\n\
         sw   t0, 0(t1)\n\
         sw   t0, 0(t1)\n\
         out: ecall\n",
    )
    .expect("test program assembles");
    let mut cluster = Cluster::snitch(config).expect("valid config");
    cluster.load_program(&program).expect("program loads");
    cluster.enable_sanitizer(SanitizerConfig::default());
    cluster.debug_hold_delivery(0, 30);
    cluster.run(20_000).expect("held response is re-injected");
    let report = cluster.sanitizer_report().expect("attached");
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::FifoReorder { core: 0, .. })),
        "expected a FifoReorder for core 0, got {:?}",
        report.violations
    );
}

/// Seeded mutation: freezing every core (a stalled barrier, in effect)
/// must raise `LivenessStall` once no progress signal moves for the
/// configured window.
#[test]
fn stalled_cores_raise_liveness_violation() {
    let mut cluster =
        Cluster::snitch(ClusterConfig::small(Topology::TopH)).expect("valid config");
    cluster.load_program(&store_load_program()).expect("program loads");
    cluster.enable_sanitizer(SanitizerConfig {
        liveness_cycles: 64,
        ..SanitizerConfig::default()
    });
    cluster.debug_lock_all_cores(10_000);
    let _ = cluster.run(2_000);
    let report = cluster.sanitizer_report().expect("attached");
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::LivenessStall { idle_cycles, .. }
                if idle_cycles >= 64)),
        "expected a LivenessStall, got {:?}",
        report.violations
    );
}

/// Violations carry their cycle stamp and a per-tile diagnostic dump on
/// the severe kinds, so a campaign log pinpoints *when* and *where* the
/// invariant broke.
#[test]
fn violations_are_cycle_stamped_with_diagnostics() {
    let mut cluster =
        Cluster::snitch(ClusterConfig::small(Topology::Top1)).expect("valid config");
    cluster.load_program(&store_load_program()).expect("program loads");
    cluster.enable_sanitizer(SanitizerConfig {
        leak_after: 64,
        liveness_cycles: 0,
        ..SanitizerConfig::default()
    });
    cluster.debug_drop_next_delivery();
    let _ = cluster.run(20_000);
    let report = cluster.sanitizer_report().expect("attached");
    let leak = report
        .violations
        .iter()
        .find(|v| matches!(v.kind, ViolationKind::ResponseLeak { .. }))
        .expect("leak recorded");
    assert!(leak.cycle > 0, "violation must carry its cycle");
    let text = leak.to_string();
    assert!(text.contains("cycle"), "{text}");
    assert!(text.contains("leak"), "{text}");
}
