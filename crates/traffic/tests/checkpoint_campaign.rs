//! Resumable-campaign contract tests: a campaign killed between (or in the
//! middle of) trials and restarted from its manifest produces the identical
//! aggregate report an uninterrupted run would have, mid-trial checkpoints
//! resume bit-identically, and traffic-driven clusters digest/roundtrip
//! deterministically, including mid-run on a saturated 256-core network.

use mempool_traffic::{
    run_campaign, run_campaign_resumable, run_trial, run_trial_checkpointed, trial_cluster,
    AddressSpace, CampaignConfig, Pattern, TrafficGen, TrialCheckpoint, TrialPhase, Windows,
};
use mempool::{ClusterConfig, Topology};
use std::path::PathBuf;

fn campaign() -> CampaignConfig {
    CampaignConfig {
        spec: "bank_fail=2,link_drop=0.001,core_lockup=0.0005"
            .parse()
            .expect("valid spec"),
        windows: Windows {
            warmup: 100,
            measure: 400,
            drain: 50_000,
        },
        trials: 3,
        base_seed: 11,
        ..CampaignConfig::default()
    }
}

fn config() -> ClusterConfig {
    ClusterConfig::small(Topology::Top1)
}

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mempool-{name}-{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut ckpt = path.as_os_str().to_owned();
    ckpt.push(".ckpt");
    std::fs::remove_file(PathBuf::from(ckpt)).ok();
    path
}

#[test]
fn checkpointed_trial_matches_plain_trial() {
    let campaign = campaign();
    let seed = campaign.base_seed;
    let plain = run_trial(config(), &campaign, seed).expect("valid config");
    let ckpt = scratch("trial-ckpt");
    let chunked =
        run_trial_checkpointed(config(), &campaign, seed, &ckpt, 64).expect("trial runs");
    assert_eq!(chunked, plain, "chunked execution must not perturb the trial");
    assert!(!ckpt.exists(), "checkpoint is deleted on completion");
}

#[test]
fn interrupted_trial_resumes_bit_identically() {
    let campaign = campaign();
    let seed = campaign.base_seed + 1;
    let plain = run_trial(config(), &campaign, seed).expect("valid config");

    // Simulate a kill partway through the generation window: leave a
    // mid-warmup checkpoint on disk exactly as the periodic writer would.
    let mut cluster = trial_cluster(config(), &campaign, seed).expect("valid config");
    cluster.step_cycles(137);
    let ckpt = scratch("trial-resume");
    TrialCheckpoint {
        seed,
        phase: TrialPhase::Generate,
        snapshot: cluster.snapshot(),
    }
    .write_file(&ckpt)
    .expect("checkpoint writes");

    let resumed =
        run_trial_checkpointed(config(), &campaign, seed, &ckpt, 128).expect("trial resumes");
    assert_eq!(resumed, plain, "resumed trial must reproduce the uninterrupted one");
    assert!(!ckpt.exists());
}

#[test]
fn killed_campaign_resumes_from_manifest_with_identical_results() {
    let campaign = campaign();
    let uninterrupted = run_campaign(config(), &campaign).expect("valid config");

    let manifest = scratch("campaign-manifest");
    // First invocation gets through one trial, then "dies".
    let first = run_campaign_resumable(config(), &campaign, &manifest, 256, Some(1))
        .expect("campaign starts");
    assert_eq!(first.resumed_trials, 0);
    assert_eq!(first.new_trials, 1);

    // Simulate the kill also truncating the manifest mid-line: the partial
    // final line must be dropped and its trial re-run.
    let text = std::fs::read_to_string(&manifest).expect("manifest exists");
    std::fs::write(&manifest, format!("{text}trial 12 comp")).expect("manifest writable");

    let second = run_campaign_resumable(config(), &campaign, &manifest, 256, None)
        .expect("campaign resumes");
    assert_eq!(second.resumed_trials, 1);
    assert_eq!(second.new_trials, 2);
    assert_eq!(
        second.report, uninterrupted,
        "resumed campaign must aggregate to the uninterrupted report"
    );

    // A third invocation finds everything done.
    let third = run_campaign_resumable(config(), &campaign, &manifest, 256, None)
        .expect("campaign reloads");
    assert_eq!(third.resumed_trials, 3);
    assert_eq!(third.new_trials, 0);
    assert_eq!(third.report, uninterrupted);
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn manifest_from_different_campaign_is_rejected() {
    let manifest = scratch("campaign-mismatch");
    run_campaign_resumable(config(), &campaign(), &manifest, 0, Some(1)).expect("first campaign");
    let mut other = campaign();
    other.base_seed += 1;
    let err = run_campaign_resumable(config(), &other, &manifest, 0, None)
        .expect_err("different campaign must not consume the manifest");
    assert!(matches!(
        err,
        mempool_traffic::CampaignError::ManifestMismatch
    ));
    std::fs::remove_file(&manifest).ok();
}

/// Snapshot/restore roundtrips bit-identically for traffic-driven clusters
/// under random fault plans — the generator's RNG, source queue, and tag
/// table all survive the checkpoint.
#[test]
fn traffic_cluster_roundtrip_under_random_fault_plans() {
    let campaign = campaign();
    for seed in [3u64, 17, 91] {
        let mid = 150 + seed * 7;
        let total = 1_200;

        let mut uninterrupted = trial_cluster(config(), &campaign, seed).expect("valid config");
        uninterrupted.step_cycles(total);

        let mut original = trial_cluster(config(), &campaign, seed).expect("valid config");
        original.step_cycles(mid);
        let snap = original.snapshot();

        // Fresh cluster, different seed everywhere: restore must overwrite
        // every generator's RNG state, queue, and tags.
        let mut restored = trial_cluster(config(), &campaign, seed + 1000).expect("valid config");
        restored.restore(&snap).expect("snapshot restores");
        restored.step_cycles(total - mid);

        assert_eq!(restored.state_digest(), uninterrupted.state_digest());
        assert_eq!(restored.stats(), uninterrupted.stats());
    }
}

/// Two identical traffic runs agree on every probed digest.
#[test]
fn traffic_digest_is_stable_across_identical_runs() {
    let campaign = campaign();
    let run = || {
        let mut cluster = trial_cluster(config(), &campaign, 5).expect("valid config");
        let mut digests = Vec::new();
        for _ in 0..6 {
            cluster.step_cycles(200);
            digests.push(cluster.state_digest());
        }
        digests
    };
    assert_eq!(run(), run());
}

/// A full-size (256-core) cluster of uniform generators at λ = 0.33, the
/// paper's headline load, with per-core seeds offset by `seed`.
fn busy_cluster(topology: Topology, seed: u64) -> mempool::Cluster<TrafficGen> {
    let cfg = ClusterConfig::paper(topology);
    let l1_bytes = cfg.address_map().expect("valid geometry").size_bytes() as u32;
    mempool::Cluster::new(cfg, |loc| {
        TrafficGen::new(
            0.33,
            Pattern::Uniform,
            AddressSpace {
                l1_bytes,
                seq_base: 0,
                seq_bytes: 0,
                seq_total: 0,
                tile: loc.tile as u32,
                num_tiles: cfg.num_tiles as u32,
                banks_per_tile: cfg.banks_per_tile as u32,
            },
            64,
            seed + loc.core as u64,
        )
    })
    .expect("valid config")
}

/// A checkpoint taken while the global network is saturated restores every
/// register's stored items, staged arrivals and occupancy: the restored
/// cluster runs on bit-identically and reports the same mean occupancy.
#[test]
fn saturated_network_checkpoint_restores_bit_identically() {
    const MID: u64 = 600;
    const TOTAL: u64 = 1_500;
    for topology in [Topology::Top4, Topology::TopH] {
        let mut original = busy_cluster(topology, 1);
        original.step_cycles(MID);
        let registry = original.metrics_registry();
        let occupied = registry.counter("cluster", "net_occupancy").expect("exported");
        let slots = registry.counter("cluster", "net_register_slots").expect("exported");
        assert!(
            occupied * 10 > slots,
            "{topology}: network not busy at the checkpoint ({occupied}/{slots} slots)"
        );
        let snap = original.snapshot();

        let mut restored = busy_cluster(topology, 9_000);
        restored.restore(&snap).expect("snapshot restores");
        original.step_cycles(TOTAL - MID);
        restored.step_cycles(TOTAL - MID);

        assert_eq!(restored.state_digest(), original.state_digest(), "{topology}");
        assert_eq!(
            restored.stats().net_occupancy(),
            original.stats().net_occupancy(),
            "{topology}"
        );
    }
}
