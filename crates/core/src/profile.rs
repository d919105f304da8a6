//! The program-level profiler: per-PC stall attribution, kernel region
//! breakdowns, and the windowed activity series behind power timelines.
//!
//! The per-core half lives in `mempool_snitch::profile` — each
//! [`SnitchCore`](mempool_snitch::SnitchCore) with profiling enabled
//! attributes every cycle it spends to a `(region, PC)` pair. This module
//! adds the cluster half:
//!
//! * [`ProfileConfig`] — one knob bundle: the per-core PC-table bound and
//!   the power-sampling window length.
//! * The windowed **activity sampler**: every `power_window` cycles the
//!   cluster latches integer deltas of its activity counters into a
//!   [`PowerWindow`] (per-tile instruction/access mix plus the cluster-wide
//!   local/remote split). `mempool-physical` turns the series into the
//!   `mempool-power-v1` power-over-time document; keeping the simulator
//!   side integer-only keeps it snapshot- and digest-friendly.
//! * The **folded-stack exporter** ([`folded_stacks`]): per-core profiles
//!   rendered as collapsed-stack lines
//!   (`tile0;core1;compute;0x00000040;stall_scoreboard 55`) that standard
//!   flamegraph tooling consumes directly.
//!
//! Like the observability recorder, the profiler is `Option`-gated: absent
//! by default (zero cost), and architectural state once enabled — it is
//! snapshotted (the `profile` component), digested, and bit-identical
//! across reruns and checkpoint/restore. Sampling happens in
//! [`finish_cycle`], the end-of-cycle step.
//!
//! [`finish_cycle`]: crate::Cluster::cycle

use mempool_snitch::profile::{
    region_name, stall_index, CoreProfile, RegionCounters, REGION_SLOTS, STALL_CAUSES,
};
use std::fmt::Write as _;

/// Metrics-counter names for per-region stall cycles, indexed like
/// [`STALL_CAUSES`] (`stall_` + `mempool_snitch::profile::stall_name`).
pub const STALL_COUNTER_NAMES: [&str; STALL_CAUSES.len()] = [
    "stall_scoreboard",
    "stall_lsu_full",
    "stall_port_busy",
    "stall_fetch",
    "stall_fence",
    "stall_exec_busy",
];

/// Profiler configuration: what the cluster records while profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Per-core bound on tracked `(region, PC)` pairs; attribution past the
    /// bound folds into an overflow bucket (region totals stay exact).
    pub max_pcs: usize,
    /// Power-sampling window length in cycles (`0` disables the activity
    /// sampler; per-PC/per-region attribution still runs).
    pub power_window: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            max_pcs: 4096,
            power_window: 1024,
        }
    }
}

impl ProfileConfig {
    /// Per-PC/per-region attribution only, no power windows.
    pub fn attribution_only() -> ProfileConfig {
        ProfileConfig {
            power_window: 0,
            ..ProfileConfig::default()
        }
    }

    /// Default attribution plus power windows of `window` cycles.
    pub fn with_power_window(window: u64) -> ProfileConfig {
        ProfileConfig {
            power_window: window,
            ..ProfileConfig::default()
        }
    }
}

/// Integer activity of one tile over one power window (deltas of the
/// cluster's cumulative counters between the window edges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileActivity {
    /// Instructions retired by the tile's cores.
    pub instret: u64,
    /// Multiply instructions retired.
    pub muls: u64,
    /// Divide/remainder instructions retired.
    pub divs: u64,
    /// Memory instructions retired (loads + stores + atomics).
    pub memory_ops: u64,
    /// I-cache lookups (hits + misses) by the tile's cores.
    pub icache_fetches: u64,
    /// I-cache line refills completed by the tile.
    pub icache_refills: u64,
    /// SPM bank accesses served by the tile's banks.
    pub bank_accesses: u64,
}

impl TileActivity {
    pub(crate) fn delta(cur: &TileActivity, prev: &TileActivity) -> TileActivity {
        TileActivity {
            instret: cur.instret - prev.instret,
            muls: cur.muls - prev.muls,
            divs: cur.divs - prev.divs,
            memory_ops: cur.memory_ops - prev.memory_ops,
            icache_fetches: cur.icache_fetches - prev.icache_fetches,
            icache_refills: cur.icache_refills - prev.icache_refills,
            bank_accesses: cur.bank_accesses - prev.bank_accesses,
        }
    }
}

/// One power-sampling window: `[start, end)` in cycles, with per-tile
/// activity deltas and the cluster-wide locality split for the
/// interconnect-energy share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerWindow {
    /// First cycle of the window.
    pub start: u64,
    /// One past the last cycle of the window (`end - start` = length).
    pub end: u64,
    /// Per-tile activity deltas, indexed by tile.
    pub tiles: Vec<TileActivity>,
    /// Memory accesses that stayed in the issuing tile.
    pub local_requests: u64,
    /// Memory accesses that crossed tiles.
    pub remote_requests: u64,
}

/// Cumulative counters latched at the last window edge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ActivityMark {
    pub(crate) tiles: Vec<TileActivity>,
    pub(crate) local_requests: u64,
    pub(crate) remote_requests: u64,
}

/// The live cluster-side profiler state (the per-core tables live inside
/// the cores). Deterministic architectural state: snapshotted as the
/// `profile` component and covered by the state digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Profiler {
    pub(crate) config: ProfileConfig,
    /// Closed power windows, in time order.
    pub(crate) windows: Vec<PowerWindow>,
    /// First cycle of the currently open window.
    pub(crate) window_start: u64,
    /// Cumulative counters at `window_start`.
    pub(crate) mark: ActivityMark,
}

impl Profiler {
    pub(crate) fn new(config: ProfileConfig, num_tiles: usize) -> Profiler {
        Profiler {
            config,
            windows: Vec::new(),
            window_start: 0,
            mark: ActivityMark {
                tiles: vec![TileActivity::default(); num_tiles],
                ..ActivityMark::default()
            },
        }
    }

    /// Whether the open window closes once `completed` cycles have been
    /// simulated in total.
    pub(crate) fn window_closes(&self, completed: u64) -> bool {
        self.config.power_window > 0 && completed >= self.window_start + self.config.power_window
    }

    /// Closes the open window at `end` given the current cumulative
    /// counters, and re-arms the mark.
    pub(crate) fn close_window(&mut self, end: u64, cum: ActivityMark) {
        let tiles = cum
            .tiles
            .iter()
            .zip(&self.mark.tiles)
            .map(|(cur, prev)| TileActivity::delta(cur, prev))
            .collect();
        self.windows.push(PowerWindow {
            start: self.window_start,
            end,
            tiles,
            local_requests: cum.local_requests - self.mark.local_requests,
            remote_requests: cum.remote_requests - self.mark.remote_requests,
        });
        self.window_start = end;
        self.mark = cum;
    }
}

/// Renders per-core profiles as collapsed-stack ("folded") lines, the
/// input format of standard flamegraph tooling: one
/// `frame;frame;...;frame count` line per distinct stack, where the frames
/// are `tile{t};core{c};{region};0x{pc:08x}` and the leaf is either the
/// retire count or a `stall_*` frame with its cycle count. Table overflow
/// appears under a `[overflow]` frame so folded totals still sum to every
/// attributed cycle. Lines are emitted in canonical (core, region, PC)
/// order, so identical profiles render byte-identically.
pub fn folded_stacks<'a>(
    cores: impl Iterator<Item = (u32, u32, &'a CoreProfile)>,
) -> String {
    let mut out = String::new();
    for (tile, core, profile) in cores {
        for (region, pc, c) in profile.pcs() {
            let name = region_name(region);
            if c.retired > 0 {
                let _ = writeln!(out, "tile{tile};core{core};{name};0x{pc:08x} {}", c.retired);
            }
            for (i, cause) in STALL_CAUSES.iter().enumerate() {
                if c.stalls[i] > 0 {
                    let _ = writeln!(
                        out,
                        "tile{tile};core{core};{name};0x{pc:08x};{} {}",
                        STALL_COUNTER_NAMES[stall_index(*cause)],
                        c.stalls[i]
                    );
                }
            }
        }
        let o = profile.overflow();
        if o.retired > 0 {
            let _ = writeln!(out, "tile{tile};core{core};[overflow] {}", o.retired);
        }
        for (i, _) in STALL_CAUSES.iter().enumerate() {
            if o.stalls[i] > 0 {
                let _ = writeln!(
                    out,
                    "tile{tile};core{core};[overflow];{} {}",
                    STALL_COUNTER_NAMES[i], o.stalls[i]
                );
            }
        }
    }
    out
}

/// Sums region counters across cores into one cluster-wide per-region
/// table.
pub fn aggregate_regions<'a>(
    profiles: impl Iterator<Item = &'a CoreProfile>,
) -> [RegionCounters; REGION_SLOTS] {
    let mut total = [RegionCounters::default(); REGION_SLOTS];
    for p in profiles {
        for (acc, r) in total.iter_mut().zip(p.regions()) {
            acc.retired += r.retired;
            for (a, &s) in acc.stalls.iter_mut().zip(&r.stalls) {
                *a += s;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_snitch::StallCause;

    #[test]
    fn windows_are_deltas_between_marks() {
        let mut p = Profiler::new(ProfileConfig::with_power_window(4), 2);
        assert!(!p.window_closes(3));
        assert!(p.window_closes(4));
        let cum = ActivityMark {
            tiles: vec![
                TileActivity {
                    instret: 10,
                    ..TileActivity::default()
                },
                TileActivity {
                    instret: 6,
                    bank_accesses: 3,
                    ..TileActivity::default()
                },
            ],
            local_requests: 5,
            remote_requests: 2,
        };
        p.close_window(4, cum.clone());
        let mut cum2 = cum.clone();
        cum2.tiles[0].instret = 25;
        cum2.local_requests = 9;
        p.close_window(8, cum2);
        assert_eq!(p.windows.len(), 2);
        assert_eq!((p.windows[0].start, p.windows[0].end), (0, 4));
        assert_eq!(p.windows[0].tiles[1].bank_accesses, 3);
        assert_eq!(p.windows[0].local_requests, 5);
        assert_eq!((p.windows[1].start, p.windows[1].end), (4, 8));
        assert_eq!(p.windows[1].tiles[0].instret, 15);
        assert_eq!(p.windows[1].tiles[1].instret, 0);
        assert_eq!(p.windows[1].local_requests, 4);
        assert_eq!(p.windows[1].remote_requests, 0);
    }

    #[test]
    fn zero_window_disables_sampling() {
        let p = Profiler::new(ProfileConfig::attribution_only(), 1);
        assert!(!p.window_closes(0));
        assert!(!p.window_closes(u64::MAX - 1));
    }

    #[test]
    fn folded_output_is_flamegraph_shaped() {
        let mut a = CoreProfile::new(8);
        a.record_retire(1, 0x40);
        a.record_retire(1, 0x40);
        a.record_stall(1, 0x40, StallCause::Scoreboard);
        let mut b = CoreProfile::new(1);
        b.record_retire(0, 0x0);
        b.record_retire(0, 0x4); // spills
        let cores = [(0u32, 1u32, &a), (2u32, 8u32, &b)];
        let out = folded_stacks(cores.iter().map(|&(t, c, p)| (t, c, p)));
        assert!(out.contains("tile0;core1;compute;0x00000040 2\n"), "{out}");
        assert!(
            out.contains("tile0;core1;compute;0x00000040;stall_scoreboard 1\n"),
            "{out}"
        );
        assert!(out.contains("tile2;core8;init;0x00000000 1\n"), "{out}");
        assert!(out.contains("tile2;core8;[overflow] 1\n"), "{out}");
        // Every line is `frames count`.
        for line in out.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("space-separated");
            assert!(stack.contains(';'), "{line}");
            assert!(count.parse::<u64>().is_ok(), "{line}");
        }
        // Total attributed cycles survive the rendering.
        let total: u64 = out
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, a.total().cycles() + b.total().cycles());
    }

    #[test]
    fn aggregate_regions_sums_cores() {
        let mut a = CoreProfile::new(8);
        a.record_retire(1, 0x40);
        a.record_stall(2, 0x44, StallCause::Fence);
        let mut b = CoreProfile::new(8);
        b.record_retire(1, 0x40);
        let total = aggregate_regions([&a, &b].into_iter());
        assert_eq!(total[1].retired, 2);
        assert_eq!(total[2].stalls[stall_index(StallCause::Fence)], 1);
        assert_eq!(total.iter().map(|r| r.cycles()).sum::<u64>(), 3);
    }
}
