//! # mempool
//!
//! A cycle-accurate simulator of **MemPool** (DATE 2021): a 256-core RISC-V
//! cluster in which all cores share a global view of 1 MiB of L1 scratchpad
//! memory, reachable within at most 5 cycles through a physically-aware
//! hierarchical interconnect.
//!
//! The crate reproduces the paper's architecture at the granularity its
//! evaluation needs:
//!
//! * **Tiles** (§III-B): 4 Snitch cores, 16 SPM banks with single-cycle
//!   local access, tile request/response crossbars, a shared 2 KiB L1
//!   I-cache with a serialized refill port, and K remote port pairs with
//!   register boundaries.
//! * **Topologies** (§III-C): [`Topology::Top1`] (one 64×64 radix-4
//!   butterfly), [`Topology::Top4`] (four parallel butterflies, one per
//!   core), [`Topology::TopH`] (four local groups with fully-connected
//!   16×16 crossbars plus N/NE/E inter-group butterflies), and the
//!   non-implementable [`Topology::Ideal`] crossbar baseline of §V-C.
//! * **Hybrid addressing** (§IV): the bijective scrambler that keeps each
//!   core's private data (e.g. its stack) in its own tile's banks.
//!
//! Zero-load round-trip latencies drop out of the register placement rather
//! than being hard-coded: 1 cycle to a local bank, 3 cycles within a TopH
//! local group, 5 cycles to a remote group or across the Top1/Top4
//! butterflies.
//!
//! Two execution backends share one programming surface: the cycle-accurate
//! [`Cluster`] and the untimed [`FunctionalSim`] reference interpreter, both
//! reachable through the [`L1Memory`] trait for data setup and verification.
//!
//! # Examples
//!
//! Every core increments a shared counter with an atomic and halts:
//!
//! ```
//! use mempool::{Cluster, ClusterConfig, Topology};
//! use mempool_riscv::assemble;
//!
//! let program = assemble(
//!     "li a0, 0x8000\n\
//!      li a1, 1\n\
//!      amoadd.w a2, a1, (a0)\n\
//!      fence\n\
//!      ecall\n",
//! )?;
//! let config = ClusterConfig::small(Topology::TopH);
//! let mut cluster = mempool::Cluster::snitch(config)?;
//! cluster.load_program(&program)?;
//! cluster.run(100_000)?;
//! assert_eq!(cluster.read_word(0x8000), Some(64)); // 64 cores
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
mod cluster;
mod config;
mod error;
pub mod faults;
mod functional;
mod net;
pub mod obs;
mod packet;
pub mod profile;
pub mod sanitize;
mod session;
pub mod snapshot;
mod stats;
mod tile;

pub use cancel::{CancelCause, CancelToken, CancelledError};
pub use cluster::{Cluster, CoreLocation, RunTimeoutError};
pub use error::Error;
pub use faults::{
    BankFailure, BusError, DeadlockDiagnostic, FaultEvent, FaultLog, FaultPlan, FaultSpec,
    LinkFaultKind, ParseFaultSpecError, PendingDump, SimError, TileDiagnostic,
};
pub use functional::{FunctionalSim, FunctionalTimeoutError};
pub use config::{
    ClusterConfig, IcacheConfig, RefillNetwork, ResilienceConfig, Topology, ValidateConfigError,
};
pub use obs::{
    HistogramSnapshot, MetricScope, MetricsError, MetricsRegistry, ObsConfig, TimelineTrace,
    TraceSpan, METRICS_SCHEMA,
};
pub use packet::{MemoryTrace, Request, Response, TraceEvent};
pub use profile::{
    aggregate_regions, folded_stacks, PowerWindow, ProfileConfig, TileActivity,
    STALL_COUNTER_NAMES,
};
pub use sanitize::{
    SanitizerConfig, SanitizerReport, SanitizerViolation, ViolationKind,
};
pub use session::{SimSession, SimSessionBuilder};
pub use snapshot::{
    bisect_divergence, ByteReader, ClusterSnapshot, ComponentDiff, CoreState, DivergenceReport,
    Fnv, SnapshotError, StateSink,
};
pub use stats::{ClusterStats, FaultStats, LatencyStats};
pub use tile::ProgramImage;

use mempool_snitch::{DataRequest, DataResponse, Fetch};

/// Word-granular access to L1 through the programmer-view (pre-scramble)
/// address space — implemented by both the cycle-accurate [`Cluster`] and
/// the untimed [`FunctionalSim`], so data initialization and verification
/// code runs unchanged against either backend.
pub trait L1Memory {
    /// Reads a word; `None` when `vaddr` lies outside L1.
    fn read_word(&self, vaddr: u32) -> Option<u32>;

    /// Writes a word; `None` when `vaddr` lies outside L1.
    fn write_word(&mut self, vaddr: u32, value: u32) -> Option<()>;

    /// Bulk read of consecutive words. Returns a [`BusError`] naming the
    /// first address that falls outside L1.
    fn read_words(&self, vaddr: u32, len: usize) -> Result<Vec<u32>, BusError> {
        (0..len)
            .map(|i| {
                let addr = vaddr + 4 * i as u32;
                self.read_word(addr).ok_or(BusError { addr })
            })
            .collect()
    }

    /// Bulk write of consecutive words. Returns a [`BusError`] naming the
    /// first address that falls outside L1; words before it are written.
    fn write_words(&mut self, vaddr: u32, values: &[u32]) -> Result<(), BusError> {
        for (i, &v) in values.iter().enumerate() {
            let addr = vaddr + 4 * i as u32;
            self.write_word(addr, v).ok_or(BusError { addr })?;
        }
        Ok(())
    }
}

impl<C: Core> L1Memory for Cluster<C> {
    fn read_word(&self, vaddr: u32) -> Option<u32> {
        Cluster::read_word(self, vaddr)
    }

    fn write_word(&mut self, vaddr: u32, value: u32) -> Option<()> {
        Cluster::write_word(self, vaddr, value)
    }
}

/// A core model pluggable into the [`Cluster`]: the cycle-accurate
/// [`SnitchCore`](mempool_snitch::SnitchCore) for program execution, or a
/// synthetic traffic generator for the network analysis of §V-A/§V-B.
///
/// `Send` is a supertrait so a whole [`Cluster`] is `Send` and can be
/// handed to another thread (a sweep or campaign worker, say); core models
/// are plain data, so this costs implementors nothing.
pub trait Core: Send {
    /// Delivers a completed memory response (called before [`step`] within
    /// the same cycle, so same-cycle wakeups model 1-cycle local loads).
    ///
    /// [`step`]: Core::step
    fn deliver(&mut self, response: DataResponse);

    /// Advances one cycle. `fetch` resolves an instruction fetch through
    /// the tile's I-cache (traffic generators simply ignore it);
    /// `request_ready` is the data-port backpressure signal. At most one
    /// request may be issued per cycle, and only when `request_ready`.
    fn step(
        &mut self,
        fetch: &mut dyn FnMut(u32) -> Fetch,
        request_ready: bool,
    ) -> Option<DataRequest>;

    /// Whether this core has finished its work (halted / exhausted its
    /// workload). [`Cluster::run`] completes when all cores are done and
    /// the network has drained.
    fn done(&self) -> bool;

    /// Kills the core after it issued an unserviceable request (e.g. an
    /// address outside L1). The default does nothing; core models that can
    /// halt should do so.
    fn fault(&mut self) {}

    /// Injected fault: the core retires its current instruction without
    /// executing it (a spurious retire). The default does nothing; traffic
    /// generators have no program counter to skip.
    fn spurious_retire(&mut self) {}

    /// The core's observability counters as `(name, value)` pairs — the
    /// `cluster/tile{t}/core{c}` scope of the metrics registry. The default
    /// reports nothing; core models with performance counters should
    /// return them in a stable declaration order.
    fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Turns on this core's execution profile (per-PC / per-region cycle
    /// attribution), tracking at most `max_pcs` distinct pairs. The default
    /// does nothing; core models without a program counter have nothing to
    /// profile.
    fn enable_profile(&mut self, _max_pcs: usize) {}

    /// The core's execution profile, when one is enabled. The default
    /// reports none.
    fn core_profile(&self) -> Option<&mempool_snitch::CoreProfile> {
        None
    }
}

impl Core for mempool_snitch::SnitchCore {
    fn deliver(&mut self, response: DataResponse) {
        mempool_snitch::SnitchCore::deliver(self, response);
    }

    fn step(
        &mut self,
        fetch: &mut dyn FnMut(u32) -> Fetch,
        request_ready: bool,
    ) -> Option<DataRequest> {
        let f = if self.needs_fetch() {
            fetch(self.pc())
        } else {
            Fetch::Stall
        };
        mempool_snitch::SnitchCore::step(self, f, request_ready)
    }

    fn done(&self) -> bool {
        self.halted()
    }

    fn fault(&mut self) {
        self.force_fault();
    }

    fn spurious_retire(&mut self) {
        self.skip_instruction();
    }

    fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        self.stats().counters().to_vec()
    }

    fn enable_profile(&mut self, max_pcs: usize) {
        mempool_snitch::SnitchCore::enable_profile(self, max_pcs);
    }

    fn core_profile(&self) -> Option<&mempool_snitch::CoreProfile> {
        self.profile()
    }
}
