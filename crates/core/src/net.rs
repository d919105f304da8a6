//! The three global interconnect topologies of §III-C, plus the ideal
//! crossbar baseline of §V-C.
//!
//! Register placement (the source of the paper's 1/3/5-cycle latencies):
//!
//! * every tile has a register boundary at each **master request port** and
//!   each **master response port**;
//! * `Top1`/`Top4` butterflies have a single pipeline register row midway
//!   through their layers (when they have at least two layers);
//! * `TopH` has an additional register boundary at each local group's
//!   master interface (the `boundary_*` rows), crossed only by inter-group
//!   traffic;
//! * slave request ports and outbound response ports carry 1-deep wire
//!   latches (the "optional elastic buffer at each switch output" of the
//!   paper) so a blocked packet retries without re-crossing the fabric.

use crate::tile::{BankGate, Tile};
use crate::{ClusterConfig, Request, Response, Topology};
use mempool_mem::AddressMap;
use mempool_noc::{ElasticBuffer, Fabric, Offer, RegFile, RoundRobin};

/// Direction indices for TopH ports: L is port 0, then N/NE/E.
const DIR_PARTNER_XOR: [usize; 3] = [2, 3, 1]; // N, NE, E

/// A borrowed interconnect register stage, handed to the fault injector.
///
/// Request stages only ever suffer stalls and drops — their routing fields
/// are validated at issue and re-checked (`expect`) at every switch, so
/// corrupting them would crash the router rather than model a data fault.
/// Response stages additionally allow payload corruption.
pub(crate) enum LinkRef<'a> {
    /// A request-carrying register stage.
    Req(&'a mut ElasticBuffer<Request>),
    /// A response-carrying register stage.
    Resp(&'a mut ElasticBuffer<Response>),
}

/// Observability counters of one interconnect register stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkStatView {
    /// Items currently held (stored + staged).
    pub occupancy: u64,
    /// Lifetime accepted pushes.
    pub pushes: u64,
    /// Whether this stage carries requests (`false`: responses).
    pub is_req: bool,
}

pub(crate) enum Net {
    Ideal(IdealNet),
    Global(GlobalNet),
    Hier(HierNet),
}

impl Net {
    pub fn new(config: &ClusterConfig) -> Net {
        match config.topology {
            Topology::Ideal => Net::Ideal(IdealNet::new(config)),
            Topology::Top1 => Net::Global(GlobalNet::new(config, 1, true)),
            Topology::Top4 => Net::Global(GlobalNet::new(config, config.cores_per_tile, false)),
            Topology::TopH => Net::Hier(HierNet::new(config)),
        }
    }

    /// The tile response-crossbar output port (0-based among the K remote
    /// ports) a remote response leaves through.
    pub fn resp_port_for(&self, tile: usize, resp: &Response, cores_per_tile: usize) -> usize {
        match self {
            Net::Ideal(_) => 0,
            Net::Global(g) => {
                if g.concentrate {
                    0
                } else {
                    resp.core as usize % cores_per_tile
                }
            }
            Net::Hier(h) => h.port_for(tile, resp.core as usize / cores_per_tile),
        }
    }

    pub fn deliver_master_resp(&mut self, tiles: &mut [Tile], deliveries: &mut Vec<Response>) {
        match self {
            Net::Ideal(n) => n.deliver(tiles, deliveries),
            Net::Global(n) => n.deliver(deliveries),
            Net::Hier(n) => n.deliver(deliveries),
        }
    }

    pub fn route_responses(&mut self, tiles: &mut [Tile], cores_per_tile: usize) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => n.route_responses(tiles, cores_per_tile),
            Net::Hier(n) => n.route_responses(tiles, cores_per_tile),
        }
    }

    pub fn route_longhaul_requests(&mut self, tiles: &mut [Tile], map: &AddressMap) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => n.route_longhaul(tiles, map),
            Net::Hier(n) => n.route_longhaul(tiles, map),
        }
    }

    pub fn route_port_requests(&mut self, latches: &mut [Option<Request>], map: &AddressMap) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => n.route_ports(latches, map),
            Net::Hier(n) => n.route_ports(latches, map),
        }
    }

    pub fn commit(&mut self) {
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => n.commit(),
            Net::Hier(n) => n.commit(),
        }
    }

    /// Visits every register stage of the global interconnect with a stable
    /// link id (construction order), so a seeded fault plan addresses the
    /// same physical register every run. The ideal network has no registers
    /// and is never visited. Each register file is visited through
    /// [`RegFile::edit`], since the visitor may stall, drop or corrupt.
    pub fn for_each_link(&mut self, f: &mut dyn FnMut(u64, LinkRef<'_>)) {
        fn visit<T>(
            file: &mut RegFile<T>,
            wrap: for<'a> fn(&'a mut ElasticBuffer<T>) -> LinkRef<'a>,
            id: &mut u64,
            f: &mut dyn FnMut(u64, LinkRef<'_>),
        ) {
            file.edit(|regs| {
                for reg in regs {
                    f(*id, wrap(reg));
                    *id += 1;
                }
            });
        }
        let mut id = 0u64;
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => {
                visit(&mut n.master_req, |b| LinkRef::Req(b), &mut id, f);
                visit(&mut n.master_resp, |b| LinkRef::Resp(b), &mut id, f);
                for port in &mut n.mid_req {
                    visit(port, |b| LinkRef::Req(b), &mut id, f);
                }
                for port in &mut n.mid_resp {
                    visit(port, |b| LinkRef::Resp(b), &mut id, f);
                }
            }
            Net::Hier(n) => {
                visit(&mut n.master_req, |b| LinkRef::Req(b), &mut id, f);
                visit(&mut n.master_resp, |b| LinkRef::Resp(b), &mut id, f);
                visit(&mut n.boundary_req, |b| LinkRef::Req(b), &mut id, f);
                visit(&mut n.boundary_resp, |b| LinkRef::Resp(b), &mut id, f);
            }
        }
    }

    /// Visits every register stage immutably with its stable link id (the
    /// same ids as [`for_each_link`](Net::for_each_link)) and the
    /// observability counters of that stage. Used to build the
    /// `cluster/link{id}` scopes of the metrics registry.
    pub fn for_each_link_stats(&self, f: &mut dyn FnMut(u64, LinkStatView)) {
        fn visit<T>(
            file: &RegFile<T>,
            is_req: bool,
            id: &mut u64,
            f: &mut dyn FnMut(u64, LinkStatView),
        ) {
            for reg in file.regs() {
                let view = LinkStatView {
                    occupancy: reg.len() as u64,
                    pushes: reg.pushes(),
                    is_req,
                };
                f(*id, view);
                *id += 1;
            }
        }
        let mut id = 0u64;
        match self {
            Net::Ideal(_) => {}
            Net::Global(n) => {
                visit(&n.master_req, true, &mut id, f);
                visit(&n.master_resp, false, &mut id, f);
                for port in &n.mid_req {
                    visit(port, true, &mut id, f);
                }
                for port in &n.mid_resp {
                    visit(port, false, &mut id, f);
                }
            }
            Net::Hier(n) => {
                visit(&n.master_req, true, &mut id, f);
                visit(&n.master_resp, false, &mut id, f);
                visit(&n.boundary_req, true, &mut id, f);
                visit(&n.boundary_resp, false, &mut id, f);
            }
        }
    }

    /// (occupied, total) register slots across the global interconnect —
    /// the buffer-occupancy congestion metric. O(1) in the register count:
    /// every register file keeps both as counters.
    pub fn occupancy(&self) -> (u64, u64) {
        fn add<T>(acc: (u64, u64), file: &RegFile<T>) -> (u64, u64) {
            (acc.0 + file.occupied() as u64, acc.1 + file.slots() as u64)
        }
        match self {
            Net::Ideal(_) => (0, 0),
            Net::Global(n) => {
                let acc = add(add((0, 0), &n.master_req), &n.master_resp);
                let acc = n.mid_req.iter().fold(acc, add);
                n.mid_resp.iter().fold(acc, add)
            }
            Net::Hier(n) => {
                let acc = add(add((0, 0), &n.master_req), &n.master_resp);
                add(add(acc, &n.boundary_req), &n.boundary_resp)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ideal full crossbar (baseline).
// ---------------------------------------------------------------------------

/// The §V-C baseline: all banks reachable in one cycle, no routing
/// conflicts; only bank conflicts serialize (round-robin per bank).
pub(crate) struct IdealNet {
    /// One arbiter per global bank, over all cores.
    pub(crate) rr: Vec<RoundRobin>,
    banks_per_tile: usize,
    /// Scratch reused every cycle: (global bank, core) contenders, and the
    /// cores contending for one bank.
    contenders: Vec<(usize, usize)>,
    cores: Vec<usize>,
}

impl IdealNet {
    fn new(config: &ClusterConfig) -> Self {
        IdealNet {
            rr: (0..config.num_banks())
                .map(|_| RoundRobin::new(config.num_cores()))
                .collect(),
            banks_per_tile: config.banks_per_tile,
            contenders: Vec::new(),
            cores: Vec::new(),
        }
    }

    /// Resolves all core latches directly against the banks.
    ///
    /// `gate` is the fault-injection view of each (tile, bank) this cycle;
    /// requests granted to a dead bank are discarded and counted in
    /// `dropped`.
    pub fn route_requests(
        &mut self,
        latches: &mut [Option<Request>],
        tiles: &mut [Tile],
        map: &AddressMap,
        tile_accesses: &mut [u64],
        gate: &dyn Fn(usize, u32) -> BankGate,
        dropped: &mut u64,
    ) -> u64 {
        // Bucket contenders per global bank.
        let contenders = &mut self.contenders;
        contenders.clear();
        for (core, latch) in latches.iter().enumerate() {
            if let Some(req) = latch {
                let at = map.decode(req.addr).expect("validated at issue");
                let bank = at.tile as usize * self.banks_per_tile + at.bank as usize;
                contenders.push((bank, core));
            }
        }
        contenders.sort_unstable();
        let mut accesses = 0;
        let mut i = 0;
        while i < contenders.len() {
            let bank = contenders[i].0;
            let mut j = i;
            while j < contenders.len() && contenders[j].0 == bank {
                j += 1;
            }
            let tile = bank / self.banks_per_tile;
            let bank_in_tile = bank % self.banks_per_tile;
            let cores = &mut self.cores;
            cores.clear();
            cores.extend(contenders[i..j].iter().map(|&(_, c)| c));
            match gate(tile, bank_in_tile as u32) {
                BankGate::Stalled => {}
                BankGate::Dead => {
                    let winner = self.rr[bank].grant(cores).expect("nonempty");
                    latches[winner].take().expect("contender had a request");
                    *dropped += 1;
                }
                BankGate::Ready => {
                    if tiles[tile].bank_resp[bank_in_tile].can_push() {
                        let winner = self.rr[bank].grant(cores).expect("nonempty");
                        let req = latches[winner].take().expect("contender had a request");
                        let at = map.decode(req.addr).expect("validated");
                        let resp = crate::tile::ideal_bank_access(&mut tiles[tile], &req, at);
                        tiles[tile].bank_resp.push(bank_in_tile, resp);
                        tile_accesses[tile] += 1;
                        accesses += 1;
                    }
                }
            }
            i = j;
        }
        accesses
    }

    fn deliver(&mut self, tiles: &mut [Tile], deliveries: &mut Vec<Response>) {
        for tile in tiles {
            if tile.bank_resp.is_idle() {
                continue;
            }
            for bank in 0..tile.bank_resp.regs().len() {
                if let Some(resp) = tile.bank_resp.pop(bank) {
                    deliveries.push(resp);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Top1 / Top4: one or four global radix-4 butterflies.
// ---------------------------------------------------------------------------

pub(crate) struct GlobalNet {
    num_tiles: usize,
    cores_per_tile: usize,
    ports: usize,
    /// Top1 concentrates the tile's cores onto one port.
    concentrate: bool,
    pub(crate) rr_concentrator: Vec<RoundRobin>,
    /// `[tile * ports + p]`.
    pub(crate) master_req: RegFile<Request>,
    pub(crate) master_resp: RegFile<Response>,
    /// Per port: request butterfly segment A (or the whole network when it
    /// has a single layer).
    pub(crate) req_a: Vec<Fabric>,
    pub(crate) req_b: Vec<Fabric>,
    /// `[port][row]` mid-stage pipeline registers (empty when unsplit).
    pub(crate) mid_req: Vec<RegFile<Request>>,
    pub(crate) resp_a: Vec<Fabric>,
    pub(crate) resp_b: Vec<Fabric>,
    pub(crate) mid_resp: Vec<RegFile<Response>>,
    split: bool,
    /// Stage scratch reused every cycle: the offers presented and the
    /// register, tile or lane each one comes from.
    offers: Vec<Offer>,
    srcs: Vec<usize>,
}

fn butterfly_layer_count(ports: usize, radix: usize) -> usize {
    let mut n = ports;
    let mut k = 0;
    while n > 1 {
        n /= radix;
        k += 1;
    }
    k
}

impl GlobalNet {
    fn new(config: &ClusterConfig, ports: usize, concentrate: bool) -> Self {
        let n = config.num_tiles;
        let k = butterfly_layer_count(n, config.radix);
        let split = k >= 2;
        let mid = k.div_ceil(2);
        let mut req_a = Vec::new();
        let mut req_b = Vec::new();
        let mut resp_a = Vec::new();
        let mut resp_b = Vec::new();
        let mut mid_req = Vec::new();
        let mut mid_resp = Vec::new();
        for _ in 0..ports {
            if split {
                req_a.push(Fabric::butterfly_segment(n, config.radix, 0, mid).expect("validated"));
                req_b.push(Fabric::butterfly_segment(n, config.radix, mid, k).expect("validated"));
                resp_a.push(Fabric::butterfly_segment(n, config.radix, 0, mid).expect("validated"));
                resp_b.push(Fabric::butterfly_segment(n, config.radix, mid, k).expect("validated"));
                mid_req.push(RegFile::new(n, 2));
                mid_resp.push(RegFile::new(n, 2));
            } else {
                req_a.push(Fabric::butterfly(n, config.radix).expect("validated"));
                resp_a.push(Fabric::butterfly(n, config.radix).expect("validated"));
                mid_req.push(RegFile::new(0, 2));
                mid_resp.push(RegFile::new(0, 2));
            }
        }
        GlobalNet {
            num_tiles: n,
            cores_per_tile: config.cores_per_tile,
            ports,
            concentrate,
            rr_concentrator: (0..n).map(|_| RoundRobin::new(config.cores_per_tile)).collect(),
            master_req: RegFile::new(n * ports, 2),
            master_resp: RegFile::new(n * ports, 2),
            req_a,
            req_b,
            mid_req,
            resp_a,
            resp_b,
            mid_resp,
            split,
            offers: Vec::with_capacity(n),
            srcs: Vec::with_capacity(n),
        }
    }

    fn route_longhaul(&mut self, tiles: &mut [Tile], map: &AddressMap) {
        let (offers, srcs) = (&mut self.offers, &mut self.srcs);
        for p in 0..self.ports {
            if self.split {
                // Segment B: mid registers -> destination tile slave latches.
                if !self.mid_req[p].is_idle() {
                    offers.clear();
                    srcs.clear();
                    for (row, reg) in self.mid_req[p].regs().iter().enumerate() {
                        if let Some(req) = reg.head() {
                            let at = map.decode(req.addr).expect("validated");
                            offers.push(Offer {
                                input: row,
                                dest: at.tile as usize,
                            });
                            srcs.push(row);
                        }
                    }
                    if !offers.is_empty() {
                        let granted = self.req_b[p]
                            .resolve(offers, &mut |tile| tiles[tile].slave_req[p].is_none());
                        for (i, &g) in granted.iter().enumerate() {
                            if g {
                                let req = self.mid_req[p].pop(srcs[i]).expect("head existed");
                                let at = map.decode(req.addr).expect("validated");
                                tiles[at.tile as usize].slave_req[p] = Some(req);
                            }
                        }
                    }
                }
                // Segment A: master request registers -> mid registers.
                if self.master_req.is_idle() {
                    continue;
                }
                offers.clear();
                srcs.clear();
                for tile in 0..self.num_tiles {
                    let reg = &self.master_req[tile * self.ports + p];
                    if let Some(req) = reg.head() {
                        let at = map.decode(req.addr).expect("validated");
                        offers.push(Offer {
                            input: tile,
                            dest: at.tile as usize,
                        });
                        srcs.push(tile);
                    }
                }
                if !offers.is_empty() {
                    let mid = &self.mid_req[p];
                    self.req_a[p].resolve(offers, &mut |row| mid[row].can_push());
                    let fabric = &self.req_a[p];
                    for (i, &g) in fabric.granted().iter().enumerate() {
                        if g {
                            let row = fabric.output_port(offers[i].input, offers[i].dest);
                            let req = self
                                .master_req
                                .pop(srcs[i] * self.ports + p)
                                .expect("head existed");
                            self.mid_req[p].push(row, req);
                        }
                    }
                }
            } else {
                // Single-layer network: master registers -> slave latches.
                if self.master_req.is_idle() {
                    continue;
                }
                offers.clear();
                srcs.clear();
                for tile in 0..self.num_tiles {
                    if let Some(req) = self.master_req[tile * self.ports + p].head() {
                        let at = map.decode(req.addr).expect("validated");
                        offers.push(Offer {
                            input: tile,
                            dest: at.tile as usize,
                        });
                        srcs.push(tile);
                    }
                }
                if !offers.is_empty() {
                    let granted = self.req_a[p]
                        .resolve(offers, &mut |tile| tiles[tile].slave_req[p].is_none());
                    for (i, &g) in granted.iter().enumerate() {
                        if g {
                            let req = self
                                .master_req
                                .pop(srcs[i] * self.ports + p)
                                .expect("head existed");
                            let at = map.decode(req.addr).expect("validated");
                            tiles[at.tile as usize].slave_req[p] = Some(req);
                        }
                    }
                }
            }
        }
    }

    fn route_ports(&mut self, latches: &mut [Option<Request>], map: &AddressMap) {
        let cpt = self.cores_per_tile;
        for tile in 0..self.num_tiles {
            if self.concentrate {
                let reg = tile * self.ports;
                if !self.master_req[reg].can_push() {
                    continue;
                }
                let lanes = &mut self.srcs;
                lanes.clear();
                for lane in 0..cpt {
                    if let Some(req) = &latches[tile * cpt + lane] {
                        let at = map.decode(req.addr).expect("validated");
                        if at.tile as usize != tile {
                            lanes.push(lane);
                        }
                    }
                }
                if let Some(winner) = self.rr_concentrator[tile].grant(lanes) {
                    let req = latches[tile * cpt + winner].take().expect("lane had request");
                    self.master_req.push(reg, req);
                }
            } else {
                for lane in 0..cpt {
                    let Some(req) = latches[tile * cpt + lane] else {
                        continue;
                    };
                    let at = map.decode(req.addr).expect("validated");
                    if at.tile as usize == tile {
                        continue;
                    }
                    let reg = tile * self.ports + lane;
                    if self.master_req[reg].can_push() {
                        latches[tile * cpt + lane] = None;
                        self.master_req.push(reg, req);
                    }
                }
            }
        }
    }

    fn route_responses(&mut self, tiles: &mut [Tile], cores_per_tile: usize) {
        let (offers, srcs) = (&mut self.offers, &mut self.srcs);
        for p in 0..self.ports {
            if self.split {
                // Segment B': mid response registers -> master response regs.
                if !self.mid_resp[p].is_idle() {
                    offers.clear();
                    srcs.clear();
                    for (row, reg) in self.mid_resp[p].regs().iter().enumerate() {
                        if let Some(resp) = reg.head() {
                            offers.push(Offer {
                                input: row,
                                dest: resp.core as usize / cores_per_tile,
                            });
                            srcs.push(row);
                        }
                    }
                    if !offers.is_empty() {
                        let master = &self.master_resp;
                        let ports = self.ports;
                        let granted = self.resp_b[p]
                            .resolve(offers, &mut |tile| master[tile * ports + p].can_push());
                        for (i, &g) in granted.iter().enumerate() {
                            if g {
                                let resp = self.mid_resp[p].pop(srcs[i]).expect("head existed");
                                let tile = resp.core as usize / cores_per_tile;
                                self.master_resp.push(tile * self.ports + p, resp);
                            }
                        }
                    }
                }
                // Segment A': tile response-out latches -> mid registers.
                offers.clear();
                srcs.clear();
                for (tile, t) in tiles.iter().enumerate() {
                    if let Some(resp) = &t.resp_out[p] {
                        offers.push(Offer {
                            input: tile,
                            dest: resp.core as usize / cores_per_tile,
                        });
                        srcs.push(tile);
                    }
                }
                if !offers.is_empty() {
                    let mid = &self.mid_resp[p];
                    self.resp_a[p].resolve(offers, &mut |row| mid[row].can_push());
                    let fabric = &self.resp_a[p];
                    for (i, &g) in fabric.granted().iter().enumerate() {
                        if g {
                            let row = fabric.output_port(offers[i].input, offers[i].dest);
                            let resp = tiles[srcs[i]].resp_out[p].take().expect("latch full");
                            self.mid_resp[p].push(row, resp);
                        }
                    }
                }
            } else {
                offers.clear();
                srcs.clear();
                for (tile, t) in tiles.iter().enumerate() {
                    if let Some(resp) = &t.resp_out[p] {
                        offers.push(Offer {
                            input: tile,
                            dest: resp.core as usize / cores_per_tile,
                        });
                        srcs.push(tile);
                    }
                }
                if !offers.is_empty() {
                    let master = &self.master_resp;
                    let ports = self.ports;
                    let granted = self.resp_a[p]
                        .resolve(offers, &mut |tile| master[tile * ports + p].can_push());
                    for (i, &g) in granted.iter().enumerate() {
                        if g {
                            let resp = tiles[srcs[i]].resp_out[p].take().expect("latch full");
                            let tile = resp.core as usize / cores_per_tile;
                            self.master_resp.push(tile * self.ports + p, resp);
                        }
                    }
                }
            }
        }
    }

    fn deliver(&mut self, deliveries: &mut Vec<Response>) {
        deliver_heads(&mut self.master_resp, deliveries);
    }

    fn commit(&mut self) {
        self.master_req.commit();
        self.master_resp.commit();
        for port in &mut self.mid_req {
            port.commit();
        }
        for port in &mut self.mid_resp {
            port.commit();
        }
    }
}

/// Pops every master response register's head into `deliveries`, in
/// register order.
fn deliver_heads(master_resp: &mut RegFile<Response>, deliveries: &mut Vec<Response>) {
    if master_resp.is_idle() {
        return;
    }
    for reg in 0..master_resp.regs().len() {
        if let Some(resp) = master_resp.pop(reg) {
            deliveries.push(resp);
        }
    }
}

// ---------------------------------------------------------------------------
// TopH: hierarchical — local group crossbars + N/NE/E inter-group
// butterflies.
// ---------------------------------------------------------------------------

pub(crate) struct HierNet {
    num_tiles: usize,
    cores_per_tile: usize,
    tiles_per_group: usize,
    /// Per tile: crossbar (cores × 4 ports) routing requests to L/N/NE/E.
    pub(crate) port_router: Vec<Fabric>,
    /// `[tile * 4 + port]`, port 0 = L, 1 = N, 2 = NE, 3 = E.
    pub(crate) master_req: RegFile<Request>,
    pub(crate) master_resp: RegFile<Response>,
    /// Per group: the 16×16 fully-connected local crossbars.
    pub(crate) local_req: Vec<Fabric>,
    pub(crate) local_resp: Vec<Fabric>,
    /// `[(group * 3 + dir) * tiles_per_group + row]`, dir 0 = N, 1 = NE,
    /// 2 = E: the register boundary at the group's master interface.
    pub(crate) boundary_req: RegFile<Request>,
    pub(crate) boundary_resp: RegFile<Response>,
    /// Per (group, dir): the 16×16 radix-4 butterflies.
    pub(crate) inter_req: Vec<Fabric>,
    pub(crate) inter_resp: Vec<Fabric>,
    /// Stage scratch reused every cycle: the offers presented and the
    /// register row, tile or lane each one comes from.
    offers: Vec<Offer>,
    srcs: Vec<usize>,
}

/// The tile port (0 = L, 1 = N, 2 = NE, 3 = E) linking groups `gs` and
/// `gd`.
fn group_port(gs: usize, gd: usize) -> usize {
    match gs ^ gd {
        0 => 0, // L
        2 => 1, // N
        3 => 2, // NE
        1 => 3, // E
        _ => unreachable!("four groups"),
    }
}

#[allow(clippy::needless_range_loop)] // `d` indexes three parallel tables
impl HierNet {
    fn new(config: &ClusterConfig) -> Self {
        let n = config.num_tiles;
        let tpg = config.tiles_per_group();
        let groups = config.num_groups();
        let mk_bfly = || Fabric::butterfly(tpg, config.radix).expect("validated");
        HierNet {
            num_tiles: n,
            cores_per_tile: config.cores_per_tile,
            tiles_per_group: tpg,
            port_router: (0..n)
                .map(|_| Fabric::crossbar(config.cores_per_tile, 4).expect("validated"))
                .collect(),
            master_req: RegFile::new(n * 4, 2),
            master_resp: RegFile::new(n * 4, 2),
            local_req: (0..groups)
                .map(|_| Fabric::crossbar(tpg, tpg).expect("validated"))
                .collect(),
            local_resp: (0..groups)
                .map(|_| Fabric::crossbar(tpg, tpg).expect("validated"))
                .collect(),
            boundary_req: RegFile::new(groups * 3 * tpg, 2),
            boundary_resp: RegFile::new(groups * 3 * tpg, 2),
            inter_req: (0..groups * 3).map(|_| mk_bfly()).collect(),
            inter_resp: (0..groups * 3).map(|_| mk_bfly()).collect(),
            offers: Vec::with_capacity(tpg.max(config.cores_per_tile)),
            srcs: Vec::with_capacity(tpg.max(config.cores_per_tile)),
        }
    }

    fn group_of(&self, tile: usize) -> usize {
        tile / self.tiles_per_group
    }

    /// The tile port (0 = L, 1 = N, 2 = NE, 3 = E) used to reach `dst` from
    /// `src`. Must not be called for `src == dst` (local-bank traffic skips
    /// the remote ports).
    pub fn port_for(&self, src: usize, dst: usize) -> usize {
        group_port(self.group_of(src), self.group_of(dst))
    }

    fn route_longhaul(&mut self, tiles: &mut [Tile], map: &AddressMap) {
        let tpg = self.tiles_per_group;
        let groups = self.num_tiles / tpg;
        let (offers, srcs) = (&mut self.offers, &mut self.srcs);
        // Stage: group boundary registers -> inter-group butterflies ->
        // partner-tile slave latches.
        if !self.boundary_req.is_idle() {
            for g in 0..groups {
                for d in 0..3 {
                    let partner = g ^ DIR_PARTNER_XOR[d];
                    let base = (g * 3 + d) * tpg;
                    offers.clear();
                    srcs.clear();
                    for i in 0..tpg {
                        if let Some(req) = self.boundary_req[base + i].head() {
                            let at = map.decode(req.addr).expect("validated");
                            offers.push(Offer {
                                input: i,
                                dest: at.tile as usize % tpg,
                            });
                            srcs.push(i);
                        }
                    }
                    if offers.is_empty() {
                        continue;
                    }
                    let granted = self.inter_req[g * 3 + d].resolve(offers, &mut |t| {
                        tiles[partner * tpg + t].slave_req[d + 1].is_none()
                    });
                    for (i, &gr) in granted.iter().enumerate() {
                        if gr {
                            let req = self.boundary_req.pop(base + srcs[i]).expect("head");
                            let at = map.decode(req.addr).expect("validated");
                            debug_assert_eq!(at.tile as usize / tpg, partner);
                            tiles[at.tile as usize].slave_req[d + 1] = Some(req);
                        }
                    }
                }
            }
        }
        if self.master_req.is_idle() {
            return;
        }
        // Stage: local L crossbars (within each group).
        for g in 0..groups {
            offers.clear();
            srcs.clear();
            for i in 0..tpg {
                let tile = g * tpg + i;
                if let Some(req) = self.master_req[tile * 4].head() {
                    let at = map.decode(req.addr).expect("validated");
                    debug_assert_eq!(at.tile as usize / tpg, g, "L port crosses groups");
                    offers.push(Offer {
                        input: i,
                        dest: at.tile as usize % tpg,
                    });
                    srcs.push(tile);
                }
            }
            if offers.is_empty() {
                continue;
            }
            let granted = self.local_req[g]
                .resolve(offers, &mut |t| tiles[g * tpg + t].slave_req[0].is_none());
            for (i, &gr) in granted.iter().enumerate() {
                if gr {
                    let req = self.master_req.pop(srcs[i] * 4).expect("head");
                    let at = map.decode(req.addr).expect("validated");
                    tiles[at.tile as usize].slave_req[0] = Some(req);
                }
            }
        }
        // Stage: tile master N/NE/E registers -> group boundary registers
        // (point-to-point wiring, no arbitration).
        for tile in 0..self.num_tiles {
            let g = self.group_of(tile);
            let i = tile % tpg;
            for d in 0..3 {
                let (src, dst) = (tile * 4 + 1 + d, (g * 3 + d) * tpg + i);
                if self.master_req[src].head().is_some() && self.boundary_req[dst].can_push() {
                    let req = self.master_req.pop(src).expect("head");
                    self.boundary_req.push(dst, req);
                }
            }
        }
    }

    fn route_ports(&mut self, latches: &mut [Option<Request>], map: &AddressMap) {
        let cpt = self.cores_per_tile;
        let tpg = self.tiles_per_group;
        let (offers, lanes) = (&mut self.offers, &mut self.srcs);
        for tile in 0..self.num_tiles {
            offers.clear();
            lanes.clear();
            for lane in 0..cpt {
                if let Some(req) = &latches[tile * cpt + lane] {
                    let at = map.decode(req.addr).expect("validated");
                    let dst = at.tile as usize;
                    if dst != tile {
                        offers.push(Offer {
                            input: lane,
                            dest: group_port(tile / tpg, dst / tpg),
                        });
                        lanes.push(lane);
                    }
                }
            }
            if offers.is_empty() {
                continue;
            }
            let master = &self.master_req;
            let granted = self.port_router[tile]
                .resolve(offers, &mut |port| master[tile * 4 + port].can_push());
            for (i, &g) in granted.iter().enumerate() {
                if g {
                    let req = latches[tile * cpt + lanes[i]].take().expect("lane had request");
                    self.master_req.push(tile * 4 + offers[i].dest, req);
                }
            }
        }
    }

    fn route_responses(&mut self, tiles: &mut [Tile], cores_per_tile: usize) {
        let tpg = self.tiles_per_group;
        let groups = self.num_tiles / tpg;
        let (offers, srcs) = (&mut self.offers, &mut self.srcs);
        // Stage: boundary response registers -> tile master response regs
        // (point-to-point).
        if !self.boundary_resp.is_idle() {
            for g in 0..groups {
                for d in 0..3 {
                    for i in 0..tpg {
                        let (src, dst) = ((g * 3 + d) * tpg + i, (g * tpg + i) * 4 + 1 + d);
                        if self.boundary_resp[src].head().is_some()
                            && self.master_resp[dst].can_push()
                        {
                            let resp = self.boundary_resp.pop(src).expect("head");
                            self.master_resp.push(dst, resp);
                        }
                    }
                }
            }
        }
        // Stage: partner-tile response-out latches -> inter-group response
        // butterflies -> boundary response registers.
        for g in 0..groups {
            for d in 0..3 {
                let partner = g ^ DIR_PARTNER_XOR[d];
                let base = (g * 3 + d) * tpg;
                offers.clear();
                srcs.clear();
                for i in 0..tpg {
                    let tile = partner * tpg + i;
                    if let Some(resp) = &tiles[tile].resp_out[d + 1] {
                        let dst_tile = resp.core as usize / cores_per_tile;
                        if dst_tile / tpg != g {
                            continue; // belongs to the other direction pairing
                        }
                        offers.push(Offer {
                            input: i,
                            dest: dst_tile % tpg,
                        });
                        srcs.push(tile);
                    }
                }
                if offers.is_empty() {
                    continue;
                }
                let boundary = &self.boundary_resp;
                let granted = self.inter_resp[g * 3 + d]
                    .resolve(offers, &mut |row| boundary[base + row].can_push());
                for (i, &gr) in granted.iter().enumerate() {
                    if gr {
                        let resp = tiles[srcs[i]].resp_out[d + 1].take().expect("latch");
                        let row = resp.core as usize / cores_per_tile % tpg;
                        self.boundary_resp.push(base + row, resp);
                    }
                }
            }
        }
        // Stage: local L response crossbars.
        for g in 0..groups {
            offers.clear();
            srcs.clear();
            for i in 0..tpg {
                let tile = g * tpg + i;
                if let Some(resp) = &tiles[tile].resp_out[0] {
                    offers.push(Offer {
                        input: i,
                        dest: resp.core as usize / cores_per_tile % tpg,
                    });
                    srcs.push(tile);
                }
            }
            if offers.is_empty() {
                continue;
            }
            let master = &self.master_resp;
            let granted = self.local_resp[g].resolve(offers, &mut |t| {
                master[(g * tpg + t) * 4].can_push()
            });
            for (i, &gr) in granted.iter().enumerate() {
                if gr {
                    let resp = tiles[srcs[i]].resp_out[0].take().expect("latch");
                    let dst = resp.core as usize / cores_per_tile;
                    self.master_resp.push(dst * 4, resp);
                }
            }
        }
    }

    fn deliver(&mut self, deliveries: &mut Vec<Response>) {
        deliver_heads(&mut self.master_resp, deliveries);
    }

    fn commit(&mut self) {
        self.master_req.commit();
        self.master_resp.commit();
        self.boundary_req.commit();
        self.boundary_resp.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, Topology};

    fn hier() -> HierNet {
        let Net::Hier(h) = Net::new(&ClusterConfig::paper(Topology::TopH)) else {
            panic!("expected the hierarchical network");
        };
        h
    }

    #[test]
    fn port_for_is_symmetric_and_total() {
        let h = hier();
        for src in 0..64 {
            for dst in 0..64 {
                if src == dst {
                    continue;
                }
                let port = h.port_for(src, dst);
                assert!(port < 4, "{src}->{dst} port {port}");
                // The response travels back on the same channel.
                assert_eq!(port, h.port_for(dst, src), "{src}<->{dst}");
            }
        }
    }

    #[test]
    fn port_for_matches_group_geometry() {
        let h = hier();
        // Same group -> L; partner groups by XOR pairing.
        assert_eq!(h.port_for(0, 15), 0); // L (both in group 0)
        assert_eq!(h.port_for(0, 32), 1); // N (group 0 <-> 2)
        assert_eq!(h.port_for(0, 63), 2); // NE (group 0 <-> 3)
        assert_eq!(h.port_for(0, 16), 3); // E (group 0 <-> 1)
        assert_eq!(h.port_for(17, 1), 3); // E seen from group 1
    }

    #[test]
    fn occupancy_is_zero_when_idle_and_bounded() {
        for topo in Topology::all() {
            let net = Net::new(&ClusterConfig::paper(topo));
            let (occupied, total) = net.occupancy();
            assert_eq!(occupied, 0, "{topo}: fresh network not empty");
            if topo == Topology::Ideal {
                assert_eq!(total, 0);
            } else {
                assert!(total > 0, "{topo}: no registers counted");
            }
        }
    }

    #[test]
    fn global_net_register_inventory() {
        // Top1: 64 master req + 64 master resp + 2 x 64 mid registers, all
        // depth 2.
        let net = Net::new(&ClusterConfig::paper(Topology::Top1));
        let (_, total) = net.occupancy();
        assert_eq!(total, 2 * (64 + 64 + 64 + 64));
        // Top4 has four of each port-plane.
        let net4 = Net::new(&ClusterConfig::paper(Topology::Top4));
        let (_, total4) = net4.occupancy();
        assert_eq!(total4, 4 * total);
    }

    #[test]
    fn hier_net_register_inventory() {
        // TopH: 64 tiles x 4 master req + 4 master resp, plus 4 groups x 3
        // directions x 16 boundary regs each way, depth 2 each.
        let net = Net::new(&ClusterConfig::paper(Topology::TopH));
        let (_, total) = net.occupancy();
        assert_eq!(total, 2 * (64 * 4 + 64 * 4 + 4 * 3 * 16 + 4 * 3 * 16));
    }
}
