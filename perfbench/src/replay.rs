//! Layer replay: host time per component layer for one cell.
//!
//! The simulator interleaves every layer inside one event loop, so the
//! benchmark cannot time a layer inside `System::run` without changing
//! the program. Instead it runs the cell through `System` (timing
//! `System::new` and `System::run`), then regenerates the cell's
//! instruction stream with the public generator, config and seed and
//! feeds its memory slices, in order, through each component in turn:
//! the per-SM L1s, the crossbar and L2, the planner for the cell's mode,
//! the DRAM and XPoint devices, and the channel. Every component is
//! built from the same `SystemConfig` fields `System::new` sizes it
//! from. Each stage is one timed loop over all of the cell's calls, so
//! the clock is read twice per stage rather than twice per call.
//!
//! The replay approximates the simulator's order and timing: a warp
//! resumes after a fixed latency derived from the cell's own report,
//! with no MSHR merging and no issue contention. Its L1 and L2 hit rates
//! are reported next to the report's, so the replayed traffic is checked
//! rather than assumed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ohm_core::checkpoint::CellSpec;
use ohm_core::{SimReport, System};
use ohm_hetero::{
    PlanarConfig, PlanarMapping, Platform, TwoLevelCache, TwoLevelConfig, TwoLevelOutcome,
};
use ohm_mem::xpoint_ctrl::XpCtrlConfig;
use ohm_mem::{DramConfig, DramModule, MemKind, XPointConfig, XPointController};
use ohm_optic::{
    DualRouteMode, ElectricalChannel, OperationalMode, OpticalChannel, OpticalChannelConfig,
    TrafficClass,
};
use ohm_sim::{Addr, EventQueue, Ps};
use ohm_sm::{Cache, InstructionStream, Interconnect};
use ohm_workloads::{KernelWorkload, PhasedWorkload};

use crate::spans::Tracer;

/// Command/address bits ahead of each channel burst, as in the simulator.
const CMD_BITS: u64 = 64;
const DEV_DRAM: usize = 0;
const DEV_XPOINT: usize = 1;

/// Host time and calls spent in one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub ns: u64,
    pub calls: u64,
}

impl Cost {
    fn add(&mut self, d: Duration, calls: u64) {
        self.ns += d.as_nanos() as u64;
        self.calls += calls;
    }

    fn merge(&mut self, o: Cost) {
        self.ns += o.ns;
        self.calls += o.calls;
    }

    /// Mean nanoseconds per call (0 when the layer was not called).
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Replayed host cost of every component layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCosts {
    pub slices: Cost,
    pub events: Cost,
    pub l1: Cost,
    pub xbar: Cost,
    pub l2: Cost,
    pub planar: Cost,
    pub two_level: Cost,
    pub dram: Cost,
    pub xp_read: Cost,
    pub xp_write: Cost,
    pub optic: Cost,
    pub l1_hits: u64,
    pub l2_hits: u64,
}

impl LayerCosts {
    pub fn merge(&mut self, o: &LayerCosts) {
        for (a, b) in self.costs_mut().into_iter().zip(o.costs()) {
            a.merge(b);
        }
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
    }

    fn costs(&self) -> [Cost; 11] {
        [
            self.slices,
            self.events,
            self.l1,
            self.xbar,
            self.l2,
            self.planar,
            self.two_level,
            self.dram,
            self.xp_read,
            self.xp_write,
            self.optic,
        ]
    }

    fn costs_mut(&mut self) -> [&mut Cost; 11] {
        [
            &mut self.slices,
            &mut self.events,
            &mut self.l1,
            &mut self.xbar,
            &mut self.l2,
            &mut self.planar,
            &mut self.two_level,
            &mut self.dram,
            &mut self.xp_read,
            &mut self.xp_write,
            &mut self.optic,
        ]
    }

    /// Replayed L1 hits per L1 lookup.
    pub fn l1_hit_rate(&self) -> f64 {
        self.l1_hits as f64 / self.l1.calls.max(1) as f64
    }

    /// Replayed L2 hits per L2 lookup.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2_hits as f64 / self.l2.calls.max(1) as f64
    }

    /// Host time summed over every replayed layer.
    pub fn total_ns(&self) -> u64 {
        self.costs().iter().map(|c| c.ns).sum()
    }
}

/// Everything measured for one replayed cell.
pub struct CellMeasure {
    pub system_new: Duration,
    pub system_run: Duration,
    pub state_bytes: usize,
    /// The plain run's report.
    pub report: SimReport,
    /// A second run with observability on, for the stage statistics.
    pub observed: SimReport,
    pub costs: LayerCosts,
}

/// One warp memory access in issue order.
#[derive(Clone, Copy)]
struct Access {
    t: Ps,
    sm: u32,
    line: Addr,
    load: bool,
}

/// One device operation the planner produced.
#[derive(Clone, Copy)]
struct DevOp {
    t: Ps,
    mc: usize,
    addr: Addr,
    kind: MemKind,
    /// Lines moved: 1 for a demand line, a page's worth for a swap leg.
    lines: u64,
    /// DRAM (`true`) or XPoint.
    dram: bool,
    /// Whether the channel carries this op as demand traffic.
    demand: bool,
}

/// Data or memory-route channel bookings.
#[derive(Clone, Copy)]
enum Xfer {
    Data {
        t: Ps,
        mc: usize,
        bits: u64,
        class: TrafficClass,
        dev: usize,
    },
    Route {
        t: Ps,
        mc: usize,
        bits: u64,
    },
}

enum Channel {
    Optical(OpticalChannel),
    Electrical(ElectricalChannel),
}

/// The instruction stream `System::new` builds for this cell.
fn stream_of(cell: &CellSpec) -> Box<dyn InstructionStream> {
    let cfg = &cell.config;
    match &cfg.phases {
        Some(plan) => Box::new(PhasedWorkload::new(
            plan.clone(),
            cfg.gpu.sms,
            cfg.gpu.sm.warps,
            cfg.insts_per_warp,
            cell.workload.footprint_bytes,
            cfg.seed,
        )),
        None => Box::new(KernelWorkload::new(
            cell.workload,
            cfg.gpu.sms,
            cfg.gpu.sm.warps,
            cfg.insts_per_warp,
            cfg.seed,
        )),
    }
}

/// Runs `cell` through `System`, then replays it layer by layer.
///
/// # Panics
///
/// On a non-heterogeneous platform: Origin and Oracle have no planner.
pub fn measure(
    cell: &CellSpec,
    tracer: &mut Tracer,
    parent: Option<usize>,
    run: u64,
) -> CellMeasure {
    assert!(
        cell.platform.is_heterogeneous(),
        "layer replay needs a planner"
    );
    let cfg = &cell.config;
    let (mut sys, system_new) = tracer.time("core.system_new", parent, run, || {
        System::new(cfg, cell.platform, cell.mode, &cell.workload)
    });
    let (report, system_run) = tracer.time("core.system_run", parent, run, || sys.run());
    let state_bytes = sys.memory_state_bytes();
    drop(sys);
    let (observed, _) = tracer.time("core.system_run_observed", parent, run, || {
        let mut sys = System::new(cfg, cell.platform, cell.mode, &cell.workload);
        sys.enable_observability();
        sys.run()
    });
    let costs = replay(cell, &report, tracer, parent, run);
    CellMeasure {
        system_new,
        system_run,
        state_bytes,
        report,
        observed,
        costs,
    }
}

fn replay(
    cell: &CellSpec,
    report: &SimReport,
    tracer: &mut Tracer,
    parent: Option<usize>,
    run: u64,
) -> LayerCosts {
    let cfg = &cell.config;
    let mut costs = LayerCosts::default();
    let sms = cfg.gpu.sms;
    let warps = cfg.gpu.sm.warps;
    let period = cfg.gpu.sm.freq.period();
    let line_bytes = cfg.line_bytes;

    // Schedule: warps resume after a latency taken from the cell's own
    // report, which keeps the access order close to the simulator's.
    let miss_ns =
        cfg.gpu.l2_hit_latency.as_ns_f64() + (1.0 - report.l2_hit_rate) * report.avg_mem_latency_ns;
    let load_lat = cfg.gpu.l1_hit_latency + Ps::from_ns_f64((1.0 - report.l1_hit_rate) * miss_ns);
    let mut stream = stream_of(cell);
    let mut queue: EventQueue<(u32, u32)> = EventQueue::new();
    for sm in 0..sms {
        for w in 0..warps {
            queue.push(Ps::ZERO, (sm as u32, w as u32));
        }
    }
    let mut lanes: Vec<(u32, u32)> = Vec::new();
    let mut resumes: Vec<Option<Ps>> = Vec::new();
    let mut accesses: Vec<Access> = Vec::new();
    while let Some((t, (sm, w))) = queue.pop() {
        lanes.push((sm, w));
        let next = stream.next_slice(sm as usize, w as usize).map(|s| {
            let issue = t + period * s.compute_insts;
            match s.access {
                None => issue,
                Some((addr, kind)) => {
                    let load = kind.is_load();
                    accesses.push(Access {
                        t: issue,
                        sm,
                        line: addr.align_down(line_bytes),
                        load,
                    });
                    issue + if load { load_lat } else { period }
                }
            }
        });
        if let Some(at) = next {
            queue.push(at, (sm, w));
        }
        resumes.push(next);
    }
    drop(stream);

    // ohm-workloads: the same lane sequence on a fresh generator.
    let mut stream = stream_of(cell);
    let ((), d) = tracer.time("workloads.next_slice", parent, run, || {
        for &(sm, w) in &lanes {
            black_box(stream.next_slice(sm as usize, w as usize));
        }
    });
    costs.slices.add(d, lanes.len() as u64);

    // ohm-sim: the same pushes and pops on a fresh queue.
    let ((), d) = tracer.time("sim.event_queue", parent, run, || {
        let mut q: EventQueue<(u32, u32)> = EventQueue::new();
        for sm in 0..sms {
            for w in 0..warps {
                q.push(Ps::ZERO, (sm as u32, w as u32));
            }
        }
        for &next in &resumes {
            let (_, lane) = q.pop().expect("replayed pop");
            if let Some(at) = next {
                q.push(at, lane);
            }
        }
        black_box(q.len());
    });
    costs.events.add(d, resumes.len() as u64);

    // ohm-sm: L1 lookups for loads (stores bypass L1, as in the simulator).
    let mut l1s: Vec<Cache> = (0..sms).map(|_| Cache::new(cfg.gpu.l1)).collect();
    let mut to_l2: Vec<u32> = Vec::with_capacity(accesses.len());
    let mut loads = 0u64;
    let ((), d) = tracer.time("sm.l1", parent, run, || {
        for (i, a) in accesses.iter().enumerate() {
            if a.load {
                loads += 1;
                if l1s[a.sm as usize].access(a.line, false).hit {
                    continue;
                }
            }
            to_l2.push(i as u32);
        }
    });
    costs.l1.add(d, loads);
    costs.l1_hits = loads - to_l2.iter().filter(|&&i| accesses[i as usize].load).count() as u64;
    drop(l1s);

    // Crossbar request leg, then L2.
    let controllers = cfg.memory.controllers as u64;
    let il = cfg.memory.interleave_bytes;
    let mc_of = |a: Addr| (a.block_index(il) % controllers) as usize;
    let mut xbar = Interconnect::new(cfg.gpu.xbar);
    let mut at_l2: Vec<Ps> = Vec::with_capacity(to_l2.len());
    let ((), d) = tracer.time("sm.xbar", parent, run, || {
        for &i in &to_l2 {
            let a = accesses[i as usize];
            at_l2.push(xbar.traverse(a.t + cfg.gpu.l1_hit_latency, mc_of(a.line), CMD_BITS / 8));
        }
    });
    costs.xbar.add(d, to_l2.len() as u64);

    let mut l2 = Cache::new(cfg.gpu.l2);
    let mut lookups = Vec::with_capacity(to_l2.len());
    let ((), d) = tracer.time("sm.l2", parent, run, || {
        for &i in &to_l2 {
            let a = accesses[i as usize];
            lookups.push(l2.access(a.line, !a.load));
        }
    });
    costs.l2.add(d, to_l2.len() as u64);
    costs.l2_hits = lookups.iter().filter(|l| l.hit).count() as u64;
    drop(l2);

    // Crossbar data leg for every load served at or below L2.
    let ((), d) = tracer.time("sm.xbar", parent, run, || {
        for (&i, &t) in to_l2.iter().zip(&at_l2) {
            let a = accesses[i as usize];
            if a.load {
                black_box(xbar.traverse(t + cfg.gpu.l2_hit_latency, mc_of(a.line), line_bytes));
            }
        }
    });
    let data_legs = to_l2.iter().filter(|&&i| accesses[i as usize].load).count() as u64;
    costs.xbar.add(d, data_legs);

    // Memory requests: L2 misses plus dirty victims, in order.
    let mut reqs: Vec<(Ps, Addr, MemKind)> = Vec::new();
    for ((&i, &t), lookup) in to_l2.iter().zip(&at_l2).zip(&lookups) {
        let a = accesses[i as usize];
        let done = t + cfg.gpu.l2_hit_latency;
        if let Some(victim) = lookup.writeback {
            reqs.push((done, victim, MemKind::Write));
        }
        if !lookup.hit {
            let kind = if a.load {
                MemKind::Read
            } else {
                MemKind::Write
            };
            reqs.push((done, a.line, kind));
        }
    }
    drop(accesses);

    let plan = plan_requests(cell, &reqs, &mut costs, tracer, parent, run);
    let ready = run_devices(cell, &plan.ops, &mut costs, tracer, parent, run);
    run_channel(cell, &plan, &ready, &mut costs, tracer, parent, run);
    costs
}

/// Planner output: device operations plus the migration traffic.
struct Plan {
    ops: Vec<DevOp>,
    migration: Vec<Xfer>,
}

/// Per-controller capacities `System::new` gives a heterogeneous
/// platform in this mode: `(dram_bytes, xpoint_bytes, pages_per_mc)`.
fn capacities(cell: &CellSpec) -> (u64, u64, u64) {
    let cfg = &cell.config;
    let page = cfg.memory.page_bytes;
    let footprint_pages = (cell.workload.footprint_bytes / page).max(1);
    let pages_per_mc = footprint_pages.div_ceil(cfg.memory.controllers as u64);
    match cell.mode {
        OperationalMode::Planar => {
            let groups = pages_per_mc.div_ceil(cfg.memory.planar_ratio as u64 + 1);
            (
                groups * page,
                groups * cfg.memory.planar_ratio as u64 * page,
                pages_per_mc,
            )
        }
        OperationalMode::TwoLevel => {
            let span = pages_per_mc * page;
            let dram = (span / (cfg.memory.two_level_ratio as u64 + 1))
                .next_power_of_two()
                .max(cfg.line_bytes);
            (dram, span, pages_per_mc)
        }
    }
}

/// ohm-hetero: routes every request through the mode's planner.
fn plan_requests(
    cell: &CellSpec,
    reqs: &[(Ps, Addr, MemKind)],
    costs: &mut LayerCosts,
    tracer: &mut Tracer,
    parent: Option<usize>,
    run: u64,
) -> Plan {
    let cfg = &cell.config;
    let controllers = cfg.memory.controllers as u64;
    let il = cfg.memory.interleave_bytes;
    let page = cfg.memory.page_bytes;
    let line = cfg.line_bytes;
    let caps = cell.platform.migration_caps();
    let (dram_local, xp_local, pages_per_mc) = capacities(cell);
    // Controller and controller-local address under the interleaving.
    let split = |a: Addr| {
        let block = a.block_index(il);
        let local = Addr::from_block(block / controllers, il).offset(a.offset_in(il));
        ((block % controllers) as usize, local)
    };
    let mut ops: Vec<DevOp> = Vec::with_capacity(reqs.len() * 2);
    let mut migration: Vec<Xfer> = Vec::new();

    match cell.mode {
        OperationalMode::Planar => {
            let ratio = cfg.memory.planar_ratio as u64;
            let mut maps: Vec<PlanarMapping> = (0..controllers)
                .map(|_| {
                    PlanarMapping::new(PlanarConfig {
                        page_bytes: page,
                        ratio: cfg.memory.planar_ratio,
                        hot_threshold: cfg.memory.hot_threshold,
                        capacity_bytes: pages_per_mc.div_ceil(ratio + 1) * (ratio + 1) * page,
                    })
                })
                .collect();
            let mut locs = Vec::with_capacity(reqs.len());
            let mut swaps = Vec::new();
            let ((), d) = tracer.time("hetero.planar", parent, run, || {
                for (i, &(_, addr, _)) in reqs.iter().enumerate() {
                    let (mc, la) = split(addr);
                    if let Some(req) = maps[mc].record_access(la) {
                        maps[mc].commit_swap(&req);
                        swaps.push((i, req));
                    }
                    locs.push(maps[mc].lookup(la));
                }
            });
            costs.planar.add(d, reqs.len() as u64);
            let mut swaps = swaps.into_iter().peekable();
            for (i, (&(t, addr, kind), loc)) in reqs.iter().zip(locs).enumerate() {
                let (mc, _) = split(addr);
                while let Some((_, req)) = swaps.next_if(|(at, _)| *at == i) {
                    let lines = req.page_bytes / line;
                    let page_bits = req.page_bytes * 8;
                    for (addr, kind, dram) in [
                        (req.xpoint_addr, MemKind::Read, false),
                        (req.dram_addr, MemKind::Read, true),
                        (req.dram_addr, MemKind::Write, true),
                        (req.xpoint_addr, MemKind::Write, false),
                    ] {
                        ops.push(DevOp::migration(t, mc, addr, kind, dram, lines));
                    }
                    let data = |dev| Xfer::Data {
                        t,
                        mc,
                        bits: page_bits,
                        class: TrafficClass::Migration,
                        dev,
                    };
                    // The legs each platform's swap puts on the channel.
                    if caps.swap {
                        migration.push(Xfer::Data {
                            t,
                            mc,
                            bits: ohm_mem::SwapCmd::METADATA_BITS,
                            class: TrafficClass::Migration,
                            dev: DEV_XPOINT,
                        });
                        migration.push(Xfer::Route {
                            t,
                            mc,
                            bits: page_bits,
                        });
                        migration.push(Xfer::Route {
                            t,
                            mc,
                            bits: page_bits,
                        });
                    } else if caps.auto_rw {
                        migration.extend([data(DEV_XPOINT), data(DEV_DRAM), data(DEV_DRAM)]);
                    } else {
                        migration.extend([
                            data(DEV_XPOINT),
                            data(DEV_DRAM),
                            data(DEV_DRAM),
                            data(DEV_XPOINT),
                        ]);
                    }
                }
                ops.push(DevOp::demand(t, mc, loc.addr(), kind, loc.is_dram()));
            }
        }
        OperationalMode::TwoLevel => {
            let span = xp_local.max(page);
            let mut caches: Vec<TwoLevelCache> = (0..controllers)
                .map(|_| {
                    TwoLevelCache::new(TwoLevelConfig {
                        dram_bytes: dram_local.max(line),
                        xpoint_bytes: span,
                        line_bytes: line,
                    })
                })
                .collect();
            let mut outcomes = Vec::with_capacity(reqs.len());
            let ((), d) = tracer.time("hetero.two_level", parent, run, || {
                for &(_, addr, kind) in reqs {
                    let (mc, la) = split(addr);
                    let la = Addr::new(la.get() % span);
                    outcomes.push(caches[mc].access(la, matches!(kind, MemKind::Write)));
                }
            });
            costs.two_level.add(d, reqs.len() as u64);
            for (&(t, addr, kind), outcome) in reqs.iter().zip(outcomes) {
                let (mc, _) = split(addr);
                match outcome {
                    TwoLevelOutcome::Hit { dram_addr } => {
                        ops.push(DevOp::demand(t, mc, dram_addr, kind, true));
                    }
                    TwoLevelOutcome::Bypass { xpoint_addr } => {
                        ops.push(DevOp::demand(t, mc, xpoint_addr, kind, false));
                    }
                    TwoLevelOutcome::Miss {
                        dram_addr,
                        xpoint_addr,
                        evict_to,
                    } => {
                        // Tag read, line fetch, optional dirty eviction,
                        // then the DRAM fill.
                        ops.push(DevOp::demand(t, mc, dram_addr, MemKind::Read, true));
                        ops.push(DevOp::demand(t, mc, xpoint_addr, MemKind::Read, false));
                        if let Some(victim) = evict_to {
                            ops.push(DevOp::migration(t, mc, victim, MemKind::Write, false, 1));
                            if !caps.auto_rw {
                                migration.push(Xfer::Data {
                                    t,
                                    mc,
                                    bits: CMD_BITS + line * 8,
                                    class: TrafficClass::Migration,
                                    dev: DEV_XPOINT,
                                });
                            }
                        }
                        ops.push(DevOp::migration(t, mc, dram_addr, MemKind::Write, true, 1));
                        migration.push(if caps.reverse_write {
                            Xfer::Route {
                                t,
                                mc,
                                bits: line * 8,
                            }
                        } else {
                            Xfer::Data {
                                t,
                                mc,
                                bits: CMD_BITS + line * 8,
                                class: TrafficClass::Migration,
                                dev: DEV_DRAM,
                            }
                        });
                    }
                }
            }
        }
    }
    Plan { ops, migration }
}

impl DevOp {
    fn demand(t: Ps, mc: usize, addr: Addr, kind: MemKind, dram: bool) -> DevOp {
        DevOp {
            t,
            mc,
            addr,
            kind,
            lines: 1,
            dram,
            demand: true,
        }
    }

    fn migration(t: Ps, mc: usize, addr: Addr, kind: MemKind, dram: bool, lines: u64) -> DevOp {
        DevOp {
            t,
            mc,
            addr,
            kind,
            lines,
            dram,
            demand: false,
        }
    }
}

/// ohm-mem: books every op on its controller's DRAM module or XPoint
/// controller, returning each op's completion time.
fn run_devices(
    cell: &CellSpec,
    ops: &[DevOp],
    costs: &mut LayerCosts,
    tracer: &mut Tracer,
    parent: Option<usize>,
    run: u64,
) -> Vec<Ps> {
    let cfg = &cell.config;
    let page = cfg.memory.page_bytes;
    let line = cfg.line_bytes;
    let (dram_local, xp_local, _) = capacities(cell);
    let dram_cfg = DramConfig {
        timing: cfg.memory.dram_timing,
        banks: cfg.memory.dram_banks,
        ranks: cfg.memory.dram_ranks,
        row_bytes: 2048,
        capacity_bytes: dram_local.max(2048),
        refresh_enabled: true,
    };
    let xp_cfg = XpCtrlConfig {
        media: XPointConfig {
            capacity_bytes: xp_local.max(page),
            line_bytes: line,
            ..cfg.memory.xpoint.media
        },
        ..cfg.memory.xpoint
    };
    let controllers = cfg.memory.controllers;
    let mut drams: Vec<DramModule> = (0..controllers)
        .map(|_| DramModule::new(dram_cfg))
        .collect();
    let mut xps: Vec<XPointController> = (0..controllers)
        .map(|_| XPointController::new(xp_cfg))
        .collect();
    let mut ready = vec![Ps::ZERO; ops.len()];

    let dram_ops: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].dram).collect();
    let ((), d) = tracer.time("mem.dram", parent, run, || {
        for &i in &dram_ops {
            let op = ops[i];
            let mut done = op.t;
            for l in 0..op.lines {
                let acc = drams[op.mc].access(op.t, op.addr.offset(l * line), op.kind);
                done = done.max(acc.data_at);
            }
            ready[i] = done;
        }
    });
    costs
        .dram
        .add(d, dram_ops.iter().map(|&i| ops[i].lines).sum::<u64>());

    // XPoint reads and writes are timed in runs of one kind, so the
    // two per-call costs stay apart without reordering the controller.
    let xp_ops: Vec<usize> = (0..ops.len()).filter(|&i| !ops[i].dram).collect();
    let (mut read, mut write) = (Duration::ZERO, Duration::ZERO);
    let mut reads = 0u64;
    tracer.time("mem.xpoint", parent, run, || {
        for run_ops in xp_ops.chunk_by(|&a, &b| {
            matches!(ops[a].kind, MemKind::Read) == matches!(ops[b].kind, MemKind::Read)
        }) {
            let is_read = matches!(ops[run_ops[0]].kind, MemKind::Read);
            let t = Instant::now();
            for &i in run_ops {
                let op = ops[i];
                let xp = &mut xps[op.mc];
                let c = match (is_read, op.lines) {
                    (true, 1) => xp.read(op.t, op.addr),
                    (false, 1) => xp.write(op.t, op.addr),
                    (true, n) => xp.read_page(op.t, op.addr, n),
                    (false, n) => xp.write_page(op.t, op.addr, n),
                };
                ready[i] = c.ready_at;
            }
            if is_read {
                read += t.elapsed();
                reads += run_ops.len() as u64;
            } else {
                write += t.elapsed();
            }
        }
    });
    costs.xp_read.add(read, reads);
    costs.xp_write.add(write, xp_ops.len() as u64 - reads);
    ready
}

/// ohm-optic: the demand command and data legs plus the migration
/// traffic, on the platform's optical or electrical channel.
fn run_channel(
    cell: &CellSpec,
    plan: &Plan,
    ready: &[Ps],
    costs: &mut LayerCosts,
    tracer: &mut Tracer,
    parent: Option<usize>,
    run: u64,
) {
    let cfg = &cell.config;
    let line_bits = cfg.line_bytes * 8;
    let caps = cell.platform.migration_caps();
    let mut channel = match cell.platform {
        Platform::Origin | Platform::Hetero => {
            Channel::Electrical(ElectricalChannel::new(cfg.electrical))
        }
        _ => {
            let dual_route = if caps.swap || caps.reverse_write || caps.auto_rw {
                if caps.wom_coding && cell.mode == OperationalMode::Planar {
                    DualRouteMode::Wom
                } else {
                    DualRouteMode::HalfCoupled
                }
            } else {
                DualRouteMode::Serialized
            };
            Channel::Optical(OpticalChannel::new(OpticalChannelConfig {
                dual_route,
                ..cfg.optical
            }))
        }
    };
    let mut xfers: Vec<Xfer> = Vec::with_capacity(plan.ops.len() * 2 + plan.migration.len());
    for (op, &done) in plan.ops.iter().zip(ready).filter(|(op, _)| op.demand) {
        let dev = if op.dram { DEV_DRAM } else { DEV_XPOINT };
        let data = |t, bits| Xfer::Data {
            t,
            mc: op.mc,
            bits,
            class: TrafficClass::Demand,
            dev,
        };
        match op.kind {
            MemKind::Read => xfers.extend([data(op.t, CMD_BITS), data(done, line_bits)]),
            MemKind::Write => xfers.push(data(op.t, CMD_BITS + line_bits)),
        }
    }
    xfers.extend_from_slice(&plan.migration);
    let ((), d) = tracer.time("optic.transfer", parent, run, || {
        for &x in &xfers {
            let span = match (&mut channel, x) {
                (
                    Channel::Optical(c),
                    Xfer::Data {
                        t,
                        mc,
                        bits,
                        class,
                        dev,
                    },
                ) => c.transfer(t, mc, bits, class, dev),
                (Channel::Optical(c), Xfer::Route { t, mc, bits }) => {
                    c.memory_route_transfer(t, mc, bits)
                }
                (
                    Channel::Electrical(c),
                    Xfer::Data {
                        t, mc, bits, class, ..
                    },
                ) => c.transfer(t, mc, bits, class),
                (Channel::Electrical(_), Xfer::Route { .. }) => {
                    unreachable!("electrical platforms never use the memory route")
                }
            };
            black_box(span);
        }
    });
    costs.optic.add(d, xfers.len() as u64);
}
