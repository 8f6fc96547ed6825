//! The two simulator workloads: the paper's planar Table II grid and
//! the 16 GiB LLM two-level cells.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ohm_core::checkpoint::{report_digest, CellSpec};
use ohm_core::{GridRun, OperationalMode, Platform, SimReport, System, SystemConfig};
use ohm_sim::SplitMix64;
use ohm_workloads::{all_workloads, workload_by_name, PhasePlan, WorkloadSpec};

use crate::replay::{self, LayerCosts};
use crate::rss::RssSampler;
use crate::spans::Tracer;
use crate::stats::geomean;
use crate::{Ctx, Outcome};

/// The paper's headline: Ohm-BW over Origin and over Ohm-base (geomean
/// IPC over the Table II applications).
const PAPER_BW_OVER_ORIGIN: f64 = 2.81;
const PAPER_BW_OVER_BASE: f64 = 1.27;

/// Largest tolerated |replayed − simulated| L1 or L2 hit rate.
const REPLAY_HIT_RATE_TOLERANCE: f64 = 0.05;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;

const GIB_16: u64 = 16 << 30;

const HETEROGENEOUS: [Platform; 5] = [
    Platform::Hetero,
    Platform::OhmBase,
    Platform::AutoRw,
    Platform::OhmWom,
    Platform::OhmBw,
];

/// How a workload executes its cells.
#[derive(Clone, Copy, PartialEq)]
enum Exec {
    /// One `GridRun` over every cell, on all cores.
    Grid,
    /// `Run::execute` per cell, one at a time.
    Serial,
}

struct Workload {
    mode: OperationalMode,
    platforms: &'static [Platform],
    exec: Exec,
    /// Cells the traced run replays layer by layer.
    replay: &'static [(Platform, &'static str)],
    build: fn(&Ctx) -> Inputs,
}

/// A workload's validated inputs; `cells` is row-major
/// `[workload][platform]`, the order `GridRun` reports rows in.
struct Inputs {
    cfg: SystemConfig,
    specs: Vec<WorkloadSpec>,
    cells: Vec<CellSpec>,
}

fn inputs(cfg: SystemConfig, specs: Vec<WorkloadSpec>, w: &Workload) -> Inputs {
    for s in &specs {
        if let Err(e) = cfg.validate_footprint(s.footprint_bytes) {
            panic!("{}: {e}", s.name);
        }
    }
    let cells = specs
        .iter()
        .flat_map(|s| {
            w.platforms
                .iter()
                .map(|&p| CellSpec::new(cfg.clone(), p, w.mode, *s))
        })
        .collect();
    Inputs { cfg, specs, cells }
}

const PLANAR: Workload = Workload {
    mode: OperationalMode::Planar,
    platforms: &Platform::ALL,
    exec: Exec::Grid,
    // Low-APKI `lud` and high-APKI `pagerank`, each on the slowest and
    // the fastest optical platform.
    replay: &[
        (Platform::OhmBase, "lud"),
        (Platform::OhmBw, "lud"),
        (Platform::OhmBase, "pagerank"),
        (Platform::OhmBw, "pagerank"),
    ],
    build: |ctx| {
        let base = if ctx.smoke {
            SystemConfig::quick_test()
        } else {
            SystemConfig::evaluation()
        };
        let cfg = base
            .to_builder()
            .seed(ctx.seed)
            .build()
            .expect("valid config");
        let footprint = if ctx.smoke {
            64 << 20
        } else {
            SystemConfig::EVALUATION_FOOTPRINT
        };
        let specs = all_workloads()
            .into_iter()
            .map(|w| w.with_footprint(footprint))
            .collect();
        inputs(cfg, specs, &PLANAR)
    },
};

const LLM: Workload = Workload {
    mode: OperationalMode::TwoLevel,
    platforms: &HETEROGENEOUS,
    exec: Exec::Serial,
    replay: &[(Platform::Hetero, "gctopo"), (Platform::OhmBw, "gctopo")],
    build: |ctx| {
        let base = if ctx.smoke {
            SystemConfig::quick_test()
        } else {
            SystemConfig::evaluation()
        };
        let cfg = base
            .to_builder()
            .seed(ctx.seed)
            .phases(Some(PhasePlan::llm_inference()))
            .build()
            .expect("valid phased config");
        // The spec only names the cell and sizes its footprint; the
        // phase plan generates the traffic.
        let spec = workload_by_name("gctopo")
            .expect("Table II workload")
            .with_footprint(GIB_16);
        inputs(cfg, vec![spec], &LLM)
    },
};

pub fn planar_table2(ctx: &Ctx) -> Outcome {
    run(ctx, &PLANAR)
}

pub fn llm_twolevel_16g(ctx: &Ctx) -> Outcome {
    run(ctx, &LLM)
}

/// What the measured passes produced.
#[derive(Default)]
struct Passes {
    /// Wall time of each pass (s).
    walls: Vec<f64>,
    /// Per-request latency (ms): a grid pass, or one cell.
    latencies: Vec<f64>,
    cells: u64,
    instructions: u64,
    /// The first pass's reports, in cell order.
    reports: Vec<SimReport>,
    /// Digest over each pass's reports.
    digests: Vec<u64>,
    /// `GridRun` wall (s) and its idle share, per pass.
    grid_s: Vec<f64>,
    idle: Vec<f64>,
}

impl Passes {
    fn wall(&self) -> f64 {
        self.walls.iter().sum()
    }
}

/// This process's user + system CPU time, in seconds.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

fn check_report(out: &mut Outcome, cfg: &SystemConfig, r: &SimReport) {
    let expected = (cfg.gpu.sms * cfg.gpu.sm.warps) as u64 * cfg.insts_per_warp;
    out.check(
        r.instructions == expected
            && r.ipc.is_finite()
            && r.ipc > 0.0
            && r.avg_mem_latency_ns.is_finite()
            && r.avg_mem_latency_ns > 0.0,
        || {
            format!(
                "{} {}: instructions {} (want {expected}), ipc {}, latency {} ns",
                r.platform.name(),
                r.workload,
                r.instructions,
                r.ipc,
                r.avg_mem_latency_ns
            )
        },
    );
}

/// Runs passes over every cell until `budget` would be exceeded (at
/// least one pass).
fn passes(
    ctx: &Ctx,
    w: &Workload,
    inp: &Inputs,
    tracer: &mut Tracer,
    budget: Duration,
    out: &mut Outcome,
) -> Passes {
    let mut p = Passes::default();
    let start = Instant::now();
    loop {
        let pass = p.walls.len() as u64;
        let open = tracer.begin("pass", None, pass);
        let reports: Vec<SimReport> = match w.exec {
            Exec::Grid => {
                let cpu0 = process_cpu_s();
                let (res, d) = tracer.time("runner.grid_run", open.id(), pass, || {
                    GridRun::new()
                        .threads(ctx.nproc)
                        .run(&inp.cfg, w.platforms, w.mode, &inp.specs)
                });
                let cpu = process_cpu_s() - cpu0;
                let wall = d.as_secs_f64();
                p.grid_s.push(wall);
                p.idle.push(1.0 - cpu / (ctx.nproc as f64 * wall));
                p.latencies.push(wall * 1e3);
                for e in res.failures() {
                    out.check(false, || format!("grid cell {} failed: {e:?}", e.index));
                }
                res.rows.into_iter().flatten().collect()
            }
            Exec::Serial => inp
                .cells
                .iter()
                .map(|cell| {
                    let (r, d) =
                        tracer.time("core.run_execute", open.id(), pass, || cell.run().execute());
                    p.latencies.push(d.as_secs_f64() * 1e3);
                    r
                })
                .collect(),
        };
        let wall = tracer.end(open).as_secs_f64();
        for r in &reports {
            check_report(out, &inp.cfg, r);
            p.instructions += r.instructions;
        }
        p.cells += reports.len() as u64;
        p.walls.push(wall);
        p.digests
            .push(reports.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, r| {
                (h ^ report_digest(r)).wrapping_mul(0x0000_0100_0000_01b3)
            }));
        if p.reports.is_empty() {
            p.reports = reports;
        }
        if start.elapsed().as_secs_f64() + wall > budget.as_secs_f64() {
            return p;
        }
    }
}

fn run(ctx: &Ctx, w: &Workload) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: build and validate the inputs, then construct every
    // cell's `System` (the state each simulation starts from) without
    // running it.
    let reps = if ctx.smoke { 2 } else { SETUP_REPS };
    let mut setup = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        let t = Instant::now();
        let inp = (w.build)(ctx);
        for c in &inp.cells {
            black_box(System::new(&c.config, c.platform, c.mode, &c.workload));
        }
        setup.push(t.elapsed().as_secs_f64());
        built = Some(inp);
    }
    let inp = built.expect("at least one set-up");

    // One sampled cell, executed before timing: it warms the process up
    // (the first cell of a process runs up to half again as long), and
    // the measured passes must reproduce its report.
    let i = SplitMix64::new(ctx.seed).next_below(inp.cells.len() as u64) as usize;
    let warm = inp.cells[i].run().execute();

    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut off = Tracer::new(false, ctx.origin);
    let mut rss = (0.0, 0);
    let measured = if ctx.trace {
        // An untraced reference half, then the traced half: their rates
        // give the tracing overhead.
        let plain = passes(ctx, w, &inp, &mut off, budget / 2, &mut out);
        let mut tracer = Tracer::new(true, ctx.origin);
        let mut traced = passes(ctx, w, &inp, &mut tracer, budget / 2, &mut out);
        // Tracing must not change a report: both halves' digests are
        // checked against each other below.
        traced.digests.extend_from_slice(&plain.digests);
        let rate = |p: &Passes| p.cells as f64 / p.wall();
        out.table.value(
            "trace.overhead_frac",
            "fraction",
            rate(&plain) / rate(&traced) - 1.0,
        );
        if w.exec == Exec::Grid {
            out.table.median("runner.grid_s", "s", &traced.grid_s);
            out.table
                .median("runner.idle_frac", "fraction", &traced.idle);
        }
        layer_replay(w, &inp, &mut tracer, &mut out);
        out.table.value("trace.spans", "count", tracer.len() as f64);
        out.spans = Some(tracer);
        traced
    } else {
        let sampler = RssSampler::start();
        let p = passes(ctx, w, &inp, &mut off, budget, &mut out);
        rss = sampler.finish(if ctx.smoke { 0.25 } else { 1.0 });
        p
    };

    let (want, got) = (report_digest(&warm), report_digest(&measured.reports[i]));
    out.check(want == got, || {
        format!("cell {i} re-executed: digest {got:016x}, warm-up run {want:016x}")
    });
    out.notes.push(format!(
        "check re-executed cell {i} ({} {}): report_digest {want:016x}",
        warm.platform.name(),
        warm.workload
    ));
    out.check(measured.digests.windows(2).all(|d| d[0] == d[1]), || {
        format!("passes disagree: digests {:016x?}", measured.digests)
    });
    out.notes.push(format!(
        "passes {} cells {} digest {:016x}",
        measured.walls.len(),
        measured.cells,
        measured.digests[0]
    ));

    fidelity(w, &measured.reports, &mut out);

    if !ctx.trace {
        // Rates are totals over the whole measured time: the host's speed
        // drifts over tens of seconds, and a median of a few passes
        // follows a single stretch of it.
        let wall = measured.wall();
        let cells_per_pass = inp.cells.len() as f64;
        let insts_per_cell = measured.instructions as f64 / measured.cells as f64;
        let rates: Vec<f64> = measured.walls.iter().map(|w| cells_per_pass / w).collect();
        let minst: Vec<f64> = rates.iter().map(|r| r * insts_per_cell / 1e6).collect();
        let t = &mut out.table;
        t.median("setup_s", "s", &setup);
        t.rate(
            "sim_minst_per_s",
            "Minst/s",
            measured.instructions as f64 / wall / 1e6,
            &minst,
        );
        t.rate("jobs_per_s", "1/s", measured.cells as f64 / wall, &rates);
        t.median("latency_p50_ms", "ms", &measured.latencies);
        t.value_of("peak_rss_mb", "MiB", rss.0, rss.1);
    }
    out
}

/// The planar grid's headline ratios against the paper's (and Ohm-BW
/// over Ohm-base wherever both ran).
fn fidelity(w: &Workload, reports: &[SimReport], out: &mut Outcome) {
    let col = |p: Platform| w.platforms.iter().position(|&q| q == p);
    let cols = w.platforms.len();
    let ratio = |num: usize, den: usize| -> f64 {
        let rs: Vec<f64> = reports
            .chunks(cols)
            .map(|row| row[num].ipc / row[den].ipc)
            .collect();
        geomean(&rs)
    };
    let Some(bw) = col(Platform::OhmBw) else {
        return;
    };
    if let Some(base) = col(Platform::OhmBase) {
        let r = ratio(bw, base);
        let gap = (r / PAPER_BW_OVER_BASE - 1.0).abs();
        out.notes.push(format!(
            "fidelity Ohm-BW/Ohm-base geomean IPC {r:.4} (paper {PAPER_BW_OVER_BASE}) gap {gap:.4}"
        ));
        out.table.value("fidelity.gap_base", "fraction", gap);
    }
    if let Some(origin) = col(Platform::Origin) {
        let r = ratio(bw, origin);
        let gap = (r / PAPER_BW_OVER_ORIGIN - 1.0).abs();
        out.notes.push(format!(
            "fidelity Ohm-BW/Origin geomean IPC {r:.4} (paper {PAPER_BW_OVER_ORIGIN}) gap {gap:.4}"
        ));
        out.table.value("fidelity.gap_origin", "fraction", gap);
    }
}

/// Replays the workload's named cells layer by layer and reports the
/// per-layer metrics.
fn layer_replay(w: &Workload, inp: &Inputs, tracer: &mut Tracer, out: &mut Outcome) {
    let mut total = LayerCosts::default();
    let mut per_cell: Vec<replay::CellMeasure> = Vec::new();
    for (k, &(platform, name)) in w.replay.iter().enumerate() {
        let cell = inp
            .cells
            .iter()
            .find(|c| c.platform == platform && c.workload.name == name)
            .expect("replay cell is part of the workload");
        let open = tracer.begin("replay.cell", None, 1000 + k as u64);
        let m = replay::measure(cell, tracer, open.id(), 1000 + k as u64);
        tracer.end(open);
        let (l1, l2) = (m.costs.l1_hit_rate(), m.costs.l2_hit_rate());
        out.notes.push(format!(
            "replay {} {}: L1 hit {l1:.4} vs simulated {:.4}, L2 hit {l2:.4} vs simulated {:.4} (tolerance {REPLAY_HIT_RATE_TOLERANCE})",
            platform.name(),
            name,
            m.report.l1_hit_rate,
            m.report.l2_hit_rate
        ));
        for (what, replayed, simulated) in [
            ("L1", l1, m.report.l1_hit_rate),
            ("L2", l2, m.report.l2_hit_rate),
        ] {
            out.check(
                (replayed - simulated).abs() <= REPLAY_HIT_RATE_TOLERANCE,
                || {
                    format!(
                        "replay {} {name}: {what} hit rate {replayed:.4} vs simulated {simulated:.4}",
                        platform.name()
                    )
                },
            );
        }
        check_report(out, &inp.cfg, &m.report);
        total.merge(&m.costs);
        per_cell.push(m);
    }

    let t = &mut out.table;
    let calls = |c: replay::Cost| c.calls as f64;
    t.value_of(
        "workloads.slice_ns",
        "ns",
        total.slices.per_call(),
        total.slices.calls as usize,
    );
    t.value("workloads.slices", "count", calls(total.slices));
    t.value_of(
        "sim.event_ns",
        "ns",
        total.events.per_call(),
        total.events.calls as usize,
    );
    t.value_of(
        "sm.l1_ns",
        "ns",
        total.l1.per_call(),
        total.l1.calls as usize,
    );
    t.value("sm.l1_calls", "count", calls(total.l1));
    t.value_of(
        "sm.l2_ns",
        "ns",
        total.l2.per_call(),
        total.l2.calls as usize,
    );
    t.value("sm.l2_calls", "count", calls(total.l2));
    t.value_of(
        "sm.xbar_ns",
        "ns",
        total.xbar.per_call(),
        total.xbar.calls as usize,
    );
    t.value_of(
        "hetero.planar_ns",
        "ns",
        total.planar.per_call(),
        total.planar.calls as usize,
    );
    t.value("hetero.planar_calls", "count", calls(total.planar));
    t.value_of(
        "hetero.two_level_ns",
        "ns",
        total.two_level.per_call(),
        total.two_level.calls as usize,
    );
    t.value("hetero.two_level_calls", "count", calls(total.two_level));
    t.value_of(
        "mem.dram_ns",
        "ns",
        total.dram.per_call(),
        total.dram.calls as usize,
    );
    t.value("mem.dram_calls", "count", calls(total.dram));
    t.value_of(
        "mem.xpoint_read_ns",
        "ns",
        total.xp_read.per_call(),
        total.xp_read.calls as usize,
    );
    t.value_of(
        "mem.xpoint_write_ns",
        "ns",
        total.xp_write.per_call(),
        total.xp_write.calls as usize,
    );
    t.value(
        "mem.xpoint_calls",
        "count",
        calls(total.xp_read) + calls(total.xp_write),
    );
    t.value_of(
        "optic.transfer_ns",
        "ns",
        total.optic.per_call(),
        total.optic.calls as usize,
    );
    t.value("optic.transfer_calls", "count", calls(total.optic));

    // Simulated quantities and System timings: mean over the cells, so
    // the System::run split sums (per cell) to the measured run time.
    let n = per_cell.len();
    let mut mean = |name, unit, f: &dyn Fn(&replay::CellMeasure) -> f64| {
        let sum: f64 = per_cell.iter().map(f).sum();
        t.value_of(name, unit, sum / n.max(1) as f64, n);
    };
    let stage = |m: &replay::CellMeasure, name: &str, p99: bool| -> f64 {
        m.observed
            .stages
            .as_ref()
            .and_then(|s| s.stages.iter().find(|r| r.name == name))
            .map_or(0.0, |r| if p99 { r.p99_ns } else { r.mean_ns })
    };
    mean("sm.l1_hit_rate", "fraction", &|m| m.report.l1_hit_rate);
    mean("sm.l2_hit_rate", "fraction", &|m| m.report.l2_hit_rate);
    mean("sm.replay_l1_hit_rate", "fraction", &|m| {
        m.costs.l1_hit_rate()
    });
    mean("sm.replay_l2_hit_rate", "fraction", &|m| {
        m.costs.l2_hit_rate()
    });
    mean("hetero.dram_hit_rate", "fraction", &|m| {
        m.report.hetero_dram_hit_rate
    });
    mean("hetero.migrations", "count", &|m| {
        m.report.migrations as f64
    });
    mean("mem.dram_p99_ns", "ns", &|m| stage(m, "dram-access", true));
    mean("mem.xpoint_p99_ns", "ns", &|m| {
        stage(m, "xpoint-access", true)
    });
    mean("optic.channel_util", "fraction", &|m| {
        m.report.channel_utilization
    });
    mean("optic.migration_frac", "fraction", &|m| {
        m.report.migration_channel_fraction
    });
    mean("optic.xfer_mean_ns", "ns", &|m| {
        stage(m, "channel-xfer", false)
    });
    mean("core.system_new_ms", "ms", &|m| {
        m.system_new.as_secs_f64() * 1e3
    });
    mean("core.system_run_ms", "ms", &|m| {
        m.system_run.as_secs_f64() * 1e3
    });
    mean("core.unattributed_ms", "ms", &|m| {
        m.system_run.as_secs_f64() * 1e3 - m.costs.total_ns() as f64 / 1e6
    });
    mean("core.state_bytes", "bytes", &|m| m.state_bytes as f64);
    mean("core.mem_latency_ns", "ns", &|m| {
        m.report.avg_mem_latency_ns
    });
    mean("core.ctrl_queue_p99_ns", "ns", &|m| {
        stage(m, "ctrl-queue", true)
    });
    mean("core.migration_p99_ns", "ns", &|m| {
        stage(m, "migration", true)
    });
    t.value("trace.replay_cells", "count", per_cell.len() as f64);
}
