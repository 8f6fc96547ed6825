//! Golden `SimReport` snapshots — the bit-identity gate for hot-path
//! optimisations.
//!
//! Every cell here runs with a fixed seed and digests its report down
//! to a text form in which every `f64` carries its exact bit pattern,
//! then compares against `tests/golden/simreports.txt`. Any
//! "optimisation" that changes a single bit of any field — timing,
//! energy, fault tallies, wear curves, stage histograms — fails the
//! diff. The cells cover both memory modes, quiescent *and* armed
//! fault/lifecycle plans, one observability-enabled run so the
//! stage-recording path is pinned too, and one phased LLM run whose
//! per-phase rows are digested as well.
//!
//! To rebless after an intentional behaviour change:
//!
//! ```text
//! OHM_BLESS=1 cargo test -p ohm-core --test golden
//! ```
//!
//! and commit the rewritten snapshot with an explanation of why the
//! behaviour moved.

use std::fmt::Write as _;

use ohm_core::config::SystemConfig;
use ohm_core::fault::{FaultPlan, LifecyclePlan};
use ohm_core::metrics::SimReport;
use ohm_core::system::System;
use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_workloads::{workload_by_name, PhasePlan};

/// Seed for the armed plans (distinct from the config seed so the
/// streams visibly fork).
const PLAN_SEED: u64 = 0xA5;

/// Exact textual form of an `f64`: human-readable value plus the bit
/// pattern the comparison actually rides on.
fn f(v: f64) -> String {
    format!("{v:.6e}#{:016x}", v.to_bits())
}

fn digest_report(label: &str, r: &SimReport) -> String {
    let mut d = String::new();
    let _ = writeln!(d, "[{label}]");
    let _ = writeln!(d, "platform={}", r.platform.name());
    let _ = writeln!(d, "mode={:?}", r.mode);
    let _ = writeln!(d, "workload={}", r.workload);
    let _ = writeln!(d, "makespan_ps={:?}", r.makespan);
    let _ = writeln!(d, "instructions={}", r.instructions);
    let _ = writeln!(d, "ipc={}", f(r.ipc));
    let _ = writeln!(d, "mem_requests={}", r.mem_requests);
    let _ = writeln!(d, "avg_mem_latency_ns={}", f(r.avg_mem_latency_ns));
    let _ = writeln!(d, "l1_hit_rate={}", f(r.l1_hit_rate));
    let _ = writeln!(d, "l2_hit_rate={}", f(r.l2_hit_rate));
    let _ = writeln!(d, "hetero_dram_hit_rate={}", f(r.hetero_dram_hit_rate));
    let _ = writeln!(
        d,
        "migration_channel_fraction={}",
        f(r.migration_channel_fraction)
    );
    let _ = writeln!(d, "migrations={}", r.migrations);
    let _ = writeln!(d, "channel_utilization={}", f(r.channel_utilization));
    let _ = writeln!(d, "channel_bits={},{}", r.channel_bits.0, r.channel_bits.1);
    let _ = writeln!(d, "energy.dma_j={}", f(r.energy.dma_j));
    let _ = writeln!(d, "energy.dram_static_j={}", f(r.energy.dram_static_j));
    let _ = writeln!(d, "energy.dram_dynamic_j={}", f(r.energy.dram_dynamic_j));
    let _ = writeln!(d, "energy.xpoint_j={}", f(r.energy.xpoint_j));
    let _ = writeln!(d, "wear_imbalance={}", f(r.wear_imbalance));
    match &r.host {
        None => {
            let _ = writeln!(d, "host=none");
        }
        Some(h) => {
            let _ = writeln!(
                d,
                "host=storage_busy:{:?},dma_busy:{:?},in:{},out:{},bytes:{}",
                h.storage_busy, h.dma_busy, h.staged_in, h.staged_out, h.bytes_moved
            );
        }
    }
    match &r.faults {
        None => {
            let _ = writeln!(d, "faults=none");
        }
        Some(ft) => {
            let _ = writeln!(
                d,
                "faults=corrupted:{},retx:{},exhausted:{},mrr:{},rearb:{},fallback:{},\
                 stalls:{},retries:{},poisoned:{}",
                ft.corrupted_transfers,
                ft.retransmissions,
                ft.retx_exhausted,
                ft.mrr_faults,
                ft.rearbitrations,
                ft.electrical_fallbacks,
                ft.media_stalls,
                ft.media_retries,
                ft.poisoned_lines
            );
        }
    }
    match &r.wear {
        None => {
            let _ = writeln!(d, "wear=none");
        }
        Some(w) => {
            let _ = writeln!(
                d,
                "wear=retired:{},spares:{}/{},ecc_c:{},ecc_u:{},dead:{},usable:{}",
                w.retired_lines,
                w.spares_used,
                w.spares_total,
                w.ecc_corrected,
                w.ecc_uncorrectable,
                w.dead_lines,
                f(w.usable_capacity)
            );
            for (when, frac) in &w.capacity_curve {
                let _ = writeln!(d, "wear.curve={when:?},{}", f(*frac));
            }
            match &w.planner {
                None => {
                    let _ = writeln!(d, "wear.planner=none");
                }
                Some(p) => {
                    let _ = writeln!(
                        d,
                        "wear.planner=pinned:{},usable:{},ratio:{}",
                        p.pinned,
                        f(p.usable_fraction),
                        f(p.effective_ratio)
                    );
                }
            }
        }
    }
    match &r.stages {
        None => {
            let _ = writeln!(d, "stages=none");
        }
        Some(s) => {
            for row in &s.stages {
                let _ = writeln!(
                    d,
                    "stage.{}=count:{},mean:{},p50:{},p99:{}",
                    row.name,
                    row.count,
                    f(row.mean_ns),
                    f(row.p50_ns),
                    f(row.p99_ns)
                );
            }
            for u in &s.utilization {
                let _ = writeln!(
                    d,
                    "util.{}=busy:{},mean:{},peak:{}",
                    u.name,
                    f(u.busy_us),
                    f(u.mean_utilization),
                    f(u.peak_utilization)
                );
            }
            let _ = writeln!(d, "stages.dropped={}", s.dropped_events);
        }
    }
    // Only phased cells carry rows; plan-free cells print nothing here so
    // their snapshots predate the phase rendering unchanged.
    for p in r.phases.iter().flat_map(|s| &s.phases) {
        let _ = writeln!(
            d,
            "phase.{}=insts:{},ipc:{},span:{:?}..{:?},mem:{},lat:{},slice:{},dram:{},xpoint:{},hit:{}",
            p.name,
            p.instructions,
            f(p.ipc),
            p.span.0,
            p.span.1,
            p.mem_requests,
            f(p.avg_mem_latency_ns),
            f(p.avg_slice_latency_ns),
            p.dram_served,
            p.xpoint_served,
            f(p.dram_hit_rate)
        );
        for st in &p.stages {
            let _ = writeln!(
                d,
                "phase.{}.{}=count:{},mean:{}",
                p.name,
                st.name,
                st.count,
                f(st.mean_ns)
            );
        }
    }
    d
}

struct GoldenCell {
    label: &'static str,
    platform: Platform,
    mode: OperationalMode,
    workload: &'static str,
    faults: Option<FaultPlan>,
    lifecycle: Option<LifecyclePlan>,
    phases: Option<PhasePlan>,
    observability: bool,
}

fn cells() -> Vec<GoldenCell> {
    vec![
        GoldenCell {
            label: "planar-plain",
            platform: Platform::OhmWom,
            mode: OperationalMode::Planar,
            workload: "pagerank",
            faults: None,
            lifecycle: None,
            phases: None,
            observability: false,
        },
        GoldenCell {
            label: "twolevel-plain",
            platform: Platform::OhmBase,
            mode: OperationalMode::TwoLevel,
            workload: "bfsdata",
            faults: None,
            lifecycle: None,
            phases: None,
            observability: false,
        },
        // Quiescent plans must stay bit-identical to plan-free runs in
        // every headline field; pinning them separately catches a fast
        // path that forgets the is-quiescent check.
        GoldenCell {
            label: "planar-quiescent-plans",
            platform: Platform::OhmWom,
            mode: OperationalMode::Planar,
            workload: "pagerank",
            faults: Some(FaultPlan::quiescent(PLAN_SEED)),
            lifecycle: Some(LifecyclePlan::quiescent(PLAN_SEED)),
            phases: None,
            observability: false,
        },
        GoldenCell {
            label: "planar-armed",
            platform: Platform::OhmBw,
            mode: OperationalMode::Planar,
            workload: "lud",
            faults: Some(FaultPlan::at_severity(PLAN_SEED, 0.7)),
            lifecycle: Some(LifecyclePlan::accelerated(PLAN_SEED, 2)),
            phases: None,
            observability: false,
        },
        GoldenCell {
            label: "twolevel-armed",
            platform: Platform::OhmBase,
            mode: OperationalMode::TwoLevel,
            workload: "gctopo",
            faults: Some(FaultPlan::at_severity(PLAN_SEED, 0.7)),
            lifecycle: Some(LifecyclePlan::accelerated(PLAN_SEED, 2)),
            phases: None,
            observability: false,
        },
        // Observability on: pins the stage-recording path (batched
        // drains must not change a histogram bucket).
        GoldenCell {
            label: "planar-observed",
            platform: Platform::OhmBase,
            mode: OperationalMode::Planar,
            workload: "FDTD",
            faults: None,
            lifecycle: None,
            phases: None,
            observability: true,
        },
        // Ohm-WOM in two-level mode under the LLM phase plan: pins
        // reverse write, the phased generator and the two-level fill
        // path (`kv-append` is write-heavy) together.
        GoldenCell {
            label: "twolevel-llm-wom",
            platform: Platform::OhmWom,
            mode: OperationalMode::TwoLevel,
            workload: "gctopo",
            faults: None,
            lifecycle: None,
            phases: Some(PhasePlan::llm_inference()),
            observability: false,
        },
    ]
}

fn run_cell(cell: &GoldenCell) -> String {
    let mut cfg = SystemConfig::quick_test();
    cfg.faults = cell.faults.clone();
    cfg.lifecycle = cell.lifecycle.clone();
    cfg.phases = cell.phases.clone();
    let spec = workload_by_name(cell.workload)
        .unwrap()
        .with_footprint(SystemConfig::EVALUATION_FOOTPRINT / 8);
    let mut sys = System::new(&cfg, cell.platform, cell.mode, &spec);
    if cell.observability {
        sys.enable_observability();
    }
    let report = sys.run();
    digest_report(cell.label, &report)
}

#[test]
fn reports_match_golden_snapshots() {
    let mut digest = String::new();
    for cell in cells() {
        digest.push_str(&run_cell(&cell));
        digest.push('\n');
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/simreports.txt");
    if std::env::var("OHM_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &digest).unwrap();
        eprintln!("blessed {path}");
        return;
    }

    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path} ({e}); run with OHM_BLESS=1"));
    if digest != golden {
        let mismatch = digest
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "SimReport drifted from golden snapshot at line {}:\n  golden: {want}\n  \
                 got:    {got}\nIf the change is intentional, rebless with OHM_BLESS=1 \
                 and explain the behaviour change in the commit.",
                i + 1
            ),
            None => panic!(
                "SimReport digest length changed ({} vs {} golden lines); rebless with \
                 OHM_BLESS=1 if intentional",
                digest.lines().count(),
                golden.lines().count()
            ),
        }
    }
}

#[test]
fn armed_cells_actually_exercise_the_plans() {
    // The golden file only gates what the runs *produce*; this guards
    // what they *cover* — if a future change makes the armed plans
    // no-ops, the snapshots would still match while the bit-identity
    // gate silently stopped covering the fault/lifecycle paths.
    let armed = cells()
        .into_iter()
        .find(|c| c.label == "planar-armed")
        .unwrap();
    let mut cfg = SystemConfig::quick_test();
    cfg.faults = armed.faults.clone();
    cfg.lifecycle = armed.lifecycle.clone();
    let spec = workload_by_name(armed.workload)
        .unwrap()
        .with_footprint(SystemConfig::EVALUATION_FOOTPRINT / 8);
    let report = System::new(&cfg, armed.platform, armed.mode, &spec).run();
    let faults = report.faults.expect("fault plan armed");
    let wear = report.wear.expect("lifecycle plan armed");
    assert!(
        faults.total_recoveries() > 0,
        "armed fault plan injected nothing: {faults:?}"
    );
    assert!(
        wear.ecc_corrected + wear.retired_lines > 0,
        "armed lifecycle plan aged nothing: {wear:?}"
    );
}
