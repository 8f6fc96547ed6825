//! Regression tests for the parallel harness: fanning simulation cells
//! out over worker threads must not change a single bit of any report.
//!
//! Every cell builds its own `System` from a cloned config, so the only
//! way parallelism could leak into results is shared state introduced by
//! accident — which is exactly what these tests guard against. They run
//! an explicit 4-thread pool (the host may expose fewer cores) against
//! the single-thread reference.

use ohm_core::config::SystemConfig;
use ohm_core::fault::{FaultPlan, LifecyclePlan};
use ohm_core::runner::GridRun;
use ohm_core::sweep::{sweep_serial, sweep_threaded};
use ohm_core::system::System;
use ohm_core::SimReport;
use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_workloads::workload_by_name;

const PLATFORMS: [Platform; 4] = [
    Platform::Hetero,
    Platform::OhmBase,
    Platform::AutoRw,
    Platform::OhmWom,
];
const WORKLOADS: [&str; 4] = ["lud", "pagerank", "bfsdata", "FDTD"];

#[test]
fn parallel_grid_matches_serial_bit_for_bit() {
    let cfg = SystemConfig::quick_test();
    let specs: Vec<_> = WORKLOADS
        .iter()
        .map(|w| workload_by_name(w).unwrap())
        .collect();
    for mode in [OperationalMode::Planar, OperationalMode::TwoLevel] {
        let serial = GridRun::serial().run(&cfg, &PLATFORMS, mode, &specs).rows;
        let threaded = GridRun::new()
            .threads(4)
            .run(&cfg, &PLATFORMS, mode, &specs)
            .rows;
        assert_eq!(
            serial, threaded,
            "thread count changed {mode:?} grid results"
        );
        // Shape sanity: results[workload][platform] in input order.
        assert_eq!(threaded.len(), WORKLOADS.len());
        for (row, spec) in threaded.iter().zip(&specs) {
            assert_eq!(row.len(), PLATFORMS.len());
            for (report, &platform) in row.iter().zip(&PLATFORMS) {
                assert_eq!(report.workload, spec.name);
                assert_eq!(report.platform, platform);
            }
        }
    }
}

#[test]
fn parallel_grid_is_stable_across_thread_counts() {
    // An odd worker count that does not divide the cell count exercises
    // the index-scatter path; the results must still be identical.
    let cfg = SystemConfig::quick_test();
    let specs: Vec<_> = WORKLOADS
        .iter()
        .map(|w| workload_by_name(w).unwrap())
        .collect();
    let reference = GridRun::serial()
        .run(&cfg, &PLATFORMS, OperationalMode::Planar, &specs)
        .rows;
    for threads in [2, 3, 5] {
        let got = GridRun::new()
            .threads(threads)
            .run(&cfg, &PLATFORMS, OperationalMode::Planar, &specs)
            .rows;
        assert_eq!(reference, got, "{threads} threads diverged from serial");
    }
}

fn report_of(cfg: &SystemConfig, platform: Platform, workload: &str) -> SimReport {
    let spec = workload_by_name(workload).unwrap();
    System::new(cfg, platform, OperationalMode::Planar, &spec).run()
}

/// The serial event loop is deterministic: a fresh `System` built from
/// the same inputs reproduces its report bit for bit. Covered for a
/// plain cell, an armed wear-out lifecycle that retires lines mid-run
/// (per-controller RNG state), an armed optical fault plan that draws
/// from its RNG on every transfer, and the Origin host model's
/// cross-controller staging state.
#[test]
fn serial_repeat_runs_are_bit_identical() {
    let plain = SystemConfig::quick_test();
    let mut lifecycle = SystemConfig::quick_test();
    lifecycle.lifecycle = Some(LifecyclePlan::accelerated(0x11FE, 4));
    let mut faulty = SystemConfig::quick_test();
    faulty.faults = Some(FaultPlan::at_severity(0xFA17, 0.75));
    for (name, cfg, platform, workload) in [
        ("plain", &plain, Platform::OhmBase, "pagerank"),
        ("lifecycle", &lifecycle, Platform::OhmWom, "pagerank"),
        ("faulty", &faulty, Platform::OhmBase, "pagerank"),
        ("origin", &plain, Platform::Origin, "lud"),
    ] {
        let reference = report_of(cfg, platform, workload);
        let again = report_of(cfg, platform, workload);
        assert_eq!(reference, again, "{name}: repeat run diverged");
        match name {
            "lifecycle" => assert!(reference.wear.is_some(), "lifecycle plan not armed"),
            "faulty" => assert!(reference.faults.is_some(), "fault plan not armed"),
            "origin" => assert!(reference.host.is_some(), "origin reports no staging"),
            _ => {}
        }
    }
}

#[test]
fn parallel_sweep_matches_serial_bit_for_bit() {
    let base = SystemConfig::quick_test();
    let spec = workload_by_name("pagerank").unwrap();
    let knobs = [1u32, 2, 4, 8];
    let configure = |cfg: &mut SystemConfig, &w: &u32| cfg.optical.waveguides = w;
    let serial = sweep_serial(
        &base,
        Platform::OhmBw,
        OperationalMode::Planar,
        &spec,
        knobs,
        configure,
    );
    let threaded = sweep_threaded(
        &base,
        Platform::OhmBw,
        OperationalMode::Planar,
        &spec,
        knobs,
        configure,
        4,
    );
    assert_eq!(serial.len(), threaded.len());
    for (s, t) in serial.iter().zip(&threaded) {
        assert_eq!(s.value, t.value, "sweep points out of order");
        assert_eq!(
            s.report, t.report,
            "thread count changed sweep point {}",
            s.value
        );
    }
}
