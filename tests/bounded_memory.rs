//! Tier-1 bounded-memory guarantee: the memory stack's planner and wear
//! state is stored sparsely (DESIGN.md §3.7), so a cell's resident
//! metadata scales with pages actually *touched* — not with the
//! configured footprint. These tests drive the same workload at 256 MiB
//! and at 16 GiB and assert the 16 GiB cell both completes and holds
//! O(touched) planner state, i.e. tens-of-GiB address spaces simulate in
//! bounded host memory. The MSHR fill tables hold only fills in flight,
//! so the state does not grow with the run's length either.

use ohm_gpu::core::config::SystemConfig;
use ohm_gpu::core::system::System;
use ohm_gpu::core::Platform;
use ohm_gpu::optic::OperationalMode;
use ohm_gpu::workloads::workload_by_name;

const MIB_256: u64 = 256 << 20;
const GIB_16: u64 = 16 << 30;

/// Runs one cell and returns (instructions retired, memory state bytes).
fn run_cell(
    platform: Platform,
    mode: OperationalMode,
    footprint: u64,
    insts_per_warp: u64,
) -> (u64, usize) {
    let mut cfg = SystemConfig::quick_test();
    cfg.insts_per_warp = insts_per_warp;
    let spec = workload_by_name("pagerank")
        .unwrap()
        .with_footprint(footprint);
    let mut sys = System::new(&cfg, platform, mode, &spec);
    let report = sys.run();
    (report.instructions, sys.memory_state_bytes())
}

#[test]
fn sixteen_gib_footprint_completes_in_bounded_state() {
    for mode in [OperationalMode::Planar, OperationalMode::TwoLevel] {
        let (small_insts, small_state) = run_cell(Platform::OhmBase, mode, MIB_256, 300);
        let (huge_insts, huge_state) = run_cell(Platform::OhmBase, mode, GIB_16, 300);
        // Both cells retire the full instruction budget.
        assert_eq!(small_insts, huge_insts, "{mode:?}");
        // The footprint grew 64x but the planner state tracks the
        // (identical) number of touched pages, not the address space.
        // Scattering those pages across a 64x-larger space can cost up to
        // one 64-entry chunk per page where they previously shared
        // chunks, so the state may grow by the scatter factor — but it
        // must stay well below footprint-proportional growth.
        assert!(
            huge_state <= small_state.max(1) * 16,
            "{mode:?}: 16 GiB cell holds {huge_state} planner bytes vs {small_state} at 256 MiB"
        );
        // And in absolute terms it is nowhere near footprint-proportional:
        // a dense per-page table for 16 GiB would need millions of entries.
        assert!(
            huge_state < 8 << 20,
            "{mode:?}: {huge_state} planner bytes is not footprint-independent"
        );
    }
}

#[test]
fn origin_platform_handles_huge_footprints() {
    // Origin's resident-set bookkeeping is lazy as well: the DRAM share
    // of a 16 GiB footprint must not be materialized up front.
    let (insts, state) = run_cell(Platform::Origin, OperationalMode::Planar, GIB_16, 300);
    assert!(insts > 0);
    assert!(state < 8 << 20, "{state} planner bytes");
}

#[test]
fn state_does_not_grow_with_run_length() {
    // The MSHR fill tables hold fills in flight, not every line ever
    // read, so doubling the run does not double the state. Two-level's
    // planner state has saturated at this footprint, so there the whole
    // state must stay nearly flat; a fill table that kept every line
    // would grow it by about a third.
    for (mode, max_growth) in [
        (OperationalMode::Planar, 2.0),
        (OperationalMode::TwoLevel, 1.15),
    ] {
        let (short_insts, short_state) = run_cell(Platform::OhmBase, mode, MIB_256, 1200);
        let (long_insts, long_state) = run_cell(Platform::OhmBase, mode, MIB_256, 2400);
        assert_eq!(long_insts, 2 * short_insts, "{mode:?}");
        assert!(
            (long_state as f64) < short_state as f64 * max_growth,
            "{mode:?}: {long_state} state bytes after 2x the run vs {short_state}"
        );
    }
}
