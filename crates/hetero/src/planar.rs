//! Planar memory mode: a flat DRAM+XPoint address space with
//! OS-transparent hot-page swapping.
//!
//! The entire memory space is split into *groups*, each containing one
//! DRAM page and `ratio` XPoint pages (Table I ratio 1:8). The memory
//! controller keeps a simplified remap table recording which logical page
//! of each group currently occupies the group's DRAM slot. When an
//! XPoint-resident page collects enough accesses it is declared hot and
//! swapped with the group's current DRAM resident (Figure 7a) — the data
//! movement whose cost the paper's dual routes eliminate.
//!
//! # Capacity-aware degradation
//!
//! When the XPoint controller retires a device page past its spare budget,
//! the planner is told via [`PlanarMapping::retire_xpoint_page`]. Retired
//! pages are excluded as swap *targets*: a hot page would otherwise be
//! demoted onto dead media. The swap is suppressed, the DRAM resident is
//! *pinned*, and the shrunken usable ratio is reported through
//! [`PlanarMapping::usable_xpoint_fraction`] /
//! [`PlanarMapping::effective_ratio`].

use std::collections::BTreeSet;

use ohm_sim::{Addr, FastDiv, SparseState};

/// Configuration of the planar mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanarConfig {
    /// Migration/page granularity in bytes (power of two).
    pub page_bytes: u64,
    /// XPoint pages per DRAM page in each group (Table I: 8).
    pub ratio: usize,
    /// Accesses to an XPoint-resident page before it is declared hot.
    pub hot_threshold: u32,
    /// Total logical capacity in bytes (must be a whole number of groups).
    pub capacity_bytes: u64,
}

impl Default for PlanarConfig {
    fn default() -> Self {
        PlanarConfig {
            page_bytes: 4096,
            ratio: 8,
            hot_threshold: 16,
            capacity_bytes: 288 << 20, // 64 groups/MB at 4 KB pages, scaled
        }
    }
}

impl PlanarConfig {
    /// Pages per group (DRAM slot + XPoint slots).
    pub fn group_pages(&self) -> usize {
        self.ratio + 1
    }

    /// Number of groups implied by the capacity.
    pub fn groups(&self) -> u64 {
        self.capacity_bytes / (self.page_bytes * self.group_pages() as u64)
    }

    /// DRAM capacity implied by the geometry.
    pub fn dram_bytes(&self) -> u64 {
        self.groups() * self.page_bytes
    }

    /// XPoint capacity implied by the geometry.
    pub fn xpoint_bytes(&self) -> u64 {
        self.groups() * self.ratio as u64 * self.page_bytes
    }
}

/// Where a logical address currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanarLocation {
    /// In DRAM, at the given DRAM physical address.
    Dram(Addr),
    /// In XPoint, at the given XPoint physical address.
    XPoint(Addr),
}

impl PlanarLocation {
    /// True when the location is DRAM.
    pub fn is_dram(self) -> bool {
        matches!(self, PlanarLocation::Dram(_))
    }

    /// The physical address regardless of device.
    pub fn addr(self) -> Addr {
        match self {
            PlanarLocation::Dram(a) | PlanarLocation::XPoint(a) => a,
        }
    }
}

/// A pending hot-page swap decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRequest {
    /// Group being reorganised.
    pub group: u64,
    /// Group-major page id (`group * group_pages + slot`) moving into DRAM.
    pub promote_page: u64,
    /// Group-major page id being demoted to XPoint.
    pub demote_page: u64,
    /// DRAM physical page address involved in the swap.
    pub dram_addr: Addr,
    /// XPoint physical page address involved in the swap.
    pub xpoint_addr: Addr,
    /// Bytes exchanged in each direction.
    pub page_bytes: u64,
}

/// Per-page planner state, stored sparsely at group-major page index
/// (`group * group_pages + slot`). The all-zero default must describe
/// the initial identity placement so untouched groups cost nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PageState {
    /// Hotness counter for the page.
    counter: u32,
    /// Encoded XPoint placement of the page — see [`decode_sub`]:
    /// `0` = initial placement (slot 0 in DRAM, slot `s` in sub-slot
    /// `s - 1`), `1` = in DRAM, `v >= 2` = XPoint sub-slot `v - 2`.
    slot_enc: u32,
}

/// Decodes a [`PageState::slot_enc`] for in-group `slot`: `None` means
/// the page occupies the group's DRAM slot, `Some(sub)` its XPoint
/// sub-slot.
#[inline]
fn decode_sub(slot: usize, enc: u32) -> Option<u16> {
    match enc {
        0 => {
            if slot == 0 {
                None
            } else {
                Some((slot - 1) as u16)
            }
        }
        1 => None,
        v => Some((v - 2) as u16),
    }
}

/// Inverse of [`decode_sub`] (always the explicit form, never `0`).
#[inline]
fn encode_sub(sub: Option<u16>) -> u32 {
    match sub {
        None => 1,
        Some(s) => s as u32 + 2,
    }
}

/// The planar-mode remap table and hotness tracker.
///
/// # Example
///
/// ```
/// use ohm_hetero::{PlanarConfig, PlanarMapping};
/// use ohm_sim::Addr;
///
/// let mut map = PlanarMapping::new(PlanarConfig {
///     capacity_bytes: 9 * 4096,
///     ..PlanarConfig::default()
/// });
/// // Page 0 of each group starts in DRAM.
/// assert!(map.lookup(Addr::new(0)).is_dram());
/// assert!(!map.lookup(Addr::new(4096)).is_dram());
/// ```
#[derive(Debug, Clone)]
pub struct PlanarMapping {
    cfg: PlanarConfig,
    /// Current DRAM-resident slot per group (default `0`: the initial
    /// identity placement). Materialized only for groups that swapped.
    residents: SparseState<u16>,
    /// Hotness counters and placement per group-major page, materialized
    /// only for pages actually accessed. Untouched pages are in their
    /// initial placement with a zero counter by construction.
    pages: SparseState<PageState>,
    /// Reciprocal of the group count — `split` runs on every access and
    /// the group count is rarely a power of two (ratio + 1 slots).
    groups_div: FastDiv,
    swaps: u64,
    /// Device page indices (XPoint physical page number) retired by the
    /// memory tier — never valid swap targets.
    retired_xp_pages: BTreeSet<u64>,
    /// Hot-page promotions suppressed because the demotion target page was
    /// retired (the DRAM resident stays pinned).
    pinned_swaps: u64,
}

impl PlanarMapping {
    /// Largest ratio: in-group slots (`0..=ratio`) are stored as `u16`.
    pub const MAX_RATIO: usize = u16::MAX as usize;

    /// Creates the initial identity mapping (slot 0 of each group in DRAM).
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero groups, a non-power-of-two
    /// page size, or a ratio above 65535 (slots are stored as `u16`).
    pub fn new(cfg: PlanarConfig) -> Self {
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(cfg.ratio > 0, "need at least one XPoint page per group");
        assert!(
            cfg.ratio <= Self::MAX_RATIO,
            "ratio {} exceeds the u16 slot range",
            cfg.ratio
        );
        let n = cfg.groups();
        assert!(n > 0, "capacity too small for one group");
        // The sparse default (resident slot 0, counter 0, initial
        // placement) *is* the identity mapping, so construction
        // allocates nothing regardless of capacity.
        PlanarMapping {
            residents: SparseState::new(n),
            pages: SparseState::new(n * cfg.group_pages() as u64),
            cfg,
            groups_div: FastDiv::new(n),
            swaps: 0,
            retired_xp_pages: BTreeSet::new(),
            pinned_swaps: 0,
        }
    }

    /// The mapping configuration.
    pub fn config(&self) -> &PlanarConfig {
        &self.cfg
    }

    /// Groups are formed by *striding* the page index (page `p` belongs
    /// to group `p mod groups`), so neighbouring pages fall into distinct
    /// groups and a contiguous hot region can be fully DRAM-resident —
    /// one page per group. Contiguous grouping would cap the DRAM share
    /// of any dense hot set at 1/(ratio+1).
    fn split(&self, addr: Addr) -> (u64, usize, u64) {
        let page = addr.block_index(self.cfg.page_bytes);
        let (slot, group) = self.groups_div.divmod(page);
        assert!(
            (slot as usize) < self.cfg.group_pages(),
            "address beyond configured capacity"
        );
        (group, slot as usize, addr.offset_in(self.cfg.page_bytes))
    }

    /// Group-major page index of in-group `slot` of `group` — the key
    /// into [`Self::pages`].
    #[inline]
    fn page_idx(&self, group: u64, slot: usize) -> u64 {
        group * self.cfg.group_pages() as u64 + slot as u64
    }

    fn dram_addr(&self, group: u64, offset: u64) -> Addr {
        Addr::new(group * self.cfg.page_bytes + offset)
    }

    fn xpoint_addr(&self, group: u64, sub_slot: u16, offset: u64) -> Addr {
        Addr::new((group * self.cfg.ratio as u64 + sub_slot as u64) * self.cfg.page_bytes + offset)
    }

    /// Resolves a logical address to its current physical location.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the configured capacity.
    pub fn lookup(&self, addr: Addr) -> PlanarLocation {
        let (group, slot, offset) = self.split(addr);
        if *self.residents.get(group) as usize == slot {
            PlanarLocation::Dram(self.dram_addr(group, offset))
        } else {
            let enc = self.pages.get(self.page_idx(group, slot)).slot_enc;
            let sub = decode_sub(slot, enc).expect("non-resident page must be in XPoint");
            PlanarLocation::XPoint(self.xpoint_addr(group, sub, offset))
        }
    }

    /// Records an access to a logical address; if this makes an
    /// XPoint-resident page hot, returns the swap the controller should
    /// schedule. Counters of the group reset when a swap is requested.
    ///
    /// A swap whose demotion target (the hot page's XPoint sub-slot) has
    /// been retired is suppressed instead: the current DRAM resident stays
    /// pinned, the group's counters still reset (so the dead page does not
    /// re-trigger every access), and [`Self::pinned_swaps`] counts the
    /// suppression.
    pub fn record_access(&mut self, addr: Addr) -> Option<SwapRequest> {
        let (group, slot, _) = self.split(addr);
        let group_pages = self.cfg.group_pages() as u64;
        let threshold = self.cfg.hot_threshold;
        let ratio = self.cfg.ratio as u64;
        let resident = *self.residents.get(group) as usize;
        let idx = self.page_idx(group, slot);
        let st = self.pages.get_mut(idx);
        st.counter += 1;
        if slot == resident || st.counter < threshold {
            return None;
        }
        let sub_slot = decode_sub(slot, st.slot_enc).expect("hot page must be in XPoint");
        // Reset the whole group's counters. Pages never touched hold a
        // zero counter already — skip them so the reset cannot
        // materialize chunks.
        let base = group * group_pages;
        for s in 0..group_pages {
            if self.pages.get(base + s).counter != 0 {
                self.pages.get_mut(base + s).counter = 0;
            }
        }
        if self
            .retired_xp_pages
            .contains(&(group * ratio + sub_slot as u64))
        {
            self.pinned_swaps += 1;
            return None;
        }
        Some(SwapRequest {
            group,
            promote_page: base + slot as u64,
            demote_page: base + resident as u64,
            dram_addr: self.dram_addr(group, 0),
            xpoint_addr: self.xpoint_addr(group, sub_slot, 0),
            page_bytes: self.cfg.page_bytes,
        })
    }

    /// Commits a completed swap: the promoted page becomes the DRAM
    /// resident, the demoted page takes its XPoint sub-slot.
    ///
    /// # Panics
    ///
    /// Panics if the request does not match the current mapping (e.g. the
    /// page was already promoted by a racing swap).
    pub fn commit_swap(&mut self, req: &SwapRequest) {
        let group_pages = self.cfg.group_pages() as u64;
        let promote_slot = (req.promote_page % group_pages) as usize;
        let demote_slot = (req.demote_page % group_pages) as usize;
        assert_eq!(
            *self.residents.get(req.group) as usize,
            demote_slot,
            "swap request stale: resident changed"
        );
        let promote_idx = self.page_idx(req.group, promote_slot);
        let demote_idx = self.page_idx(req.group, demote_slot);
        let sub = decode_sub(promote_slot, self.pages.get(promote_idx).slot_enc);
        assert!(sub.is_some(), "promoted page is already in DRAM");
        self.pages.get_mut(demote_idx).slot_enc = encode_sub(sub);
        self.pages.get_mut(promote_idx).slot_enc = encode_sub(None);
        self.residents.set(req.group, promote_slot as u16);
        self.swaps += 1;
    }

    /// Completed swaps so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Marks the XPoint device page containing `xpoint_addr` as retired
    /// (dead media): it will never again be offered as a swap target.
    /// Returns `true` if the page was newly retired.
    pub fn retire_xpoint_page(&mut self, xpoint_addr: Addr) -> bool {
        let page = xpoint_addr.block_index(self.cfg.page_bytes);
        if page >= self.cfg.groups() * self.cfg.ratio as u64 {
            return false; // outside the planner's XPoint window
        }
        self.retired_xp_pages.insert(page)
    }

    /// XPoint device pages retired so far.
    pub fn retired_xpoint_pages(&self) -> u64 {
        self.retired_xp_pages.len() as u64
    }

    /// Whether an XPoint device page is retired.
    pub fn is_xpoint_page_retired(&self, xpoint_addr: Addr) -> bool {
        self.retired_xp_pages
            .contains(&xpoint_addr.block_index(self.cfg.page_bytes))
    }

    /// Hot-page promotions suppressed because their demotion target was
    /// retired.
    pub fn pinned_swaps(&self) -> u64 {
        self.pinned_swaps
    }

    /// Heap bytes held by the materialized remap/hotness state. Scales
    /// with pages actually touched, not with
    /// [`capacity_bytes`](PlanarConfig::capacity_bytes).
    pub fn state_bytes(&self) -> usize {
        self.pages.heap_bytes()
            + self.residents.heap_bytes()
            + self.retired_xp_pages.len() * 3 * std::mem::size_of::<u64>()
    }

    /// Number of sparse chunks materialized so far (diagnostic for
    /// bounded-memory tests).
    pub fn touched_chunks(&self) -> usize {
        self.pages.touched_chunks() + self.residents.touched_chunks()
    }

    /// Fraction of the XPoint tier still usable (retired pages excluded).
    pub fn usable_xpoint_fraction(&self) -> f64 {
        let total = self.cfg.groups() * self.cfg.ratio as u64;
        1.0 - self.retired_xp_pages.len() as f64 / total as f64
    }

    /// The effective XPoint:DRAM ratio after retirement — the configured
    /// ratio scaled by the usable fraction. Shrinks as the device ages.
    pub fn effective_ratio(&self) -> f64 {
        self.cfg.ratio as f64 * self.usable_xpoint_fraction()
    }

    /// Fraction of lookups that would currently land in DRAM for a given
    /// sequence of addresses (diagnostic helper).
    pub fn dram_hit_fraction(&self, addrs: &[Addr]) -> f64 {
        if addrs.is_empty() {
            return 0.0;
        }
        let hits = addrs.iter().filter(|&&a| self.lookup(a).is_dram()).count();
        hits as f64 / addrs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GROUPS: u64 = 4;
    const PAGE: u64 = 4096;

    fn small() -> PlanarMapping {
        PlanarMapping::new(PlanarConfig {
            page_bytes: PAGE,
            ratio: 8,
            hot_threshold: 4,
            capacity_bytes: GROUPS * 9 * PAGE,
        })
    }

    /// Address of the page in `group` at in-group `slot` under the
    /// strided group mapping (page index = slot * groups + group).
    fn page_addr(group: u64, slot: u64) -> Addr {
        Addr::new((slot * GROUPS + group) * PAGE)
    }

    fn drive_swap(m: &mut PlanarMapping, addr: Addr) -> SwapRequest {
        loop {
            if let Some(req) = m.record_access(addr) {
                return req;
            }
        }
    }

    #[test]
    fn geometry() {
        let m = small();
        assert_eq!(m.config().groups(), GROUPS);
        assert_eq!(m.config().dram_bytes(), GROUPS * PAGE);
        assert_eq!(m.config().xpoint_bytes(), GROUPS * 8 * PAGE);
    }

    #[test]
    fn initial_mapping_slot0_in_dram() {
        let m = small();
        for g in 0..GROUPS {
            assert!(m.lookup(page_addr(g, 0)).is_dram(), "group {g} slot 0");
            for s in 1..9 {
                assert!(!m.lookup(page_addr(g, s)).is_dram(), "group {g} slot {s}");
            }
        }
    }

    #[test]
    fn neighbouring_pages_fall_into_distinct_groups() {
        let m = small();
        // Pages 0..groups are each the DRAM resident of their own group:
        // a dense hot region can be fully DRAM-resident.
        for p in 0..GROUPS {
            assert!(m.lookup(Addr::new(p * PAGE)).is_dram(), "page {p}");
        }
    }

    #[test]
    fn lookup_preserves_offset() {
        let m = small();
        let loc = m.lookup(page_addr(2, 3).offset(123));
        assert_eq!(loc.addr().offset_in(PAGE), 123);
    }

    #[test]
    fn hot_page_triggers_swap_and_remap() {
        let mut m = small();
        let hot = page_addr(0, 3);
        let req = drive_swap(&mut m, hot);
        assert_eq!(req.group, 0);
        m.commit_swap(&req);
        assert!(m.lookup(hot).is_dram());
        assert!(!m.lookup(page_addr(0, 0)).is_dram());
        assert_eq!(m.swaps(), 1);
    }

    #[test]
    fn demoted_page_takes_vacated_xp_slot() {
        let mut m = small();
        let hot = page_addr(1, 3);
        let old_xp = m.lookup(hot).addr();
        let req = drive_swap(&mut m, hot);
        m.commit_swap(&req);
        // The demoted page (old slot 0 of group 1) now sits where the hot
        // page was.
        assert_eq!(m.lookup(page_addr(1, 0)), PlanarLocation::XPoint(old_xp));
    }

    #[test]
    fn dram_resident_accesses_never_trigger() {
        let mut m = small();
        for _ in 0..100 {
            assert!(m.record_access(page_addr(2, 0).offset(5)).is_none());
        }
    }

    #[test]
    fn counters_reset_after_swap_request() {
        let mut m = small();
        let a = page_addr(0, 1);
        let b = page_addr(0, 2);
        for _ in 0..3 {
            assert!(m.record_access(a).is_none());
        }
        for _ in 0..3 {
            assert!(m.record_access(b).is_none());
        }
        let req = m.record_access(a).expect("a reaches threshold first");
        m.commit_swap(&req);
        // b's counter was reset: three more accesses stay quiet.
        for _ in 0..3 {
            assert!(m.record_access(b).is_none());
        }
        assert!(m.record_access(b).is_some());
    }

    #[test]
    fn chained_swaps_stay_consistent() {
        let mut m = small();
        // Promote slot 1, then slot 2, then slot 1 again, all in group 0.
        for target in [1u64, 2, 1] {
            let a = page_addr(0, target);
            let req = drive_swap(&mut m, a);
            m.commit_swap(&req);
            assert!(m.lookup(a).is_dram());
        }
        // All nine pages of group 0 still resolve to distinct locations.
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..9u64 {
            let loc = m.lookup(page_addr(0, s));
            assert!(seen.insert((loc.is_dram(), loc.addr())), "dup at slot {s}");
        }
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_swap_rejected() {
        let mut m = small();
        let r1 = drive_swap(&mut m, page_addr(3, 1));
        let r2 = drive_swap(&mut m, page_addr(3, 2));
        m.commit_swap(&r2);
        m.commit_swap(&r1); // resident changed: must panic
    }

    #[test]
    fn retired_page_is_never_a_swap_target() {
        let mut m = small();
        let hot = page_addr(0, 3);
        // Retire the device page currently backing the hot page — the
        // slot its demoted partner would land on.
        let dead = m.lookup(hot).addr();
        assert!(m.retire_xpoint_page(dead));
        assert!(!m.retire_xpoint_page(dead), "idempotent");
        assert!(m.is_xpoint_page_retired(dead));
        // Hammering the hot page now pins the resident instead of
        // demoting it onto dead media.
        for _ in 0..64 {
            if let Some(req) = m.record_access(hot) {
                panic!("swap offered onto retired page: {req:?}");
            }
        }
        assert!(m.pinned_swaps() >= 1);
        assert_eq!(m.swaps(), 0);
        assert!(m.lookup(page_addr(0, 0)).is_dram(), "resident pinned");
        // Other groups are unaffected.
        let req = drive_swap(&mut m, page_addr(1, 2));
        m.commit_swap(&req);
        assert_eq!(m.swaps(), 1);
    }

    #[test]
    fn usable_fraction_and_effective_ratio_shrink() {
        let mut m = small();
        assert_eq!(m.usable_xpoint_fraction(), 1.0);
        assert_eq!(m.effective_ratio(), 8.0);
        // Retire a quarter of the XPoint pages (8 of 32).
        for p in 0..8u64 {
            assert!(m.retire_xpoint_page(Addr::new(p * PAGE)));
        }
        assert_eq!(m.retired_xpoint_pages(), 8);
        assert!((m.usable_xpoint_fraction() - 0.75).abs() < 1e-12);
        assert!((m.effective_ratio() - 6.0).abs() < 1e-12);
        // Addresses past the planner's XPoint window are ignored.
        assert!(!m.retire_xpoint_page(Addr::new(GROUPS * 8 * PAGE)));
    }

    #[test]
    fn pinning_still_resets_counters() {
        let mut m = small();
        let hot = page_addr(2, 1);
        let dead = m.lookup(hot).addr();
        m.retire_xpoint_page(dead);
        // Reaching the threshold suppresses the swap and resets counters:
        // the next access does not immediately re-trigger.
        for _ in 0..4 {
            assert!(m.record_access(hot).is_none());
        }
        assert_eq!(m.pinned_swaps(), 1);
        for _ in 0..3 {
            assert!(m.record_access(hot).is_none());
        }
        assert_eq!(m.pinned_swaps(), 1, "threshold must be re-earned");
    }

    #[test]
    fn widest_ratio_keeps_every_slot() {
        // 65535 XPoint pages per group: the top slot still round-trips
        // through the u16 resident and sub-slot encodings.
        let ratio = PlanarMapping::MAX_RATIO;
        let mut m = PlanarMapping::new(PlanarConfig {
            page_bytes: PAGE,
            ratio,
            hot_threshold: 1,
            capacity_bytes: (ratio as u64 + 1) * PAGE,
        });
        let top = Addr::new(ratio as u64 * PAGE);
        assert_eq!(
            m.lookup(top),
            PlanarLocation::XPoint(Addr::new((ratio as u64 - 1) * PAGE))
        );
        let req = m.record_access(top).expect("threshold 1 promotes");
        m.commit_swap(&req);
        assert!(m.lookup(top).is_dram());
        assert_eq!(
            m.lookup(Addr::new(0)),
            PlanarLocation::XPoint(Addr::new((ratio as u64 - 1) * PAGE))
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 slot range")]
    fn ratio_beyond_u16_slots_is_rejected() {
        let _ = PlanarMapping::new(PlanarConfig {
            ratio: PlanarMapping::MAX_RATIO + 1,
            capacity_bytes: (PlanarMapping::MAX_RATIO as u64 + 2) * 4096,
            ..PlanarConfig::default()
        });
    }
}
