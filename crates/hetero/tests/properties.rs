//! Randomized-property tests for heterogeneous-memory policy invariants,
//! driven by the workspace's own deterministic [`SplitMix64`] generator.

use ohm_hetero::{ConflictDetector, PlanarConfig, PlanarMapping, TwoLevelCache, TwoLevelConfig};
use ohm_sim::{Addr, Ps, SplitMix64};

/// The planar remap stays a bijection over the whole logical space
/// under any access sequence (swaps committed as they trigger).
#[test]
fn planar_mapping_stays_bijective() {
    let mut rng = SplitMix64::new(0xB11);
    for _case in 0..32 {
        let n = 1 + rng.next_below(400) as usize;
        let mut map = PlanarMapping::new(PlanarConfig {
            page_bytes: 4096,
            ratio: 8,
            hot_threshold: 3,
            capacity_bytes: 4 * 9 * 4096,
        });
        for _ in 0..n {
            let addr = Addr::new(rng.next_below(4 * 9) * 4096);
            if let Some(req) = map.record_access(addr) {
                map.commit_swap(&req);
            }
        }
        let mut seen = std::collections::HashSet::new();
        for page in 0..(4 * 9u64) {
            let loc = map.lookup(Addr::new(page * 4096));
            assert!(
                seen.insert((loc.is_dram(), loc.addr().get())),
                "two pages share a physical location"
            );
        }
        // Exactly one DRAM resident per group.
        let dram_count = (0..(4 * 9u64))
            .filter(|&p| map.lookup(Addr::new(p * 4096)).is_dram())
            .count();
        assert_eq!(dram_count, 4);
    }
}

/// The most recently accessed line is always resident in the
/// direct-mapped DRAM cache, and hit/miss counts partition accesses.
#[test]
fn two_level_inclusion_of_last_access() {
    let mut rng = SplitMix64::new(0x212);
    for _case in 0..32 {
        let n = 1 + rng.next_below(300) as usize;
        let mut cache = TwoLevelCache::new(TwoLevelConfig {
            dram_bytes: 2048,
            xpoint_bytes: 64 * 1024,
            line_bytes: 256,
        });
        for _ in 0..n {
            let addr = Addr::new(rng.next_below(256) * 256);
            cache.access(addr, rng.chance(0.5));
            assert!(cache.contains(addr), "just-accessed line must be cached");
        }
        assert_eq!(cache.hits() + cache.misses(), n as u64);
        assert!(cache.dirty_evictions() <= cache.misses());
    }
}

/// Conflict-detector redirects always point at the registered pair and
/// preserve the in-page offset; completing releases both pages.
#[test]
fn conflict_redirects_roundtrip() {
    let mut rng = SplitMix64::new(0xC0F);
    for _case in 0..32 {
        let n = 1 + rng.next_below(50) as usize;
        let pairs: Vec<(u64, u64, u64)> = (0..n)
            .map(|_| {
                (
                    rng.next_below(64),
                    64 + rng.next_below(64),
                    rng.next_below(4096),
                )
            })
            .collect();
        let mut cd = ConflictDetector::new(4096);
        let mut ids = Vec::new();
        for &(dram_page, xp_page, offset) in &pairs {
            let dram = Addr::new(dram_page * 4096);
            let xp = Addr::new(xp_page * 4096);
            let id = cd.register(dram, xp, Ps::from_us(1));
            // A redirect for any offset within the page maps to the same
            // offset on the paired device.
            if let Some(r) = cd.redirect_dram(Addr::new(dram_page * 4096 + offset)) {
                assert_eq!(r.paired.offset_in(4096), offset);
                assert_eq!(
                    r.paired.align_down(4096).block_index(4096) * 4096,
                    r.paired.align_down(4096).get()
                );
            } else {
                panic!("registered page must redirect");
            }
            ids.push(id);
        }
        for id in ids {
            cd.complete(id);
        }
        assert_eq!(cd.in_flight(), 0);
        for &(dram_page, xp_page, _) in &pairs {
            assert!(cd.redirect_dram(Addr::new(dram_page * 4096)).is_none());
            assert!(cd.redirect_xpoint(Addr::new(xp_page * 4096)).is_none());
        }
    }
}

/// A dense mirror of the planar planner's state — the per-group `Vec`
/// layout the sparse implementation replaced. The property below drives
/// both through identical sequences; any divergence in lookups, swap
/// requests or counters means the sparse refactor changed semantics.
struct DensePlanar {
    cfg: PlanarConfig,
    residents: Vec<usize>,
    counters: Vec<u32>,
    subs: Vec<Option<u16>>,
    swaps: u64,
    retired: std::collections::BTreeSet<u64>,
    pinned: u64,
}

impl DensePlanar {
    fn new(cfg: PlanarConfig) -> Self {
        let groups = cfg.groups() as usize;
        let gp = cfg.group_pages();
        let mut subs = vec![None; groups * gp];
        for g in 0..groups {
            for s in 1..gp {
                subs[g * gp + s] = Some((s - 1) as u16);
            }
        }
        DensePlanar {
            cfg,
            residents: vec![0; groups],
            counters: vec![0; groups * gp],
            subs,
            swaps: 0,
            retired: std::collections::BTreeSet::new(),
            pinned: 0,
        }
    }

    fn split(&self, addr: Addr) -> (usize, usize, u64) {
        let page = addr.get() / self.cfg.page_bytes;
        let groups = self.cfg.groups();
        (
            (page % groups) as usize,
            (page / groups) as usize,
            addr.get() % self.cfg.page_bytes,
        )
    }

    /// `(is_dram, physical_addr)` of a logical address.
    fn lookup(&self, addr: Addr) -> (bool, u64) {
        let (group, slot, offset) = self.split(addr);
        if self.residents[group] == slot {
            (true, group as u64 * self.cfg.page_bytes + offset)
        } else {
            let sub = self.subs[group * self.cfg.group_pages() + slot].unwrap() as u64;
            (
                false,
                (group as u64 * self.cfg.ratio as u64 + sub) * self.cfg.page_bytes + offset,
            )
        }
    }

    /// `Some((promote_page, demote_page, dram, xp))` when a swap fires.
    fn record_access(&mut self, addr: Addr) -> Option<(u64, u64, u64, u64)> {
        let (group, slot, _) = self.split(addr);
        let gp = self.cfg.group_pages();
        let idx = group * gp + slot;
        self.counters[idx] += 1;
        if slot == self.residents[group] || self.counters[idx] < self.cfg.hot_threshold {
            return None;
        }
        let sub = self.subs[idx].unwrap();
        for s in 0..gp {
            self.counters[group * gp + s] = 0;
        }
        if self
            .retired
            .contains(&(group as u64 * self.cfg.ratio as u64 + sub as u64))
        {
            self.pinned += 1;
            return None;
        }
        let resident = self.residents[group];
        Some((
            (group * gp + slot) as u64,
            (group * gp + resident) as u64,
            group as u64 * self.cfg.page_bytes,
            (group as u64 * self.cfg.ratio as u64 + sub as u64) * self.cfg.page_bytes,
        ))
    }

    fn commit_swap(&mut self, promote_page: u64, demote_page: u64) {
        let gp = self.cfg.group_pages();
        let group = promote_page as usize / gp;
        let promote_slot = promote_page as usize % gp;
        let demote_slot = demote_page as usize % gp;
        self.subs[group * gp + demote_slot] = self.subs[group * gp + promote_slot];
        self.subs[group * gp + promote_slot] = None;
        self.residents[group] = promote_slot;
        self.swaps += 1;
    }

    fn retire(&mut self, xpoint_addr: Addr) {
        let page = xpoint_addr.get() / self.cfg.page_bytes;
        if page < self.cfg.groups() * self.cfg.ratio as u64 {
            self.retired.insert(page);
        }
    }
}

/// The sparse planner is bit-identical to the dense per-group layout it
/// replaced: same lookups, same swap requests, same counters, under
/// random access/retire sequences at tier-1-sized footprints.
#[test]
fn sparse_planar_matches_dense_oracle() {
    let mut rng = SplitMix64::new(0x5FA);
    for case in 0..16u64 {
        let cfg = PlanarConfig {
            page_bytes: 4096,
            ratio: 8,
            hot_threshold: 2 + (case % 3) as u32,
            capacity_bytes: (3 + case % 5) * 9 * 4096,
        };
        let total_pages = cfg.groups() * cfg.group_pages() as u64;
        let mut sparse = PlanarMapping::new(cfg);
        let mut dense = DensePlanar::new(cfg);
        for _ in 0..4000 {
            let op = rng.next_below(100);
            if op < 2 {
                // Retire a random XPoint device page on both sides.
                let xp = Addr::new(rng.next_below(cfg.xpoint_bytes().max(1)));
                sparse.retire_xpoint_page(xp);
                dense.retire(xp);
                continue;
            }
            let addr = Addr::new(rng.next_below(total_pages * 4096));
            if op < 20 {
                let (is_dram, phys) = dense.lookup(addr);
                let loc = sparse.lookup(addr);
                assert_eq!(loc.is_dram(), is_dram);
                assert_eq!(loc.addr().get(), phys);
            } else {
                let want = dense.record_access(addr);
                let got = sparse.record_access(addr);
                match (got, want) {
                    (None, None) => {}
                    (Some(req), Some((promote, demote, dram, xp))) => {
                        assert_eq!(req.promote_page, promote);
                        assert_eq!(req.demote_page, demote);
                        assert_eq!(req.dram_addr.get(), dram);
                        assert_eq!(req.xpoint_addr.get(), xp);
                        assert_eq!(req.page_bytes, cfg.page_bytes);
                        sparse.commit_swap(&req);
                        dense.commit_swap(promote, demote);
                    }
                    (got, want) => panic!("swap divergence: sparse={got:?} dense={want:?}"),
                }
            }
        }
        assert_eq!(sparse.swaps(), dense.swaps);
        assert_eq!(sparse.pinned_swaps(), dense.pinned);
        assert_eq!(sparse.retired_xpoint_pages(), dense.retired.len() as u64);
        // Full-space sweep: every logical page resolves identically.
        for page in 0..total_pages {
            let addr = Addr::new(page * 4096);
            let (is_dram, phys) = dense.lookup(addr);
            let loc = sparse.lookup(addr);
            assert_eq!(loc.is_dram(), is_dram, "page {page}");
            assert_eq!(loc.addr().get(), phys, "page {page}");
        }
    }
}

/// A dense mirror of the two-level cache's metadata — the
/// one-entry-per-cacheline `Vec` the sparse implementation replaced.
struct DenseTwoLevel {
    cfg: TwoLevelConfig,
    meta: Vec<(u64, bool, bool)>, // (tag, valid, dirty)
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
    retired: std::collections::BTreeSet<u64>,
    bypasses: u64,
}

/// `(kind, dram_addr, xpoint_addr, evict_to)`; kind 0=hit 1=miss 2=bypass.
type DenseOutcome = (u8, u64, u64, Option<u64>);

impl DenseTwoLevel {
    fn new(cfg: TwoLevelConfig) -> Self {
        DenseTwoLevel {
            meta: vec![(0, false, false); cfg.cache_lines() as usize],
            cfg,
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
            retired: std::collections::BTreeSet::new(),
            bypasses: 0,
        }
    }

    fn access(&mut self, addr: Addr, is_write: bool) -> DenseOutcome {
        let lines = self.cfg.cache_lines();
        let line = addr.get() / self.cfg.line_bytes;
        let index = (line % lines) as usize;
        let tag = line / lines;
        let dram = index as u64 * self.cfg.line_bytes;
        let xp = (tag * lines + index as u64) * self.cfg.line_bytes;
        let (rtag, valid, dirty) = self.meta[index];
        if valid && rtag == tag {
            if is_write {
                self.meta[index].2 = true;
            }
            self.hits += 1;
            return (0, dram, 0, None);
        }
        if self.retired.contains(&line)
            || (valid && self.retired.contains(&(rtag * lines + index as u64)))
        {
            self.bypasses += 1;
            return (2, 0, xp, None);
        }
        self.misses += 1;
        let evict_to = (valid && dirty).then(|| {
            self.dirty_evictions += 1;
            (rtag * lines + index as u64) * self.cfg.line_bytes
        });
        self.meta[index] = (tag, true, is_write);
        (1, dram, xp, evict_to)
    }

    fn pinned_lines(&self) -> u64 {
        let lines = self.cfg.cache_lines();
        self.meta
            .iter()
            .enumerate()
            .filter(|(i, (tag, valid, _))| {
                *valid && self.retired.contains(&(tag * lines + *i as u64))
            })
            .count() as u64
    }
}

/// Drives `cache` and the `(tag, valid, dirty)` reference through `ops`
/// random operations — 2% retirements, the rest reads and writes at
/// addresses drawn by `pick` — and requires identical outcomes, residency
/// and tallies.
fn run_against_reference(
    cfg: TwoLevelConfig,
    rng: &mut SplitMix64,
    ops: usize,
    mut pick: impl FnMut(&mut SplitMix64) -> Addr,
) {
    use ohm_hetero::TwoLevelOutcome;
    let mut cache = TwoLevelCache::new(cfg);
    let mut dense = DenseTwoLevel::new(cfg);
    for _ in 0..ops {
        let op = rng.next_below(100);
        if op < 2 {
            let xp = pick(rng);
            cache.retire_line(xp);
            dense.retired.insert(xp.get() / cfg.line_bytes);
            continue;
        }
        let addr = pick(rng);
        let is_write = op.is_multiple_of(2);
        let want = dense.access(addr, is_write);
        let got = cache.access(addr, is_write);
        match (got, want) {
            (TwoLevelOutcome::Hit { dram_addr }, (0, dram, _, _)) => {
                assert_eq!(dram_addr.get(), dram);
            }
            (
                TwoLevelOutcome::Miss {
                    dram_addr,
                    xpoint_addr,
                    evict_to,
                },
                (1, dram, xp, evict),
            ) => {
                assert_eq!(dram_addr.get(), dram);
                assert_eq!(xpoint_addr.get(), xp);
                assert_eq!(evict_to.map(|a| a.get()), evict);
            }
            (TwoLevelOutcome::Bypass { xpoint_addr }, (2, _, xp, _)) => {
                assert_eq!(xpoint_addr.get(), xp);
            }
            (got, want) => panic!("outcome divergence: cache={got:?} reference={want:?}"),
        }
        assert_eq!(cache.contains(addr), {
            let line = addr.get() / cfg.line_bytes;
            let index = (line % cfg.cache_lines()) as usize;
            let (tag, valid, _) = dense.meta[index];
            valid && tag == line / cfg.cache_lines()
        });
    }
    assert_eq!(cache.hits(), dense.hits);
    assert_eq!(cache.misses(), dense.misses);
    assert_eq!(cache.dirty_evictions(), dense.dirty_evictions);
    assert_eq!(cache.bypasses(), dense.bypasses);
    assert_eq!(cache.pinned_lines(), dense.pinned_lines());
}

/// The sparse two-level cache is bit-identical to the dense metadata
/// vector it replaced under random access/retire sequences.
#[test]
fn sparse_two_level_matches_dense_oracle() {
    let mut rng = SplitMix64::new(0x2CA);
    for case in 0..16u64 {
        let cfg = TwoLevelConfig {
            dram_bytes: (2 + case % 4) * 16 * 256,
            xpoint_bytes: (2 + case % 4) * 16 * 256 * 8,
            line_bytes: 256,
        };
        run_against_reference(cfg, &mut rng, 4000, |rng| {
            Addr::new(rng.next_below(cfg.xpoint_bytes))
        });
    }
}

/// The packed 2-byte metadata keeps the wide `(tag, valid, dirty)`
/// semantics up to the widest tag it holds: every geometry here has
/// 2^14 tags per slot, and accesses crowd the lowest and highest tags so
/// tag 2^14 − 1 meets valid/dirty state and conflicts with tag 0.
#[test]
fn packed_two_level_matches_wide_reference_at_the_widest_tags() {
    const TAGS: u64 = 1 << 14;
    let mut rng = SplitMix64::new(0x7A6);
    for case in 0..12u64 {
        let lines = 1 + case % 5;
        let cfg = TwoLevelConfig {
            dram_bytes: lines * 256,
            xpoint_bytes: lines * 256 * TAGS,
            line_bytes: 256,
        };
        assert_eq!(cfg.tag_bits(), 14);
        run_against_reference(cfg, &mut rng, 3000, |rng| {
            let tag = match rng.next_below(4) {
                0 => rng.next_below(3),
                1 => TAGS - 1 - rng.next_below(3),
                _ => rng.next_below(TAGS),
            };
            let index = rng.next_below(lines);
            Addr::new((tag * lines + index) * 256 + rng.next_below(256))
        });
    }
}

/// Filled slots cost about 2 bytes each (plus the sparse chunk
/// overhead), not the 16 of a `(u64, bool, bool)` entry.
#[test]
fn filled_two_level_slots_cost_under_three_bytes_each() {
    let chunks = 32u64;
    let slots = chunks * ohm_sim::sparse::CHUNK_LEN as u64;
    let mut cache = TwoLevelCache::new(TwoLevelConfig {
        dram_bytes: slots * 256,
        xpoint_bytes: slots * 256 * 64,
        line_bytes: 256,
    });
    for slot in 0..slots {
        cache.access(Addr::new((63 * slots + slot) * 256), slot % 3 == 0);
    }
    assert_eq!(cache.touched_chunks() as u64, chunks);
    assert!(
        cache.state_bytes() as u64 <= 3 * slots,
        "{} bytes for {slots} slots",
        cache.state_bytes()
    );
}

/// Construction is free and state grows with pages *touched*, not with
/// the configured capacity: a 16 GiB planar space and a 16 GiB DRAM
/// cache both cost zero bytes until accessed and only O(touched) after.
#[test]
fn huge_capacity_state_is_touch_proportional() {
    let mut map = PlanarMapping::new(PlanarConfig {
        capacity_bytes: 16 << 30,
        ..PlanarConfig::default()
    });
    assert_eq!(map.state_bytes(), 0);
    assert_eq!(map.touched_chunks(), 0);
    let mut rng = SplitMix64::new(0xB16);
    for _ in 0..500 {
        let addr = Addr::new(rng.next_below(16 << 30) & !4095);
        if let Some(req) = map.record_access(addr) {
            map.commit_swap(&req);
        }
    }
    // 500 scattered pages → at most 500 page chunks + 500 resident
    // chunks, far under a dense table for 4 Mi pages.
    assert!(map.touched_chunks() <= 1000);
    assert!(map.state_bytes() < 1 << 20, "{} bytes", map.state_bytes());

    let mut cache = TwoLevelCache::new(TwoLevelConfig {
        dram_bytes: 16 << 30,
        xpoint_bytes: 128 << 30,
        line_bytes: 256,
    });
    assert_eq!(cache.state_bytes(), 0);
    assert_eq!(cache.touched_chunks(), 0);
    for _ in 0..500 {
        let addr = Addr::new(rng.next_below(128 << 30) & !255);
        cache.access(addr, true);
    }
    assert!(cache.touched_chunks() <= 500);
    assert!(
        cache.state_bytes() < 1 << 20,
        "{} bytes",
        cache.state_bytes()
    );
}
