//! Two-level memory mode: DRAM as a direct-mapped inclusive cache of
//! XPoint.
//!
//! The memory controller decodes each request into index/tag/offset and
//! checks the DRAM cacheline whose ECC region carries the line's metadata
//! (1 valid bit, 1 dirty bit, 3–6 tag bits — Section III-B). Because tag
//! and data travel in the same DRAM access, a tag check costs a single
//! DRAM read; a miss additionally fetches the line from XPoint (and
//! writes back the victim if dirty). Direct mapping keeps the tag small
//! enough to fit the ECC bits, which is why the paper rules out higher
//! associativity.
//!
//! # Capacity-aware degradation
//!
//! When the XPoint tier retires a backing line past its spare budget, the
//! cache is told via [`TwoLevelCache::retire_line`]. A retired-backed line
//! must never be *filled* (its only durable copy would land on dead media
//! after eviction): uncached accesses to it **bypass** the cache
//! ([`TwoLevelOutcome::Bypass`]) and are served straight from the
//! best-effort XPoint path, while a copy already cached when the line dies
//! is *pinned* — it hits forever and is never chosen as an eviction
//! victim, so healthy newcomers conflicting with it bypass instead.

use std::collections::BTreeSet;

use ohm_sim::{Addr, SparseState};

/// Geometry of the two-level mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelConfig {
    /// DRAM cache capacity in bytes.
    pub dram_bytes: u64,
    /// Backing XPoint capacity in bytes (Table I ratio 1:64).
    pub xpoint_bytes: u64,
    /// Cacheline (migration) granularity in bytes — one DRAM burst.
    pub line_bytes: u64,
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        TwoLevelConfig {
            dram_bytes: 6 << 20,
            xpoint_bytes: 384 << 20,
            line_bytes: 256,
        }
    }
}

impl TwoLevelConfig {
    /// Number of DRAM cachelines.
    pub fn cache_lines(&self) -> u64 {
        self.dram_bytes / self.line_bytes
    }

    /// Width of the stored tag in bits (the paper's 3–6 bits for 1:8–1:64
    /// ratios): enough for the top tag, one less than `ceil(xpoint lines
    /// / DRAM lines)`, so a geometry that is not a whole multiple of the
    /// DRAM still counts its partial last tag.
    pub fn tag_bits(&self) -> u32 {
        let tags = self
            .xpoint_bytes
            .div_ceil(self.line_bytes)
            .div_ceil(self.cache_lines().max(1))
            .max(2);
        64 - (tags - 1).leading_zeros()
    }

    /// Cacheline metadata width: 1 valid bit + 1 dirty bit + the tag.
    pub fn metadata_bits(&self) -> u32 {
        2 + self.tag_bits()
    }

    /// Whether the metadata fits in the spare ECC bits of the cacheline —
    /// the paper's Section III-B design constraint that makes the
    /// single-access tag check possible. DDR ECC provides 8 spare bits per
    /// 64 data bits; SEC-DED over 64 bits uses 7 + 1 overall parity, but
    /// applying SEC-DED at 128-bit granularity (9 check bits per 16 spare)
    /// frees 7 bits per 16 — comfortably above the 5–8 metadata bits.
    pub fn metadata_fits_ecc(&self) -> bool {
        let spare_per_128bits = 16 - 9; // SEC-DED(128) in a 16-bit budget
        let words_128 = (self.line_bytes * 8 / 128).max(1);
        self.metadata_bits() as u64 <= spare_per_128bits * words_128
    }
}

/// The outcome of a two-level access, with the migration work it implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoLevelOutcome {
    /// The line was present in DRAM; serve from DRAM.
    Hit {
        /// DRAM physical address of the cacheline.
        dram_addr: Addr,
    },
    /// The line missed; it must be fetched from XPoint and filled, and
    /// the victim written back first if dirty.
    Miss {
        /// DRAM physical address of the cacheline slot.
        dram_addr: Addr,
        /// XPoint physical address of the requested line.
        xpoint_addr: Addr,
        /// XPoint address of the dirty victim to evict, if any.
        evict_to: Option<Addr>,
    },
    /// The line is not cached and must not be filled — either its backing
    /// line is retired, or the slot it maps to is pinned by a
    /// retired-backed resident. Serve it directly from XPoint.
    Bypass {
        /// XPoint physical address of the requested line.
        xpoint_addr: Addr,
    },
}

impl TwoLevelOutcome {
    /// True for hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, TwoLevelOutcome::Hit { .. })
    }
}

/// One cacheline's metadata packed like the paper's ECC region: bit 15
/// is valid, bit 14 is dirty, bits 0–13 hold the tag. All-zero is an
/// invalid slot — the [`SparseState`] default — so untouched slots
/// still cost nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Meta(u16);

impl Meta {
    const VALID: u16 = 1 << 15;
    const DIRTY: u16 = 1 << 14;
    const TAG_MASK: u16 = (1 << TwoLevelCache::TAG_BITS) - 1;

    /// A valid entry for `tag` (which [`TwoLevelCache::new`] bounds to
    /// [`TwoLevelCache::TAG_BITS`]).
    fn filled(tag: u64, dirty: bool) -> Self {
        debug_assert!(tag <= Self::TAG_MASK as u64, "tag {tag} exceeds the mask");
        Meta(Self::VALID | if dirty { Self::DIRTY } else { 0 } | tag as u16)
    }

    fn valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    fn tag(self) -> u64 {
        (self.0 & Self::TAG_MASK) as u64
    }

    /// Whether this entry holds `tag`.
    fn holds(self, tag: u64) -> bool {
        self.valid() && self.tag() == tag
    }
}

/// The direct-mapped DRAM cache state (tags modelled in-controller; the
/// hardware keeps them in DRAM ECC, which is why a tag check costs one
/// DRAM access and no extra channel traffic).
///
/// # Example
///
/// ```
/// use ohm_hetero::{TwoLevelCache, TwoLevelConfig};
/// use ohm_sim::{Addr, SparseState};
///
/// let mut c = TwoLevelCache::new(TwoLevelConfig::default());
/// let first = c.access(Addr::new(0x1000), false);
/// assert!(!first.is_hit());
/// assert!(c.access(Addr::new(0x1000), false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelCache {
    cfg: TwoLevelConfig,
    /// Per-slot cacheline metadata (2 bytes a slot), materialized only
    /// for slots actually filled — the all-invalid default is exactly an
    /// untouched slot, so an empty cache costs nothing regardless of DRAM
    /// capacity.
    meta: SparseState<Meta>,
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
    /// XPoint line indices retired by the memory tier — never fill
    /// targets, never eviction destinations.
    retired: BTreeSet<u64>,
    /// Accesses served around the cache because of retirement.
    bypasses: u64,
}

impl TwoLevelCache {
    /// Widest tag a slot's packed 2-byte metadata entry holds.
    pub const TAG_BITS: u32 = 14;

    /// Creates an empty (all-invalid) DRAM cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero lines, XPoint smaller
    /// than DRAM, or a non-power-of-two line size) or needs tags wider
    /// than the 14 bits a packed metadata entry holds.
    pub fn new(cfg: TwoLevelConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.cache_lines() > 0, "DRAM cache needs at least one line");
        assert!(
            cfg.xpoint_bytes >= cfg.dram_bytes,
            "XPoint must back the whole DRAM cache"
        );
        assert!(
            cfg.tag_bits() <= Self::TAG_BITS,
            "{}-bit tags exceed the {}-bit metadata entry",
            cfg.tag_bits(),
            Self::TAG_BITS
        );
        TwoLevelCache {
            meta: SparseState::new(cfg.cache_lines()),
            cfg,
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
            retired: BTreeSet::new(),
            bypasses: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &TwoLevelConfig {
        &self.cfg
    }

    fn decode(&self, addr: Addr) -> (usize, u64) {
        let line = addr.block_index(self.cfg.line_bytes);
        let index = (line % self.cfg.cache_lines()) as usize;
        let tag = line / self.cfg.cache_lines();
        (index, tag)
    }

    fn dram_addr(&self, index: usize) -> Addr {
        Addr::from_block(index as u64, self.cfg.line_bytes)
    }

    fn xpoint_addr(&self, index: usize, tag: u64) -> Addr {
        Addr::from_block(
            tag * self.cfg.cache_lines() + index as u64,
            self.cfg.line_bytes,
        )
    }

    /// Accesses the line containing `addr` (an XPoint-space address); on a
    /// miss the line is filled and the previous occupant evicted. Lines
    /// whose backing store is retired bypass the cache instead of filling,
    /// and a cached retired-backed resident is pinned (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the XPoint capacity.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> TwoLevelOutcome {
        assert!(
            addr.get() < self.cfg.xpoint_bytes,
            "address beyond XPoint capacity"
        );
        let (index, tag) = self.decode(addr);
        let dram_addr = self.dram_addr(index);
        let m = *self.meta.get(index as u64);
        if m.holds(tag) {
            if is_write {
                self.meta.set(index as u64, Meta::filled(tag, true));
            }
            self.hits += 1;
            return TwoLevelOutcome::Hit { dram_addr };
        }
        if !self.retired.is_empty() {
            let line = addr.block_index(self.cfg.line_bytes);
            let xpoint_addr = self.xpoint_addr(index, tag);
            if self.retired.contains(&line) {
                // Retired-backed and uncached: filling would strand the
                // only durable copy on dead media at eviction time.
                self.bypasses += 1;
                return TwoLevelOutcome::Bypass { xpoint_addr };
            }
            let resident_line = m.tag() * self.cfg.cache_lines() + index as u64;
            if m.valid() && self.retired.contains(&resident_line) {
                // The slot's resident is pinned (its backing line is
                // dead); the healthy newcomer goes around the cache.
                self.bypasses += 1;
                return TwoLevelOutcome::Bypass { xpoint_addr };
            }
        }
        self.misses += 1;
        let evict_to = (m.valid() && m.dirty()).then(|| {
            self.dirty_evictions += 1;
            self.xpoint_addr(index, m.tag())
        });
        let xpoint_addr = self.xpoint_addr(index, tag);
        self.meta.set(index as u64, Meta::filled(tag, is_write));
        TwoLevelOutcome::Miss {
            dram_addr,
            xpoint_addr,
            evict_to,
        }
    }

    /// Whether the line containing `addr` is currently cached.
    pub fn contains(&self, addr: Addr) -> bool {
        let (index, tag) = self.decode(addr);
        self.meta.get(index as u64).holds(tag)
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions (each one costs a DRAM read + XPoint write).
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Marks the XPoint line containing `addr` as retired (dead backing
    /// media). Returns `true` if the line was newly retired.
    pub fn retire_line(&mut self, xpoint_addr: Addr) -> bool {
        let line = xpoint_addr.block_index(self.cfg.line_bytes);
        if line >= self.cfg.xpoint_bytes / self.cfg.line_bytes {
            return false; // outside this cache's backing window
        }
        self.retired.insert(line)
    }

    /// XPoint lines retired so far.
    pub fn retired_lines(&self) -> u64 {
        self.retired.len() as u64
    }

    /// Whether the XPoint line containing `addr` is retired.
    pub fn is_line_retired(&self, xpoint_addr: Addr) -> bool {
        self.retired
            .contains(&xpoint_addr.block_index(self.cfg.line_bytes))
    }

    /// Accesses served around the cache because of retirement (uncached
    /// retired-backed lines plus newcomers blocked by pinned residents).
    pub fn bypasses(&self) -> u64 {
        self.bypasses
    }

    /// Cache slots currently pinned by a retired-backed resident.
    /// Only visits materialized slots — untouched slots are invalid by
    /// definition and can never pin anything.
    pub fn pinned_lines(&self) -> u64 {
        self.meta
            .iter_touched()
            .filter(|(index, m)| {
                m.valid()
                    && self
                        .retired
                        .contains(&(m.tag() * self.cfg.cache_lines() + index))
            })
            .count() as u64
    }

    /// Heap bytes held by the materialized cache metadata. Scales with
    /// slots actually filled, not with the configured DRAM capacity.
    pub fn state_bytes(&self) -> usize {
        self.meta.heap_bytes() + self.retired.len() * 3 * std::mem::size_of::<u64>()
    }

    /// Number of sparse metadata chunks materialized so far (diagnostic
    /// for bounded-memory tests).
    pub fn touched_chunks(&self) -> usize {
        self.meta.touched_chunks()
    }

    /// Fraction of the backing XPoint still usable (retired lines
    /// excluded).
    pub fn usable_xpoint_fraction(&self) -> f64 {
        let total = self.cfg.xpoint_bytes / self.cfg.line_bytes;
        1.0 - self.retired.len() as f64 / total as f64
    }

    /// Hit rate so far (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TwoLevelCache {
        // 4 lines of 256 B DRAM backing 64 lines of XPoint.
        TwoLevelCache::new(TwoLevelConfig {
            dram_bytes: 1024,
            xpoint_bytes: 16 * 1024,
            line_bytes: 256,
        })
    }

    #[test]
    fn tag_bits_match_ratio() {
        // 1:64 ratio -> 6 tag bits, the paper's upper bound.
        let c = TwoLevelConfig {
            dram_bytes: 6 << 20,
            xpoint_bytes: 384 << 20,
            line_bytes: 256,
        };
        assert_eq!(c.tag_bits(), 6);
        // 1:8 -> 3 bits, the paper's lower bound.
        let c8 = TwoLevelConfig {
            dram_bytes: 1 << 20,
            xpoint_bytes: 8 << 20,
            line_bytes: 256,
        };
        assert_eq!(c8.tag_bits(), 3);
    }

    #[test]
    fn tag_bits_count_a_partial_last_tag() {
        // 64.5:1 — XPoint line 128 maps to tag 64, which needs 7 bits.
        let c = TwoLevelConfig {
            dram_bytes: 2 * 256,
            xpoint_bytes: 129 * 256,
            line_bytes: 256,
        };
        assert_eq!(c.tag_bits(), 7);
        assert_eq!(c.metadata_bits(), 9);
        let mut cache = TwoLevelCache::new(c);
        let top = Addr::new(128 * 256);
        assert!(!cache.access(top, true).is_hit());
        assert!(cache.contains(top), "the top tag round-trips");
        // A whole multiple stays at the floor: 64:1 -> 6 bits.
        let whole = TwoLevelConfig {
            xpoint_bytes: 128 * 256,
            ..c
        };
        assert_eq!(whole.tag_bits(), 6);
    }

    #[test]
    #[should_panic(expected = "15-bit tags exceed the 14-bit metadata entry")]
    fn tags_wider_than_the_entry_are_rejected() {
        let _ = TwoLevelCache::new(TwoLevelConfig {
            dram_bytes: 256,
            xpoint_bytes: ((1 << 14) + 1) * 256,
            line_bytes: 256,
        });
    }

    #[test]
    fn metadata_fits_the_ecc_region_at_paper_ratios() {
        for (dram, xp) in [(6u64 << 20, 48u64 << 20), (6 << 20, 384 << 20)] {
            let c = TwoLevelConfig {
                dram_bytes: dram,
                xpoint_bytes: xp,
                line_bytes: 256,
            };
            assert!(c.metadata_bits() <= 8, "paper: 1+1+3..6 bits");
            assert!(c.metadata_fits_ecc(), "ratio {}:{}", dram >> 20, xp >> 20);
        }
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = tiny();
        let o = c.access(Addr::new(0), false);
        match o {
            TwoLevelOutcome::Miss {
                dram_addr,
                xpoint_addr,
                evict_to,
            } => {
                assert_eq!(dram_addr, Addr::new(0));
                assert_eq!(xpoint_addr, Addr::new(0));
                assert_eq!(evict_to, None);
            }
            _ => panic!("expected miss"),
        }
        assert!(c.access(Addr::new(128), false).is_hit()); // same line
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = tiny();
        // Lines 0 and 4 map to index 0 (4 cache lines).
        c.access(Addr::new(0), true); // dirty
        let o = c.access(Addr::new(4 * 256), false);
        match o {
            TwoLevelOutcome::Miss { evict_to, .. } => {
                assert_eq!(evict_to, Some(Addr::new(0)), "dirty victim must evict");
            }
            _ => panic!("expected miss"),
        }
        assert!(!c.contains(Addr::new(0)));
        assert!(c.contains(Addr::new(4 * 256)));
        assert_eq!(c.dirty_evictions(), 1);
    }

    #[test]
    fn clean_victim_needs_no_eviction() {
        let mut c = tiny();
        c.access(Addr::new(0), false);
        match c.access(Addr::new(4 * 256), false) {
            TwoLevelOutcome::Miss { evict_to, .. } => assert_eq!(evict_to, None),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = tiny();
        c.access(Addr::new(0), false);
        c.access(Addr::new(0), true); // hit, dirty
        match c.access(Addr::new(4 * 256), false) {
            TwoLevelOutcome::Miss { evict_to, .. } => assert_eq!(evict_to, Some(Addr::new(0))),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn xpoint_addresses_roundtrip() {
        let mut c = tiny();
        // Fill index 2 with tag 3: XPoint line 3*4+2 = 14.
        let addr = Addr::new(14 * 256);
        match c.access(addr, false) {
            TwoLevelOutcome::Miss {
                dram_addr,
                xpoint_addr,
                ..
            } => {
                assert_eq!(dram_addr, Addr::new(2 * 256));
                assert_eq!(xpoint_addr, addr);
            }
            _ => panic!("expected miss"),
        }
    }

    #[test]
    #[should_panic(expected = "beyond XPoint capacity")]
    fn capacity_enforced() {
        let mut c = tiny();
        let _ = c.access(Addr::new(16 * 1024), false);
    }

    #[test]
    fn retired_line_bypasses_instead_of_filling() {
        let mut c = tiny();
        let dead = Addr::new(8 * 256); // maps to index 0, tag 2
        assert!(c.retire_line(dead));
        assert!(!c.retire_line(dead), "idempotent");
        assert!(c.is_line_retired(dead));
        match c.access(dead, false) {
            TwoLevelOutcome::Bypass { xpoint_addr } => assert_eq!(xpoint_addr, dead),
            o => panic!("expected bypass, got {o:?}"),
        }
        assert!(!c.contains(dead), "bypass must not fill");
        assert_eq!(c.bypasses(), 1);
        assert_eq!(c.misses(), 0);
        // The slot stays free for healthy lines.
        assert!(!c.access(Addr::new(0), false).is_hit());
        assert!(c.access(Addr::new(0), false).is_hit());
    }

    #[test]
    fn cached_copy_of_retired_line_is_pinned() {
        let mut c = tiny();
        let line = Addr::new(4 * 256); // index 0, tag 1
        c.access(line, true); // fill dirty
        assert!(c.retire_line(line));
        assert_eq!(c.pinned_lines(), 1);
        // Still hits: the DRAM copy is the only good one left.
        assert!(c.access(line, false).is_hit());
        // A conflicting healthy line must not evict it.
        let rival = Addr::new(0); // index 0, tag 0
        match c.access(rival, false) {
            TwoLevelOutcome::Bypass { xpoint_addr } => assert_eq!(xpoint_addr, rival),
            o => panic!("expected bypass, got {o:?}"),
        }
        assert!(c.contains(line), "pinned resident survived");
        assert!(!c.contains(rival));
        // Unrelated indices are unaffected.
        assert!(!c.access(Addr::new(256), false).is_hit());
        assert!(c.access(Addr::new(256), false).is_hit());
    }

    #[test]
    fn usable_fraction_tracks_retirement() {
        let mut c = tiny();
        assert_eq!(c.usable_xpoint_fraction(), 1.0);
        for l in 0..16u64 {
            assert!(c.retire_line(Addr::new(l * 256)));
        }
        assert_eq!(c.retired_lines(), 16);
        assert!((c.usable_xpoint_fraction() - 0.75).abs() < 1e-12);
        // Beyond the backing window: rejected.
        assert!(!c.retire_line(Addr::new(16 * 1024)));
    }
}
