//! Randomized-property tests for the simulation kernel invariants.
//!
//! The workspace builds offline, so these use the crate's own
//! deterministic [`SplitMix64`] to drive many random cases per property
//! instead of an external property-testing framework.

use ohm_sim::{Calendar, EventQueue, Ps, SplitMix64, TaggedCalendar};

/// The event queue always delivers events in nondecreasing time order,
/// and FIFO among equal timestamps.
#[test]
fn event_queue_is_time_ordered() {
    let mut rng = SplitMix64::new(0xE1);
    for _case in 0..64 {
        let n = 1 + rng.next_below(200) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(Ps::from_ps(rng.next_below(1_000)), i);
        }
        let mut last_time = Ps::ZERO;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((t, seq)) = q.pop() {
            assert!(t >= last_time);
            if t == last_time {
                if let Some(prev) = last_seq_at_time {
                    assert!(seq > prev, "FIFO violated at equal timestamps");
                }
            }
            last_time = t;
            last_seq_at_time = Some(seq);
        }
    }
}

/// A calendar never grants overlapping intervals and never lets a
/// booking start before the client is ready.
#[test]
fn calendar_never_double_books() {
    let mut rng = SplitMix64::new(0xCA1);
    for _case in 0..64 {
        let n = 1 + rng.next_below(200) as usize;
        let reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.next_below(10_000), 1 + rng.next_below(499)))
            .collect();
        let mut cal = Calendar::new();
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for &(ready, dur) in &reqs {
            let (start, end) = cal.book(Ps::from_ps(ready), Ps::from_ps(dur));
            assert!(start >= Ps::from_ps(ready));
            assert_eq!(end - start, Ps::from_ps(dur));
            for &(s, e) in &intervals {
                let (ns, ne) = (start.as_ps(), end.as_ps());
                assert!(ne <= s || ns >= e, "overlap: [{ns},{ne}) vs [{s},{e})");
            }
            intervals.push((start.as_ps(), end.as_ps()));
        }
        // Busy time equals the sum of requested durations.
        let total: u64 = reqs.iter().map(|&(_, d)| d).sum();
        assert_eq!(cal.busy_time(), Ps::from_ps(total));
    }
}

/// Reference calendar for the oracle test: the same booking rules as
/// [`Calendar`], written the obvious way — a plain `Vec` of gaps, a
/// linear earliest-fit scan, and oldest-first eviction past 64 gaps.
struct RefCalendar {
    next_free: u64,
    gaps: Vec<(u64, u64)>,
    evictions: u64,
}

impl RefCalendar {
    const MAX_GAPS: usize = 64;

    fn new() -> Self {
        RefCalendar {
            next_free: 0,
            gaps: Vec::new(),
            evictions: 0,
        }
    }

    fn trim(&mut self) {
        if self.gaps.len() > Self::MAX_GAPS {
            self.gaps.remove(0);
            self.evictions += 1;
        }
    }

    fn book(&mut self, ready: u64, dur: u64) -> (u64, u64) {
        for i in 0..self.gaps.len() {
            let (gs, ge) = self.gaps[i];
            let start = ready.max(gs);
            let end = start + dur;
            if end <= ge {
                self.gaps.remove(i);
                if end < ge {
                    self.gaps.insert(i, (end, ge));
                }
                if start > gs {
                    self.gaps.insert(i, (gs, start));
                }
                self.trim();
                return (start, end);
            }
        }
        let start = ready.max(self.next_free);
        if start > self.next_free {
            self.gaps.push((self.next_free, start));
            self.trim();
        }
        self.next_free = start + dur;
        (start, start + dur)
    }
}

/// The calendar's gap search picks exactly the gap a linear earliest-fit
/// scan picks, through full-ring splits and oldest-first evictions.
#[test]
fn calendar_matches_linear_scan_oracle() {
    let mut rng = SplitMix64::new(0x0_5CA1);
    let mut evictions = 0;
    for _case in 0..64 {
        let n = 65 + rng.next_below(1_000) as usize;
        let mut cal = Calendar::new();
        let mut oracle = RefCalendar::new();
        for k in 0..n {
            // Mostly backfill candidates behind the tail, with regular
            // jumps past it that leave fresh gaps to fill.
            let ready = match rng.next_below(4) {
                0 => oracle.next_free + rng.next_below(2_000),
                _ => oracle.next_free.saturating_sub(rng.next_below(20_000)),
            };
            let dur = 1 + rng.next_below(300);
            let got = cal.book(Ps::from_ps(ready), Ps::from_ps(dur));
            let want = oracle.book(ready, dur);
            assert_eq!(
                (got.0.as_ps(), got.1.as_ps()),
                want,
                "booking {k}: ready {ready}, dur {dur}"
            );
            assert_eq!(cal.next_free().as_ps(), oracle.next_free);
        }
        evictions += oracle.evictions;
    }
    assert!(evictions > 0, "sequences never filled the 64-gap ring");
}

/// Tagged busy times always sum to the calendar's total busy time.
#[test]
fn tagged_calendar_tags_partition_busy() {
    let mut rng = SplitMix64::new(0x7A6);
    for _case in 0..64 {
        let n = 1 + rng.next_below(100) as usize;
        let mut cal = TaggedCalendar::new(4);
        for _ in 0..n {
            let ready = rng.next_below(10_000);
            let dur = 1 + rng.next_below(499);
            let tag = rng.next_below(4) as usize;
            cal.book(Ps::from_ps(ready), Ps::from_ps(dur), tag);
        }
        let sum: u64 = (0..4).map(|t| cal.busy_by_tag(t).as_ps()).sum();
        assert_eq!(sum, cal.busy_time().as_ps());
        let frac_sum: f64 = (0..4).map(|t| cal.tag_fraction(t)).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }
}

/// SplitMix64 streams are reproducible and next_below respects bounds.
#[test]
fn rng_reproducible_and_bounded() {
    let mut meta = SplitMix64::new(0x5EED);
    for _case in 0..64 {
        let seed = meta.next_u64();
        let bound = 1 + meta.next_below(1_000_000);
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..50 {
            let x = a.next_below(bound);
            assert_eq!(x, b.next_below(bound));
            assert!(x < bound);
        }
    }
}

/// Ps arithmetic: (a + b) - b == a (with saturating subtraction this
/// holds whenever a + b does not overflow, which the ranges guarantee).
#[test]
fn ps_add_sub_roundtrip() {
    let mut rng = SplitMix64::new(0xADD);
    for _case in 0..10_000 {
        let a = rng.next_below(u32::MAX as u64);
        let b = rng.next_below(u32::MAX as u64);
        let pa = Ps::from_ps(a);
        let pb = Ps::from_ps(b);
        assert_eq!((pa + pb) - pb, pa);
    }
}
