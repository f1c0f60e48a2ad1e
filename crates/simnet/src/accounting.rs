//! Per-class traffic accounting.
//!
//! The paper's network-traffic analysis (§4) claims that incremental
//! checkpoint backup traffic stays below 2 % of available campus bandwidth
//! during peak periods. Verifying that requires attributing every byte moved
//! on every link to a traffic class and bucketing it in time so "peak period"
//! utilization can be computed after the run.

use crate::topology::LinkId;
use gpunion_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What a byte on the wire was moving for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Scheduler/agent control messages: heartbeats, dispatches, acks.
    Control,
    /// Periodic checkpoint backup traffic (the paper's headline claim).
    Checkpoint,
    /// Checkpoint restore + state transfer during migration.
    Migration,
    /// Container image distribution.
    ImagePull,
    /// The research traffic the platform must not interfere with.
    User,
}

impl TrafficClass {
    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::Control,
        TrafficClass::Checkpoint,
        TrafficClass::Migration,
        TrafficClass::ImagePull,
        TrafficClass::User,
    ];

    /// Position in [`TrafficClass::ALL`]; the ledger's dense index.
    fn index(self) -> usize {
        self as usize
    }

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Control => "control",
            TrafficClass::Checkpoint => "checkpoint",
            TrafficClass::Migration => "migration",
            TrafficClass::ImagePull => "image-pull",
            TrafficClass::User => "user",
        }
    }
}

/// Bit pattern of a bucket no record has touched yet. Every added part is
/// `>= +0.0` (or NaN), never `-0.0`, and `-0.0 + x == 0.0 + x` bit for bit
/// for every such `x`: a bucket's first add leaves exactly what a
/// zero-initialised sum would hold, and a touched bucket never reads back
/// as `-0.0`. So the marker costs no extra storage and changes no value.
const UNTOUCHED: f64 = -0.0;

fn touched(v: f64) -> bool {
    v.to_bits() != UNTOUCHED.to_bits()
}

/// Add `bytes` to bucket `b` of a dense series, growing it on first touch.
fn add_to_bucket(series: &mut Vec<f64>, b: usize, bytes: f64) {
    if b >= series.len() {
        series.resize(b + 1, UNTOUCHED);
    }
    series[b] += bytes;
}

/// `(bucket index, bytes)` of every bucket of a series that received bytes.
fn touched_buckets(series: &[f64]) -> impl Iterator<Item = (usize, f64)> + '_ {
    series
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, v)| touched(v))
}

/// One link's share of the ledger.
#[derive(Debug, Clone, Default)]
struct LinkLedger {
    /// Total bytes per class over the whole run, indexed by class.
    totals: [f64; TrafficClass::ALL.len()],
    /// Bytes per class per time bucket, indexed by class then bucket.
    buckets: [Vec<f64>; TrafficClass::ALL.len()],
}

/// Traffic accountant: campus-wide per-class time buckets plus per-link
/// totals and per-link time buckets.
///
/// Storage is dense and addressed by position: a class is its index in
/// [`TrafficClass::ALL`], a link its `LinkId.0`, a bucket `t / width`.
/// Each series grows on first touch to its highest bucket, so a touched
/// (link, class) costs 8 B per bucket up to the latest one it was
/// recorded in. Recording is O(1) per bucket touched, and every key
/// receives its adds in call order, so sums are deterministic.
#[derive(Debug, Clone)]
pub struct Accounting {
    bucket: SimDuration,
    /// Campus-wide bytes per class, indexed by class then bucket.
    class_buckets: [Vec<f64>; TrafficClass::ALL.len()],
    /// Per-link totals and buckets, indexed by `LinkId.0`: per-link
    /// per-class peaks, e.g. "checkpoint share of the backbone link during
    /// its worst minute". All-class link peaks are derived from these at
    /// report time, summing classes in [`TrafficClass::ALL`] order.
    links: Vec<LinkLedger>,
    total_bytes: f64,
}

impl Accounting {
    /// New accountant with the given bucket width (1 minute is the default
    /// used by all experiment harnesses).
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        Accounting {
            bucket,
            class_buckets: Default::default(),
            links: Vec::new(),
            total_bytes: 0.0,
        }
    }

    /// Bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    /// Attribute `bytes` moved on `link` for `class` uniformly over the
    /// interval `[from, to)`, splitting across bucket boundaries.
    pub fn record_span(
        &mut self,
        link: LinkId,
        class: TrafficClass,
        from: SimTime,
        to: SimTime,
        bytes: f64,
    ) {
        if bytes <= 0.0 {
            return;
        }
        self.total_bytes += bytes;
        let width = self.bucket.as_nanos();
        let l = link.0 as usize;
        if l >= self.links.len() {
            self.links.resize_with(l + 1, LinkLedger::default);
        }
        let c = class.index();
        let class_series = &mut self.class_buckets[c];
        let ledger = &mut self.links[l];
        ledger.totals[c] += bytes;
        let link_series = &mut ledger.buckets[c];
        let span = to.since(from);
        if span.is_zero() {
            let b = (from.as_nanos() / width) as usize;
            add_to_bucket(class_series, b, bytes);
            add_to_bucket(link_series, b, bytes);
            return;
        }
        let total_secs = span.as_secs_f64();
        let mut cursor = from;
        while cursor < to {
            let b = cursor.as_nanos() / width;
            let bucket_end = SimTime::from_nanos((b + 1) * width);
            let seg_end = bucket_end.min(to);
            let frac = seg_end.since(cursor).as_secs_f64() / total_secs;
            let part = bytes * frac;
            add_to_bucket(class_series, b as usize, part);
            add_to_bucket(link_series, b as usize, part);
            cursor = seg_end;
        }
    }

    /// Attribute an instantaneous transfer (control messages).
    pub fn record_instant(&mut self, link: LinkId, class: TrafficClass, at: SimTime, bytes: f64) {
        self.record_span(link, class, at, at, bytes);
    }

    /// Total bytes ever recorded.
    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }

    /// Total bytes for one class across all links and time.
    pub fn class_total(&self, class: TrafficClass) -> f64 {
        touched_buckets(&self.class_buckets[class.index()])
            .map(|(_, v)| v)
            .sum()
    }

    /// Total bytes a link carried for a class.
    pub fn link_class_total(&self, link: LinkId, class: TrafficClass) -> f64 {
        self.links
            .get(link.0 as usize)
            .map_or(0.0, |l| l.totals[class.index()])
    }

    /// Campus-wide per-bucket byte series for a class, as
    /// `(bucket_start_time, bytes)` pairs in time order. Only buckets that
    /// received bytes appear.
    pub fn class_series(&self, class: TrafficClass) -> Vec<(SimTime, f64)> {
        let width = self.bucket.as_nanos();
        touched_buckets(&self.class_buckets[class.index()])
            .map(|(b, v)| (SimTime::from_nanos(b as u64 * width), v))
            .collect()
    }

    /// Peak campus-wide throughput of a class in bytes/sec (max over buckets).
    pub fn class_peak_rate(&self, class: TrafficClass) -> f64 {
        self.peak_rate(&self.class_buckets[class.index()])
    }

    /// Mean campus-wide throughput of a class over `[0, end)` in bytes/sec.
    pub fn class_mean_rate(&self, class: TrafficClass, end: SimTime) -> f64 {
        let secs = end.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.class_total(class) / secs
    }

    /// Peak per-bucket throughput of one class on one link, bytes/sec —
    /// the quantity behind "checkpoint traffic stays under X% of the
    /// backbone during its worst minute".
    pub fn link_class_peak_rate(&self, link: LinkId, class: TrafficClass) -> f64 {
        self.links
            .get(link.0 as usize)
            .map_or(0.0, |l| self.peak_rate(&l.buckets[class.index()]))
    }

    /// Mean throughput of one class on one link over `[0, end)`, bytes/sec.
    pub fn link_class_mean_rate(&self, link: LinkId, class: TrafficClass, end: SimTime) -> f64 {
        let secs = end.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.link_class_total(link, class) / secs
    }

    /// Peak per-bucket throughput on one link, all classes, bytes/sec.
    /// Derived from the per-class buckets at report time: each bucket sums
    /// the classes that touched it, in [`TrafficClass::ALL`] order.
    pub fn link_peak_rate(&self, link: LinkId) -> f64 {
        let Some(l) = self.links.get(link.0 as usize) else {
            return 0.0;
        };
        let w = self.bucket.as_secs_f64();
        let len = l.buckets.iter().map(Vec::len).max().unwrap_or(0);
        let mut peak = 0.0;
        for b in 0..len {
            let mut sum = None;
            for &v in l.buckets.iter().filter_map(|s| s.get(b)) {
                if touched(v) {
                    sum = Some(sum.unwrap_or(0.0) + v);
                }
            }
            if let Some(s) = sum {
                peak = f64::max(peak, s / w);
            }
        }
        peak
    }

    /// Max over the touched buckets of a series, as bytes/sec.
    fn peak_rate(&self, series: &[f64]) -> f64 {
        let w = self.bucket.as_secs_f64();
        touched_buckets(series)
            .map(|(_, v)| v / w)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LinkId = LinkId(0);

    #[test]
    fn span_splits_across_buckets() {
        let mut a = Accounting::new(SimDuration::from_secs(60));
        // 120 MB uniformly over [30s, 150s) — 2 minutes spanning 3 buckets:
        // bucket0 gets 30s worth, bucket1 60s, bucket2 30s.
        a.record_span(
            L,
            TrafficClass::Checkpoint,
            SimTime::from_secs(30),
            SimTime::from_secs(150),
            120e6,
        );
        let series = a.class_series(TrafficClass::Checkpoint);
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 30e6).abs() < 1.0);
        assert!((series[1].1 - 60e6).abs() < 1.0);
        assert!((series[2].1 - 30e6).abs() < 1.0);
        assert!((a.class_total(TrafficClass::Checkpoint) - 120e6).abs() < 1.0);
    }

    #[test]
    fn instant_record_lands_in_one_bucket() {
        let mut a = Accounting::new(SimDuration::from_secs(60));
        a.record_instant(L, TrafficClass::Control, SimTime::from_secs(61), 100.0);
        let series = a.class_series(TrafficClass::Control);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, SimTime::from_secs(60));
    }

    #[test]
    fn peak_rate_vs_mean_rate() {
        let mut a = Accounting::new(SimDuration::from_secs(60));
        // burst: 600 MB in one minute, then nothing for 9 minutes
        a.record_span(
            L,
            TrafficClass::Checkpoint,
            SimTime::from_secs(0),
            SimTime::from_secs(60),
            600e6,
        );
        let peak = a.class_peak_rate(TrafficClass::Checkpoint);
        let mean = a.class_mean_rate(TrafficClass::Checkpoint, SimTime::from_secs(600));
        assert!((peak - 10e6).abs() < 1.0, "peak {peak}");
        assert!((mean - 1e6).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn per_link_totals_are_independent() {
        let mut a = Accounting::new(SimDuration::from_secs(60));
        a.record_instant(LinkId(1), TrafficClass::User, SimTime::ZERO, 10.0);
        a.record_instant(LinkId(2), TrafficClass::User, SimTime::ZERO, 20.0);
        assert_eq!(a.link_class_total(LinkId(1), TrafficClass::User), 10.0);
        assert_eq!(a.link_class_total(LinkId(2), TrafficClass::User), 20.0);
        assert_eq!(a.link_class_total(LinkId(3), TrafficClass::User), 0.0);
        assert_eq!(a.total_bytes(), 30.0);
    }

    #[test]
    fn zero_and_negative_bytes_ignored() {
        let mut a = Accounting::new(SimDuration::from_secs(60));
        a.record_instant(L, TrafficClass::User, SimTime::ZERO, 0.0);
        a.record_instant(L, TrafficClass::User, SimTime::ZERO, -5.0);
        assert_eq!(a.total_bytes(), 0.0);
    }
}

/// The sparse-map ledger the dense one replaced, kept as the oracle the
/// dense ledger must match bit for bit.
#[cfg(test)]
mod oracle {
    use super::TrafficClass;
    use crate::topology::LinkId;
    use gpunion_des::{SimDuration, SimTime};
    use std::collections::{BTreeMap, HashMap};

    pub struct SparseAccounting {
        bucket: SimDuration,
        class_buckets: BTreeMap<(TrafficClass, u64), f64>,
        link_class_totals: HashMap<(LinkId, TrafficClass), f64>,
        link_class_buckets: BTreeMap<(LinkId, TrafficClass, u64), f64>,
        total_bytes: f64,
    }

    impl SparseAccounting {
        pub fn new(bucket: SimDuration) -> Self {
            SparseAccounting {
                bucket,
                class_buckets: BTreeMap::new(),
                link_class_totals: HashMap::new(),
                link_class_buckets: BTreeMap::new(),
                total_bytes: 0.0,
            }
        }

        fn bucket_index(&self, t: SimTime) -> u64 {
            t.as_nanos() / self.bucket.as_nanos()
        }

        pub fn record_span(
            &mut self,
            link: LinkId,
            class: TrafficClass,
            from: SimTime,
            to: SimTime,
            bytes: f64,
        ) {
            if bytes <= 0.0 {
                return;
            }
            self.total_bytes += bytes;
            *self.link_class_totals.entry((link, class)).or_insert(0.0) += bytes;
            let span = to.since(from);
            if span.is_zero() {
                let b = self.bucket_index(from);
                *self.class_buckets.entry((class, b)).or_insert(0.0) += bytes;
                *self
                    .link_class_buckets
                    .entry((link, class, b))
                    .or_insert(0.0) += bytes;
                return;
            }
            let total_secs = span.as_secs_f64();
            let mut cursor = from;
            while cursor < to {
                let b = self.bucket_index(cursor);
                let bucket_end = SimTime::from_nanos((b + 1) * self.bucket.as_nanos());
                let seg_end = bucket_end.min(to);
                let frac = seg_end.since(cursor).as_secs_f64() / total_secs;
                let part = bytes * frac;
                *self.class_buckets.entry((class, b)).or_insert(0.0) += part;
                *self
                    .link_class_buckets
                    .entry((link, class, b))
                    .or_insert(0.0) += part;
                cursor = seg_end;
            }
        }

        pub fn total_bytes(&self) -> f64 {
            self.total_bytes
        }

        pub fn class_total(&self, class: TrafficClass) -> f64 {
            self.class_buckets
                .range((class, 0)..=(class, u64::MAX))
                .map(|(_, v)| v)
                .sum()
        }

        pub fn link_class_total(&self, link: LinkId, class: TrafficClass) -> f64 {
            self.link_class_totals
                .get(&(link, class))
                .copied()
                .unwrap_or(0.0)
        }

        pub fn class_series(&self, class: TrafficClass) -> Vec<(SimTime, f64)> {
            self.class_buckets
                .range((class, 0)..=(class, u64::MAX))
                .map(|((_, b), v)| (SimTime::from_nanos(b * self.bucket.as_nanos()), *v))
                .collect()
        }

        pub fn class_peak_rate(&self, class: TrafficClass) -> f64 {
            let w = self.bucket.as_secs_f64();
            self.class_buckets
                .range((class, 0)..=(class, u64::MAX))
                .map(|(_, v)| v / w)
                .fold(0.0, f64::max)
        }

        pub fn class_mean_rate(&self, class: TrafficClass, end: SimTime) -> f64 {
            let secs = end.as_secs_f64();
            if secs <= 0.0 {
                return 0.0;
            }
            self.class_total(class) / secs
        }

        pub fn link_class_peak_rate(&self, link: LinkId, class: TrafficClass) -> f64 {
            let w = self.bucket.as_secs_f64();
            self.link_class_buckets
                .iter()
                .filter(|((l, c, _), _)| *l == link && *c == class)
                .map(|(_, v)| v / w)
                .fold(0.0, f64::max)
        }

        pub fn link_class_mean_rate(&self, link: LinkId, class: TrafficClass, end: SimTime) -> f64 {
            let secs = end.as_secs_f64();
            if secs <= 0.0 {
                return 0.0;
            }
            self.link_class_total(link, class) / secs
        }

        pub fn link_peak_rate(&self, link: LinkId) -> f64 {
            let w = self.bucket.as_secs_f64();
            let mut per_bucket: BTreeMap<u64, f64> = BTreeMap::new();
            for ((l, _, b), v) in &self.link_class_buckets {
                if *l == link {
                    *per_bucket.entry(*b).or_insert(0.0) += v;
                }
            }
            per_bucket.values().map(|v| v / w).fold(0.0, f64::max)
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::oracle::SparseAccounting;
    use super::*;
    use proptest::prelude::*;

    /// Links recorded on; one more than this is read but never written.
    const LINKS: u32 = 4;

    fn same(what: &str, dense: f64, sparse: f64) {
        assert_eq!(
            dense.to_bits(),
            sparse.to_bits(),
            "{what}: dense {dense} vs sparse {sparse}"
        );
    }

    proptest! {
        /// Random record sequences — several links, all five classes,
        /// zero-length and multi-bucket spans, out-of-order and reversed
        /// instants, non-positive byte counts — leave every reader of the
        /// dense ledger bit-identical to the sparse-map oracle.
        #[test]
        fn dense_ledger_matches_sparse_oracle(
            width_secs in 1u64..120,
            records in proptest::collection::vec(
                (
                    0u32..LINKS,
                    0usize..5,
                    0u64..1_800_000_000_000,
                    prop_oneof![
                        Just(0u64),
                        1u64..2_000_000_000,
                        1u64..600_000_000_000,
                    ],
                    any::<bool>(),
                    prop_oneof![
                        Just(0.0f64),
                        -1e6f64..0.0,
                        1e-3f64..1.0,
                        1.0f64..1e10,
                    ],
                ),
                0..60,
            ),
            end_secs in 0u64..3_000,
        ) {
            let width = SimDuration::from_secs(width_secs);
            let mut dense = Accounting::new(width);
            let mut sparse = SparseAccounting::new(width);
            for (link, class, at_ns, len_ns, reversed, bytes) in records {
                let (mut from, mut to) = (
                    SimTime::from_nanos(at_ns),
                    SimTime::from_nanos(at_ns + len_ns),
                );
                if reversed {
                    std::mem::swap(&mut from, &mut to);
                }
                let class = TrafficClass::ALL[class];
                dense.record_span(LinkId(link), class, from, to, bytes);
                sparse.record_span(LinkId(link), class, from, to, bytes);
            }
            let end = SimTime::from_secs(end_secs);
            same("total_bytes", dense.total_bytes(), sparse.total_bytes());
            for class in TrafficClass::ALL {
                same("class_total", dense.class_total(class), sparse.class_total(class));
                same(
                    "class_peak_rate",
                    dense.class_peak_rate(class),
                    sparse.class_peak_rate(class),
                );
                same(
                    "class_mean_rate",
                    dense.class_mean_rate(class, end),
                    sparse.class_mean_rate(class, end),
                );
                let (d, s) = (dense.class_series(class), sparse.class_series(class));
                prop_assert_eq!(d.len(), s.len(), "class_series length for {:?}", class);
                for ((dt, dv), (st, sv)) in d.into_iter().zip(s) {
                    prop_assert_eq!(dt, st);
                    same("class_series", dv, sv);
                }
                for link in (0..=LINKS).map(LinkId) {
                    same(
                        "link_class_total",
                        dense.link_class_total(link, class),
                        sparse.link_class_total(link, class),
                    );
                    same(
                        "link_class_peak_rate",
                        dense.link_class_peak_rate(link, class),
                        sparse.link_class_peak_rate(link, class),
                    );
                    same(
                        "link_class_mean_rate",
                        dense.link_class_mean_rate(link, class, end),
                        sparse.link_class_mean_rate(link, class, end),
                    );
                }
            }
            for link in (0..=LINKS).map(LinkId) {
                same(
                    "link_peak_rate",
                    dense.link_peak_rate(link),
                    sparse.link_peak_rate(link),
                );
            }
        }
    }
}
