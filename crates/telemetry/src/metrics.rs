//! Counters, gauges and log-linear histograms.
//!
//! The histogram uses log-linear bucketing (4 linear sub-buckets per
//! power of two, like HdrHistogram's coarse mode): relative error is
//! bounded at ~25 % per bucket across the whole positive range with a
//! fixed 250-ish-slot footprint, so recording is one array increment —
//! cheap enough for the per-tick hot path.

use std::collections::BTreeMap;

/// Linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 4;
/// `log2(SUB_BUCKETS)`: the mantissa bits that pick a sub-bucket.
const SUB_BUCKET_BITS: u32 = 2;
/// Octaves covered (values up to 2^62 land in a real bucket).
const OCTAVES: usize = 62;
const _: () = assert!(SUB_BUCKETS == 1 << SUB_BUCKET_BITS);
/// Stored mantissa bits of an f64.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an f64.
const EXPONENT_BIAS: usize = 1023;
/// How close (in ulps) to an octave edge [`Histogram::bucket_of`]
/// defers to `log2`, which rounds up within a few dozen ulps below an
/// edge.
const EDGE_ULPS: u64 = 4096;

/// A log-linear histogram of non-negative values.
///
/// Values below 1.0 (and negative values) land in bucket 0; the exact
/// `min`/`max`/`sum` are tracked alongside, so means and extremes are
/// not quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; 1 + OCTAVES * SUB_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket of `v`: the octave from the f64 exponent, the
    /// sub-bucket from the top mantissa bits. Returns what
    /// [`Histogram::bucket_of_log2`] does for every f64 (pinned by the
    /// tests below).
    fn bucket_of(v: f64) -> usize {
        // NaN lands in bucket 0 via the is_finite check.
        if v < 1.0 || !v.is_finite() {
            return 0;
        }
        // v is finite and >= 1, so it is normal: the biased exponent is
        // the octave and the top mantissa bits are the sub-bucket.
        let bits = v.to_bits();
        #[allow(clippy::cast_possible_truncation)]
        let e = ((bits >> MANTISSA_BITS) as usize) - EXPONENT_BIAS;
        if e >= OCTAVES {
            return OCTAVES * SUB_BUCKETS;
        }
        let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
        if !(EDGE_ULPS..(1 << MANTISSA_BITS) - EDGE_ULPS).contains(&mantissa) {
            return Self::bucket_of_log2(v);
        }
        #[allow(clippy::cast_possible_truncation)]
        let sub = (mantissa >> (MANTISSA_BITS - SUB_BUCKET_BITS)) as usize;
        1 + e * SUB_BUCKETS + sub
    }

    /// The defining formula behind [`Histogram::bucket_of`]. Near an
    /// octave edge `log2` rounds a value just below `2^e` up to `e`,
    /// which puts it in sub-bucket 0 of the octave above; recorded
    /// histograms depend on that, so the fast path defers to this
    /// formula there.
    fn bucket_of_log2(v: f64) -> usize {
        // Octave = floor(log2 v); sub-bucket = position inside [2^e, 2^{e+1}).
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let e = (v.log2().floor() as usize).min(OCTAVES - 1);
        let lo = (2.0f64).powi(i32::try_from(e).unwrap_or(i32::MAX));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let sub = (((v / lo) - 1.0) * SUB_BUCKETS as f64).floor() as usize;
        1 + e * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
    }

    /// The value range `[lo, hi)` of bucket `idx`.
    fn bucket_bounds(idx: usize) -> (f64, f64) {
        if idx == 0 {
            return (0.0, 1.0);
        }
        let e = (idx - 1) / SUB_BUCKETS;
        let sub = (idx - 1) % SUB_BUCKETS;
        let lo2 = (2.0f64).powi(i32::try_from(e).unwrap_or(i32::MAX));
        let width = lo2 / SUB_BUCKETS as f64;
        let lo = lo2 + sub as f64 * width;
        (lo, lo + width)
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records the same value `n` times, bit-identically to `n`
    /// consecutive [`Histogram::record`] calls (the sum is accumulated
    /// by repeated addition, not `v * n`, so a batch produces the exact
    /// float the per-call path would) — how the event engine folds a
    /// quiet burst of constant-power ticks into one call.
    pub fn record_repeat(&mut self, v: f64, n: u64) {
        if n == 0 || !v.is_finite() {
            return;
        }
        self.counts[Self::bucket_of(v)] += n;
        self.count += n;
        for _ in 0..n {
            self.sum += v;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds `other` into this histogram (bucket-wise sum, exact
    /// min/max/sum/count combined) — how per-thread histograms from a
    /// sweep or load run aggregate into one report.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Merges any number of histograms into a fresh one — the
    /// aggregation step a fleet run uses to fold per-shard RTT
    /// histograms into the overall distribution.
    pub fn merged<'a, I: IntoIterator<Item = &'a Histogram>>(parts: I) -> Histogram {
        let mut out = Histogram::new();
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum / self.count as f64
            }
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated within the
    /// containing bucket by rank position and clamped to the exact
    /// `[min, max]` range.
    ///
    /// Interpolation matters once many distinct quantiles are read off
    /// the same distribution: snapping to the bucket midpoint made every
    /// quantile falling in one bucket report the identical value (BENCH
    /// RTT p50/p99 landing exactly on 1152 µs / 2304 µs across all
    /// shards — the log-linear bucket midpoints). Rank interpolation
    /// spreads them across the bucket `[lo, hi)` instead; the error
    /// stays bounded by the bucket width (≤ 25 % relative), and the
    /// storage format is untouched, so [`Histogram::merge`] and
    /// serialized snapshots stay compatible.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max();
        }
        if q <= 0.0 {
            return self.min();
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::bucket_bounds(idx);
                // The bucket holds the values at ranks (seen-c, seen];
                // place `rank` linearly across the bucket's range. A
                // single-value bucket clamps back to the exact value via
                // [min, max].
                #[allow(clippy::cast_precision_loss)]
                let frac = (rank - (seen - c)) as f64 / c as f64;
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
        }
        self.max()
    }
}

/// One kind of metric: values in a `Vec`, found by slot, plus a
/// name-sorted index into it.
///
/// Slots are handed out in creation order, so two sets holding the same
/// metrics may number them differently; every comparison, iteration and
/// serialization goes through the name index instead, which keeps them
/// independent of the order the metrics were created in.
#[derive(Clone)]
struct Registry<T> {
    index: BTreeMap<String, usize>,
    values: Vec<T>,
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry {
            index: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<T> Registry<T> {
    /// The slot of `name`, created with `init()` on first use. Allocates
    /// only when it creates.
    fn slot(&mut self, name: &str, init: impl FnOnce() -> T) -> usize {
        if let Some(&slot) = self.index.get(name) {
            return slot;
        }
        let slot = self.values.len();
        self.values.push(init());
        self.index.insert(name.to_string(), slot);
        slot
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&slot| &self.values[slot])
    }

    /// Every `(name, value)`, name-sorted.
    fn iter(&self) -> impl Iterator<Item = (&str, &T)> + '_ {
        self.index
            .iter()
            .map(|(name, &slot)| (name.as_str(), &self.values[slot]))
    }
}

impl<T: PartialEq> PartialEq for Registry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A counter's place in the [`MetricSet`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSlot(usize);

/// A gauge's place in the [`MetricSet`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSlot(usize);

/// A histogram's place in the [`MetricSet`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSlot(usize);

/// A named registry of counters, gauges and histograms.
///
/// A name resolves once to a `Copy` slot ([`MetricSet::counter_slot`]
/// and friends); updates by slot (`*_at`) are an index into a `Vec`,
/// with no string lookup and no allocation — how the simulator records
/// its per-tick metrics (docs/simulator.md). The name-keyed updates
/// resolve and then update, so they allocate only when they create a
/// metric.
///
/// A slot is valid only for the set that issued it (and its clones).
/// Every iteration, comparison, merge and rollup is name-sorted, so the
/// order in which metrics were created never shows and every
/// serialization of the same registry is byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    counters: Registry<u64>,
    gauges: Registry<f64>,
    histograms: Registry<Histogram>,
}

impl MetricSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of counter `name`, creating it at zero.
    pub fn counter_slot(&mut self, name: &str) -> CounterSlot {
        CounterSlot(self.counters.slot(name, || 0))
    }

    /// The slot of gauge `name`, creating it at zero.
    pub fn gauge_slot(&mut self, name: &str) -> GaugeSlot {
        GaugeSlot(self.gauges.slot(name, || 0.0))
    }

    /// The slot of histogram `name`, creating it empty.
    pub fn histogram_slot(&mut self, name: &str) -> HistogramSlot {
        HistogramSlot(self.histograms.slot(name, Histogram::new))
    }

    /// Adds `by` to the counter at `slot`.
    #[inline]
    pub fn inc_at(&mut self, slot: CounterSlot, by: u64) {
        self.counters.values[slot.0] += by;
    }

    /// Sets the gauge at `slot` to `value`.
    #[inline]
    pub fn set_gauge_at(&mut self, slot: GaugeSlot, value: f64) {
        self.gauges.values[slot.0] = value;
    }

    /// Records `value` into the histogram at `slot`.
    #[inline]
    pub fn record_at(&mut self, slot: HistogramSlot, value: f64) {
        self.histograms.values[slot.0].record(value);
    }

    /// Records `value` into the histogram at `slot` `n` times (see
    /// [`Histogram::record_repeat`]).
    #[inline]
    pub fn record_repeat_at(&mut self, slot: HistogramSlot, value: f64, n: u64) {
        self.histograms.values[slot.0].record_repeat(value, n);
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        let slot = self.counter_slot(name);
        self.inc_at(slot, by);
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let slot = self.gauge_slot(name);
        self.set_gauge_at(slot, value);
    }

    /// Records `value` into histogram `name` (creating it empty).
    pub fn record(&mut self, name: &str, value: f64) {
        let slot = self.histogram_slot(name);
        self.record_at(slot, value);
    }

    /// Records `value` into histogram `name` `n` times (see
    /// [`Histogram::record_repeat`]).
    pub fn record_repeat(&mut self, name: &str, value: f64, n: u64) {
        let slot = self.histogram_slot(name);
        self.record_repeat_at(slot, value, n);
    }

    /// Counter value, if the counter exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if the gauge exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(name, &v)| (name, v))
    }

    /// All gauges, name-sorted.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(name, &v)| (name, v))
    }

    /// Folds `other` into this registry: counters add, histograms merge
    /// bucket-wise ([`Histogram::merge`]), gauges take `other`'s value
    /// (last-writer-wins, as if `other`'s sets happened after ours).
    ///
    /// This is the fleet-chunk aggregation step (docs/simulator.md): a
    /// chunk of multiplexed devices batches telemetry through one sink
    /// by merging every device's `MetricSet` into a chunk-level one,
    /// while each device keeps its own set for per-device attribution
    /// (the per-device manifests stay byte-identical to independent
    /// runs).
    pub fn merge(&mut self, other: &MetricSet) {
        for (k, v) in other.counters() {
            self.inc(k, v);
        }
        for (k, v) in other.gauges() {
            self.set_gauge(k, v);
        }
        for (k, h) in other.histograms.iter() {
            let slot = self.histogram_slot(k);
            self.histograms.values[slot.0].merge(h);
        }
    }

    /// Flattens everything into scalar rollups for a manifest: counters
    /// and gauges verbatim; each histogram as `name.count`, `name.mean`,
    /// `name.p50`, `name.p99` and `name.max`.
    pub fn rollups(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, v) in self.counters() {
            #[allow(clippy::cast_precision_loss)]
            out.insert(k.to_string(), v as f64);
        }
        for (k, v) in self.gauges() {
            out.insert(k.to_string(), v);
        }
        for (k, h) in self.histograms.iter() {
            #[allow(clippy::cast_precision_loss)]
            out.insert(format!("{k}.count"), h.count() as f64);
            out.insert(format!("{k}.mean"), h.mean());
            out.insert(format!("{k}.p50"), h.quantile(0.5));
            out.insert(format!("{k}.p99"), h.quantile(0.99));
            out.insert(format!("{k}.max"), h.max());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn exact_stats_are_exact() {
        let mut h = Histogram::new();
        for v in [3.0, 5.0, 1000.0, 0.25] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0.25);
        assert_eq!(h.max(), 1000.0);
        assert!((h.mean() - 1008.25 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        let mut h = Histogram::new();
        for i in 1..=10_000u32 {
            h.record(f64::from(i));
        }
        // Log-linear with 4 sub-buckets: ≤ 25 % relative error.
        let p50 = h.quantile(0.5);
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.25, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.25, "{p99}");
        assert_eq!(h.quantile(1.0), 10_000.0);
    }

    #[test]
    fn sub_unit_and_negative_values_share_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0.001);
        h.record(-5.0);
        h.record(0.999);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -5.0);
        assert!(h.quantile(0.5) <= 0.999, "bucket-0 midpoint clamped to max");
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(1e300);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1e300);
    }

    #[test]
    fn bucket_bounds_invert_bucket_of() {
        for v in [1.0, 1.3, 2.0, 3.9, 4.0, 1000.0, 123_456.789] {
            let idx = Histogram::bucket_of(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi}) (bucket {idx})");
        }
    }

    #[test]
    fn record_repeat_is_bit_identical_to_repeated_record() {
        let mut one_by_one = Histogram::new();
        let mut batched = Histogram::new();
        // A value whose repeated addition accumulates rounding error, so
        // a `v * n` shortcut would diverge bit-wise.
        let v = 731.0483757;
        for _ in 0..1_000 {
            one_by_one.record(v);
        }
        batched.record_repeat(v, 1_000);
        assert_eq!(one_by_one, batched);
        batched.record_repeat(f64::NAN, 5); // ignored
        batched.record_repeat(1.0, 0); // no-op
        assert_eq!(one_by_one, batched);
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // 256 values filling exactly one bucket: [1024, 1280). Midpoint
        // snapping reported 1152.0 for every quantile in this bucket;
        // interpolation must spread them monotonically across the bucket
        // instead.
        let mut h = Histogram::new();
        for i in 0..256u32 {
            h.record(1024.0 + f64::from(i));
        }
        let p25 = h.quantile(0.25);
        let p50 = h.quantile(0.5);
        let p75 = h.quantile(0.75);
        assert!(p25 < p50 && p50 < p75, "{p25} {p50} {p75}");
        for (q, v) in [(0.25, p25), (0.5, p50), (0.75, p75)] {
            assert!(
                (1024.0..1280.0).contains(&v),
                "q={q}: {v} outside the containing bucket"
            );
        }
        // Rank interpolation across the whole bucket: p50 sits near the
        // bucket's middle, not at the data's median — the error stays
        // bounded by the bucket width.
        assert!((p50 - 1152.0).abs() <= 64.0, "{p50}");
    }

    #[test]
    fn quantile_of_constant_distribution_is_exact() {
        let mut h = Histogram::new();
        h.record_repeat(1100.0, 1_000);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(h.quantile(q), 1100.0, "q={q}");
        }
    }

    #[test]
    fn quantile_of_uniform_distribution_tracks_rank() {
        // Uniform 1..=8192 spans many buckets; interpolated quantiles
        // should track the true quantile well inside the 25 % bucket
        // bound, and be strictly monotone in q.
        let mut h = Histogram::new();
        for i in 1..=8192u32 {
            h.record(f64::from(i));
        }
        let mut prev = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let v = h.quantile(q);
            let truth = q * 8192.0;
            assert!((v - truth).abs() / truth < 0.25, "q={q}: {v} vs {truth}");
            assert!(v > prev, "quantiles must be monotone in q");
            prev = v;
        }
    }

    #[test]
    fn merged_histogram_quantiles_match_single_recording() {
        // Per-shard histograms merged must answer quantiles identically
        // to one histogram that saw every value — merge stays compatible
        // with interpolation because only bucket counts are combined.
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=1_000u32 {
            let v = f64::from(i) * 3.7;
            all.record(v);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        let merged = Histogram::merged([&a, &b]);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile(q), all.quantile(q), "q={q}");
        }
        assert_eq!(merged, all);
    }

    #[test]
    fn metric_set_merge_aggregates_like_sequential_recording() {
        // Recording everything into one set must equal recording into
        // two sets and merging — the fleet-chunk sink's invariant.
        let mut combined = MetricSet::new();
        let mut first = MetricSet::new();
        let mut second = MetricSet::new();

        for (m, dev) in [(&mut first, 0u64), (&mut second, 1u64)] {
            m.inc("fleet.devices", 1);
            m.inc("sim.ticks", 100 + dev);
            m.set_gauge("sim.temp_c", 30.0 + dev as f64);
            m.record("power_mw", 500.0 + dev as f64);
        }
        for dev in 0..2u64 {
            combined.inc("fleet.devices", 1);
            combined.inc("sim.ticks", 100 + dev);
            combined.set_gauge("sim.temp_c", 30.0 + dev as f64);
            combined.record("power_mw", 500.0 + dev as f64);
        }
        // second carries a name first doesn't have, and vice versa.
        first.inc("only.first", 3);
        combined.inc("only.first", 3);
        second.record("only.second", 9.0);
        combined.record("only.second", 9.0);

        let mut merged = MetricSet::new();
        merged.merge(&first);
        merged.merge(&second);
        assert_eq!(merged, combined);
        assert_eq!(merged.counter("fleet.devices"), Some(2));
        assert_eq!(merged.counter("sim.ticks"), Some(201));
        // Gauges are last-writer-wins: second's value survives.
        assert_eq!(merged.gauge("sim.temp_c"), Some(31.0));
        assert_eq!(merged.histogram("power_mw").unwrap().count(), 2);
    }

    #[test]
    fn metric_set_rollups() {
        let mut m = MetricSet::new();
        m.inc("sim.ticks", 100);
        m.inc("sim.ticks", 50);
        m.set_gauge("sim.temp_c", 31.5);
        m.record("power_mw", 500.0);
        m.record("power_mw", 700.0);
        assert_eq!(m.counter("sim.ticks"), Some(150));
        assert_eq!(m.gauge("sim.temp_c"), Some(31.5));
        assert_eq!(m.histogram("power_mw").unwrap().count(), 2);
        let roll = m.rollups();
        assert_eq!(roll.get("sim.ticks"), Some(&150.0));
        assert_eq!(roll.get("power_mw.count"), Some(&2.0));
        assert_eq!(roll.get("power_mw.max"), Some(&700.0));
        assert!((roll.get("power_mw.mean").unwrap() - 600.0).abs() < 1e-12);
        assert!(roll.contains_key("power_mw.p50") && roll.contains_key("power_mw.p99"));
    }

    /// The bucketing formula of the original implementation, kept
    /// verbatim as the reference [`Histogram::bucket_of`] must match
    /// for every f64.
    fn oracle_bucket_of(v: f64) -> usize {
        if v < 1.0 || !v.is_finite() {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let e = (v.log2().floor() as usize).min(OCTAVES - 1);
        let lo = (2.0f64).powi(i32::try_from(e).unwrap_or(i32::MAX));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let sub = (((v / lo) - 1.0) * SUB_BUCKETS as f64).floor() as usize;
        1 + e * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
    }

    fn assert_bucket_matches_oracle(v: f64) {
        assert_eq!(
            Histogram::bucket_of(v),
            oracle_bucket_of(v),
            "bucket_of({v:e}) (bits {:#018x})",
            v.to_bits()
        );
    }

    #[test]
    fn fast_bucket_of_matches_log2_formula_at_every_edge() {
        // Every f64 within ±4096 ulps of each octave edge 2^e and each
        // quarter sub-bucket edge 2^e·(1 + k/4), for octaves 0–63: the
        // region where log2 rounding decides the bucket.
        const ULPS: i64 = 4096;
        for e in 0..64 {
            for k in 0..4u32 {
                let edge = 2f64.powi(e) * (1.0 + f64::from(k) / 4.0);
                let bits = i64::try_from(edge.to_bits()).expect("positive f64 bits fit i64");
                for d in -ULPS..=ULPS {
                    #[allow(clippy::cast_sign_loss)]
                    assert_bucket_matches_oracle(f64::from_bits((bits + d) as u64));
                }
            }
        }
    }

    #[test]
    fn fast_bucket_of_matches_log2_formula_off_the_edges() {
        // The clamped top octave and beyond, values below 1, negatives
        // and non-finite values.
        let specials = [
            2f64.powi(62),
            2f64.powi(62) * 1.3,
            2f64.powi(63),
            2f64.powi(64),
            1e300,
            f64::MAX,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            0.999_999_999,
            1.0 - f64::EPSILON / 2.0,
            -1.0,
            -1e300,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in specials {
            assert_bucket_matches_oracle(v);
        }
        // A seeded stream of random finite values: raw bit patterns
        // (every exponent, both signs) and values spread log-uniformly
        // over the covered range.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..200_000 {
            let raw = f64::from_bits(next());
            if raw.is_finite() {
                assert_bucket_matches_oracle(raw);
            }
            #[allow(clippy::cast_precision_loss)]
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            assert_bucket_matches_oracle(2f64.powf(unit * 64.0));
        }
    }

    /// The metric updates of a short simulated run, applied to `m`
    /// either by name or by slot.
    fn apply_updates(m: &mut MetricSet, by_slot: bool) {
        for tick in 0..50u32 {
            let power = 400.0 + f64::from(tick % 7) * 13.25;
            let temp = 30.0 + f64::from(tick) / 16.0;
            if by_slot {
                let ticks = m.counter_slot("sim.ticks");
                let power_mw = m.histogram_slot("power_mw");
                let temp_c = m.gauge_slot("temp_c");
                m.inc_at(ticks, 1);
                m.record_at(power_mw, power);
                m.set_gauge_at(temp_c, temp);
            } else {
                m.inc("sim.ticks", 1);
                m.record("power_mw", power);
                m.set_gauge("temp_c", temp);
            }
            if tick % 5 == 0 {
                if by_slot {
                    let samples = m.counter_slot("sim.samples");
                    let util = m.histogram_slot("overall_util_pct");
                    m.inc_at(samples, 1);
                    m.record_repeat_at(util, f64::from(tick), 3);
                } else {
                    m.inc("sim.samples", 1);
                    m.record_repeat("overall_util_pct", f64::from(tick), 3);
                }
            }
        }
    }

    #[test]
    fn metric_set_is_independent_of_creation_order_and_access_path() {
        // `a` creates its metrics in update order, by name; `b` creates
        // them in name order first — the reverse of `a`'s — then updates
        // by slot. Slots differ between the two; nothing observable may.
        let mut a = MetricSet::new();
        apply_updates(&mut a, false);
        let mut b = MetricSet::new();
        b.histogram_slot("overall_util_pct");
        b.histogram_slot("power_mw");
        b.counter_slot("sim.samples");
        b.counter_slot("sim.ticks");
        b.gauge_slot("temp_c");
        apply_updates(&mut b, true);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.rollups(), b.rollups());
        assert_eq!(
            a.counters().collect::<Vec<_>>(),
            vec![("sim.samples", 10), ("sim.ticks", 50)]
        );

        // Merging either into sets that already hold other metrics, in
        // either creation order, gives equal results.
        let mut into_a = MetricSet::new();
        into_a.inc("fleet.devices", 1);
        into_a.record("power_mw", 1.0);
        let mut into_b = MetricSet::new();
        into_b.record("power_mw", 1.0);
        into_b.inc("fleet.devices", 1);
        into_a.merge(&a);
        into_b.merge(&b);
        assert_eq!(into_a, into_b);
        assert_eq!(into_a.rollups(), into_b.rollups());
        assert_eq!(into_a.histogram("power_mw").unwrap().count(), 51);

        // Same names, different values: not equal.
        b.inc("sim.ticks", 1);
        assert_ne!(a, b);
    }
}
