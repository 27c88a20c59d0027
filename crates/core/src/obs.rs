//! Deterministic observability: named monotonic counters plus hierarchical
//! timing spans.
//!
//! The pipeline's cost claims are stated in *counted work* — dataset passes
//! (§4.5's "at most two"), kernel evaluations, outlier ball integrals,
//! heap operations — not in wall-clock. This module records those counts
//! without perturbing anything:
//!
//! * **Enabling metrics never changes any computed output.** Instrumented
//!   code records *about* its work; it never branches on the recorder. The
//!   parity suite (`tests/metrics_parity.rs`) asserts byte-identical
//!   pipeline outputs with metrics on and off at several thread counts.
//! * **The counter values themselves are deterministic.** Parallel code
//!   accumulates into a per-chunk [`Tally`] (see
//!   [`crate::par::par_scan_tallied`]); chunk tallies are merged in chunk
//!   order on the fixed chunk grid, and counter merging is integer
//!   addition, so totals are identical at every thread count.
//! * **The disabled path is effectively free.** A [`Recorder`] is an
//!   `Option` around shared state — not a global — and every recording
//!   call on a disabled recorder is an inlined `None` check. Hot loops
//!   increment plain `u64`s in a stack-allocated [`Tally`] and hand the
//!   block over once per chunk/stage.
//!
//! Pass accounting convention: [`Counter::DatasetPasses`] is recorded by
//! the *pipeline entry points*, once per sequential scan of the caller's
//! primary source. Scans of derived in-memory data (e.g. the one-pass
//! sampler's kernel-center evaluation) do not count — the same semantics
//! as wrapping the primary source in a [`crate::scan::PassCounter`], which
//! the parity suite cross-checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Generates the counter catalog from one list of `Variant => "json_name"`
/// entries: the [`Counter`] enum, [`COUNTER_COUNT`], [`Counter::ALL`] and
/// [`Counter::name`] all follow the list's order.
macro_rules! counter_catalog {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// The counter catalog. Every named monotonic counter the workspace
        /// records; the discriminant indexes [`Tally`] and the recorder's
        /// atomics.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        /// Number of counters in the catalog.
        pub const COUNTER_COUNT: usize = [$($name),*].len();

        impl Counter {
            /// Every counter, in catalog (discriminant) order.
            pub const ALL: [Counter; COUNTER_COUNT] = [$(Counter::$variant),*];

            /// The counter's stable snake_case name (the JSON key).
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counter_catalog! {
    /// Sequential scans of the pipeline's primary point source.
    DatasetPasses => "dataset_passes",
    /// Center-contribution evaluations in the KDE batch engine: one per
    /// (query point, panel center) pair actually evaluated, after the
    /// exact support test has dropped the centers that cannot reach the
    /// tile.
    KdeKernelEvals => "kde_kernel_evals",
    /// Tiles evaluated by the batch engine (one shared candidate lookup
    /// each).
    BatchTiles => "batch_tiles",
    /// Candidate centers a batch tile starts from, before the exact
    /// support test: its center-grid cell's reach list, or the output of
    /// the grid walk over the tile's box when the tile escapes its cell's
    /// box.
    GridCandidateVisits => "grid_candidate_visits",
    /// Ball integrals of the outlier detector (§3.2), one per point the
    /// prefilter did not skip. Each is one closed-form box integral of the
    /// estimator, whose work no density counter records. The key keeps
    /// the name it had when each integral was a 64-sample Monte-Carlo
    /// estimate, so existing metrics readers still find it.
    BallSamples => "mc_ball_samples",
    /// Sampler inclusion probabilities clipped at 1.
    SamplerClipEvents => "sampler_clip_events",
    /// Reservoir slots overwritten after the reservoir filled.
    ReservoirReplacements => "reservoir_replacements",
    /// CURE merge-loop heap pops (including stale ones).
    HeapPops => "heap_pops",
    /// Heap pops discarded because the entry's generation was stale.
    HeapStalePops => "heap_stale_pops",
    /// Nearest-owner queries against the representative-point grid index.
    RepIndexQueries => "rep_index_queries",
    /// Consumed closest pointers served from a cluster's cached candidate
    /// list (no index rescan needed).
    CandidateHits => "candidate_hits",
    /// Full k-nearest candidate-list rebuilds against the rep index — the
    /// broadcast rescans that remain after candidate fallback.
    CandidateRebuilds => "candidate_rebuilds",
    /// Cluster merges performed by the agglomeration loop.
    ClusterMerges => "cluster_merges",
    /// Ball integrals skipped by the outlier detector's density prefilter.
    PrefilterSkips => "prefilter_skips",
    /// Likely outliers that survived density pruning (verification load).
    OutlierCandidates => "outlier_candidates",
    /// Exact distance computations in the outlier verification pass.
    VerifyDistanceEvals => "verify_distance_evals",
    /// Distinct grid cells read by the averaged-grid batch engine (one run
    /// of equal cell ids in a sorted chunk counts once).
    AgridCellTouches => "agrid_cell_touches",
    /// Shifted grids averaged by averaged-grid batch evaluations (one per
    /// (chunk, grid) pair).
    AgridGridsAveraged => "agrid_grids_averaged",
    /// Merges performed inside partition pre-clustering (phase A of the
    /// partitioned CURE run); a subset of [`Counter::ClusterMerges`].
    PartitionPreMerges => "partition_pre_merges",
    /// Rep-point distance evaluations spent assigning full-dataset points
    /// to their nearest representative during label map-back.
    MapBackDistEvals => "map_back_dist_evals",
    /// Chunk-read operations served by sharded storage (one per shard
    /// chunk a [`crate::scan::PointSource::read_points_into`] call touched).
    ShardChunkReads => "shard_chunk_reads",
    /// Bytes of point data read from shard files.
    ShardBytesMapped => "shard_bytes_mapped",
    /// Points ingested into a streaming density sketch (one per
    /// `update`, whatever the schedule).
    SketchUpdates => "sketch_updates",
}

/// A stack-allocated block of counter values — what instrumented inner
/// loops increment. Cheap enough to exist unconditionally: recording into a
/// `Tally` is a plain `u64` add, whether or not any recorder is enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    counts: [u64; COUNTER_COUNT],
}

impl Tally {
    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Current value of counter `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }

    /// Adds every count of `other` into `self` (tally merging is integer
    /// addition — exactly associative, hence order-independent).
    pub fn merge(&mut self, other: &Tally) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

/// One closed timing span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name.
    pub name: &'static str,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Wall-clock duration in seconds (0 until the span closes).
    pub secs: f64,
}

#[derive(Debug, Default)]
struct SpanLog {
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

#[derive(Debug)]
struct Shared {
    counters: [AtomicU64; COUNTER_COUNT],
    spans: Mutex<SpanLog>,
}

/// A metrics recorder handle, threaded explicitly through the pipeline
/// (never a global). `Recorder::default()` is the disabled no-op; cloning
/// an enabled recorder shares its state.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    shared: Option<Arc<Shared>>,
}

impl Recorder {
    /// The disabled recorder: every operation is a no-op.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// A fresh enabled recorder with all counters at zero.
    pub fn enabled() -> Recorder {
        Recorder {
            shared: Some(Arc::new(Shared {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                spans: Mutex::new(SpanLog::default()),
            })),
        }
    }

    /// Whether this recorder actually records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(s) = &self.shared {
            s.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Merges an accumulated [`Tally`] (the once-per-chunk/stage hand-off).
    pub fn merge(&self, tally: &Tally) {
        if let Some(s) = &self.shared {
            for (c, &n) in s.counters.iter().zip(&tally.counts) {
                if n > 0 {
                    c.fetch_add(n, Ordering::Relaxed);
                }
            }
        }
    }

    /// Opens a named timing span, closed when the returned guard drops.
    /// Spans opened while another is open nest under it; open spans from
    /// one thread at a time (stage level), not from parallel workers.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let slot = self.shared.as_ref().map(|s| {
            let mut log = s.spans.lock().expect("span log never poisoned");
            let slot = log.records.len();
            let depth = log.open.len();
            log.records.push(SpanRecord {
                name,
                depth,
                secs: 0.0,
            });
            log.open.push(slot);
            slot
        });
        Span {
            recorder: self,
            slot,
            start: Instant::now(),
        }
    }

    /// Snapshot of everything recorded so far; `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsReport> {
        let s = self.shared.as_ref()?;
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), s.counters[c as usize].load(Ordering::Relaxed)))
            .collect();
        let spans = s
            .spans
            .lock()
            .expect("span log never poisoned")
            .records
            .clone();
        Some(MetricsReport { counters, spans })
    }

    /// Convenience: the current value of one counter (0 when disabled).
    pub fn counter(&self, c: Counter) -> u64 {
        self.shared
            .as_ref()
            .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Guard for an open timing span; records the duration on drop.
#[derive(Debug)]
pub struct Span<'a> {
    recorder: &'a Recorder,
    slot: Option<usize>,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let (Some(slot), Some(s)) = (self.slot, &self.recorder.shared) {
            let secs = self.start.elapsed().as_secs_f64();
            let mut log = s.spans.lock().expect("span log never poisoned");
            log.records[slot].secs = secs;
            if log.open.last() == Some(&slot) {
                log.open.pop();
            } else {
                // Out-of-order drop (e.g. a guard stored past its sibling):
                // still close this span without corrupting the stack.
                log.open.retain(|&o| o != slot);
            }
        }
    }
}

/// A point-in-time snapshot of a recorder — the `--metrics-out` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// `(name, value)` per catalog counter, in catalog order.
    pub counters: Vec<(&'static str, u64)>,
    /// Closed (and still-open, zero-duration) spans in open order.
    pub spans: Vec<SpanRecord>,
}

impl MetricsReport {
    /// Renders the stable JSON schema:
    ///
    /// ```json
    /// {
    ///   "counters": { "dataset_passes": 2, ... },
    ///   "spans": [ { "name": "fit_density", "depth": 0, "secs": 0.123 } ]
    /// }
    /// ```
    ///
    /// Counter names and span names are static `snake_case` identifiers, so
    /// no string escaping is needed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    \"{name}\": {value}{sep}\n"));
        }
        out.push_str("  },\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"depth\": {}, \"secs\": {:.6} }}{sep}\n",
                s.name, s.depth, s.secs
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The value of counter `c` in this snapshot.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_consistent() {
        assert_eq!(Counter::ALL.len(), COUNTER_COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminant order");
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT, "names are unique");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.add(Counter::HeapPops, 5);
        let _span = rec.span("noop");
        assert!(rec.snapshot().is_none());
        assert_eq!(rec.counter(Counter::HeapPops), 0);
    }

    #[test]
    fn tally_merge_accumulates() {
        let mut a = Tally::default();
        let mut b = Tally::default();
        a.add(Counter::BallSamples, 3);
        b.add(Counter::BallSamples, 4);
        b.add(Counter::HeapPops, 1);
        a.merge(&b);
        assert_eq!(a.get(Counter::BallSamples), 7);
        assert_eq!(a.get(Counter::HeapPops), 1);
        assert!(!a.is_empty());
        assert!(Tally::default().is_empty());
    }

    #[test]
    fn enabled_recorder_counts_and_snapshots() {
        let rec = Recorder::enabled();
        rec.add(Counter::DatasetPasses, 2);
        let mut t = Tally::default();
        t.add(Counter::KdeKernelEvals, 10);
        rec.merge(&t);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.counter(Counter::DatasetPasses), 2);
        assert_eq!(snap.counter(Counter::KdeKernelEvals), 10);
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.add(Counter::ClusterMerges, 1);
        assert_eq!(rec.counter(Counter::ClusterMerges), 1);
    }

    #[test]
    fn spans_nest_and_close() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!((snap.spans[0].name, snap.spans[0].depth), ("outer", 0));
        assert_eq!((snap.spans[1].name, snap.spans[1].depth), ("inner", 1));
        assert!(snap.spans.iter().all(|s| s.secs >= 0.0));
        // A span opened after the nest closed is top-level again.
        drop(rec.span("later"));
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.spans[2].depth, 0);
    }

    #[test]
    fn json_schema_is_stable() {
        let rec = Recorder::enabled();
        rec.add(Counter::DatasetPasses, 2);
        drop(rec.span("stage"));
        let json = rec.snapshot().unwrap().to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"dataset_passes\": 2"));
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"name\": \"stage\""));
        // Every catalog counter appears.
        for c in Counter::ALL {
            assert!(json.contains(c.name()), "missing {}", c.name());
        }
        // Crude structural check: braces balance.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
