//! Wall-clock benchmark of the served texid pipeline.
//!
//! One process builds a real [`texid_distrib::cluster::Cluster`] of two
//! containers, serves it with [`texid_distrib::api::serve`] on loopback, and
//! drives it from one client thread in a closed loop: the next request is
//! sent only after the previous reply arrived. Three workloads stress
//! different layers (see `README.md` beside this crate):
//!
//! * `identify` — extract a capture, `POST /search` against ~32 real
//!   references: SIFT dominates;
//! * `gallery` — `POST /search` of pre-extracted features against 128
//!   references: shard legs (GEMM + top-2) dominate;
//! * `ingest` — `POST /textures` into an empty cluster with a search every
//!   40 enrolments: the edge codec and the durable store dominate.
//!
//! Each run replays a fixed, seeded operation sequence; `--seconds` fixes
//! its length through a nominal per-operation time, so every run of a
//! workload does identical work. An untraced run reports the end-to-end
//! metrics; a traced run ([`layers`]) reports the per-layer breakdown.

pub mod gen;
pub mod layers;
pub mod run;
pub mod stats;

use std::fmt::Write as _;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Photo → id over HTTP, SIFT inline, against a small real gallery.
    Identify,
    /// Features → id over HTTP against a large gallery.
    Gallery,
    /// Enrolment stream with interleaved searches.
    Ingest,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Identify, Workload::Gallery, Workload::Ingest];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Identify => "identify",
            Workload::Gallery => "gallery",
            Workload::Ingest => "ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of one workload run.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Side of the square procedural textures, pixels.
    pub image_size: usize,
    /// Features kept per reference (the engine's `m_ref`).
    pub m_ref: usize,
    /// Features kept per query (the engine's `n_query`).
    pub n_query: usize,
    /// Real references, extracted from generated textures.
    pub real_refs: usize,
    /// Synthetic distractors enrolled beside them.
    pub distractors: usize,
    /// Distinct augmented captures the queries cycle through.
    pub captures: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Discarded warm-up operations (`identify`, `gallery`; `ingest` warms
    /// up with one whole cycle).
    pub warmup_ops: usize,
    /// `ingest`: enrolments per interleaved search.
    pub search_every: usize,
    /// Nominal seconds per operation on a 2-vCPU AVX2 host; turns
    /// `--seconds` into a fixed operation count.
    pub op_seconds: f64,
}

impl Scale {
    /// The benchmark's configuration.
    pub fn full(w: Workload) -> Scale {
        let base = Scale {
            image_size: 256,
            m_ref: 384,
            n_query: 768,
            real_refs: 4,
            distractors: 0,
            captures: 8,
            setups: 3,
            warmup_ops: 2,
            search_every: 0,
            op_seconds: 0.25,
        };
        match w {
            Workload::Identify => Scale {
                real_refs: 32,
                captures: 16,
                op_seconds: 0.46,
                ..base
            },
            Workload::Gallery => Scale {
                distractors: 124,
                op_seconds: 0.29,
                ..base
            },
            // Interleaved reads send 256-feature queries every 40
            // enrolments, so matching stays a minority of the work. A
            // cycle then holds an odd number of searches (7), so the
            // median and the tail fall inside one gallery size.
            Workload::Ingest => Scale {
                distractors: 252,
                captures: 4,
                n_query: 256,
                search_every: 40,
                op_seconds: 0.0125,
                ..base
            },
        }
    }

    /// A seconds-long configuration for the self-test.
    pub fn tiny(w: Workload) -> Scale {
        Scale {
            image_size: 128,
            real_refs: 3,
            distractors: if w == Workload::Identify { 0 } else { 5 },
            captures: 3,
            setups: 2,
            warmup_ops: 1,
            search_every: 4,
            op_seconds: 1.0,
            ..Scale::full(w)
        }
    }

    /// Operations in the measured phase for a `seconds`-long run.
    pub fn measured_ops(&self, seconds: f64) -> usize {
        ((seconds / self.op_seconds).round() as usize).max(1)
    }
}

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("identify_ms_p50", "ms"),
    ("identify_ms_tail", "ms"),
    ("enroll_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("top1_accuracy", "fraction"),
    ("rss_peak_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
/// `enroll_ms_tail` is here rather than end to end: on `identify` and
/// `gallery` every enrolment happens in set-up, within about a second, and
/// its tail followed host hiccups (spreads of 20-48 % across runs).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("enroll_ms_tail", "ms"),
    ("sift.extract_ms", "ms"),
    ("sift.pyramid_ms", "ms"),
    ("sift.detect_ms", "ms"),
    ("sift.orient_ms", "ms"),
    ("sift.describe_ms", "ms"),
    ("sift.select_ms", "ms"),
    ("sift.described", "count"),
    ("sift.kept", "count"),
    ("sift.describe_yield", "fraction"),
    ("edge.encode_ms", "ms"),
    ("edge.json_parse_ms", "ms"),
    ("edge.b64_decode_ms", "ms"),
    ("edge.wire_decode_ms", "ms"),
    ("edge.handle_ms", "ms"),
    ("edge.transport_ms", "ms"),
    ("edge.request_kb", "KiB"),
    ("cluster.search_ms", "ms"),
    ("cluster.leg_ms_max", "ms"),
    ("cluster.leg_skew_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.add_ms", "ms"),
    ("engine.search_ms", "ms"),
    ("kernel.match_ms", "ms"),
    ("kernel.gflops", "GFLOP/s"),
    ("engine.overhead_ms", "ms"),
    ("engine.add_ms", "ms"),
    ("engine.seal_ms", "ms"),
    ("store.set_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("store.compactions", "count"),
    ("store.wal_bytes_per_enroll", "B"),
    ("gpu.sim_search_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.rss_setup_mb", "MB"),
    ("proc.threads_peak", "count"),
    ("trace.op_ms", "ms"),
    ("trace.dominant_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Measured operations attempted.
    pub attempted: u64,
    /// Measured operations that failed (non-2xx, unparsable, unknown id).
    pub failed: u64,
    /// `(name, unit, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Context printed before the result: sample counts, percentiles,
    /// host facts, check details.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Assemble metrics in catalogue order from `(name, value)` pairs.
    ///
    /// # Panics
    /// Panics if a catalogued metric is missing.
    pub fn with_metrics(
        catalogue: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} not measured"))
                    .1;
                (name, unit, v)
            })
            .collect()
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            );
        }
        s.push_str("}}");
        s
    }
}

/// `pairs` as one JSON object of strings.
pub fn json_strings(pairs: &[(String, String)]) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", esc(k), esc(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with all its digits (non-finite values become 0,
/// which no timing ever reads).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Facts about the host that decide which numbers are comparable.
pub fn host_facts() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".into(), nproc.to_string()),
        (
            "kernel_backend".into(),
            texid_linalg::active_backend().name().into(),
        ),
        (
            "kernel_backend_override".into(),
            std::env::var("TEXID_KERNEL_BACKEND").unwrap_or_else(|_| "none".into()),
        ),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ]
}
