//! The traced run: every other measured operation carries a trace id, so
//! its time splits into the benchmark's own spans (extract, encode, HTTP,
//! check) and the program's existing spans (`POST …`, `cluster.search`,
//! `shard.leg`). After the sequence, probes time each layer's public
//! functions on the workload's own data. Spans stay in memory and are
//! written once, at the end, with `texid_obs::ChromeTrace`.

use crate::gen::Step;
use crate::run::{
    cluster_config, enrol_body, execute, post, search_body, verdict, warm_up, Checks, OpRecord,
    Ready, TOP,
};
use crate::stats::{self, median};
use crate::{Outcome, Scale, Workload, PER_LAYER};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use texid_core::Engine;
use texid_distrib::cluster::Cluster;
use texid_distrib::http::Request;
use texid_distrib::kv::KvStore;
use texid_distrib::{api, b64, json, wire};
use texid_gpu::GpuSim;
use texid_knn::{match_batch, Algorithm, ExecMode, FeatureBlock, MatchConfig};
use texid_linalg::Mat;
use texid_obs::{global_ring, ChromeTrace, Clock, SpanRecord, TraceContext};
use texid_sift::descriptor::compute_descriptors;
use texid_sift::detect::detect_keypoints;
use texid_sift::orientation::assign_orientations;
use texid_sift::pyramid::Pyramid;
use texid_sift::{extract, FeatureMatrix, SiftConfig};
use texid_store::{DurableLog, LogConfig, SnapshotFault, Volume};

/// Repetitions of each probe of a search-sized call; probes report medians.
const REPS: usize = 5;
/// Repetitions of each codec probe (sub-millisecond to a few ms).
const CODEC_REPS: usize = 21;
/// Images the SIFT probe times.
const SIFT_IMAGES: usize = 3;
/// Where the Chrome trace of a traced run is written (inside the checkout).
const TRACE_DIR: &str = ".bench_out";

/// `f()` and its wall time, ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    (v, t.elapsed().as_secs_f64() * 1e3)
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> f64 {
    timed(f).1
}

/// Median wall time of `reps` calls of `f`, ms.
fn med_ms<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    median(&(0..reps).map(|i| timed_ms(|| f(i))).collect::<Vec<_>>())
}

/// Median wall times of `f` and `g` called alternately `REPS` times each,
/// so host drift weighs on both alike, ms.
fn paired_ms<A, B>(mut f: impl FnMut(usize) -> A, mut g: impl FnMut(usize) -> B) -> (f64, f64) {
    let (a, b): (Vec<f64>, Vec<f64>) = (0..REPS)
        .map(|i| (timed_ms(|| f(i)), timed_ms(|| g(i))))
        .unzip();
    (median(&a), median(&b))
}

/// A durable feature store configured like the cluster's.
fn durable_store(scale: &Scale) -> KvStore {
    let every = cluster_config(scale).store.snapshot_every;
    KvStore::durable(DurableLog::new(
        Volume::in_memory(),
        LogConfig {
            snapshot_every: every,
        },
    ))
}

/// Set `value` under the cluster's key format and compact when due, as
/// `Cluster::add_texture` does: `(set ms, compaction ms if one ran)`.
fn store_write(store: &KvStore, id: u64, value: Vec<u8>) -> (f64, Option<f64>) {
    let set = timed_ms(|| store.set(&format!("tex:{id:020}"), value));
    let compact = store
        .snapshot_due()
        .then(|| timed_ms(|| store.compact(SnapshotFault::Clean)));
    (set, compact)
}

/// One named share of a [`Row`], µs.
type Part = &'static dyn Fn(&Row) -> f64;

/// Attribution of one traced operation, µs.
#[derive(Default)]
struct Row {
    op: f64,
    extract: f64,
    encode: f64,
    http: f64,
    check: f64,
    /// The edge's request span (`POST …`).
    server: f64,
    /// `cluster.search` span (searches).
    search: f64,
    leg_max: f64,
    leg_min: f64,
    /// Enrolments: edge decode re-timed on the same body, and the store
    /// write re-timed on a store fed the same sequence.
    decode: f64,
    store: f64,
}

impl Row {
    fn unattributed(&self) -> f64 {
        self.op - (self.extract + self.encode + self.http + self.check)
    }

    /// The layer the workload is chosen to stress, µs.
    fn dominant(&self, w: Workload) -> f64 {
        match w {
            Workload::Identify => self.extract,
            Workload::Gallery => self.leg_max,
            Workload::Ingest => self.decode + self.store,
        }
    }
}

/// Spans of one traced record: the benchmark's own, laid out from the
/// recorded part times, plus the program's from the global ring.
fn op_spans(rec: &OpRecord, ctx: &TraceContext) -> (Vec<SpanRecord>, Vec<SpanRecord>) {
    let span = |name: &str, parent: u64, start_us: f64, dur_us: f64| SpanRecord {
        trace_id: ctx.trace_id,
        span_id: ctx.child().span_id,
        parent_id: parent,
        name: name.to_string(),
        clock: Clock::Wall,
        start_us,
        dur_us,
        tags: vec![("track".to_string(), "client".to_string())],
    };
    let root = span(&format!("op {:?}", rec.step), 0, rec.start_us, rec.ms * 1e3);
    let p = &rec.parts;
    let mut ours = vec![];
    let mut t = rec.start_us;
    for (name, dur) in [
        ("sift.extract", p.extract_us),
        ("edge.encode", p.encode_us),
        ("http", p.http_us),
        ("check", p.check_us),
    ] {
        if dur > 0.0 {
            ours.push(span(name, root.span_id, t, dur));
        }
        t += dur;
    }
    ours.insert(0, root);
    (ours, global_ring().snapshot_trace(ctx.trace_id))
}

fn row_of(rec: &OpRecord, program: &[SpanRecord]) -> Row {
    let wall = |name: &'static str| {
        program
            .iter()
            .filter(move |s| s.clock == Clock::Wall && s.name == name)
    };
    let legs: Vec<f64> = wall("shard.leg").map(|s| s.dur_us).collect();
    Row {
        op: rec.ms * 1e3,
        extract: rec.parts.extract_us,
        encode: rec.parts.encode_us,
        http: rec.parts.http_us,
        check: rec.parts.check_us,
        server: program
            .iter()
            .find(|s| s.parent_id == 0 && s.name.starts_with("POST "))
            .map_or(0.0, |s| s.dur_us),
        search: wall("cluster.search").map(|s| s.dur_us).sum(),
        leg_max: legs.iter().copied().fold(0.0, f64::max),
        leg_min: if legs.is_empty() {
            0.0
        } else {
            legs.iter().copied().fold(f64::INFINITY, f64::min)
        },
        ..Row::default()
    }
}

/// Re-time the edge decode of an enrolment body, ms.
fn decode_ms(body: &str) -> f64 {
    timed_ms(|| {
        let v = json::parse(body).expect("enrolment body parses");
        let text = v
            .get("features")
            .and_then(json::Json::as_str)
            .expect("features field");
        let bytes = b64::decode(text).expect("valid base64");
        wire::decode_features(&bytes).expect("valid wire payload")
    })
}

/// Samples the process's thread count until finished or dropped.
struct ThreadSampler {
    stop: std::sync::Arc<AtomicBool>,
    peak: std::sync::Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ThreadSampler {
    fn start() -> ThreadSampler {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let peak = std::sync::Arc::new(AtomicU64::new(0));
        let (s, p) = (stop.clone(), peak.clone());
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(stats::threads() as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    fn finish(mut self) -> f64 {
        self.halt();
        self.peak.load(Ordering::Relaxed) as f64
    }
}

impl Drop for ThreadSampler {
    fn drop(&mut self) {
        self.halt();
    }
}

/// SIFT stage probe on the workload's own images.
fn sift_probe(
    images: &[&texid_image::GrayImage],
    cfg: &SiftConfig,
    out: &mut Vec<(&'static str, f64)>,
) {
    // Per image: extract, pyramid, detect, orient, describe, select (ms),
    // then descriptors computed and kept.
    let rows: Vec<[f64; 8]> = images
        .iter()
        .map(|im| {
            let extract_ms = timed_ms(|| extract(im, cfg));
            let (pyr, pyramid_ms) = timed(|| {
                Pyramid::build_upscaled(
                    im,
                    cfg.n_octaves,
                    cfg.intervals,
                    cfg.sigma0,
                    cfg.assumed_blur,
                )
            });
            let (kps, detect_ms) = timed(|| detect_keypoints(&pyr, &cfg.detect));
            let (kps, orient_ms) = timed(|| assign_orientations(&pyr, kps));
            let (d, describe_ms) = timed(|| compute_descriptors(&pyr, &kps));
            let select_ms = extract_ms - (pyramid_ms + detect_ms + orient_ms + describe_ms);
            let kept = d.len().min(cfg.max_features);
            [
                extract_ms,
                pyramid_ms,
                detect_ms,
                orient_ms,
                describe_ms,
                select_ms,
                d.len() as f64,
                kept as f64,
            ]
        })
        .collect();
    let col = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let names = [
        "sift.extract_ms",
        "sift.pyramid_ms",
        "sift.detect_ms",
        "sift.orient_ms",
        "sift.describe_ms",
        "sift.select_ms",
        "sift.described",
        "sift.kept",
    ];
    out.extend(names.iter().enumerate().map(|(i, &n)| (n, col(i))));
    out.push(("sift.describe_yield", col(7) / col(6).max(1.0)));
}

/// Edge probe: the workload's primary request through each public codec
/// function, in-process `api::handle`, and the HTTP round trip.
fn edge_probe(ready: &Ready, query: &FeatureMatrix, out: &mut Vec<(&'static str, f64)>) {
    let served = ready.served();
    let enrol = ready.workload == Workload::Ingest;
    let fm = if enrol { &ready.ref_features[0] } else { query };
    let body_for = |id: u64| {
        if enrol {
            enrol_body(id, fm)
        } else {
            search_body(fm)
        }
    };
    let (path, base) = if enrol {
        ("/textures", 2_000_000)
    } else {
        ("/search", 0)
    };
    let body = body_for(base);
    let parsed = json::parse(&body).expect("request body parses");
    let text = parsed
        .get("features")
        .and_then(json::Json::as_str)
        .expect("features")
        .to_string();
    let bytes = b64::decode(&text).expect("base64");
    // Distinct ids, so every enrolment adds a new texture; bodies are
    // built before timing.
    let requests: Vec<Request> = (0..REPS as u64)
        .map(|i| Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![],
            body: body_for(base + 2 * i).into_bytes(),
        })
        .collect();
    let http_bodies: Vec<String> = (0..REPS as u64)
        .map(|i| body_for(base + 2 * i + 1))
        .collect();
    let (handle_ms, http_ms) = paired_ms(
        |i| api::handle(&served.cluster, &requests[i]),
        |i| post(served.addr(), path, &http_bodies[i], None).expect("http probe"),
    );
    out.extend([
        ("edge.encode_ms", med_ms(CODEC_REPS, |_| body_for(base))),
        (
            "edge.json_parse_ms",
            med_ms(CODEC_REPS, |_| json::parse(&body)),
        ),
        (
            "edge.b64_decode_ms",
            med_ms(CODEC_REPS, |_| b64::decode(&text)),
        ),
        (
            "edge.wire_decode_ms",
            med_ms(CODEC_REPS, |_| wire::decode_features(&bytes)),
        ),
        ("edge.handle_ms", handle_ms),
        ("edge.transport_ms", http_ms - handle_ms),
        ("edge.request_kb", body.len() as f64 / 1024.0),
    ]);
}

/// Cluster probe: in-process search on the served cluster, its simulated
/// device time, tracing overhead, and `add_texture` on a fresh cluster.
fn cluster_probe(ready: &Ready, query: &FeatureMatrix, out: &mut Vec<(&'static str, f64)>) {
    let cluster = &ready.served().cluster;
    let sim_us = cluster.search(query, TOP).wall_us;
    let (p, tr) = paired_ms(
        |_| cluster.search(query, TOP),
        |_| cluster.search_traced(query, TOP, Some(&TraceContext::root())),
    );
    let fresh = Cluster::new(cluster_config(&ready.scale));
    let add: Vec<f64> = (0..ready.inputs.gallery.len().min(64))
        .map(|e| {
            timed_ms(|| {
                fresh
                    .add_texture(ready.inputs.gallery[e].0, ready.features(e))
                    .expect("probe add")
            })
        })
        .collect();
    out.extend([
        ("cluster.search_ms", p),
        ("cluster.add_ms", median(&add)),
        ("gpu.sim_search_us", sim_us),
        ("obs.trace_overhead_pct", 100.0 * (tr - p) / p),
    ]);
}

/// Engine + kernel probe: a standalone engine holding shard 0's share of
/// the gallery (round-robin placement) under the cluster's configuration,
/// and the batched match kernel on the same references.
fn engine_probe(ready: &Ready, query: &FeatureMatrix, out: &mut Vec<(&'static str, f64)>) {
    let cfg = cluster_config(&ready.scale).engine;
    let shard: Vec<&FeatureMatrix> = (0..ready.inputs.gallery.len())
        .step_by(2)
        .map(|e| ready.features(e))
        .collect();
    let mut engine = Engine::new(cfg.clone());
    let add: Vec<f64> = shard
        .iter()
        .enumerate()
        .map(|(i, fm)| timed_ms(|| engine.add_reference(i as u64, fm).expect("probe add")))
        .collect();
    let seal_ms = timed_ms(|| engine.flush().expect("probe flush"));

    // The same references as one batch, padded/truncated to m_ref as
    // `Engine::add_reference` does.
    let m = &cfg.matching;
    let blocks: Vec<FeatureBlock> = shard
        .iter()
        .map(|fm| {
            let cols = cfg.m_ref.min(fm.len());
            let mut data = fm.mat.as_slice()[..fm.dim() * cols].to_vec();
            data.resize(fm.dim() * cfg.m_ref, 0.0);
            FeatureBlock::from_mat(
                Mat::from_col_major(fm.dim(), cfg.m_ref, data),
                m.precision,
                m.scale,
            )
        })
        .collect();
    let r_cat = FeatureBlock::hconcat(&blocks.iter().collect::<Vec<_>>());
    let n = cfg.n_query.min(query.len());
    let qmat = Mat::from_col_major(
        query.dim(),
        n,
        query.mat.as_slice()[..query.dim() * n].to_vec(),
    );
    let qblock = FeatureBlock::from_mat(qmat, m.precision, m.scale);
    let kcfg = MatchConfig {
        algorithm: Algorithm::RootSiftTop2,
        exec: ExecMode::Full,
        ..*m
    };
    let mut sim = GpuSim::new(cfg.device.clone());
    let st = sim.default_stream();
    let (search_ms, match_ms) = paired_ms(
        |_| engine.search(query),
        |_| match_batch(&kcfg, &r_cat, shard.len(), cfg.m_ref, &qblock, &mut sim, st),
    );
    let flops = 2.0 * (cfg.m_ref * n * query.dim() * shard.len()) as f64;
    out.extend([
        ("engine.search_ms", search_ms),
        ("kernel.match_ms", match_ms),
        ("kernel.gflops", flops / (match_ms * 1e6)),
        ("engine.overhead_ms", search_ms - match_ms),
        ("engine.add_ms", median(&add)),
        ("engine.seal_ms", seal_ms),
    ]);
}

/// Store probe: a durable store configured like the cluster's, fed the
/// gallery's stored values until it has compacted twice.
fn store_probe(ready: &Ready, out: &mut Vec<(&'static str, f64)>) {
    let store = durable_store(&ready.scale);
    let every = cluster_config(&ready.scale).store.snapshot_every.max(1);
    let values: Vec<Vec<u8>> = (0..ready.inputs.gallery.len())
        .map(|e| wire::encode_features(ready.features(e)))
        .collect();
    let (mut sets, mut compacts, mut wal) = (vec![], vec![], vec![]);
    for i in 0..2 * every {
        let value = values[i % values.len()].clone();
        let before = store.wal_stats().map_or(0, |s| s.wal_bytes);
        let (set, compact) = store_write(&store, i as u64, value);
        sets.push(set);
        match compact {
            Some(c) => compacts.push(c),
            None => wal.push((store.wal_stats().map_or(0, |s| s.wal_bytes) - before) as f64),
        }
    }
    out.extend([
        ("store.set_ms", median(&sets)),
        ("store.compact_ms", median(&compacts)),
        ("store.compactions", compacts.len() as f64),
        ("store.wal_bytes_per_enroll", median(&wal)),
    ]);
}

/// A traced run: the per-layer metrics.
pub fn run_traced(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut ready = Ready::setup(workload, scale, seed, scale.measured_ops(seconds))?;
    let rss_setup = stats::rss_mb();
    let mut checks = Checks::default();
    warm_up(&mut ready, &mut checks)?;

    let sampler = ThreadSampler::start();
    let cpu0 = stats::cpu_ms();
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut rows: Vec<(bool, Row)> = Vec::new();
    let mut untraced: Vec<(bool, f64)> = Vec::new();
    let mut shadow = durable_store(scale);
    let plan = ready.inputs.plan.clone();
    let recs = execute(&mut ready, &plan, 2, |r, rec| {
        let enrol = !rec.is_search();
        if enrol && rec.pos == 0 {
            shadow = durable_store(&r.scale);
        }
        // The shadow store follows every enrolment so its compactions
        // fall where the cluster's do.
        let store_ms = match rec.step {
            Step::Enrol { entry } => {
                let (set, compact) = store_write(
                    &shadow,
                    r.inputs.gallery[entry].0,
                    wire::encode_features(r.features(entry)),
                );
                set + compact.unwrap_or(0.0)
            }
            _ => 0.0,
        };
        let Some(ctx) = rec.trace else {
            untraced.push((enrol, rec.ms));
            return;
        };
        let (ours, program) = op_spans(rec, &ctx);
        let mut row = row_of(rec, &program);
        if enrol {
            row.decode = decode_ms(&rec.body) * 1e3;
            row.store = store_ms * 1e3;
        }
        spans.extend(ours);
        spans.extend(program);
        rows.push((enrol, row));
    })?;
    let cpu_per_op = (stats::cpu_ms() - cpu0) / recs.len().max(1) as f64;
    let threads_peak = sampler.finish();
    let (correct, failed, _) = verdict(&ready, &recs, &mut checks);

    // The workload's primary operation: enrolments for ingest, searches
    // otherwise.
    let primary_enrol = workload == Workload::Ingest;
    let primary: Vec<&Row> = rows
        .iter()
        .filter(|(e, _)| *e == primary_enrol)
        .map(|(_, r)| r)
        .collect();
    let searches: Vec<&Row> = rows.iter().filter(|(e, _)| !e).map(|(_, r)| r).collect();
    let med_of =
        |rs: &[&Row], f: &dyn Fn(&Row) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let op_ms = med_of(&primary, &|r| r.op / 1e3);
    let untraced_ms = median(
        &untraced
            .iter()
            .filter(|(e, _)| *e == primary_enrol)
            .map(|(_, ms)| *ms)
            .collect::<Vec<_>>(),
    );

    // Enrolments: the measured ones on `ingest`, the set-up's otherwise.
    let enrolments: Vec<f64> = match workload {
        Workload::Ingest => recs
            .iter()
            .filter(|r| !r.is_search())
            .map(|r| r.ms)
            .collect(),
        _ => ready.enroll_ms.clone(),
    };
    let (enroll_tail, enroll_pct) = stats::tail(&enrolments);

    let mut values: Vec<(&'static str, f64)> = vec![
        ("enroll_ms_tail", enroll_tail),
        (
            "cluster.leg_ms_max",
            med_of(&searches, &|r| r.leg_max / 1e3),
        ),
        (
            "cluster.leg_skew_ms",
            med_of(&searches, &|r| (r.leg_max - r.leg_min) / 1e3),
        ),
        (
            "cluster.merge_ms",
            med_of(&searches, &|r| (r.search - r.leg_max) / 1e3),
        ),
        ("proc.cpu_ms_per_op", cpu_per_op),
        ("proc.rss_setup_mb", rss_setup),
        ("proc.threads_peak", threads_peak),
        ("trace.op_ms", op_ms),
        (
            "trace.dominant_pct",
            med_of(&primary, &|r| 100.0 * r.dominant(workload) / r.op),
        ),
        (
            "trace.unattributed_pct",
            med_of(&primary, &|r| 100.0 * r.unattributed() / r.op),
        ),
        (
            "trace.overhead_pct",
            100.0 * (op_ms - untraced_ms) / untraced_ms,
        ),
    ];
    let mut notes = vec![
        ("workload".to_string(), workload.name().to_string()),
        ("seed".to_string(), seed.to_string()),
        ("traced_ops".to_string(), rows.len().to_string()),
        ("untraced_ops".to_string(), untraced.len().to_string()),
        (
            "enroll_ms_tail.percentile".to_string(),
            format!("p{enroll_pct:.1} of {}", enrolments.len()),
        ),
        (
            "primary_op".to_string(),
            if primary_enrol { "enrolment" } else { "search" }.to_string(),
        ),
        (
            "dominant_layer".to_string(),
            match workload {
                Workload::Identify => "sift.extract",
                Workload::Gallery => "slowest shard.leg",
                Workload::Ingest => "edge decode (json + base64 + wire) + store write",
            }
            .to_string(),
        ),
    ];
    // Per-operation breakdown of the primary operation, medians in ms:
    // the parts add up to the whole with `unattributed` as the remainder.
    // `edge_server` is the edge's request span outside `cluster.search`;
    // for enrolments, `decode` and `store` are re-timed parts of it.
    let parts: [(&str, Part); 11] = [
        ("op", &|r| r.op),
        ("sift", &|r| r.extract),
        ("client_encode", &|r| r.encode),
        ("transport", &|r| r.http - r.server),
        ("edge_server", &|r| r.server - r.search),
        ("edge_server.decode", &|r| r.decode),
        ("edge_server.store", &|r| r.store),
        ("legs", &|r| r.leg_max),
        ("merge", &|r| r.search - r.leg_max),
        ("client_check", &|r| r.check),
        ("unattributed", &|r| r.unattributed()),
    ];
    for (name, f) in parts {
        notes.push((
            format!("breakdown_ms.{name}"),
            format!("{:.3}", med_of(&primary, f) / 1e3),
        ));
    }

    // Probes on the workload's own data.
    let (images, cfg): (Vec<&texid_image::GrayImage>, SiftConfig) = match workload {
        Workload::Ingest => (
            ready
                .inputs
                .references
                .iter()
                .map(|(_, im)| im)
                .take(SIFT_IMAGES)
                .collect(),
            SiftConfig::reference(scale.m_ref),
        ),
        _ => (
            ready
                .inputs
                .captures
                .iter()
                .map(|(_, im)| im)
                .take(SIFT_IMAGES)
                .collect(),
            SiftConfig::query(scale.n_query),
        ),
    };
    sift_probe(&images, &cfg, &mut values);
    let query = match workload {
        Workload::Identify => extract(
            &ready.inputs.captures[0].1,
            &SiftConfig::query(scale.n_query),
        ),
        _ => ready.query_features[0].clone(),
    };
    cluster_probe(&ready, &query, &mut values);
    engine_probe(&ready, &query, &mut values);
    store_probe(&ready, &mut values);
    edge_probe(&ready, &query, &mut values);

    let trace_path = write_trace(workload, seed, &spans);
    notes.push(("chrome_trace".to_string(), trace_path));
    notes.extend(checks.notes());
    drop(ready);
    Ok(Outcome {
        correct,
        attempted: recs.len() as u64,
        failed,
        metrics: Outcome::with_metrics(&PER_LAYER, &values),
        notes,
    })
}

/// Write the run's spans as a Chrome trace; returns the path or the error.
fn write_trace(workload: Workload, seed: u64, spans: &[SpanRecord]) -> String {
    let mut trace = ChromeTrace::new();
    trace.add_spans(spans);
    let path = format!("{TRACE_DIR}/trace-{}-{seed}.json", workload.name());
    match std::fs::create_dir_all(TRACE_DIR).and_then(|_| std::fs::write(&path, trace.to_json())) {
        Ok(()) => path,
        Err(e) => format!("not written: {e}"),
    }
}
