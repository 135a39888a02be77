//! Set-up, the closed-loop client, output checks and the end-to-end
//! metrics of an untraced run.

use crate::gen::{Inputs, Source, Step};
use crate::stats::{self, median, tail};
use crate::{Outcome, Scale, Workload, END_TO_END};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use texid_core::EngineConfig;
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::http::{http_call_with_headers, HttpServer, Response};
use texid_distrib::{api, b64, json, wire};
use texid_obs::{TraceContext, TRACE_HEADER};
use texid_sift::{extract, FeatureMatrix, SiftConfig};

/// Results requested per search.
pub const TOP: usize = 5;
/// A run is correct only if at least this share of searches ranks the
/// expected id first (mild captures identify exactly; this is a floor).
pub const MIN_TOP1: f64 = 0.9;
/// Extraction threads during set-up; the measured phase uses one client.
const SETUP_THREADS: usize = 2;

/// The cluster configuration: shipped defaults on two containers.
pub fn cluster_config(scale: &Scale) -> ClusterConfig {
    ClusterConfig {
        containers: 2,
        engine: EngineConfig {
            m_ref: scale.m_ref,
            n_query: scale.n_query,
            ..EngineConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// A cluster served over loopback.
pub struct Served {
    /// The cluster behind the server.
    pub cluster: Arc<Cluster>,
    /// The running REST service; stopped and joined on drop.
    pub server: HttpServer,
}

impl Served {
    /// Start an empty cluster behind `api::serve` on an ephemeral port.
    pub fn start(scale: &Scale) -> Result<Served, String> {
        let cluster = Arc::new(Cluster::new(cluster_config(scale)));
        let server =
            api::serve(cluster.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        Ok(Served { cluster, server })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// `POST /search` body.
pub fn search_body(fm: &FeatureMatrix) -> String {
    format!(
        r#"{{"features": "{}", "top": {TOP}}}"#,
        b64::encode(&wire::encode_features(fm))
    )
}

/// `POST /textures` body.
pub fn enrol_body(id: u64, fm: &FeatureMatrix) -> String {
    format!(
        r#"{{"id": {id}, "features": "{}"}}"#,
        b64::encode(&wire::encode_features(fm))
    )
}

/// `(id, score)` pairs of a search reply, if it parses.
pub fn parse_results(resp: &Response) -> Option<Vec<(u64, u64)>> {
    let v = json::parse(&resp.text()).ok()?;
    v.get("results")?
        .as_arr()?
        .iter()
        .map(|r| Some((r.get("id")?.as_u64()?, r.get("score")?.as_u64()?)))
        .collect()
}

/// POST `body` to `path`, with a trace header when `ctx` is given.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    ctx: Option<&TraceContext>,
) -> std::io::Result<Response> {
    let hex = ctx.map(TraceContext::trace_id_hex);
    let headers: Vec<(&str, &str)> = hex.iter().map(|h| (TRACE_HEADER, h.as_str())).collect();
    http_call_with_headers(addr, "POST", path, &headers, body.as_bytes())
}

/// `f` over `items` on up to [`SETUP_THREADS`] threads, results in order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(nproc.min(SETUP_THREADS)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("set-up worker"))
            .collect()
    })
}

/// A workload after set-up: inputs generated, features extracted and, for
/// `identify` and `gallery`, the gallery enrolled over HTTP.
pub struct Ready {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub scale: Scale,
    /// The generated inputs.
    pub inputs: Inputs,
    /// Features of `inputs.references`, extracted in set-up.
    pub ref_features: Vec<FeatureMatrix>,
    /// Features of `inputs.captures` (`gallery`, `ingest`), extracted in set-up.
    pub query_features: Vec<FeatureMatrix>,
    /// The served cluster (`ingest` starts one per cycle).
    pub served: Option<Served>,
    /// Latency of each set-up enrolment, ms.
    pub enroll_ms: Vec<f64>,
    /// Wall time of this set-up, s.
    pub setup_s: f64,
    /// Every id of the gallery.
    pub gallery_ids: HashSet<u64>,
}

impl Ready {
    /// Generate, extract and (except for `ingest`) enrol.
    pub fn setup(
        workload: Workload,
        scale: &Scale,
        seed: u64,
        measured_ops: usize,
    ) -> Result<Ready, String> {
        let t = Instant::now();
        let inputs = Inputs::generate(workload, scale, seed, measured_ops);
        let ref_cfg = SiftConfig::reference(scale.m_ref);
        let query_cfg = SiftConfig::query(scale.n_query);
        let mut jobs: Vec<(&texid_image::GrayImage, &SiftConfig)> = inputs
            .references
            .iter()
            .map(|(_, im)| (im, &ref_cfg))
            .collect();
        if workload != Workload::Identify {
            jobs.extend(inputs.captures.iter().map(|(_, im)| (im, &query_cfg)));
        }
        let mut features = par_map(&jobs, |(im, cfg)| extract(im, cfg));
        let query_features = features.split_off(inputs.references.len());
        let gallery_ids = inputs.gallery.iter().map(|(id, _)| *id).collect();
        let mut ready = Ready {
            workload,
            scale: scale.clone(),
            inputs,
            ref_features: features,
            query_features,
            served: None,
            enroll_ms: Vec::new(),
            setup_s: 0.0,
            gallery_ids,
        };
        if workload != Workload::Ingest {
            let served = Served::start(scale)?;
            for entry in 0..ready.inputs.gallery.len() {
                let t = Instant::now();
                let (id, fm) = (ready.inputs.gallery[entry].0, ready.features(entry));
                let resp = post(served.addr(), "/textures", &enrol_body(id, fm), None)
                    .map_err(|e| format!("set-up enrolment: {e}"))?;
                if resp.status != 201 {
                    return Err(format!("set-up enrolment of {id}: HTTP {}", resp.status));
                }
                ready.enroll_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            ready.served = Some(served);
        }
        ready.setup_s = t.elapsed().as_secs_f64();
        Ok(ready)
    }

    /// Features of gallery entry `entry`.
    pub fn features(&self, entry: usize) -> &FeatureMatrix {
        match self.inputs.gallery[entry].1 {
            Source::Real(k) => &self.ref_features[k],
            Source::Synthetic(k) => &self.inputs.distractors[k].1,
        }
    }

    /// The served cluster.
    pub fn served(&self) -> &Served {
        self.served.as_ref().expect("a served cluster")
    }
}

/// Wall time of each part of one operation, µs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Parts {
    /// `texid_sift::extract` (identify only).
    pub extract_us: f64,
    /// Client-side wire encode + base64 + JSON body.
    pub encode_us: f64,
    /// `http_call` round trip.
    pub http_us: f64,
    /// Reply parsing and checks.
    pub check_us: f64,
}

/// What one operation did.
pub struct OpRecord {
    /// The step it ran.
    pub step: Step,
    /// Position in its sequence (within a cycle for `ingest`).
    pub pos: usize,
    /// Wall time, ms.
    pub ms: f64,
    /// Non-2xx reply, unparsable reply, or an id that was never enrolled.
    pub failed: bool,
    /// Searches: whether the expected id ranked first.
    pub hit: Option<bool>,
    /// Searches: the `(id, score)` results.
    pub results: Vec<(u64, u64)>,
    /// Per-part wall times.
    pub parts: Parts,
    /// Wall-clock start, µs on the `texid_obs::wall_now_us` epoch.
    pub start_us: f64,
    /// Trace id sent with the request (traced runs).
    pub trace: Option<TraceContext>,
    /// The request body (dropped after the callback).
    pub body: String,
    /// The features extracted by an identify operation (dropped after
    /// the callback).
    pub query: Option<FeatureMatrix>,
}

impl OpRecord {
    /// True for search and identify operations.
    pub fn is_search(&self) -> bool {
        matches!(self.step, Step::Search { .. } | Step::Identify { .. })
    }
}

fn op(ready: &Ready, step: Step, pos: usize, traced: bool) -> OpRecord {
    let addr = ready.served().addr();
    let trace = traced.then(TraceContext::root);
    let start_us = texid_obs::wall_now_us();
    let t0 = Instant::now();
    let mut parts = Parts::default();
    let lap = |t: &mut Instant| {
        let us = t.elapsed().as_secs_f64() * 1e6;
        *t = Instant::now();
        us
    };
    let mut t = Instant::now();
    let (path, body, query, expected) = match step {
        Step::Enrol { entry } => {
            let id = ready.inputs.gallery[entry].0;
            (
                "/textures",
                enrol_body(id, ready.features(entry)),
                None,
                None,
            )
        }
        Step::Identify { capture } => {
            let (id, im) = &ready.inputs.captures[capture];
            let fm = extract(im, &SiftConfig::query(ready.scale.n_query));
            parts.extract_us = lap(&mut t);
            ("/search", search_body(&fm), Some(fm), Some(*id))
        }
        Step::Search { capture } => {
            let fm = &ready.query_features[capture];
            (
                "/search",
                search_body(fm),
                None,
                Some(ready.inputs.captures[capture].0),
            )
        }
        Step::Reset => unreachable!("resets are not operations"),
    };
    parts.encode_us = lap(&mut t);
    let resp = post(addr, path, &body, trace.as_ref());
    parts.http_us = lap(&mut t);
    let (failed, hit, results) = match (&resp, expected) {
        (Ok(r), None) => (r.status != 201, None, Vec::new()),
        (Ok(r), Some(want)) => match parse_results(r).filter(|_| r.status == 200) {
            Some(res) => {
                let top = res.first().map(|&(id, _)| id);
                let known = top.is_some_and(|id| ready.gallery_ids.contains(&id));
                (!known, Some(top == Some(want)), res)
            }
            None => (true, Some(false), Vec::new()),
        },
        (Err(_), _) => (true, expected.map(|_| false), Vec::new()),
    };
    parts.check_us = lap(&mut t);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    OpRecord {
        step,
        pos,
        ms,
        failed,
        hit,
        results,
        parts,
        start_us,
        trace,
        body,
        query,
    }
}

/// Run `steps` in a closed loop. `Reset` replaces the served cluster with
/// an empty one. Every `trace_every`-th operation (none when 0) carries a
/// trace id. `after` sees each record while the cluster is still in the
/// state the operation left it in; its time is outside the record.
pub fn execute(
    ready: &mut Ready,
    steps: &[Step],
    trace_every: usize,
    mut after: impl FnMut(&Ready, &mut OpRecord),
) -> Result<Vec<OpRecord>, String> {
    let mut records: Vec<OpRecord> = Vec::with_capacity(steps.len());
    let mut pos = 0;
    for &step in steps {
        if step == Step::Reset {
            ready.served = None;
            ready.served = Some(Served::start(&ready.scale)?);
            pos = 0;
            continue;
        }
        let traced = trace_every > 0 && records.len().is_multiple_of(trace_every);
        let mut rec = op(ready, step, pos, traced);
        after(ready, &mut rec);
        rec.query = None;
        rec.body = String::new();
        records.push(rec);
        pos += 1;
    }
    Ok(records)
}

/// Output checks shared by traced and untraced runs.
#[derive(Default)]
pub struct Checks {
    /// Searches compared with in-process `Cluster::search`.
    pub compared: usize,
    /// Of those, how many differed.
    pub mismatched: usize,
    /// Results of the first search at each key (capture, or position
    /// within an ingest cycle); later searches must repeat them.
    first: HashMap<(usize, usize), Vec<(u64, u64)>>,
    /// Searches whose results differed from the first at their key.
    pub nondeterministic: usize,
}

impl Checks {
    /// Compare a search's HTTP results with in-process `Cluster::search`.
    pub fn in_process(&mut self, ready: &Ready, rec: &OpRecord) {
        let q = match rec.step {
            Step::Search { capture } => Some(&ready.query_features[capture]),
            _ => rec.query.as_ref(),
        };
        if let (Some(q), false) = (q, rec.failed) {
            let local: Vec<(u64, u64)> = ready
                .served()
                .cluster
                .search(q, TOP)
                .results
                .iter()
                .map(|&(id, s)| (id, s as u64))
                .collect();
            self.compared += 1;
            self.mismatched += usize::from(local != rec.results);
        }
    }

    /// Record or compare results by key.
    pub fn repeatable(&mut self, ready: &Ready, rec: &OpRecord) {
        let key = match (ready.workload, rec.step) {
            (Workload::Ingest, _) => (rec.pos, 0),
            (_, Step::Search { capture } | Step::Identify { capture }) => (capture, 1),
            _ => return,
        };
        if !rec.is_search() || rec.failed {
            return;
        }
        match self.first.get(&key) {
            Some(prev) => self.nondeterministic += usize::from(*prev != rec.results),
            None => {
                self.first.insert(key, rec.results.clone());
            }
        }
    }

    /// True when every comparison agreed and at least one was made.
    pub fn ok(&self) -> bool {
        self.compared > 0 && self.mismatched == 0 && self.nondeterministic == 0
    }

    /// Notes describing the checks.
    pub fn notes(&self) -> Vec<(String, String)> {
        vec![
            (
                "check.in_process".into(),
                format!(
                    "{}/{} equal",
                    self.compared - self.mismatched,
                    self.compared
                ),
            ),
            (
                "check.repeat_mismatches".into(),
                self.nondeterministic.to_string(),
            ),
        ]
    }
}

/// One set-up's wall time (s) and enrolment latencies (ms).
pub type SetupLog = (f64, Vec<f64>);

/// Run set-up `scale.setups` times and keep the last; returns it with
/// every set-up's log.
pub fn setup_repeated(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    ops: usize,
) -> Result<(Ready, Vec<SetupLog>), String> {
    let mut log = Vec::new();
    let mut ready = None;
    for _ in 0..scale.setups.max(1) {
        drop(ready.take());
        let r = Ready::setup(workload, scale, seed, ops)?;
        log.push((r.setup_s, r.enroll_ms.clone()));
        ready = Some(r);
    }
    Ok((ready.expect("at least one set-up"), log))
}

/// The warm-up: every search is checked against in-process search.
pub fn warm_up(ready: &mut Ready, checks: &mut Checks) -> Result<(), String> {
    let warmup = ready.inputs.warmup.clone();
    let recs = execute(ready, &warmup, 0, |r, rec| {
        checks.in_process(r, rec);
        checks.repeatable(r, rec);
    })?;
    match recs.iter().find(|r| r.failed) {
        Some(r) => Err(format!("warm-up operation {:?} failed", r.step)),
        None => Ok(()),
    }
}

/// Finish the checks on a measured sequence and count its failures:
/// `(correct, failed, top1_accuracy)`.
pub fn verdict(ready: &Ready, recs: &[OpRecord], checks: &mut Checks) -> (bool, u64, f64) {
    for rec in recs {
        checks.repeatable(ready, rec);
    }
    let failed = recs.iter().filter(|r| r.failed).count() as u64;
    let searches = recs.iter().filter(|r| r.is_search()).count();
    let hits = recs.iter().filter(|r| r.hit == Some(true)).count();
    let top1 = hits as f64 / searches.max(1) as f64;
    (failed == 0 && checks.ok() && top1 >= MIN_TOP1, failed, top1)
}

/// An untraced run: the end-to-end metrics.
pub fn run_untraced(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let (mut ready, setups) = setup_repeated(workload, scale, seed, scale.measured_ops(seconds))?;
    let setup_times: Vec<f64> = setups.iter().map(|(s, _)| *s).collect();
    let mut checks = Checks::default();
    warm_up(&mut ready, &mut checks)?;

    let plan = ready.inputs.plan.clone();
    let t = Instant::now();
    let recs = execute(&mut ready, &plan, 0, |_, _| {})?;
    let wall = t.elapsed().as_secs_f64();
    let (correct, failed, top1) = verdict(&ready, &recs, &mut checks);
    drop(ready);

    let search_ms: Vec<f64> = recs
        .iter()
        .filter(|r| r.is_search())
        .map(|r| r.ms)
        .collect();
    // Enrolment latency: `ingest` pools its measured enrolments.
    // `identify` and `gallery` enrol only in set-up, each set-up within
    // about a second, so one slow host phase can cover all of a set-up's
    // enrolments: they report the median over set-ups of each set-up's
    // median, as `setup_s` does.
    let (enroll_p50, en_samples) = match workload {
        Workload::Ingest => {
            let v: Vec<f64> = recs
                .iter()
                .filter(|r| !r.is_search())
                .map(|r| r.ms)
                .collect();
            (median(&v), v.len())
        }
        _ => (
            median(&setups.iter().map(|(_, v)| median(v)).collect::<Vec<_>>()),
            setups.iter().map(|(_, v)| v.len()).sum(),
        ),
    };
    let (id_tail, id_pct) = tail(&search_ms);
    let values = [
        ("setup_s", median(&setup_times)),
        ("identify_ms_p50", median(&search_ms)),
        ("identify_ms_tail", id_tail),
        ("enroll_ms_p50", enroll_p50),
        ("ops_per_s", recs.len() as f64 / wall),
        ("top1_accuracy", top1),
        ("rss_peak_mb", stats::rss_peak_mb()),
    ];
    let mut notes = vec![
        ("workload".into(), workload.name().into()),
        ("seed".into(), seed.to_string()),
        ("load".into(), "closed loop, 1 client, 2 containers".into()),
        ("measured_ops".into(), recs.len().to_string()),
        ("measured_s".into(), format!("{wall:.3}")),
        ("identify_ms.samples".into(), search_ms.len().to_string()),
        (
            "identify_ms_tail.percentile".into(),
            format!("p{id_pct:.1}"),
        ),
        ("enroll_ms.samples".into(), en_samples.to_string()),
        (
            "enroll_ms.source".into(),
            if workload == Workload::Ingest {
                "measured phase"
            } else {
                "median over set-ups of each set-up's enrolments"
            }
            .into(),
        ),
        ("setup_s.samples".into(), setup_times.len().to_string()),
        ("top1_accuracy.min".into(), MIN_TOP1.to_string()),
    ];
    notes.extend(checks.notes());
    Ok(Outcome {
        correct,
        attempted: recs.len() as u64,
        failed,
        metrics: Outcome::with_metrics(&END_TO_END, &values),
        notes,
    })
}
