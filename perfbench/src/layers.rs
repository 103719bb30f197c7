//! The traced run's per-layer replay: the same seeded inputs, pushed
//! in-process through each layer's public functions, timed from here
//! around each call. Nothing inside the program is instrumented beyond
//! the `build.*` and `delta.*` spans it already has.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use phe_core::{EstimatorConfig, HistogramKind, LabelPath, OrderingKind, PathSelectivityEstimator};
use phe_graph::LabelId;
use phe_histogram::PointEstimator;
use phe_query::ExpandOptions;
use phe_service::protocol::{ok_response, PathStep, Request};
use phe_service::{EstimatorRegistry, ServableEstimator, ServingEstimator};
use serde_json::{Number, Value};

use crate::bench::{Kind, Outcome, BETA};
use crate::inputs::{ExprCase, ExprStream, PathStream};
use crate::stats::median;

/// Figures the traced run took from its own timed window.
pub struct Window {
    pub rtt_p50_us: f64,
    pub cpu_us_per_answer: f64,
    pub path_hit_ratio: f64,
    pub expr_hit_ratio: f64,
    pub full_rebuilds: u64,
}

pub struct Inputs<'a> {
    pub graph_file: &'a Path,
    pub stream: Option<&'a PathStream>,
    pub exprs: Option<&'a ExprStream>,
    pub pool: &'a [ExprCase],
    pub change_files: &'a [PathBuf],
}

/// Expressions replayed in-process: the first request lines of the
/// stream that hold this many.
const REPLAY_EXPRS: usize = 65_536;
/// Changes files replayed through `apply_delta` on `churn_wide`.
const DELTA_REPLAY: usize = 2;
/// Timings per request line of its in-process handling.
const HANDLING_PASSES: usize = 3;
/// Snapshot loads timed for `snapshot.load_s`.
const LOAD_REPEATS: usize = 5;

fn ns_per(elapsed: Duration, items: usize) -> f64 {
    elapsed.as_nanos() as f64 / items.max(1) as f64
}

fn span_seconds(roots: &[phe_obs::span::TraceNode], name: &str) -> f64 {
    roots
        .iter()
        .flat_map(|root| root.flatten())
        .filter(|(_, stage, _)| *stage == name)
        .map(|(_, _, d)| d.as_secs_f64())
        .sum()
}

/// The label ids of an `estimate` request (the benchmark sends ids only).
fn ids_of(request: &Request) -> Result<Vec<Vec<LabelId>>, String> {
    let Request::Estimate { paths, .. } = request else {
        return Err("not an estimate request".into());
    };
    paths
        .iter()
        .map(|p| {
            p.iter()
                .map(|s| match s {
                    PathStep::Id(id) => Ok(LabelId(*id)),
                    PathStep::Name(n) => Err(format!("unexpected label name {n:?}")),
                })
                .collect()
        })
        .collect()
}

fn render_estimates(version: u64, estimates: &[f64]) -> String {
    ok_response(vec![
        ("version".into(), Value::Number(Number::PosInt(version))),
        (
            "estimates".into(),
            Value::Array(
                estimates
                    .iter()
                    .map(|&e| Value::Number(Number::Float(e)))
                    .collect(),
            ),
        ),
    ])
}

fn render_exprs(version: u64, outcomes: &[phe_service::ExprOutcome]) -> String {
    let rows = outcomes
        .iter()
        .map(|o| {
            Value::Object(vec![
                ("estimate".into(), Value::Number(Number::Float(o.total))),
                ("paths".into(), Value::Number(Number::PosInt(o.width))),
                ("pruned".into(), Value::Number(Number::PosInt(o.pruned))),
                (
                    "truncated".into(),
                    Value::Number(Number::PosInt(o.truncated)),
                ),
                ("matches_empty".into(), Value::Bool(o.matches_empty)),
                ("cached".into(), Value::Bool(o.cached)),
            ])
        })
        .collect();
    ok_response(vec![
        ("version".into(), Value::Number(Number::PosInt(version))),
        ("results".into(), Value::Array(rows)),
    ])
}

/// Replays the workload's inputs layer by layer and adds every per-layer
/// metric to `out`. Layers a workload does not drive report 0.
pub fn replay(
    kind: Kind,
    dir: &Path,
    inputs: &Inputs<'_>,
    window: &Window,
    out: &mut Outcome,
) -> Result<(), String> {
    // Build layers: the program's own spans around a full build.
    let graph = phe_graph::io::read_tsv_path(inputs.graph_file)
        .map_err(|e| format!("reading graph: {e}"))?;
    let config = EstimatorConfig {
        k: kind.k(),
        beta: BETA,
        ordering: OrderingKind::SumBased,
        histogram: HistogramKind::VOptimalGreedy,
        threads: 0,
        retain_catalog: false,
        retain_sparse: true,
    };
    let (built, spans) = phe_obs::span::capture(|| PathSelectivityEstimator::build(&graph, config));
    let built = built.map_err(|e| format!("in-process build: {e}"))?;
    let catalog = built
        .sparse_catalog()
        .ok_or("build kept no sparse catalog")?;
    let phc = dir.join("replay.phc");
    let t = Instant::now();
    phe_pathenum::file::write_catalog_file(&phc, catalog)
        .map_err(|e| format!("writing phc: {e}"))?;
    let phc_write_s = t.elapsed().as_secs_f64();
    let snapshot_path = dir.join("stats.json");
    let snapshot_path = snapshot_path.to_str().ok_or("non-UTF-8 work directory")?;
    let mut load_s = Vec::new();
    for _ in 0..LOAD_REPEATS {
        let t = Instant::now();
        black_box(phe_service::load_snapshot(snapshot_path)?);
        load_s.push(t.elapsed().as_secs_f64());
    }
    out.metric("build.count_s", span_seconds(&spans, "build.count"), "s");
    out.metric("build.merge_s", span_seconds(&spans, "build.merge"), "s");
    out.metric("build.order_s", span_seconds(&spans, "build.order"), "s");
    out.metric(
        "build.histogram_s",
        span_seconds(&spans, "build.histogram"),
        "s",
    );
    out.metric("phc.write_s", phc_write_s, "s");
    out.metric("snapshot.load_s", median(&load_s), "s");
    out.metric(
        "pathenum.realized_paths",
        catalog.nonzero_count() as f64,
        "count",
    );

    // Serving layers, over a generation restored the way the server
    // restores it.
    let registry = EstimatorRegistry::with_default_counters();
    registry.register("default", phe_service::load_snapshot(snapshot_path)?);
    let generation = registry.get("default").ok_or("registered slot missing")?;
    let json = std::fs::read_to_string(snapshot_path).map_err(|e| e.to_string())?;
    let snapshot: phe_core::EstimatorSnapshot =
        serde_json::from_str(&json).map_err(|e| format!("parsing snapshot: {e}"))?;
    let histogram = snapshot.restore().map_err(|e| e.to_string())?;

    let served_paths: Vec<LabelPath>;
    let handling_us: Vec<f64>;
    match inputs.exprs {
        None => {
            let stream = inputs.stream.ok_or("no read stream")?;
            let lines = &stream.lines;
            let items: usize = stream.batches.iter().map(Vec::len).sum();
            let t = Instant::now();
            let requests: Vec<Request> = lines
                .iter()
                .map(|l| Request::parse(l))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            out.metric(
                "protocol.parse_ns_per_item",
                ns_per(t.elapsed(), items),
                "ns",
            );
            let batches: Vec<Vec<Vec<LabelId>>> =
                requests.iter().map(ids_of).collect::<Result<_, _>>()?;
            let t = Instant::now();
            let answers: Vec<Vec<f64>> = batches
                .iter()
                .map(|b| generation.estimate_id_batch(b))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            out.metric(
                "registry.estimate_ns_per_path",
                ns_per(t.elapsed(), items),
                "ns",
            );
            let t = Instant::now();
            for a in &answers {
                black_box(render_estimates(generation.version(), a));
            }
            out.metric(
                "protocol.render_ns_per_item",
                ns_per(t.elapsed(), items),
                "ns",
            );
            served_paths = batches
                .iter()
                .flatten()
                .map(|p| LabelPath::new(p))
                .collect();
            handling_us = lines
                .iter()
                .map(|line| fastest(|| handle_estimate(&generation, line)))
                .collect::<Result<_, _>>()?;
            for name in [
                "query.parse_ns_per_expr",
                "query.expand_ns_per_expr",
                "registry.expr_ns_per_expr",
            ] {
                out.metric(name, 0.0, "ns");
            }
            out.metric("query.branches_per_expr", 0.0, "count");
            out.metric("query.pruned_per_expr", 0.0, "count");
        }
        Some(stream) => {
            let replay = REPLAY_EXPRS / crate::inputs::EXPR_BATCH;
            let lines = &stream.lines[..replay.min(stream.lines.len())];
            let texts: Vec<&str> = stream.picks[..lines.len()]
                .iter()
                .flatten()
                .map(|&i| inputs.pool[i].text.as_str())
                .collect();
            let t = Instant::now();
            for line in lines {
                black_box(Request::parse(line).map_err(|e| e.to_string())?);
            }
            out.metric(
                "protocol.parse_ns_per_item",
                ns_per(t.elapsed(), texts.len()),
                "ns",
            );
            let servable = generation.estimator();
            let t = Instant::now();
            let parsed: Vec<phe_query::PathExpr> = texts
                .iter()
                .map(|text| phe_query::parse_expr(servable, text))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            out.metric(
                "query.parse_ns_per_expr",
                ns_per(t.elapsed(), texts.len()),
                "ns",
            );
            let follow = servable
                .follow()
                .ok_or("snapshot shipped no follow matrix")?;
            let opts = ExpandOptions::new(servable.label_count(), servable.k()).with_follow(follow);
            let t = Instant::now();
            let expansions: Vec<phe_query::Expansion> = parsed
                .iter()
                .map(|e| e.normalize().expand(&opts))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            out.metric(
                "query.expand_ns_per_expr",
                ns_per(t.elapsed(), texts.len()),
                "ns",
            );
            let branches: usize = expansions.iter().map(|e| e.paths.len()).sum();
            let pruned: u64 = expansions.iter().map(|e| e.pruned).sum();
            out.metric(
                "query.branches_per_expr",
                branches as f64 / texts.len() as f64,
                "count",
            );
            out.metric(
                "query.pruned_per_expr",
                pruned as f64 / texts.len() as f64,
                "count",
            );
            let t = Instant::now();
            let outcomes: Vec<phe_service::ExprOutcome> = texts
                .iter()
                .map(|text| generation.estimate_expr(text, false))
                .collect::<Result<_, _>>()?;
            out.metric(
                "registry.expr_ns_per_expr",
                ns_per(t.elapsed(), texts.len()),
                "ns",
            );
            let t = Instant::now();
            for chunk in outcomes.chunks(crate::inputs::EXPR_BATCH) {
                black_box(render_exprs(generation.version(), chunk));
            }
            out.metric(
                "protocol.render_ns_per_item",
                ns_per(t.elapsed(), texts.len()),
                "ns",
            );
            served_paths = expansions.into_iter().flat_map(|e| e.paths).collect();
            let t = Instant::now();
            black_box(generation.estimate_batch(&served_paths));
            out.metric(
                "registry.estimate_ns_per_path",
                ns_per(t.elapsed(), served_paths.len()),
                "ns",
            );
            // Once each, on a generation of its own: a repeated line would
            // be answered from the expression cache alone.
            let fresh = EstimatorRegistry::with_default_counters();
            fresh.register("default", phe_service::load_snapshot(snapshot_path)?);
            let fresh = fresh.get("default").ok_or("registered slot missing")?;
            handling_us = lines
                .iter()
                .map(|line| handle_exprs(&fresh, line))
                .collect::<Result<_, _>>()?;
        }
    }
    out.metric("cache.path_hit_ratio", window.path_hit_ratio, "ratio");
    out.metric("cache.expr_hit_ratio", window.expr_hit_ratio, "ratio");

    // Ordering rank and bucket lookup, split.
    let t = Instant::now();
    let indexes: Vec<u64> = served_paths
        .iter()
        .map(|p| histogram.ordering().index_of(p))
        .collect();
    out.metric(
        "ordering.rank_ns_per_path",
        ns_per(t.elapsed(), indexes.len()),
        "ns",
    );
    let t = Instant::now();
    let mut sum = 0.0;
    for &i in &indexes {
        sum += histogram.histogram().estimate(i as usize);
    }
    black_box(sum);
    out.metric(
        "histogram.lookup_ns_per_path",
        ns_per(t.elapsed(), indexes.len()),
        "ns",
    );

    out.metric(
        "eventloop.wire_us_per_req",
        window.rtt_p50_us - median(&handling_us),
        "us",
    );
    out.metric("server.cpu_us_per_answer", window.cpu_us_per_answer, "us");

    // Maintenance layers: `churn_wide` only.
    let mut count_ms = Vec::new();
    let mut merge_ms = Vec::new();
    let mut rederive_ms = Vec::new();
    let mut touched = Vec::new();
    let mut derive_ms = Vec::new();
    if kind == Kind::ChurnWide {
        let mut current = (built, graph);
        for file in inputs.change_files.iter().take(DELTA_REPLAY) {
            let delta = phe_graph::delta::read_changes_path(file, &current.1)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            let (result, spans) =
                phe_obs::span::capture(|| current.0.apply_delta(&current.1, &delta));
            let next = result.map_err(|e| format!("in-process delta: {e}"))?;
            count_ms.push(span_seconds(&spans, "delta.count") * 1e3);
            merge_ms.push(span_seconds(&spans, "delta.merge") * 1e3);
            rederive_ms.push(span_seconds(&spans, "delta.rederive") * 1e3);
            touched.push(next.0.drift().map_or(0, |d| d.touched) as f64);
            let t = Instant::now();
            let snapshot = next.0.snapshot().map_err(|e| e.to_string())?;
            black_box(ServableEstimator::from_snapshot(&snapshot).map_err(|e| e.to_string())?);
            derive_ms.push(t.elapsed().as_secs_f64() * 1e3);
            current = next;
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    out.metric("delta.count_ms", mean(&count_ms), "ms");
    out.metric("delta.merge_ms", mean(&merge_ms), "ms");
    out.metric("delta.rederive_ms", mean(&rederive_ms), "ms");
    out.metric("delta.touched_paths", mean(&touched), "count");
    out.metric(
        "maintenance.full_rebuilds",
        window.full_rebuilds as f64,
        "count",
    );
    out.metric("publish.derive_ms", mean(&derive_ms), "ms");
    Ok(())
}

/// The fastest of [`HANDLING_PASSES`] timings of one request line: the
/// uncontended in-process cost the wire time is measured against.
fn fastest(mut handle: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..HANDLING_PASSES {
        best = best.min(handle()?);
    }
    Ok(best)
}

/// In-process handling of one `estimate` line: parse, estimate, render.
fn handle_estimate(generation: &ServingEstimator, line: &str) -> Result<f64, String> {
    let t = Instant::now();
    let request = Request::parse(line).map_err(|e| e.to_string())?;
    let answers = generation
        .estimate_id_batch(&ids_of(&request)?)
        .map_err(|e| e.to_string())?;
    black_box(render_estimates(generation.version(), &answers));
    Ok(t.elapsed().as_secs_f64() * 1e6)
}

/// In-process handling of one `estimate_expr` line.
fn handle_exprs(generation: &ServingEstimator, line: &str) -> Result<f64, String> {
    let t = Instant::now();
    let Request::EstimateExpr { exprs, .. } = Request::parse(line).map_err(|e| e.to_string())?
    else {
        return Err("not an estimate_expr line".into());
    };
    let outcomes: Vec<phe_service::ExprOutcome> = exprs
        .iter()
        .map(|e| generation.estimate_expr(e, false))
        .collect::<Result<_, _>>()?;
    black_box(render_exprs(generation.version(), &outcomes));
    Ok(t.elapsed().as_secs_f64() * 1e6)
}
