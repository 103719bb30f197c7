//! The three workloads: set-up through the shipped CLI, a closed-loop
//! timed window, checks against the benchmark's own reference counts,
//! and the metrics of the run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::client::{self, Conn, OpLog};
use crate::graph::{self, Change, Counts, RefGraph};
use crate::idle;
use crate::inputs::{self, ExprCase, ExprStream, PathStream};
use crate::layers;
use crate::proc::{self, Server};
use crate::rng::Rng;
use crate::stats::{median, quantile};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PathsPaper,
    ExprsWide,
    ChurnWide,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paths_paper" => Some(Kind::PathsPaper),
            "exprs_wide" => Some(Kind::ExprsWide),
            "churn_wide" => Some(Kind::ChurnWide),
            _ => None,
        }
    }

    pub fn k(self) -> usize {
        match self {
            Kind::PathsPaper => 6,
            Kind::ExprsWide | Kind::ChurnWide => 4,
        }
    }

    fn wide(self) -> bool {
        self != Kind::PathsPaper
    }
}

/// Histogram bucket budget β of every workload.
pub const BETA: usize = 64;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Load before the timed window, so caches fill and lazy set-up ends.
const WARMUP: Duration = Duration::from_secs(1);
/// Server-side rebuilds timed after the window of a read-only workload.
const REBUILD_REPEATS: usize = 3;

pub struct Ctx {
    pub phe: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub ops: OpLog,
    /// Failed checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failures.len() < 32 {
            self.failures.push(what());
        }
    }
}

/// One answered read request.
struct Sample {
    done: Instant,
    rtt_us: f64,
    answers: u64,
}

/// Client-side measurements of the read traffic in one window.
#[derive(Default)]
struct Reads {
    samples: Vec<Sample>,
    last_version: u64,
    failures: Vec<String>,
}

impl Reads {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failures.len() < 32 {
            self.failures.push(what());
        }
    }

    fn record(&mut self, done: Instant, rtt: Duration, answers: usize) {
        self.samples.push(Sample {
            done,
            rtt_us: rtt.as_secs_f64() * 1e6,
            answers: answers as u64,
        });
    }

    fn answers(&self) -> u64 {
        self.samples.iter().map(|s| s.answers).sum()
    }

    /// `(req_p50_us, req_p90_us, answers_per_s)`: each the median over
    /// the window's one-second blocks of that block's round-trip p50, p90
    /// and answers completed per second. A burst of host interference (a
    /// CPU the host gave to another guest for a while) then moves the
    /// blocks it falls in, not the figure.
    fn block_medians(&self, start: Instant, elapsed: f64) -> (f64, f64, f64) {
        let blocks = (elapsed.floor() as usize).max(1);
        let width = elapsed / blocks as f64;
        let mut rtt_us = vec![Vec::new(); blocks];
        let mut answers = vec![0u64; blocks];
        for s in &self.samples {
            let b = (((s.done - start).as_secs_f64() / width) as usize).min(blocks - 1);
            rtt_us[b].push(s.rtt_us);
            answers[b] += s.answers;
        }
        let of_blocks = |f: &dyn Fn(&[f64]) -> f64| {
            let per_block: Vec<f64> = rtt_us
                .iter()
                .filter(|b| !b.is_empty())
                .map(|b| f(b))
                .collect();
            median(&per_block)
        };
        let rates: Vec<f64> = answers.iter().map(|&n| n as f64 / width).collect();
        (
            of_blocks(&|b| median(b)),
            of_blocks(&|b| quantile(b, 0.9)),
            median(&rates),
        )
    }

    fn version(&mut self, response: &str) {
        let version = client::field_u64(response, "version").unwrap_or(0);
        let last = self.last_version;
        self.check(version >= last.max(1), || {
            format!("generation version went from {last} to {version} on one connection")
        });
        self.last_version = version;
    }
}

/// What the workload's server answers, prepared before any timing.
struct Prepared {
    graph_file: PathBuf,
    graph: RefGraph,
    counts: Counts,
    stream: Option<PathStream>,
    pool: Vec<ExprCase>,
    exprs: Option<ExprStream>,
    /// `churn_wide`'s read pool and its changes files.
    read_pool: Vec<Vec<u16>>,
    batches: Vec<Vec<Change>>,
    change_files: Vec<PathBuf>,
}

fn prepare(kind: Kind, ctx: &Ctx) -> Result<Prepared, String> {
    let (graph_file, graph) = inputs::write_graph(kind.wide(), &ctx.dir)?;
    let counts = graph.count_all(kind.k(), 2);
    let mut rng = Rng::new(ctx.seed);
    let mut prepared = Prepared {
        graph_file,
        graph,
        counts,
        stream: None,
        pool: Vec::new(),
        exprs: None,
        read_pool: Vec::new(),
        batches: Vec::new(),
        change_files: Vec::new(),
    };
    match kind {
        Kind::PathsPaper => {
            let domain = graph::domain(prepared.graph.label_count(), kind.k());
            prepared.stream = Some(inputs::path_stream(&domain, &mut rng));
        }
        Kind::ExprsWide => {
            prepared.pool =
                inputs::expr_pool(&prepared.graph, &prepared.counts, kind.k(), &mut rng);
            prepared.exprs = Some(inputs::expr_stream(&prepared.pool, &mut rng));
        }
        Kind::ChurnWide => {
            let mut realized = prepared.counts.realized_paths();
            rng.shuffle(&mut realized);
            realized.truncate(inputs::CHURN_READ_POOL);
            prepared.stream = Some(inputs::path_stream(&realized, &mut rng));
            prepared.read_pool = realized;
            prepared.batches = inputs::churn_batches(&prepared.graph, &mut rng)?;
            for (i, batch) in prepared.batches.iter().enumerate() {
                let path = ctx.dir.join(format!("changes{i:03}.tsv"));
                std::fs::write(&path, prepared.graph.render_changes(batch))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                prepared.change_files.push(path);
            }
        }
    }
    Ok(prepared)
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&Value::string(s)).unwrap_or_default()
}

fn abs(path: &Path) -> String {
    std::fs::canonicalize(path)
        .unwrap_or_else(|_| path.to_owned())
        .display()
        .to_string()
}

/// `phe build` arguments of the workload: k, β = 64, sum-based
/// ordering, greedy V-optimal, catalog in a `.phc` sidecar. The wide
/// graphs skip the whole-domain accuracy report, which needs the dense
/// 17M-path catalog.
fn build_args(kind: Kind) -> Vec<String> {
    let k = kind.k().to_string();
    let beta = BETA.to_string();
    let mut args = vec![
        "build",
        "graph.tsv",
        "--k",
        &k,
        "--beta",
        &beta,
        "--ordering",
        "sum-based",
        "--histogram",
        "v-optimal-greedy",
        "--catalog-file",
        "stats.phc",
        "--out",
        "stats.json",
    ];
    if kind.wide() {
        args.push("--no-accuracy");
    }
    args.into_iter().map(str::to_owned).collect()
}

fn serve_args(kind: Kind) -> Vec<&'static str> {
    let mut args = vec![
        "--snapshot",
        "stats.json",
        "--shards",
        "1",
        "--workers",
        "2",
    ];
    if kind == Kind::ChurnWide {
        // Publishes happen only on the writer's `maintenance compact`,
        // never on the ticker, so every run folds in the same batches.
        args.extend(["--publish-interval-ms", "3600000"]);
    }
    args
}

fn version_of(conn: &mut Conn) -> Result<u64, String> {
    let list = conn.call_value("list", r#"{"op":"list"}"#)?;
    list.get("estimators")
        .and_then(Value::as_array)
        .and_then(|rows| rows.first())
        .and_then(|row| row.get("version"))
        .and_then(Value::as_u64)
        .ok_or_else(|| "list names no version".to_owned())
}

/// One set-up: build, serve, first `ping` — and on `churn_wide` the
/// maintaining `rebuild` until it is published.
fn set_up(kind: Kind, ctx: &Ctx, prepared: &Prepared) -> Result<(Server, Conn, f64), String> {
    let start = Instant::now();
    let args = build_args(kind);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    proc::run(&ctx.phe, &ctx.dir, "build", &args)?;
    let server = Server::start(&ctx.phe, &ctx.dir, &serve_args(kind))?;
    let mut conn = Conn::connect(&server.addr)?;
    conn.call_value("ping", r#"{"op":"ping"}"#)?;
    if kind == Kind::ChurnWide {
        rebuild(&mut conn, &server, prepared, kind, true)?;
    }
    Ok((server, conn, start.elapsed().as_secs_f64()))
}

/// Sends a server-side `rebuild` of the workload's graph and waits until
/// `list` shows the new generation; returns the seconds that took.
fn rebuild(
    conn: &mut Conn,
    server: &Server,
    prepared: &Prepared,
    kind: Kind,
    maintain: bool,
) -> Result<f64, String> {
    let before = version_of(conn)?;
    let start = Instant::now();
    conn.call_value(
        "rebuild",
        &format!(
            r#"{{"op":"rebuild","name":"default","graph":{},"k":{},"beta":{BETA},"maintain":{maintain}}}"#,
            json_string(&abs(&prepared.graph_file)),
            kind.k()
        ),
    )?;
    let deadline = start + Duration::from_secs(120);
    while version_of(conn)? == before {
        if Instant::now() > deadline {
            return Err(format!("rebuild never published:\n{}", server.stderr()));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Closed loop of `estimate` requests until `until`.
fn estimate_loop(
    conn: &mut Conn,
    stream: &PathStream,
    next: &mut usize,
    until: Instant,
    reads: &mut Reads,
) -> Result<(), String> {
    let mut values = Vec::with_capacity(inputs::PATH_BATCH);
    while Instant::now() < until {
        let i = *next % stream.lines.len();
        *next += 1;
        let start = Instant::now();
        let response = conn.call("estimate", &stream.lines[i])?;
        let (rtt, done) = (start.elapsed(), Instant::now());
        // A refused request is counted failed by the connection (and
        // fails the run); its fast round trip stays out of the samples.
        if !response.starts_with(r#"{"ok":true"#) {
            continue;
        }
        reads.version(response);
        let parsed = client::estimates(response, &mut values);
        let asked = stream.batches[i].len();
        reads.check(parsed.is_ok() && values.len() == asked, || {
            format!(
                "asked {asked} paths, answer {parsed:?} carried {}",
                values.len()
            )
        });
        let bad = values.iter().find(|v| !v.is_finite() || **v < 0.0).copied();
        reads.check(bad.is_none(), || {
            format!("estimate {bad:?} is not finite and ≥ 0")
        });
        reads.record(done, rtt, values.len());
    }
    Ok(())
}

/// Closed loop of `estimate_expr` requests until `until`.
fn expr_loop(
    conn: &mut Conn,
    stream: &ExprStream,
    pool: &[ExprCase],
    next: &mut usize,
    until: Instant,
    reads: &mut Reads,
) -> Result<(), String> {
    while Instant::now() < until {
        let i = *next % stream.lines.len();
        *next += 1;
        let start = Instant::now();
        let response = conn.call("estimate_expr", &stream.lines[i])?;
        let (rtt, done) = (start.elapsed(), Instant::now());
        // A refused request is counted failed by the connection (and
        // fails the run); its fast round trip stays out of the samples.
        if !response.starts_with(r#"{"ok":true"#) {
            continue;
        }
        reads.version(response);
        let results = expr_results(response)?;
        let picks = &stream.picks[i];
        reads.check(results.len() == picks.len(), || {
            format!(
                "asked {} expressions, got {} results",
                picks.len(),
                results.len()
            )
        });
        for (&(estimate, width), &pick) in results.iter().zip(picks) {
            if let Some(fault) = expr_fault(&pool[pick], estimate, width) {
                reads.check(false, || fault);
            }
        }
        reads.record(done, rtt, results.len());
    }
    Ok(())
}

/// `(estimate, width)` of every result row of an `estimate_expr` answer,
/// scanned from the line: each row starts `{"estimate":E,"paths":W,`. A
/// full JSON parse of a 256-row answer took the client longer than the
/// server took to answer it, and the closed loop would time the client.
fn expr_results(response: &str) -> Result<Vec<(f64, u64)>, String> {
    let row = |row: &str| -> Option<(f64, u64)> {
        let (estimate, rest) = row.split_once(',')?;
        let width = rest.strip_prefix(r#""paths":"#)?;
        let digits = width.find(|c: char| !c.is_ascii_digit())?;
        Some((estimate.parse().ok()?, width[..digits].parse().ok()?))
    };
    response
        .split(r#"{"estimate":"#)
        .skip(1)
        .map(|r| row(r).ok_or_else(|| format!("malformed result row {r:.80}")))
        .collect()
}

/// The properties every expression answer must have: a finite,
/// non-negative estimate that is non-zero when the expression matches
/// anything, and a pruned width between the number of matching branches
/// and the full expansion. Returns the first one violated.
fn expr_fault(case: &ExprCase, estimate: f64, width: u64) -> Option<String> {
    if !estimate.is_finite() || estimate < 0.0 {
        return Some(format!("{}: estimate {estimate}", case.text));
    }
    if case.truth > 0.0 && estimate == 0.0 {
        return Some(format!(
            "{}: true count {} but estimate 0",
            case.text, case.truth
        ));
    }
    if width < case.nonzero_branches || width > case.full_width {
        return Some(format!(
            "{}: width {width} outside [{} matching branches, {} expanded]",
            case.text, case.nonzero_branches, case.full_width
        ));
    }
    None
}

/// Freshness samples and maintenance outcomes of the churn writer.
#[derive(Default)]
struct Writes {
    fresh_ms: Vec<f64>,
    applied: usize,
    full_rebuilds: u64,
    last_published: u64,
    failures: Vec<String>,
}

/// `delta` then `maintenance compact`, one changes file after another
/// and round again, until `until`: each cycle runs whole. The files come
/// in rewiring–inverse pairs, so every round starts from the set-up graph
/// and the writer never runs out.
fn churn_writer(
    conn: &mut Conn,
    files: &[PathBuf],
    until: Instant,
    writes: &mut Writes,
) -> Result<(), String> {
    while Instant::now() < until {
        let line = format!(
            r#"{{"op":"delta","name":"default","changes":{}}}"#,
            json_string(&abs(&files[writes.applied % files.len()]))
        );
        let start = Instant::now();
        conn.call_value("delta", &line)?;
        let compact = conn.call_value(
            "maintenance",
            r#"{"op":"maintenance","action":"compact","name":"default"}"#,
        )?;
        writes.fresh_ms.push(start.elapsed().as_secs_f64() * 1e3);
        writes.applied += 1;
        let outcome = compact.get("outcome").and_then(Value::as_str).unwrap_or("");
        let version = outcome
            .strip_prefix("published v")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|v| v.parse::<u64>().ok());
        match version {
            Some(v) if v > writes.last_published => writes.last_published = v,
            _ => writes.failures.push(format!(
                "compact did not publish a newer generation: {outcome:?}"
            )),
        }
        if outcome.contains("rebuild") {
            writes.full_rebuilds += 1;
        }
    }
    Ok(())
}

/// Server-side counters read around the window.
struct Counters {
    cpu_s: f64,
    path_hits: f64,
    path_misses: f64,
    expr_hits: f64,
    expr_misses: f64,
}

fn counters(server: &Server, conn: &mut Conn) -> Result<Counters, String> {
    let metrics = conn.call_value("metrics", r#"{"op":"metrics"}"#)?;
    let m = metrics
        .get("metrics")
        .ok_or("metrics answer has no metrics")?;
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    let list = conn.call_value("list", r#"{"op":"list"}"#)?;
    let row = list
        .get("estimators")
        .and_then(Value::as_array)
        .and_then(|rows| rows.first())
        .cloned()
        .unwrap_or(Value::Null);
    Ok(Counters {
        cpu_s: server.cpu_seconds()?,
        path_hits: num(m.get("cache_hits")),
        path_misses: num(m.get("cache_misses")),
        expr_hits: num(row.get("expr_cache_hits")),
        expr_misses: num(row.get("expr_cache_misses")),
    })
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Runs one workload end to end.
pub fn run(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (_spinners, note) = idle::Spinners::start();
    out.notes.push(note);
    let prepared = prepare(kind, ctx)?;
    out.notes.push(format!(
        "graph: {} vertices with edges, {} edges, {} labels; k = {}; {} realized paths, Σf = {}",
        prepared.graph.vertices,
        prepared.graph.edge_count(),
        prepared.graph.label_count(),
        kind.k(),
        prepared.counts.realized(),
        prepared.counts.total()
    ));

    // Set-up, repeated; the last server carries the run.
    let repeats = if ctx.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..repeats {
        let (server, conn, seconds) = set_up(kind, ctx, &prepared)?;
        setup_s.push(seconds);
        if let Some((old, old_conn)) = kept.replace((server, conn)) {
            out.ops.merge(&old_conn.ops);
            Server::stop(old);
        }
    }
    let (server, mut admin) = kept.expect("at least one set-up");

    // The timed window, after a warm-up of the read side. One reader
    // connection: with two readers sharing the one shard, each round trip
    // also queued behind the other's request and `req_p90_us` spread 0.41
    // over ten seeds.
    let mut reader = Conn::connect(&server.addr)?;
    let mut writer = (kind == Kind::ChurnWide)
        .then(|| Conn::connect(&server.addr))
        .transpose()?;
    let mut cursor = 0;
    let warm_until = Instant::now() + WARMUP;
    read_phase(kind, &prepared, &mut reader, &mut cursor, warm_until, None)?;
    let before = counters(&server, &mut admin)?;
    let ticks_before = proc::cpu_ticks();
    let window = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let until = start + window;
    let (reads, writes) = read_phase(
        kind,
        &prepared,
        &mut reader,
        &mut cursor,
        until,
        writer.as_mut(),
    )?;
    let ticks_after = proc::cpu_ticks();
    let after = counters(&server, &mut admin)?;
    // The serving peak, before the freshness rebuilds and the checks.
    let rss = server.peak_rss_mib()?;

    out.failures.extend(reads.failures.iter().cloned());
    let Some(end) = reads.samples.iter().map(|s| s.done).max() else {
        return Err("no request completed in the window".into());
    };
    let elapsed = (end - start).as_secs_f64();
    let rtt_us: Vec<f64> = reads.samples.iter().map(|s| s.rtt_us).collect();
    let (p50, p90, answers_per_s) = reads.block_medians(start, elapsed);
    out.notes.push(format!(
        "window: {elapsed:.2} s, {} read requests, {} answers; rtt p99 {:.1} us, max {:.1} us; \
         host steal {:.1}% of CPU time",
        rtt_us.len(),
        reads.answers(),
        quantile(&rtt_us, 0.99),
        quantile(&rtt_us, 1.0),
        (ticks_after.0 - ticks_before.0) * 100.0 / (ticks_after.1 - ticks_before.1).max(1.0)
    ));

    // Freshness: from a write to the publish of its generation. On churn
    // that is the writer's delta + compact cycle; on the read-only
    // workloads a full server-side rebuild, after the window.
    let fresh_ms = match &writes {
        Some(w) => {
            out.failures.extend(w.failures.iter().cloned());
            out.notes.push(format!(
                "writer: {} batches applied, {} compactions ended in a full rebuild",
                w.applied, w.full_rebuilds
            ));
            if w.fresh_ms.is_empty() {
                return Err("no delta cycle completed in the window".into());
            }
            out.notes
                .push(format!("delta + compact cycles (ms): {:.1?}", w.fresh_ms));
            median(&w.fresh_ms)
        }
        None => {
            let mut samples = Vec::new();
            for _ in 0..REBUILD_REPEATS {
                samples.push(rebuild(&mut admin, &server, &prepared, kind, false)? * 1e3);
            }
            out.notes.push(format!("rebuilds (ms): {samples:.1?}"));
            median(&samples)
        }
    };

    let mut check_conn = Conn::connect(&server.addr)?;
    let err = match kind {
        Kind::PathsPaper => check_domain(&mut check_conn, &prepared, kind, &mut out)?,
        Kind::ExprsWide => check_pool(&mut check_conn, &prepared, &mut out)?,
        Kind::ChurnWide => check_churn(
            &mut check_conn,
            &mut admin,
            &prepared,
            writes.as_ref().expect("churn has a writer"),
            kind,
            &mut out,
        )?,
    };
    for conn in [&reader, &admin, &check_conn]
        .into_iter()
        .chain(writer.iter())
    {
        out.ops.merge(&conn.ops);
    }
    let failed = out.ops.failed();
    out.check(failed == 0, || {
        format!("{failed} operations were refused or failed")
    });
    let server_err = server.stderr();
    Server::stop(server);
    if !out.failures.is_empty() {
        out.notes.push(format!("server stderr:\n{server_err}"));
    }

    if ctx.trace {
        let answers = reads.answers() as f64;
        let window_layers = layers::Window {
            rtt_p50_us: p50,
            cpu_us_per_answer: (after.cpu_s - before.cpu_s) * 1e6 / answers.max(1.0),
            path_hit_ratio: ratio(
                after.path_hits - before.path_hits,
                after.path_misses - before.path_misses,
            ),
            expr_hit_ratio: ratio(
                after.expr_hits - before.expr_hits,
                after.expr_misses - before.expr_misses,
            ),
            full_rebuilds: writes.as_ref().map_or(0, |w| w.full_rebuilds),
        };
        layers::replay(
            kind,
            &ctx.dir,
            &layers::Inputs {
                graph_file: &prepared.graph_file,
                stream: prepared.stream.as_ref(),
                exprs: prepared.exprs.as_ref(),
                pool: &prepared.pool,
                change_files: &prepared.change_files,
            },
            &window_layers,
            &mut out,
        )?;
    } else {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("req_p50_us", p50, "us");
        out.metric("req_p90_us", p90, "us");
        out.metric("answers_per_s", answers_per_s, "1/s");
        out.metric("est_mean_abs_err", err, "ratio");
        out.metric("server_rss_mb", rss, "MiB");
        out.metric("fresh_p50_ms", fresh_ms, "ms");
        out.notes.push(format!("setup runs (s): {setup_s:.3?}"));
    }
    Ok(out)
}

/// Drives the reader (and on `churn_wide` the writer, on a thread of
/// its own) until `until`.
fn read_phase(
    kind: Kind,
    prepared: &Prepared,
    reader: &mut Conn,
    next: &mut usize,
    until: Instant,
    writer: Option<&mut Conn>,
) -> Result<(Reads, Option<Writes>), String> {
    std::thread::scope(|scope| {
        let write_handle = writer.map(|conn| {
            scope.spawn(move || {
                let mut writes = Writes::default();
                churn_writer(conn, &prepared.change_files, until, &mut writes).map(|_| writes)
            })
        });
        let mut reads = Reads::default();
        let read = match (&prepared.exprs, &prepared.stream) {
            (Some(exprs), _) => expr_loop(reader, exprs, &prepared.pool, next, until, &mut reads),
            (None, Some(stream)) => estimate_loop(reader, stream, next, until, &mut reads),
            (None, None) => Err(format!("{kind:?} has no read stream")),
        };
        let writes = match write_handle {
            Some(h) => Some(h.join().map_err(|_| "writer thread panicked")??),
            None => None,
        };
        read?;
        Ok((reads, writes))
    })
}

/// Sends `paths` in batches and returns the answers in order.
fn estimate_all(conn: &mut Conn, paths: &[Vec<u16>]) -> Result<Vec<f64>, String> {
    let mut all = Vec::with_capacity(paths.len());
    let mut values = Vec::new();
    for chunk in paths.chunks(inputs::PATH_BATCH) {
        let response = conn.call("estimate", &inputs::estimate_line(chunk))?;
        client::estimates(response, &mut values)
            .map_err(|e| format!("check pass: {e}: {response}"))?;
        if values.len() != chunk.len() {
            return Err(format!(
                "check pass: {} answers for {} paths",
                values.len(),
                chunk.len()
            ));
        }
        all.extend_from_slice(&values);
    }
    Ok(all)
}

/// Mean Formula 6 error over `paths`, checking that no path with a
/// non-zero true count is estimated at zero.
fn path_errors(paths: &[Vec<u16>], estimates: &[f64], counts: &Counts, out: &mut Outcome) -> f64 {
    let mut sum = 0.0;
    for (path, &e) in paths.iter().zip(estimates) {
        let f = counts.get(path) as f64;
        out.check(e.is_finite() && e >= 0.0, || {
            format!("{path:?}: estimate {e}")
        });
        out.check(f == 0.0 || e > 0.0, || {
            format!("{path:?}: true count {f} but estimate 0")
        });
        sum += graph::error_rate(e, f).abs();
    }
    sum / paths.len().max(1) as f64
}

/// `paths_paper`: every path of the domain, once. Bucket means conserve
/// mass, so the estimates must sum to the benchmark's own total.
fn check_domain(
    conn: &mut Conn,
    prepared: &Prepared,
    kind: Kind,
    out: &mut Outcome,
) -> Result<f64, String> {
    let domain = graph::domain(prepared.graph.label_count(), kind.k());
    let estimates = estimate_all(conn, &domain)?;
    let served: f64 = estimates.iter().sum();
    let truth = prepared.counts.total() as f64;
    out.check((served - truth).abs() <= 1e-9 * truth.max(1.0), || {
        format!("Σ estimates over the domain {served} ≠ Σ true counts {truth}")
    });
    out.notes.push(format!(
        "domain of {} paths: Σ estimates {served:.3}, Σ true counts {truth}",
        domain.len()
    ));
    Ok(path_errors(&domain, &estimates, &prepared.counts, out))
}

/// `exprs_wide`: every pooled expression, once, against its reference.
fn check_pool(conn: &mut Conn, prepared: &Prepared, out: &mut Outcome) -> Result<f64, String> {
    let mut sum = 0.0;
    let indexes: Vec<usize> = (0..prepared.pool.len()).collect();
    for chunk in indexes.chunks(inputs::EXPR_BATCH) {
        let response = conn.call("estimate_expr", &inputs::expr_line(&prepared.pool, chunk))?;
        let results = expr_results(response)?;
        out.check(results.len() == chunk.len(), || {
            "check pass: result count".to_owned()
        });
        for (&(estimate, width), &i) in results.iter().zip(chunk) {
            let case = &prepared.pool[i];
            if let Some(fault) = expr_fault(case, estimate, width) {
                out.check(false, || fault);
            }
            sum += graph::error_rate(estimate, case.truth).abs();
        }
    }
    Ok(sum / prepared.pool.len() as f64)
}

/// `churn_wide`: the served generation is the last one published, the
/// maintained catalog holds exactly the realized paths of the graph after
/// every applied batch, and the read pool is answered against that graph.
fn check_churn(
    conn: &mut Conn,
    admin: &mut Conn,
    prepared: &Prepared,
    writes: &Writes,
    kind: Kind,
    out: &mut Outcome,
) -> Result<f64, String> {
    let applied: Vec<Change> = (0..writes.applied)
        .flat_map(|i| prepared.batches[i % prepared.batches.len()].iter().copied())
        .collect();
    let final_graph = prepared.graph.with_changes(&applied)?;
    let counts = final_graph.count_all(kind.k(), 2);
    let list = admin.call_value("list", r#"{"op":"list"}"#)?;
    let row = list
        .get("estimators")
        .and_then(Value::as_array)
        .and_then(|rows| rows.first())
        .cloned()
        .unwrap_or(Value::Null);
    let version = row.get("version").and_then(Value::as_u64).unwrap_or(0);
    out.check(version == writes.last_published, || {
        format!(
            "serving v{version}, but the last compaction published v{}",
            writes.last_published
        )
    });
    let bytes = row.get("maintained_catalog_bytes").and_then(Value::as_f64);
    let per_entry = row
        .get("maintained_bytes_per_entry")
        .and_then(Value::as_f64);
    let realized = bytes.zip(per_entry).map(|(b, p)| (b / p).round() as usize);
    out.check(realized == Some(counts.realized()), || {
        format!(
            "maintained catalog holds {realized:?} realized paths; after {} batches there are {}",
            writes.applied,
            counts.realized()
        )
    });
    let estimates = estimate_all(conn, &prepared.read_pool)?;
    Ok(path_errors(&prepared.read_pool, &estimates, &counts, out))
}
