//! Everything the benchmark sends, made from `--seed` before any timing
//! starts: graph files, request lines, the expression pool and the
//! changes files. The program receives only these files and lines.
//!
//! The graphs themselves are fixed (their generator seeds are constants
//! below): a build's cost and the estimator's accuracy depend on the
//! graph, and letting them vary by run seed would swamp every
//! comparison between two commits. The seed varies what is asked of the
//! graph — which paths and expressions, in which skewed order, and which
//! edges churn.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::graph::{Change, Counts, RefGraph};
use crate::rng::{Rng, Zipf};

/// Generator seed of the Moreno facsimile (`paths_paper`).
pub const PAPER_GRAPH_SEED: u64 = 42;
/// Generator seed of the 64-label schema graph (`exprs_wide`,
/// `churn_wide`).
pub const WIDE_GRAPH_SEED: u64 = 42;
pub const WIDE_LABELS: u16 = 64;
pub const WIDE_VERTICES: u32 = 2_000;
pub const WIDE_EDGES_PER_LABEL: u64 = 300;
pub const WIDE_FOLLOW_WIDTH: f64 = 0.08;

/// Paths per `estimate` request.
pub const PATH_BATCH: usize = 256;
/// Expressions per `estimate_expr` request: above the server's inline
/// limit of 16, so every batch is handed to a dispatch worker.
pub const EXPR_BATCH: usize = 256;
/// Expressions in the pool: eight times the 1,024-entry expression cache.
pub const EXPR_POOL: usize = 8_192;
/// Paths in `churn_wide`'s read pool: realized paths of the start graph.
pub const CHURN_READ_POOL: usize = 8_192;
/// Request lines prepared per path stream; a run cycles through them.
pub const PATH_LINES: usize = 1_024;
/// Request lines prepared for the expression stream: 1,048,576 draws, 128×
/// the pool.
pub const EXPR_LINES: usize = 4_096;
/// Zipf exponent of every skewed draw.
pub const SKEW: f64 = 1.0;
/// Distinct rewirings of `churn_wide`; each is followed by its inverse,
/// so the writer replays the changes files for as long as a run lasts.
pub const CHURN_REWIRINGS: usize = 32;

/// Writes the workload's graph file and reads it back with the
/// benchmark's own reader.
pub fn write_graph(wide: bool, dir: &Path) -> Result<(PathBuf, RefGraph), String> {
    let graph = if wide {
        let schema = phe_datasets::schema::narrow_chained_schema(
            WIDE_LABELS,
            WIDE_LABELS as u64 * WIDE_EDGES_PER_LABEL,
            WIDE_FOLLOW_WIDTH,
        );
        phe_datasets::schema::schema_graph(WIDE_VERTICES, &schema, WIDE_GRAPH_SEED)
    } else {
        phe_datasets::moreno_health_like(PAPER_GRAPH_SEED)
    };
    let path = dir.join("graph.tsv");
    phe_graph::io::write_tsv_path(&graph, &path).map_err(|e| format!("writing graph: {e}"))?;
    let reference = RefGraph::read_tsv(&path)?;
    Ok((path, reference))
}

/// A closed-loop stream of `estimate` requests.
pub struct PathStream {
    pub lines: Vec<String>,
    pub batches: Vec<Vec<Vec<u16>>>,
}

/// Renders one `estimate` request over label ids.
pub fn estimate_line(paths: &[Vec<u16>]) -> String {
    let mut line = String::from(r#"{"op":"estimate","paths":["#);
    for (i, p) in paths.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('[');
        for (j, l) in p.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            let _ = write!(line, "{l}");
        }
        line.push(']');
    }
    line.push_str("]}");
    line
}

/// Batches of [`PATH_BATCH`] paths drawn Zipf-skewed over `pool`, whose
/// hot end is a seeded permutation.
pub fn path_stream(pool: &[Vec<u16>], rng: &mut Rng) -> PathStream {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let zipf = Zipf::new(pool.len(), SKEW);
    let batches: Vec<Vec<Vec<u16>>> = (0..PATH_LINES)
        .map(|_| {
            (0..PATH_BATCH)
                .map(|_| pool[order[zipf.sample(rng)]].clone())
                .collect()
        })
        .collect();
    PathStream {
        lines: batches.iter().map(|b| estimate_line(b)).collect(),
        batches,
    }
}

/// A regular path expression of the forms the benchmark emits.
#[derive(Clone, Debug)]
pub enum Ex {
    Label(u16),
    /// `.`: any one label.
    Wildcard(usize),
    Alt(Vec<Ex>),
    Concat(Vec<Ex>),
    Repeat(Box<Ex>, u8, u8),
}

impl Ex {
    pub fn render(&self, names: &[String]) -> String {
        match self {
            Ex::Label(l) => names[*l as usize].clone(),
            Ex::Wildcard(_) => ".".to_owned(),
            Ex::Alt(branches) => {
                let parts: Vec<String> = branches.iter().map(|b| b.render(names)).collect();
                format!("({})", parts.join("|"))
            }
            Ex::Concat(parts) => {
                let parts: Vec<String> = parts.iter().map(|p| p.render(names)).collect();
                parts.join("/")
            }
            Ex::Repeat(inner, min, max) => {
                let inner = match **inner {
                    Ex::Label(_) | Ex::Wildcard(_) | Ex::Alt(_) => inner.render(names),
                    _ => format!("({})", inner.render(names)),
                };
                if (*min, *max) == (0, 1) {
                    format!("{inner}?")
                } else {
                    format!("{inner}{{{min},{max}}}")
                }
            }
        }
    }

    /// The distinct label sequences the expression denotes, of length at
    /// most `k` (the empty sequence included when it matches).
    pub fn expand(&self, k: usize) -> BTreeSet<Vec<u16>> {
        match self {
            Ex::Label(l) => BTreeSet::from([vec![*l]]),
            Ex::Wildcard(labels) => (0..*labels as u16).map(|l| vec![l]).collect(),
            Ex::Alt(branches) => branches.iter().flat_map(|b| b.expand(k)).collect(),
            Ex::Concat(parts) => parts.iter().fold(BTreeSet::from([Vec::new()]), |acc, p| {
                join(&acc, &p.expand(k), k)
            }),
            Ex::Repeat(inner, min, max) => {
                let step = inner.expand(k);
                let mut power = BTreeSet::from([Vec::new()]);
                let mut out = BTreeSet::new();
                for r in 0..=*max {
                    if r >= *min {
                        out.extend(power.iter().cloned());
                    }
                    power = join(&power, &step, k);
                }
                out
            }
        }
    }
}

fn join(left: &BTreeSet<Vec<u16>>, right: &BTreeSet<Vec<u16>>, k: usize) -> BTreeSet<Vec<u16>> {
    let mut out = BTreeSet::new();
    for a in left {
        for b in right {
            if a.len() + b.len() <= k {
                out.insert([a.as_slice(), b.as_slice()].concat());
            }
        }
    }
    out
}

/// One pooled expression with its reference answers.
pub struct ExprCase {
    pub text: String,
    /// Concrete paths of the full expansion, before any pruning.
    pub full_width: u64,
    /// Expansion paths with a non-zero true count.
    pub nonzero_branches: u64,
    /// Σ of true counts over the expansion.
    pub truth: f64,
}

/// [`EXPR_POOL`] distinct expressions, each built around a realized path
/// so that at least one branch has a non-zero count: a three-way
/// alternation at one step, an optional step, a bounded repetition, one
/// or two wildcard steps, or an alternation plus an optional step. The
/// wildcard steps give the pool far more distinct branches than the path
/// cache holds.
pub fn expr_pool(graph: &RefGraph, counts: &Counts, k: usize, rng: &mut Rng) -> Vec<ExprCase> {
    let seeds: Vec<Vec<u16>> = counts
        .realized_paths()
        .into_iter()
        .filter(|p| p.len() >= 3)
        .collect();
    let labels = graph.label_count() as u16;
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(EXPR_POOL);
    while pool.len() < EXPR_POOL {
        let path = &seeds[rng.below(seeds.len())];
        let mut steps: Vec<Ex> = path.iter().map(|&l| Ex::Label(l)).collect();
        let i = rng.below(steps.len());
        let near = |rng: &mut Rng, l: u16| (l + 1 + rng.below(3) as u16) % labels;
        let alt = |rng: &mut Rng, l: u16| {
            Ex::Alt(vec![
                Ex::Label(l),
                Ex::Label(near(rng, l)),
                Ex::Label(near(rng, l)),
            ])
        };
        // The form cycles with the pool index, which is the Zipf rank:
        // every band of ranks gets the same mix of cheap and expensive
        // forms, whatever the seed.
        match pool.len() % 6 {
            0 => steps[i] = alt(rng, path[i]),
            1 => steps[i] = Ex::Repeat(Box::new(Ex::Label(path[i])), 0, 1),
            2 => {
                let max = 2 + rng.below(2) as u8;
                steps[i] = Ex::Repeat(Box::new(Ex::Label(path[i])), 1, max);
            }
            3 => steps[i] = Ex::Wildcard(labels as usize),
            4 => {
                steps[i] = Ex::Wildcard(labels as usize);
                let j = (i + 1) % steps.len();
                steps[j] = Ex::Wildcard(labels as usize);
            }
            _ => {
                let j = (i + 1) % steps.len();
                steps[i] = alt(rng, path[i]);
                steps[j] = Ex::Repeat(Box::new(Ex::Label(path[j])), 0, 1);
            }
        }
        let ex = Ex::Concat(steps);
        let text = ex.render(&graph.labels);
        if !seen.insert(text.clone()) {
            continue;
        }
        let branches: Vec<Vec<u16>> = ex.expand(k).into_iter().filter(|b| !b.is_empty()).collect();
        let truths: Vec<u64> = branches.iter().map(|b| counts.get(b)).collect();
        pool.push(ExprCase {
            text,
            full_width: branches.len() as u64,
            nonzero_branches: truths.iter().filter(|&&t| t > 0).count() as u64,
            truth: truths.iter().sum::<u64>() as f64,
        });
    }
    pool
}

/// A closed-loop stream of `estimate_expr` requests over the pool.
pub struct ExprStream {
    pub lines: Vec<String>,
    pub picks: Vec<Vec<usize>>,
}

pub fn expr_line(pool: &[ExprCase], picks: &[usize]) -> String {
    let mut line = String::from(r#"{"op":"estimate_expr","exprs":["#);
    for (i, &p) in picks.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{}\"", pool[p].text);
    }
    line.push_str("]}");
    line
}

pub fn expr_stream(pool: &[ExprCase], rng: &mut Rng) -> ExprStream {
    let zipf = Zipf::new(pool.len(), SKEW);
    let picks: Vec<Vec<usize>> = (0..EXPR_LINES)
        .map(|_| (0..EXPR_BATCH).map(|_| zipf.sample(rng)).collect())
        .collect();
    ExprStream {
        lines: picks.iter().map(|p| expr_line(pool, p)).collect(),
        picks,
    }
}

/// [`CHURN_REWIRINGS`] rewirings, each followed by its inverse: one edge
/// of a random label is removed, and one absent edge of the same label is
/// inserted between a source and a target that label already uses (a
/// rewiring that keeps the schema). Every pair leaves the graph as it
/// found it, so each batch is valid against the graph the previous ones
/// leave, and so is the whole list again after its last batch.
pub fn churn_batches(graph: &RefGraph, rng: &mut Rng) -> Result<Vec<Vec<Change>>, String> {
    let mut batches = Vec::with_capacity(2 * CHURN_REWIRINGS);
    while batches.len() < 2 * CHURN_REWIRINGS {
        let label = rng.below(graph.label_count()) as u16;
        let edges = graph.label_edges(label);
        if edges.len() < 2 {
            continue;
        }
        let (s, t) = edges[rng.below(edges.len())];
        let (s2, _) = edges[rng.below(edges.len())];
        let (_, t2) = edges[rng.below(edges.len())];
        if graph.has_edge(s2, label, t2) {
            continue;
        }
        let rewire = vec![(false, s, label, t), (true, s2, label, t2)];
        let inverse = rewire.iter().map(|&(i, s, l, t)| (!i, s, l, t)).collect();
        batches.push(rewire);
        batches.push(inverse);
    }
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn churn_batches_replay_from_the_start_after_the_last() {
        let edges: HashSet<(u32, u16, u32)> = (0..60u32)
            .map(|v| (v % 20, (v % 3) as u16, (v * 7 + 3) % 20))
            .collect();
        let labels = ["a", "b", "c"].map(str::to_owned).to_vec();
        let graph = RefGraph::index(labels, 20, edges.clone());
        let batches = churn_batches(&graph, &mut Rng::new(3)).unwrap();
        assert_eq!(batches.len(), 2 * CHURN_REWIRINGS);
        let twice: Vec<Change> = batches.iter().chain(&batches).flatten().copied().collect();
        let after = graph.with_changes(&twice).unwrap();
        assert_eq!(after.edge_count(), edges.len());
        assert!(edges.iter().all(|&(s, l, t)| after.has_edge(s, l, t)));
    }
}
