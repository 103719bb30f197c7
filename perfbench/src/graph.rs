//! The benchmark's own graph model and path counter.
//!
//! It reads the graph file handed to the program and counts `f(ℓ)` — the
//! number of distinct `(source, target)` vertex pairs joined by label
//! path `ℓ` — with a per-source frontier search over label sequences, so
//! every check compares the program's answers against counts that share
//! no code with `phe-pathenum`.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// One edge change: `(insert, src, label, dst)`.
pub type Change = (bool, u32, u16, u32);

pub struct RefGraph {
    /// Label names by id; ids follow first appearance in the file, the
    /// order the program's TSV reader interns them in.
    pub labels: Vec<String>,
    pub vertices: u32,
    edges: HashSet<(u32, u16, u32)>,
    /// Per label, `vertices + 1` offsets into `targets`.
    offsets: Vec<Vec<u32>>,
    targets: Vec<Vec<u32>>,
}

impl RefGraph {
    pub fn read_tsv(path: &std::path::Path) -> Result<RefGraph, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut labels: Vec<String> = Vec::new();
        let mut ids: HashMap<String, u16> = HashMap::new();
        let mut edges = HashSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(s), Some(l), Some(t)) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("malformed edge line {line:?}"));
            };
            let s: u32 = s.parse().map_err(|_| format!("bad source in {line:?}"))?;
            let t: u32 = t.parse().map_err(|_| format!("bad target in {line:?}"))?;
            let id = *ids.entry(l.to_owned()).or_insert_with(|| {
                labels.push(l.to_owned());
                (labels.len() - 1) as u16
            });
            edges.insert((s, id, t));
        }
        let vertices = edges
            .iter()
            .map(|&(s, _, t)| s.max(t) + 1)
            .max()
            .unwrap_or(0);
        Ok(RefGraph::index(labels, vertices, edges))
    }

    pub(crate) fn index(
        labels: Vec<String>,
        vertices: u32,
        edges: HashSet<(u32, u16, u32)>,
    ) -> RefGraph {
        let n = vertices as usize;
        let mut sorted: Vec<(u32, u16, u32)> = edges.iter().copied().collect();
        sorted.sort_unstable_by_key(|&(s, l, t)| (l, s, t));
        let mut offsets = vec![vec![0u32; n + 1]; labels.len()];
        let mut targets = vec![Vec::new(); labels.len()];
        for &(s, l, t) in &sorted {
            offsets[l as usize][s as usize + 1] += 1;
            targets[l as usize].push(t);
        }
        for off in &mut offsets {
            for v in 0..n {
                off[v + 1] += off[v];
            }
        }
        RefGraph {
            labels,
            vertices,
            edges,
            offsets,
            targets,
        }
    }

    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn has_edge(&self, s: u32, l: u16, t: u32) -> bool {
        self.edges.contains(&(s, l, t))
    }

    /// Edges of one label, sorted by source then target.
    pub fn label_edges(&self, l: u16) -> Vec<(u32, u32)> {
        let off = &self.offsets[l as usize];
        (0..self.vertices)
            .flat_map(|s| {
                let range = off[s as usize] as usize..off[s as usize + 1] as usize;
                self.targets[l as usize][range].iter().map(move |&t| (s, t))
            })
            .collect()
    }

    fn out(&self, v: u32, l: u16) -> &[u32] {
        let off = &self.offsets[l as usize];
        &self.targets[l as usize][off[v as usize] as usize..off[v as usize + 1] as usize]
    }

    /// The graph after `changes`, which must be valid in order: a removal
    /// names a present edge, an insertion an absent one.
    pub fn with_changes(&self, changes: &[Change]) -> Result<RefGraph, String> {
        let mut edges = self.edges.clone();
        for &(insert, s, l, t) in changes {
            let ok = if insert {
                edges.insert((s, l, t))
            } else {
                edges.remove(&(s, l, t))
            };
            if !ok {
                return Err(format!("invalid change {insert} {s} {l} {t}"));
            }
        }
        Ok(RefGraph::index(self.labels.clone(), self.vertices, edges))
    }

    /// Renders changes in the program's changes-file format.
    pub fn render_changes(&self, changes: &[Change]) -> String {
        let mut out = String::new();
        for &(insert, s, l, t) in changes {
            let sign = if insert { '+' } else { '-' };
            let _ = writeln!(out, "{sign}\t{s}\t{}\t{t}", self.labels[l as usize]);
        }
        out
    }

    /// Counts every realized path of length `1..=k` on `threads` threads.
    pub fn count_all(&self, k: usize, threads: usize) -> Counts {
        let threads = threads.max(1);
        let partials: Vec<HashMap<u64, u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut search = Search::new(self, k);
                        let mut s = t as u32;
                        while s < self.vertices {
                            search.run_source(s);
                            s += threads as u32;
                        }
                        search.counts
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("counter thread"))
                .collect()
        });
        let mut map = HashMap::new();
        for part in partials {
            for (key, n) in part {
                *map.entry(key).or_insert(0) += n;
            }
        }
        Counts {
            label_count: self.label_count(),
            map,
        }
    }
}

/// Depth-first extension of one source's frontier by every label.
struct Search<'g> {
    graph: &'g RefGraph,
    k: usize,
    mark: Vec<u32>,
    stamp: u32,
    levels: Vec<Vec<u32>>,
    counts: HashMap<u64, u64>,
}

impl<'g> Search<'g> {
    fn new(graph: &'g RefGraph, k: usize) -> Search<'g> {
        Search {
            graph,
            k,
            mark: vec![0; graph.vertices as usize],
            stamp: 0,
            levels: vec![Vec::new(); k + 1],
            counts: HashMap::new(),
        }
    }

    fn run_source(&mut self, s: u32) {
        self.levels[0].clear();
        self.levels[0].push(s);
        self.extend(0, 0);
    }

    fn extend(&mut self, depth: usize, key: u64) {
        let base = self.graph.label_count() as u64 + 1;
        for l in 0..self.graph.label_count() as u16 {
            let mut next = std::mem::take(&mut self.levels[depth + 1]);
            next.clear();
            self.stamp += 1;
            for &v in &self.levels[depth] {
                for &t in self.graph.out(v, l) {
                    if self.mark[t as usize] != self.stamp {
                        self.mark[t as usize] = self.stamp;
                        next.push(t);
                    }
                }
            }
            let empty = next.is_empty();
            let child = key * base + l as u64 + 1;
            if !empty {
                *self.counts.entry(child).or_insert(0) += next.len() as u64;
            }
            self.levels[depth + 1] = next;
            if !empty && depth + 1 < self.k {
                self.extend(depth + 1, child);
            }
        }
    }
}

/// True counts of every realized path, keyed by [`path_key`].
pub struct Counts {
    label_count: usize,
    map: HashMap<u64, u64>,
}

/// A unique key per label sequence: digits `label + 1` in base `|L| + 1`.
pub fn path_key(path: &[u16], label_count: usize) -> u64 {
    let base = label_count as u64 + 1;
    path.iter().fold(0, |key, &l| key * base + l as u64 + 1)
}

impl Counts {
    pub fn get(&self, path: &[u16]) -> u64 {
        self.map
            .get(&path_key(path, self.label_count))
            .copied()
            .unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.map.values().sum()
    }

    pub fn realized(&self) -> usize {
        self.map.len()
    }

    /// Every realized path, sorted by key so the order is seed-stable.
    pub fn realized_paths(&self) -> Vec<Vec<u16>> {
        let mut keys: Vec<u64> = self.map.keys().copied().collect();
        keys.sort_unstable();
        let base = self.label_count as u64 + 1;
        keys.into_iter()
            .map(|mut key| {
                let mut path = Vec::new();
                while key > 0 {
                    path.push((key % base - 1) as u16);
                    key /= base;
                }
                path.reverse();
                path
            })
            .collect()
    }
}

/// Every label sequence of length `1..=k`, length-major.
pub fn domain(label_count: usize, k: usize) -> Vec<Vec<u16>> {
    let mut all = Vec::new();
    let mut level: Vec<Vec<u16>> = vec![Vec::new()];
    for _ in 0..k {
        let mut next = Vec::with_capacity(level.len() * label_count);
        for p in &level {
            for l in 0..label_count as u16 {
                let mut q = p.clone();
                q.push(l);
                next.push(q);
            }
        }
        all.extend(next.iter().cloned());
        level = next;
    }
    all
}

/// The paper's Formula 6 error rate `(e − f) / max(e, f)`, 0 when both
/// are 0.
pub fn error_rate(estimate: f64, truth: f64) -> f64 {
    let denom = estimate.max(truth);
    if denom <= 0.0 {
        0.0
    } else {
        (estimate - truth) / denom
    }
}
