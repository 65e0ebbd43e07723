//! Threshold clustering over regions (§6.9).
//!
//! "Queries with a distance smaller than a threshold go to the same cluster"
//! — i.e. clusters are connected components of the distance-below-threshold
//! graph. Identical regions are deduplicated first (most mass sits on
//! distance 0), and candidate pairs are bucketed by region *signature*
//! (table set + constrained columns): regions in different buckets have
//! overlap 0 by construction, so only intra-bucket pairs are compared.

use crate::region::Region;
use sqlog_obs::Recorder;
use std::collections::HashMap;

/// One cluster of queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Total number of queries (weights summed).
    pub size: u64,
    /// Indices of the distinct regions in the input.
    pub members: Vec<usize>,
}

/// Clustering result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Clustering {
    /// Clusters, sorted by descending size.
    pub clusters: Vec<Cluster>,
    /// Parallel workers that panicked and were re-run row by row under
    /// per-row isolation (always 0 on the sequential path and on healthy
    /// runs).
    pub degraded_shards: usize,
    /// Pair-scan rows dropped because they panicked even under per-row
    /// isolation; their edges are missing from the clustering.
    pub poisoned_rows: usize,
}

impl Clustering {
    /// Number of clusters.
    pub fn count(&self) -> usize {
        self.clusters.len()
    }

    /// Mean cluster size (0 when empty).
    pub fn average_size(&self) -> f64 {
        if self.clusters.is_empty() {
            0.0
        } else {
            self.clusters.iter().map(|c| c.size).sum::<u64>() as f64 / self.clusters.len() as f64
        }
    }

    /// Cluster sizes in descending order (the rank curves of Fig. 4).
    pub fn sizes(&self) -> Vec<u64> {
        self.clusters.iter().map(|c| c.size).collect()
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Signature of a region: the parts that must match for nonzero overlap.
fn signature(region: &Region) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for t in &region.tables {
        let _ = write!(s, "{t},");
    }
    s.push('|');
    for col in region.dims.keys() {
        let _ = write!(s, "{col},");
    }
    s
}

/// Emits the below-threshold edges of one pair-triangle row — `bucket[pos]`
/// against every later bucket member. The single distance predicate shared
/// by the sequential scan, the parallel workers, and the degraded re-run of
/// a panicked worker, so the three paths cannot silently diverge.
fn scan_row(
    regions: &[Region],
    bucket: &[usize],
    pos: usize,
    threshold: f64,
    emit: &mut impl FnMut(usize, usize),
) {
    let i = bucket[pos];
    for &j in &bucket[pos + 1..] {
        if regions[i].distance(&regions[j]) < threshold {
            emit(i, j);
        }
    }
}

/// Groups union-find components into weight-summed clusters, sorted by
/// descending size (ties broken by member list) for deterministic output.
fn assemble(uf: &mut UnionFind, weights: &[u64]) -> Vec<Cluster> {
    let mut clusters: HashMap<usize, Cluster> = HashMap::new();
    for (i, &w) in weights.iter().enumerate() {
        let root = uf.find(i);
        let c = clusters.entry(root).or_insert_with(|| Cluster {
            size: 0,
            members: Vec::new(),
        });
        c.size += w;
        c.members.push(i);
    }
    let mut clusters: Vec<Cluster> = clusters.into_values().collect();
    clusters.sort_by(|a, b| b.size.cmp(&a.size).then_with(|| a.members.cmp(&b.members)));
    clusters
}

/// Clusters weighted distinct regions: regions `i`, `j` are connected when
/// `distance(i, j) < threshold`.
pub fn cluster_regions(regions: &[Region], weights: &[u64], threshold: f64) -> Clustering {
    assert_eq!(regions.len(), weights.len());
    let n = regions.len();
    let mut uf = UnionFind::new(n);

    let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, r) in regions.iter().enumerate() {
        buckets.entry(signature(r)).or_default().push(i);
    }
    for bucket in buckets.values() {
        for pos in 0..bucket.len().saturating_sub(1) {
            scan_row(regions, bucket, pos, threshold, &mut |i, j| uf.union(i, j));
        }
    }

    Clustering {
        clusters: assemble(&mut uf, weights),
        ..Clustering::default()
    }
}

/// Parallel variant of [`cluster_regions`]: bucket pair-scans run on a
/// scoped thread pool, then the edges merge into one union-find. Produces
/// exactly the same clustering as the sequential version. A worker that
/// panics is re-run row by row under per-row isolation; the recovery is
/// accounted in [`Clustering::degraded_shards`] / [`Clustering::poisoned_rows`]
/// so recovered runs are never silent.
///
/// Observability: a `"cluster"` stage span, per-worker `"cluster.shard"`
/// spans (with a shard-latency histogram) and outcome counters land in
/// `rec`; pass [`Recorder::disabled`] for none. The clustering does not
/// depend on the recorder.
pub fn cluster_regions_traced(
    regions: &[Region],
    weights: &[u64],
    threshold: f64,
    threads: usize,
    rec: &Recorder,
) -> Clustering {
    assert_eq!(regions.len(), weights.len());
    let stage_span = rec.span("cluster");
    let stage_id = stage_span.id();
    let n = regions.len();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
    .clamp(1, 64);

    let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, r) in regions.iter().enumerate() {
        buckets.entry(signature(r)).or_default().push(i);
    }
    let buckets: Vec<Vec<usize>> = buckets.into_values().collect();

    // Work unit = one *row* of a bucket's pair triangle, so a single huge
    // bucket (common: all point lookups on one table share a signature)
    // still splits across workers. Rows are dealt round-robin after sorting
    // by cost, which balances the triangle's skew.
    let mut rows: Vec<(usize, usize)> = Vec::new(); // (bucket, position)
    for (b, bucket) in buckets.iter().enumerate() {
        for pos in 0..bucket.len().saturating_sub(1) {
            rows.push((b, pos));
        }
    }
    rows.sort_by_key(|&(b, pos)| std::cmp::Reverse(buckets[b].len() - pos));
    let shards: Vec<Vec<(usize, usize)>> = (0..threads)
        .map(|t| rows.iter().copied().skip(t).step_by(threads).collect())
        .collect();

    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut degraded_shards = 0usize;
    let mut poisoned_rows = 0usize;
    std::thread::scope(|s| {
        let buckets = &buckets;
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(t, shard)| {
                s.spawn(move || {
                    let mut span = rec.span_in(stage_id, "cluster.shard");
                    span.field("shard", t as u64);
                    span.field("items", shard.len() as u64);
                    let started = std::time::Instant::now();
                    let mut local = Vec::new();
                    for &(b, pos) in shard {
                        scan_row(regions, &buckets[b], pos, threshold, &mut |i, j| {
                            local.push((i, j));
                        });
                    }
                    rec.histogram("cluster.shard_us", started.elapsed().as_micros() as u64);
                    local
                })
            })
            .collect();
        for (h, shard) in handles.into_iter().zip(&shards) {
            match h.join() {
                Ok(local) => edges.extend(local),
                Err(_) => {
                    // Degraded re-run of a panicked worker: each pair row
                    // under its own panic guard, so a poison row drops only
                    // its own edges (counted below) instead of aborting the
                    // clustering. Edge order does not matter — union-find
                    // is order-blind and the final cluster list is sorted.
                    degraded_shards += 1;
                    let mut span = rec.span_in(stage_id, "cluster.shard");
                    span.field("items", shard.len() as u64);
                    span.field("degraded", 1u64);
                    for &(b, pos) in shard {
                        let row = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut local = Vec::new();
                            scan_row(regions, &buckets[b], pos, threshold, &mut |i, j| {
                                local.push((i, j));
                            });
                            local
                        }));
                        match row {
                            Ok(local) => edges.extend(local),
                            Err(_) => poisoned_rows += 1,
                        }
                    }
                }
            }
        }
    });

    let mut uf = UnionFind::new(n);
    rec.counter("cluster.regions", n as u64);
    rec.counter("cluster.edges", edges.len() as u64);
    rec.counter("cluster.degraded_shards", degraded_shards as u64);
    rec.counter("cluster.poisoned_rows", poisoned_rows as u64);
    for (i, j) in edges {
        uf.union(i, j);
    }
    let clustering = Clustering {
        clusters: assemble(&mut uf, weights),
        degraded_shards,
        poisoned_rows,
    };
    rec.counter("cluster.clusters", clustering.clusters.len() as u64);
    clustering
}

/// Convenience: dedup + cluster raw SQL statements. Unparsable statements
/// are skipped. Returns the clustering plus the distinct regions.
pub fn cluster_statements<'a>(
    statements: impl IntoIterator<Item = &'a str>,
    threshold: f64,
) -> (Clustering, Vec<Region>) {
    let mut distinct: Vec<Region> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    let mut by_key: HashMap<String, usize> = HashMap::new();
    for sql in statements {
        let Ok(stmt) = sqlog_sql::parse_statement(sql) else {
            continue;
        };
        let Some(q) = stmt.as_select() else {
            continue;
        };
        let region = crate::region::region_of_query(q);
        let key = region.key();
        match by_key.get(&key) {
            Some(&i) => weights[i] += 1,
            None => {
                by_key.insert(key, distinct.len());
                distinct.push(region);
                weights.push(1);
            }
        }
    }
    (cluster_regions(&distinct, &weights, threshold), distinct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::region_of_query;
    use sqlog_sql::parse_query;

    fn regions(sqls: &[&str]) -> Vec<Region> {
        sqls.iter()
            .map(|s| region_of_query(&parse_query(s).unwrap()))
            .collect()
    }

    #[test]
    fn identical_regions_cluster_together() {
        let rs = regions(&[
            "SELECT a FROM t WHERE x = 1",
            "SELECT b FROM t WHERE x = 1",
            "SELECT a FROM t WHERE x = 2",
        ]);
        let c = cluster_regions(&rs, &[1, 1, 1], 0.5);
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn threshold_controls_merging() {
        // Overlap 1/3 → distance 2/3.
        let rs = regions(&[
            "SELECT a FROM t WHERE r BETWEEN 0 AND 10",
            "SELECT a FROM t WHERE r BETWEEN 5 AND 15",
        ]);
        let strict = cluster_regions(&rs, &[1, 1], 0.5);
        assert_eq!(strict.count(), 2);
        let loose = cluster_regions(&rs, &[1, 1], 0.7);
        assert_eq!(loose.count(), 1);
    }

    #[test]
    fn transitive_merging_through_chains() {
        let rs = regions(&[
            "SELECT a FROM t WHERE r BETWEEN 0 AND 10",
            "SELECT a FROM t WHERE r BETWEEN 2 AND 12",
            "SELECT a FROM t WHERE r BETWEEN 4 AND 14",
        ]);
        // Adjacent pairs overlap 8/12 = 2/3 (distance 1/3 < 0.5); the ends
        // overlap 6/14 (distance 4/7 ≥ 0.5) — connectivity is transitive.
        let c = cluster_regions(&rs, &[1, 1, 1], 0.5);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn parallel_equals_sequential() {
        // Overlapping windows at many distances exercise the merge logic.
        let sqls: Vec<String> = (0..60)
            .map(|i| {
                format!(
                    "SELECT a FROM t{} WHERE r BETWEEN {} AND {}",
                    i % 3,
                    i * 3,
                    i * 3 + 10
                )
            })
            .collect();
        let rs: Vec<Region> = sqls
            .iter()
            .map(|s| region_of_query(&parse_query(s).unwrap()))
            .collect();
        let weights: Vec<u64> = (0..rs.len() as u64).map(|i| i % 4 + 1).collect();
        for t in [0.2, 0.6, 0.9] {
            let seq = cluster_regions(&rs, &weights, t);
            for threads in [1, 4, 0] {
                let par = cluster_regions_traced(&rs, &weights, t, threads, &Recorder::disabled());
                assert_eq!(seq.count(), par.count(), "threshold {t}");
                assert_eq!(seq.sizes(), par.sizes(), "threshold {t}");
                // Healthy runs never report degraded recovery.
                assert_eq!(par.degraded_shards, 0);
                assert_eq!(par.poisoned_rows, 0);
            }
        }
    }

    #[test]
    fn statement_clustering_dedups_and_weights() {
        let (c, distinct) = cluster_statements(
            [
                "SELECT text FROM DBObjects WHERE name='photoobjall'",
                "SELECT description FROM DBObjects WHERE name='photoobjall'",
                "SELECT text FROM DBObjects WHERE name='galaxy'",
                "not sql at all (",
            ],
            0.9,
        );
        // photoobjall text+description share a region key? No — regions are
        // equal but keys equal too, so they dedup to one distinct region of
        // weight 2; galaxy is its own.
        assert_eq!(distinct.len(), 2);
        assert_eq!(c.count(), 2);
        assert_eq!(c.clusters[0].size, 2);
        assert_eq!(c.average_size(), 1.5);
        assert_eq!(c.sizes(), vec![2, 1]);
    }
}
