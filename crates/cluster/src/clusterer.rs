//! Threshold clustering over regions (§6.9).
//!
//! "Queries with a distance smaller than a threshold go to the same cluster"
//! — i.e. clusters are connected components of the distance-below-threshold
//! graph. Identical regions are deduplicated first (most mass sits on
//! distance 0), and candidate pairs are bucketed by region *signature*
//! (table set + constrained columns): regions in different buckets have
//! overlap 0 by construction, so only intra-bucket pairs are compared.

use crate::region::Region;
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
        for (pos, &i) in bucket.iter().enumerate() {
            for &j in &bucket[pos + 1..] {
                if regions[i].distance(&regions[j]) < threshold {
                    uf.union(i, j);
                }
            }
        }
    }

    Clustering {
        clusters: assemble(&mut uf, weights),
    }
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
