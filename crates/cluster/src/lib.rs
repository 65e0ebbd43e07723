//! # sqlog-cluster — data-space-overlap query clustering
//!
//! Reproduces the downstream analysis of §6.9 of *"Cleaning Antipatterns in
//! an SQL Query Log"* (after Nguyen et al., "Identifying User Interests
//! within the Data Space", EDBT 2015): each query accesses a region of the
//! data space; queries are clustered by the overlap of those regions.
//! Running this analysis on the raw vs cleaned vs removal logs shows how
//! antipattern cleaning de-noises user-interest detection (Figs. 3 and 4).
//!
//! ```
//! use sqlog_cluster::cluster_statements;
//! let (clustering, _regions) = cluster_statements(
//!     [
//!         "SELECT ra FROM photoprimary WHERE htmid >= 0 AND htmid <= 10",
//!         "SELECT dec FROM photoprimary WHERE htmid >= 0 AND htmid <= 10",
//!         "SELECT ra FROM photoprimary WHERE htmid >= 90 AND htmid <= 95",
//!     ],
//!     0.9,
//! );
//! assert_eq!(clustering.count(), 2);
//! ```

#![warn(missing_docs)]

pub mod clusterer;
pub mod region;

pub use clusterer::{cluster_regions, cluster_statements, Cluster, Clustering};
pub use region::{region_of_query, Dim, Region};
