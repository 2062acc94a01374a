//! Mergeout: ROS container compaction.
//!
//! Containers are assigned to exponentially sized *strata* by row
//! count; when a stratum accumulates `fanin` containers they merge into
//! one container in a higher stratum. Each tuple therefore participates
//! in at most `log_fanin(total/base)` merges — the paper's "merge each
//! tuple a small fixed number of times". Deleted rows are purged during
//! the merge (§2.3), and containers with heavy delete load are promoted
//! into eligibility early.

use std::collections::HashMap;
use std::sync::Arc;

use eon_obs::{Counter, Determinism, Histogram, Registry};
use eon_types::{NodeId, Oid, ShardId};

/// Registry handles for the tuple mover (DESIGN.md "Observability").
/// The maintenance loop in `eon-core` registers one of these against
/// the database registry and records each executed merge job.
#[derive(Clone)]
pub struct MergeoutMetrics {
    /// `tm_mergeout_jobs_total` — executed merge jobs.
    pub jobs: Arc<Counter>,
    /// `tm_mergeout_rows_rewritten_total` — rows written to merged
    /// output containers.
    pub rows_rewritten: Arc<Counter>,
    /// `tm_mergeout_bytes_rewritten_total` — encoded bytes of merged
    /// output containers.
    pub bytes_rewritten: Arc<Counter>,
    /// `tm_mergeout_inputs_total` — input containers consumed.
    pub inputs_merged: Arc<Counter>,
    /// `tm_mergeout_job_stratum` — stratum of each executed job's
    /// output (seeded histogram; strata are small integers).
    pub strata: Arc<Histogram>,
}

impl MergeoutMetrics {
    pub fn register(registry: &Registry) -> Self {
        let labels: &[(&str, &str)] = &[("subsystem", "tm")];
        MergeoutMetrics {
            jobs: registry.counter("tm_mergeout_jobs_total", labels),
            rows_rewritten: registry.counter("tm_mergeout_rows_rewritten_total", labels),
            bytes_rewritten: registry.counter("tm_mergeout_bytes_rewritten_total", labels),
            inputs_merged: registry.counter("tm_mergeout_inputs_total", labels),
            strata: registry.histogram(
                "tm_mergeout_job_stratum",
                labels,
                vec![0, 1, 2, 3, 4, 6, 8],
                Determinism::Seeded,
            ),
        }
    }

    /// Record one executed merge job.
    pub fn record_job(&self, inputs: usize, rows: u64, bytes: u64, stratum: usize) {
        self.jobs.inc();
        self.inputs_merged.add(inputs as u64);
        self.rows_rewritten.add(rows);
        self.bytes_rewritten.add(bytes);
        self.strata.observe(stratum as u64);
    }
}

/// Tuning for mergeout planning.
#[derive(Debug, Clone)]
pub struct MergeoutPolicy {
    /// Row count ceiling of stratum 0.
    pub base_rows: u64,
    /// Size ratio between consecutive strata.
    pub factor: u64,
    /// Containers per stratum that trigger a merge, and the maximum
    /// fan-in of one job (large fan-ins are what §2.3 tries to avoid in
    /// the execution engine).
    pub fanin: usize,
    /// Fraction (0..=100) of deleted rows that makes a container
    /// eligible regardless of stratum pressure.
    pub purge_threshold_pct: u64,
}

impl Default for MergeoutPolicy {
    fn default() -> Self {
        MergeoutPolicy {
            base_rows: 4096,
            factor: 8,
            fanin: 4,
            purge_threshold_pct: 20,
        }
    }
}

impl MergeoutPolicy {
    /// Which stratum a container of `rows` rows belongs to.
    pub fn stratum(&self, rows: u64) -> usize {
        let mut bound = self.base_rows.max(1);
        let mut s = 0;
        while rows > bound && s < 62 {
            bound = bound.saturating_mul(self.factor.max(2));
            s += 1;
        }
        s
    }
}

/// A container as mergeout sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeInput {
    pub oid: Oid,
    pub rows: u64,
    pub deleted: u64,
}

/// One planned mergeout job: the input containers to replace with a
/// single merged output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeJob {
    pub inputs: Vec<Oid>,
}

/// Plan mergeout jobs for one projection+shard's containers.
///
/// Strategy: (1) any stratum holding ≥ `fanin` containers merges its
/// `fanin` smallest; (2) containers past the delete threshold merge in
/// pairs-or-more with their stratum neighbours (or alone, purely to
/// purge deletes, when no neighbour exists).
pub fn plan_mergeout(containers: &[MergeInput], policy: &MergeoutPolicy) -> Vec<MergeJob> {
    let mut by_stratum: HashMap<usize, Vec<MergeInput>> = HashMap::new();
    for c in containers {
        by_stratum.entry(policy.stratum(c.rows)).or_default().push(*c);
    }

    let mut jobs = Vec::new();
    let mut consumed: Vec<Oid> = Vec::new();
    let mut strata: Vec<_> = by_stratum.into_iter().collect();
    strata.sort_by_key(|(s, _)| *s);
    for (_, mut group) in strata {
        group.sort_by_key(|c| c.rows);
        // Rule 1: stratum pressure.
        while group.len() >= policy.fanin {
            let batch: Vec<MergeInput> = group.drain(..policy.fanin).collect();
            consumed.extend(batch.iter().map(|c| c.oid));
            jobs.push(MergeJob {
                inputs: batch.into_iter().map(|c| c.oid).collect(),
            });
        }
        // Rule 2: delete purge.
        let heavy: Vec<MergeInput> = group
            .iter()
            .filter(|c| {
                c.rows > 0 && c.deleted * 100 >= c.rows * policy.purge_threshold_pct
                    && policy.purge_threshold_pct > 0
            })
            .copied()
            .collect();
        for h in heavy {
            if consumed.contains(&h.oid) {
                continue;
            }
            consumed.push(h.oid);
            jobs.push(MergeJob {
                inputs: vec![h.oid],
            });
        }
    }
    jobs
}

/// Select a mergeout coordinator per shard, balancing coordinator load
/// across nodes (§6.2: "taking care to keep the workload balanced").
/// `subscribers` lists the ACTIVE subscribers of each shard; only those
/// nodes are eligible for that shard.
pub fn select_coordinators(
    subscribers: &[(ShardId, Vec<NodeId>)],
) -> HashMap<ShardId, NodeId> {
    let mut load: HashMap<NodeId, usize> = HashMap::new();
    let mut out = HashMap::new();
    // Assign most-constrained shards first.
    let mut order: Vec<&(ShardId, Vec<NodeId>)> = subscribers.iter().collect();
    order.sort_by_key(|(s, nodes)| (nodes.len(), *s));
    for (shard, nodes) in order {
        if nodes.is_empty() {
            continue;
        }
        let pick = *nodes
            .iter()
            .min_by_key(|n| (load.get(n).copied().unwrap_or(0), n.0))
            .unwrap();
        *load.entry(pick).or_insert(0) += 1;
        out.insert(*shard, pick);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(oid: u64, rows: u64) -> MergeInput {
        MergeInput {
            oid: Oid(oid),
            rows,
            deleted: 0,
        }
    }

    #[test]
    fn strata_are_exponential() {
        let p = MergeoutPolicy::default();
        assert_eq!(p.stratum(100), 0);
        assert_eq!(p.stratum(4096), 0);
        assert_eq!(p.stratum(4097), 1);
        assert_eq!(p.stratum(32768), 1);
        assert_eq!(p.stratum(32769), 2);
    }

    #[test]
    fn stratum_pressure_triggers_merge() {
        let p = MergeoutPolicy::default();
        let containers: Vec<MergeInput> = (0..5).map(|i| c(i, 100)).collect();
        let jobs = plan_mergeout(&containers, &p);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].inputs.len(), 4); // fanin smallest
    }

    #[test]
    fn no_merge_below_fanin() {
        let p = MergeoutPolicy::default();
        let containers: Vec<MergeInput> = (0..3).map(|i| c(i, 100)).collect();
        assert!(plan_mergeout(&containers, &p).is_empty());
    }

    #[test]
    fn different_strata_do_not_mix() {
        let p = MergeoutPolicy::default();
        // 3 small + 3 large: neither stratum reaches fanin 4.
        let mut containers: Vec<MergeInput> = (0..3).map(|i| c(i, 100)).collect();
        containers.extend((10..13).map(|i| c(i, 100_000)));
        assert!(plan_mergeout(&containers, &p).is_empty());
    }

    #[test]
    fn delete_heavy_container_purges() {
        let p = MergeoutPolicy::default();
        let containers = vec![
            MergeInput {
                oid: Oid(1),
                rows: 1000,
                deleted: 400,
            },
            c(2, 1000),
        ];
        let jobs = plan_mergeout(&containers, &p);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].inputs, vec![Oid(1)]);
    }

    #[test]
    fn tuples_merge_logarithmically() {
        // Simulate repeated loads of 1000-row containers and count how
        // many times a tuple generation is merged. With fanin 4 and
        // factor 8 the bound is ~log_4 of the total.
        let p = MergeoutPolicy {
            base_rows: 1000,
            factor: 4,
            fanin: 4,
            purge_threshold_pct: 0,
        };
        let mut containers: Vec<MergeInput> = Vec::new();
        let mut next_oid = 0u64;
        let mut merge_events = 0u64;
        let mut merged_rows = 0u64;
        let mut total_rows = 0u64;
        for _ in 0..256 {
            containers.push(c(next_oid, 1000));
            next_oid += 1;
            total_rows += 1000;
            loop {
                let jobs = plan_mergeout(&containers, &p);
                if jobs.is_empty() {
                    break;
                }
                for job in jobs {
                    let rows: u64 = job
                        .inputs
                        .iter()
                        .map(|oid| {
                            containers.iter().find(|x| x.oid == *oid).unwrap().rows
                        })
                        .sum();
                    containers.retain(|x| !job.inputs.contains(&x.oid));
                    containers.push(c(next_oid, rows));
                    next_oid += 1;
                    merge_events += 1;
                    merged_rows += rows;
                }
            }
        }
        // Average merges per tuple = merged_rows / total_rows; should
        // be small (each tuple merged a fixed number of times).
        let avg = merged_rows as f64 / total_rows as f64;
        assert!(avg < 6.0, "tuples merged {avg} times on average");
        assert!(merge_events > 0);
        // Container count stays bounded.
        assert!(containers.len() < 16, "{} containers", containers.len());
    }

    #[test]
    fn coordinators_balanced() {
        let subs: Vec<(ShardId, Vec<NodeId>)> = (0..4)
            .map(|s| {
                (
                    ShardId(s),
                    vec![NodeId(s % 2), NodeId((s + 1) % 2)],
                )
            })
            .collect();
        let coords = select_coordinators(&subs);
        assert_eq!(coords.len(), 4);
        let n0 = coords.values().filter(|n| n.0 == 0).count();
        assert_eq!(n0, 2, "coordinators should balance: {coords:?}");
    }

    #[test]
    fn coordinator_reassigned_on_failure() {
        // Shard 0's subscribers shrink to node 1 only (node 0 died):
        // the new selection must pick node 1.
        let subs = vec![(ShardId(0), vec![NodeId(1)])];
        let coords = select_coordinators(&subs);
        assert_eq!(coords[&ShardId(0)], NodeId(1));
        // No subscribers → no coordinator (cluster handles separately).
        let none = select_coordinators(&[(ShardId(0), vec![])]);
        assert!(none.is_empty());
    }
}
