//! Database configuration.

use eon_storage::fault::FaultPlan;
use eon_storage::FaultInjector;

/// Configuration for an Eon-mode database. The segment shard count is
/// fixed at creation (§3.1); everything else can vary over the
/// database's life.
#[derive(Debug, Clone)]
pub struct EonConfig {
    pub database: String,
    /// Initial node count.
    pub num_nodes: usize,
    /// Segment shard count — immutable after creation.
    pub num_shards: usize,
    /// Node failures tolerated (shards get `k_safety + 1` subscribers).
    pub k_safety: usize,
    /// Execution slots per node (the `E` of §4.2). Also the width of a
    /// node's scan pool and of the write pool of a statement it
    /// coordinates: one container task per slot (DESIGN.md "Scan
    /// pipeline", "Write pipeline").
    pub exec_slots: usize,
    /// Depot capacity per node, bytes.
    pub cache_bytes: u64,
    /// Crash-point fault plan (DESIGN.md "Fault model"). Inert by
    /// default; chaos tests install a seeded [`FaultPlan`] to kill the
    /// process at a named commit-path site. Shared (`Arc`) so every
    /// layer sees the same one-shot schedule.
    pub faults: FaultInjector,
    /// Metrics registry (DESIGN.md "Observability"). Every subsystem
    /// the database commissions — depots, exec slots, retry layer,
    /// coordinator, tuple mover — registers its counters here. Shared
    /// (`Arc` inside), so benches can hand in their own registry and
    /// snapshot it after a run.
    pub obs: eon_obs::Registry,
    /// Force every container block onto one encoding instead of the
    /// per-block heuristic (blocks the encoding can't represent fall
    /// back). Testing knob for encoding-equivalence properties.
    pub force_encoding: Option<eon_columnar::Encoding>,
    /// Admission control (DESIGN.md "Admission control & workload
    /// management"): max concurrently *running* queries per subcluster
    /// resource pool. `0` disables admission control entirely — every
    /// session goes straight to the exec-slot semaphore.
    pub admission_max_concurrent: usize,
    /// Max sessions *waiting* in a pool's admission queue before new
    /// arrivals are rejected with `EonError::Saturated`. `0` =
    /// unbounded queue (sessions still time out).
    pub admission_max_queue: usize,
    /// Planned-wait budget for a queued session, milliseconds; expiry
    /// returns `EonError::DeadlineExceeded`. `0` = wait until admitted
    /// (or cancelled).
    pub admission_timeout_ms: u64,
    /// Planned-wait budget for a query worker's execution-slot
    /// acquisition, milliseconds. `0` = wait until slots free up or the
    /// node dies. Bounded by default: a saturated node sheds the
    /// session instead of parking it forever.
    pub slot_wait_ms: u64,
    /// S3 circuit breaker (DESIGN.md "Failure detection & degraded
    /// modes"): thresholds after which shared-storage operations
    /// fast-fail with `StoreUnavailable`, all counted in operations so
    /// the half-open point is deterministic. `None` = no breaker, every
    /// operation runs its full retry budget.
    pub breaker: Option<eon_storage::BreakerConfig>,
    /// Failure-detector thresholds in heartbeat ticks (hysteresis; see
    /// `eon_cluster::FailureDetector`).
    pub health: eon_cluster::HealthConfig,
    /// Supervisor auto-restart: ticks a node stays declared DOWN before
    /// the supervisor re-admits it through the `restart_node` path.
    /// `0` disables auto-restart (detection and takeover still run).
    pub supervisor_restart_ticks: u64,
}

impl Default for EonConfig {
    fn default() -> Self {
        EonConfig {
            database: "eon".into(),
            num_nodes: 3,
            num_shards: 3,
            k_safety: 1,
            exec_slots: 4,
            cache_bytes: 256 << 20,
            faults: FaultPlan::inert(),
            obs: eon_obs::Registry::new(),
            force_encoding: None,
            admission_max_concurrent: 0,
            admission_max_queue: 0,
            admission_timeout_ms: 10_000,
            slot_wait_ms: 10_000,
            breaker: None,
            health: eon_cluster::HealthConfig::default(),
            supervisor_restart_ticks: 4,
        }
    }
}

impl EonConfig {
    pub fn new(num_nodes: usize, num_shards: usize) -> Self {
        EonConfig {
            num_nodes,
            num_shards,
            ..Default::default()
        }
    }

    pub fn k_safety(mut self, k: usize) -> Self {
        self.k_safety = k;
        self
    }

    pub fn exec_slots(mut self, e: usize) -> Self {
        self.exec_slots = e;
        self
    }

    pub fn cache_bytes(mut self, b: u64) -> Self {
        self.cache_bytes = b;
        self
    }

    pub fn faults(mut self, plan: FaultInjector) -> Self {
        self.faults = plan;
        self
    }

    /// Use `registry` for all of this database's metrics.
    pub fn observability(mut self, registry: eon_obs::Registry) -> Self {
        self.obs = registry;
        self
    }

    /// Force one block encoding at write time (`None` = heuristic).
    pub fn force_encoding(mut self, enc: Option<eon_columnar::Encoding>) -> Self {
        self.force_encoding = enc;
        self
    }

    /// Admission pool size: max concurrently running queries per
    /// subcluster (`0` = admission control off).
    pub fn admission_max_concurrent(mut self, n: usize) -> Self {
        self.admission_max_concurrent = n;
        self
    }

    /// Admission queue depth per subcluster pool (`0` = unbounded).
    pub fn admission_max_queue(mut self, n: usize) -> Self {
        self.admission_max_queue = n;
        self
    }

    /// Admission queue timeout, milliseconds (`0` = no deadline).
    pub fn admission_timeout_ms(mut self, ms: u64) -> Self {
        self.admission_timeout_ms = ms;
        self
    }

    /// Execution-slot wait deadline, milliseconds (`0` = no deadline).
    pub fn slot_wait_ms(mut self, ms: u64) -> Self {
        self.slot_wait_ms = ms;
        self
    }

    /// Enable the S3 circuit breaker: open after `failure_threshold`
    /// consecutive exhausted-retry failures, half-open after `cooldown`
    /// fast-fails, close after `half_open_probes` probe successes.
    pub fn breaker(mut self, failure_threshold: u32, cooldown: u32, half_open_probes: u32) -> Self {
        self.breaker = Some(eon_storage::BreakerConfig {
            failure_threshold,
            cooldown,
            half_open_probes,
        });
        self
    }

    /// Failure-detector thresholds in ticks: SUSPECT after `suspect`
    /// misses, DOWN after `down`, recovered after `recover` hits.
    pub fn health_ticks(mut self, suspect: u32, down: u32, recover: u32) -> Self {
        self.health = eon_cluster::HealthConfig {
            suspect_after: suspect,
            down_after: down,
            recover_after: recover,
        };
        self
    }

    /// Supervisor auto-restart delay in ticks (`0` = off).
    pub fn supervisor_restart_ticks(mut self, ticks: u64) -> Self {
        self.supervisor_restart_ticks = ticks;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder() {
        let c = EonConfig::new(4, 3).k_safety(2).exec_slots(8).cache_bytes(1024);
        assert_eq!(c.num_nodes, 4);
        assert_eq!(c.num_shards, 3);
        assert_eq!(c.k_safety, 2);
        assert_eq!(c.exec_slots, 8);
        assert_eq!(c.cache_bytes, 1024);
    }
}
