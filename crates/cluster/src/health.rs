//! Deterministic tick-driven failure detection (DESIGN.md "Failure
//! detection & degraded modes").
//!
//! The paper's availability story (§3.4, §6.1) assumes somebody
//! *notices* that a node died. Real Vertica uses spread-based
//! heartbeats; here the detector is a pure state machine driven by
//! explicit ticks: each [`FailureDetector::tick`] probes every
//! commissioned node's liveness ([`crate::NodeRuntime::is_up`]) and
//! advances a per-node miss/hit counter. Because the only inputs are
//! the tick sequence and the probed liveness bits, the same kill/flap
//! schedule produces the same detection trace, tick for tick — which is
//! what lets the chaos tests assert byte-identical detection traces
//! across same-seed runs.
//!
//! State machine per node:
//!
//! ```text
//!           misses ≥ suspect_after      misses ≥ down_after
//!   Up ───────────────────────► Suspect ───────────────────► Down
//!    ▲                             │                           │
//!    └──── recover_after ──────────┴───────────────────────────┘
//!          consecutive hits
//! ```
//!
//! Hysteresis: a probe hit does **not** clear the miss counter until
//! the node has answered `recover_after` consecutive probes. A node
//! flapping up/down therefore keeps accumulating misses, is declared
//! DOWN once, and is not declared recovered until it holds stable —
//! the cluster repairs around it instead of thrashing subscriptions on
//! every flap.

use std::collections::HashMap;

use eon_types::NodeId;

use crate::membership::Membership;

/// Detector thresholds, all counted in ticks.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive-ish missed probes (see hysteresis above) before an
    /// Up node is declared SUSPECT.
    pub suspect_after: u32,
    /// Missed probes before a node is declared DOWN (must be ≥
    /// `suspect_after`; enforced at construction).
    pub down_after: u32,
    /// Consecutive probe hits before a SUSPECT/DOWN node is declared
    /// recovered and its miss history cleared.
    pub recover_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_after: 2,
            down_after: 4,
            recover_after: 2,
        }
    }
}

/// Detector verdict for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    Up,
    Suspect,
    Down,
}

/// A detector state transition, stamped with the tick it happened on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEvent {
    pub tick: u64,
    pub node: NodeId,
    pub transition: HealthTransition,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// Up → Suspect.
    Suspect,
    /// Suspect (or Up, if thresholds coincide) → Down.
    Down,
    /// Suspect/Down → Up after `recover_after` consecutive hits.
    Recovered,
}

impl std::fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = match self.transition {
            HealthTransition::Suspect => "SUSPECT",
            HealthTransition::Down => "DOWN",
            HealthTransition::Recovered => "RECOVERED",
        };
        write!(f, "t{} {} {}", self.tick, self.node, t)
    }
}

#[derive(Debug, Clone)]
struct Tracker {
    health: NodeHealth,
    /// Missed probes; only cleared by a full recovery streak.
    misses: u32,
    /// Current consecutive-hit streak.
    hits: u32,
}

impl Tracker {
    fn fresh() -> Self {
        Tracker {
            health: NodeHealth::Up,
            misses: 0,
            hits: 0,
        }
    }
}

/// The per-cluster failure detector. Pure state; the caller (the
/// eon-core supervisor, or a test) owns the tick cadence.
#[derive(Debug)]
pub struct FailureDetector {
    config: HealthConfig,
    tick: u64,
    trackers: HashMap<NodeId, Tracker>,
    trace: Vec<HealthEvent>,
}

impl FailureDetector {
    pub fn new(mut config: HealthConfig) -> Self {
        config.suspect_after = config.suspect_after.max(1);
        config.down_after = config.down_after.max(config.suspect_after);
        config.recover_after = config.recover_after.max(1);
        FailureDetector {
            config,
            tick: 0,
            trackers: HashMap::new(),
            trace: Vec::new(),
        }
    }

    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Ticks elapsed so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// One heartbeat round: probe every commissioned node and return
    /// the transitions this tick produced. Decommissioned nodes drop
    /// out of the tracker map (removal is an operator action, not a
    /// failure).
    pub fn tick(&mut self, membership: &Membership) -> Vec<HealthEvent> {
        self.tick += 1;
        let nodes = membership.all();
        self.trackers.retain(|id, _| nodes.iter().any(|n| n.id == *id));
        let mut events = Vec::new();
        for node in nodes {
            let t = self.trackers.entry(node.id).or_insert_with(Tracker::fresh);
            if node.is_up() {
                t.hits += 1;
                if t.hits >= self.config.recover_after {
                    // Stable streak: clear the miss history; declare the
                    // recovery if the node had been marked.
                    t.misses = 0;
                    if t.health != NodeHealth::Up {
                        t.health = NodeHealth::Up;
                        events.push(HealthEvent {
                            tick: self.tick,
                            node: node.id,
                            transition: HealthTransition::Recovered,
                        });
                    }
                }
            } else {
                t.hits = 0;
                t.misses = t.misses.saturating_add(1);
                if t.misses >= self.config.down_after && t.health != NodeHealth::Down {
                    t.health = NodeHealth::Down;
                    events.push(HealthEvent {
                        tick: self.tick,
                        node: node.id,
                        transition: HealthTransition::Down,
                    });
                } else if t.misses >= self.config.suspect_after && t.health == NodeHealth::Up {
                    t.health = NodeHealth::Suspect;
                    events.push(HealthEvent {
                        tick: self.tick,
                        node: node.id,
                        transition: HealthTransition::Suspect,
                    });
                }
            }
        }
        self.trace.extend(events.iter().cloned());
        events
    }

    /// The detector's current verdict for `node` (Up if never probed).
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.trackers.get(&node).map(|t| t.health).unwrap_or(NodeHealth::Up)
    }

    /// Nodes currently declared DOWN.
    pub fn down_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .trackers
            .iter()
            .filter(|(_, t)| t.health == NodeHealth::Down)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// The full detection trace since construction — every transition
    /// with the tick it fired on. Same probe sequence ⇒ same trace.
    pub fn trace(&self) -> &[HealthEvent] {
        &self.trace
    }

    /// The trace rendered one event per line (`t7 node2 DOWN`), for
    /// cross-run determinism digests.
    pub fn trace_text(&self) -> String {
        self.trace
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeRuntime;
    use eon_storage::{MemFs, SharedFs};
    use std::sync::Arc;

    fn cluster(n: u64) -> Membership {
        let m = Membership::new();
        let shared: SharedFs = Arc::new(MemFs::new());
        for i in 0..n {
            m.add(NodeRuntime::new(NodeId(i), shared.clone(), "inc", 1 << 20, 4, 7, &Default::default()));
        }
        m
    }

    fn cfg() -> HealthConfig {
        HealthConfig {
            suspect_after: 2,
            down_after: 4,
            recover_after: 2,
        }
    }

    #[test]
    fn healthy_cluster_emits_no_events() {
        let m = cluster(3);
        let mut d = FailureDetector::new(cfg());
        for _ in 0..10 {
            assert!(d.tick(&m).is_empty());
        }
        assert!(d.trace().is_empty());
        assert_eq!(d.health(NodeId(0)), NodeHealth::Up);
    }

    #[test]
    fn dead_node_goes_suspect_then_down_at_exact_ticks() {
        let m = cluster(3);
        let mut d = FailureDetector::new(cfg());
        d.tick(&m); // t1: all up
        m.get(NodeId(1)).unwrap().kill();
        assert!(d.tick(&m).is_empty()); // t2: 1 miss
        let ev = d.tick(&m); // t3: 2 misses → SUSPECT
        assert_eq!(
            ev,
            vec![HealthEvent {
                tick: 3,
                node: NodeId(1),
                transition: HealthTransition::Suspect
            }]
        );
        assert!(d.tick(&m).is_empty()); // t4: 3 misses
        let ev = d.tick(&m); // t5: 4 misses → DOWN
        assert_eq!(ev[0].transition, HealthTransition::Down);
        assert_eq!(ev[0].tick, 5);
        assert_eq!(d.down_nodes(), vec![NodeId(1)]);
        // Stays down without re-announcing.
        assert!(d.tick(&m).is_empty());
    }

    #[test]
    fn recovery_needs_a_stable_streak() {
        let m = cluster(2);
        let mut d = FailureDetector::new(cfg());
        m.get(NodeId(0)).unwrap().kill();
        for _ in 0..4 {
            d.tick(&m);
        }
        assert_eq!(d.health(NodeId(0)), NodeHealth::Down);
        // "Restart" by swapping in a fresh runtime under the same id.
        let shared: SharedFs = Arc::new(MemFs::new());
        m.add(NodeRuntime::new(NodeId(0), shared, "inc2", 1 << 20, 4, 8, &Default::default()));
        assert!(d.tick(&m).is_empty()); // hit 1 of 2: not yet
        assert_eq!(d.health(NodeId(0)), NodeHealth::Down);
        let ev = d.tick(&m); // hit 2: recovered
        assert_eq!(ev[0].transition, HealthTransition::Recovered);
        assert_eq!(d.health(NodeId(0)), NodeHealth::Up);
        assert!(d.down_nodes().is_empty());
    }

    #[test]
    fn flapping_node_accumulates_misses_and_goes_down_once() {
        // Alternate dead/alive every tick: single hits never reach
        // recover_after, so the miss counter is never cleared and the
        // node is eventually declared DOWN — exactly once.
        let m = cluster(2);
        let mut d = FailureDetector::new(cfg());
        let shared: SharedFs = Arc::new(MemFs::new());
        for i in 0..16u64 {
            if i % 2 == 0 {
                m.get(NodeId(0)).unwrap().kill();
            } else {
                m.add(NodeRuntime::new(NodeId(0), shared.clone(), "inc", 1 << 20, 4, i, &Default::default()));
            }
            d.tick(&m);
        }
        let downs = d
            .trace()
            .iter()
            .filter(|e| e.transition == HealthTransition::Down)
            .count();
        let recoveries = d
            .trace()
            .iter()
            .filter(|e| e.transition == HealthTransition::Recovered)
            .count();
        assert_eq!(downs, 1, "flapping must not thrash DOWN declarations: {:?}", d.trace());
        assert_eq!(recoveries, 0, "one-tick ups are not a recovery");
    }

    #[test]
    fn same_schedule_same_trace() {
        let run = || {
            let m = cluster(3);
            let mut d = FailureDetector::new(cfg());
            d.tick(&m);
            m.get(NodeId(2)).unwrap().kill();
            for _ in 0..6 {
                d.tick(&m);
            }
            d.trace_text()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("node2 DOWN"), "{a}");
    }

    #[test]
    fn decommissioned_node_is_forgotten() {
        let m = cluster(2);
        let mut d = FailureDetector::new(cfg());
        m.get(NodeId(1)).unwrap().kill();
        for _ in 0..4 {
            d.tick(&m);
        }
        assert_eq!(d.down_nodes(), vec![NodeId(1)]);
        m.remove(NodeId(1));
        d.tick(&m);
        assert!(d.down_nodes().is_empty());
    }

    #[test]
    fn thresholds_are_sanitized() {
        let d = FailureDetector::new(HealthConfig {
            suspect_after: 0,
            down_after: 0,
            recover_after: 0,
        });
        assert_eq!(d.config().suspect_after, 1);
        assert_eq!(d.config().down_after, 1);
        assert_eq!(d.config().recover_after, 1);
    }
}
