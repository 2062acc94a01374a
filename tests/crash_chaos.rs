//! Crash-point chaos (DESIGN.md "Fault model"): a seeded [`FaultPlan`]
//! crashes the cluster at named sites in the load, DML, mergeout,
//! sync, revive, and query paths; the `eon-bench` chaos harness
//! restarts/revives and verifies the crash-consistency invariants —
//! committed data answers exactly, uncommitted work is invisible, and
//! the leak scan reclaims every orphaned upload. The full sweep is
//! `cargo run --release --bin chaos_sweep -- --seeds 32`; these tests
//! pin the two properties the sweep relies on: every named site is
//! reachable, and a given seed replays identically.

use eon_bench::chaos::{
    crash_schedule, crash_schedule_commit, crash_schedule_encoded, flap_brownout_schedule,
    seeded_crash_schedule, COMMIT_SITES,
};
use eon_columnar::Encoding;
use eon_db as _;
use eon_storage::fault::{site, FaultPlan, SITES};

/// Crash at every named site in turn: the schedule must reach the
/// site, take the crash, recover, and still uphold every invariant.
#[test]
fn every_named_site_crashes_and_recovers() {
    for s in SITES {
        let report = crash_schedule(FaultPlan::at(s, 0), 0xc4a05, false)
            .unwrap_or_else(|e| panic!("site {s}: {e}"));
        assert!(
            report.fired.iter().any(|f| f == s),
            "site {s} never fired (fired: {:?})",
            report.fired
        );
        // The query sites don't surface a crash to the driver: the
        // worker-local site kills a participant (failover absorbs it),
        // and the worker-panic site is contained into a typed error at
        // the join (failover retries it). Every other site must have
        // been observed by the driver as a crash.
        if *s != site::QUERY_WORKER_LOCAL && *s != site::QUERY_WORKER_PANIC {
            assert!(report.crashes >= 1, "site {s}: crash not observed");
        }
    }
}

/// Same fault-plan seed ⇒ same crash sites and same post-recovery
/// state, run to run.
#[test]
fn seeded_schedule_replays_identically() {
    for seed in [0u64, 3, 11] {
        let a = seeded_crash_schedule(seed, false).unwrap();
        let b = seeded_crash_schedule(seed, false).unwrap();
        assert_eq!(a.fired, b.fired, "seed {seed}: crash sites diverged");
        assert_eq!(a.digest, b.digest, "seed {seed}: final state diverged");
        assert_eq!(a.rows, b.rows);
    }
}

/// Determinism holds with ambiguous S3 outcomes layered on top: the
/// simulator's dice are seeded, so applied-but-reported-failed PUTs
/// land on the same requests in both runs.
#[test]
fn ambiguous_mode_replays_identically() {
    let a = seeded_crash_schedule(7, true).unwrap();
    let b = seeded_crash_schedule(7, true).unwrap();
    assert_eq!(a.fired, b.fired);
    assert_eq!(a.digest, b.digest);
}

/// Two same-seed runs must emit **byte-identical** deterministic
/// metrics snapshots (DESIGN.md "Observability"): every seeded counter
/// — depot hits/misses, S3 requests by verb, injected faults, retries,
/// mergeout totals — lands on exactly the same value regardless of
/// thread interleaving, because the S3 fault dice are keyed hashes of
/// (seed, verb, path, attempt) rather than draws from a shared RNG.
#[test]
fn same_seed_runs_emit_identical_metrics_snapshots() {
    for (seed, ambiguous) in [(0u64, false), (7, true)] {
        let a = seeded_crash_schedule(seed, ambiguous).unwrap();
        let b = seeded_crash_schedule(seed, ambiguous).unwrap();
        assert!(
            !a.metrics.is_empty() && a.metrics.contains("s3_requests_total"),
            "snapshot should carry S3 request counters: {}",
            a.metrics
        );
        assert!(
            a.metrics.contains("depot_hits_total"),
            "snapshot should carry depot counters"
        );
        assert_eq!(
            a.metrics, b.metrics,
            "seed {seed} ambiguous={ambiguous}: metrics snapshots diverged"
        );
    }
}

/// Compression-aware execution under crashes: the same seeded schedule
/// over containers force-encoded as RLE and as Dict must (a) uphold
/// every crash-consistency invariant while scans run on encoded views,
/// (b) replay deterministically — same seed, same force ⇒ byte-identical
/// digest and metrics snapshot — and (c) land on the same logical table
/// (row count) as the heuristic-encoded run, since encoding is purely
/// physical.
#[test]
fn force_encoded_schedules_replay_identically() {
    for seed in [0u64, 7] {
        let baseline = seeded_crash_schedule(seed, false).unwrap();
        for force in [Encoding::Rle, Encoding::Dict] {
            let plan = || FaultPlan::seeded(seed, SITES, 3);
            let a = crash_schedule_encoded(plan(), seed, false, Some(force))
                .unwrap_or_else(|e| panic!("seed {seed} force {force:?}: {e}"));
            let b = crash_schedule_encoded(plan(), seed, false, Some(force)).unwrap();
            assert_eq!(a.fired, b.fired, "seed {seed} force {force:?}: sites diverged");
            assert_eq!(a.digest, b.digest, "seed {seed} force {force:?}: digest diverged");
            assert_eq!(
                a.metrics, b.metrics,
                "seed {seed} force {force:?}: metrics snapshots diverged"
            );
            assert_eq!(
                a.rows, baseline.rows,
                "seed {seed} force {force:?}: encoding changed the logical table"
            );
        }
    }
}

/// Commit crash points (DESIGN.md "Commit"): a COPY crashes at the
/// coordinator-append, mid-distribution, or post-append point, the
/// whole cluster cold-restarts from its durable logs, and every node
/// holds the statement's record or none of it — the coordinator-append
/// crash aborts it (and the leak scan reclaims its orphaned upload);
/// the later crash points commit it everywhere, with laggard peers
/// converging from the most-advanced durable log. The schedule itself
/// verifies the per-node log contents; this test pins the site →
/// durability map.
#[test]
fn group_commit_crash_points_are_prefix_or_nothing() {
    let mut aborted = 0;
    let mut committed = 0;
    // Seeds 0..3 cycle through the three commit crash sites.
    for seed in 0..COMMIT_SITES as u64 {
        let r = crash_schedule_commit(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            r.durable,
            r.site != site::COMMIT_LEADER_APPEND,
            "seed {seed} site {}: wrong durability outcome",
            r.site
        );
        if r.durable {
            committed += 1;
        } else {
            aborted += 1;
            assert!(
                r.reclaimed >= 1,
                "seed {seed}: aborted COPY reclaimed no orphan"
            );
        }
    }
    assert_eq!((aborted, committed), (1, 2));
}

/// Same seed ⇒ byte-identical digest and metrics snapshot for the
/// commit crash schedule: the whole run — upload order, crash point,
/// cold restart, leak scan — replays exactly.
#[test]
fn group_commit_schedule_replays_identically() {
    for seed in 0..COMMIT_SITES as u64 {
        let a = crash_schedule_commit(seed).unwrap();
        let b = crash_schedule_commit(seed).unwrap();
        assert_eq!(a.site, b.site, "seed {seed}: armed sites diverged");
        assert_eq!(a.digest, b.digest, "seed {seed}: final state diverged");
        assert_eq!(a.rows, b.rows);
        assert_eq!(
            a.metrics, b.metrics,
            "seed {seed}: metrics snapshots diverged"
        );
        assert!(
            a.metrics.contains("commit_appends_total"),
            "snapshot should carry commit metrics: {}",
            a.metrics
        );
    }
}

/// A slice of the seed sweep in-tree so `cargo test` exercises the
/// invariants without the release-mode binary.
#[test]
fn seed_sweep_slice_upholds_invariants() {
    for seed in 0..6u64 {
        for ambiguous in [false, true] {
            seeded_crash_schedule(seed, ambiguous)
                .unwrap_or_else(|e| panic!("seed {seed} ambiguous={ambiguous}: {e}"));
        }
    }
}

/// Self-healing chaos (DESIGN.md "Failure detection & degraded
/// modes"): a node flap plus an S3 brownout window completes with zero
/// operator intervention — the detector declares DOWN once despite the
/// flap, the supervisor takes over subscriptions and auto-restarts the
/// node, depot-only reads serve through the brownout, writes fast-fail
/// with `StoreUnavailable`, and the breaker self-recovers.
#[test]
fn flap_and_brownout_self_heal_without_operator() {
    for seed in [1u64, 5, 9] {
        let r = flap_brownout_schedule(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(r.restarts >= 1, "seed {seed}: no auto-restart");
        assert!(r.takeover_ops >= 1, "seed {seed}: no subscription takeover");
        assert_eq!(r.brownout_reads, 3, "seed {seed}: brownout reads failed");
        assert!(r.write_fast_fails >= 1, "seed {seed}: no fast-fail");
        // Exactly one DOWN and one RECOVERED despite the flap
        // (hysteresis): the detector must not thrash the rebalancer.
        let downs = r.trace.matches(" DOWN").count();
        let recoveries = r.trace.matches(" RECOVERED").count();
        assert_eq!((downs, recoveries), (1, 1), "seed {seed}: trace {}", r.trace);
    }
}

/// Same seed ⇒ byte-identical detection trace, digest, and metrics
/// snapshot for the flap-and-brownout schedule.
#[test]
fn flap_and_brownout_replays_identically() {
    let a = flap_brownout_schedule(5).unwrap();
    let b = flap_brownout_schedule(5).unwrap();
    assert_eq!(a.trace, b.trace, "detection traces diverged");
    assert_eq!(a.digest, b.digest, "final state diverged");
    assert_eq!(a.metrics, b.metrics, "metrics snapshots diverged");
    assert!(
        a.metrics.contains("breaker_opened_total"),
        "snapshot should carry breaker counters: {}",
        a.metrics
    );
}
