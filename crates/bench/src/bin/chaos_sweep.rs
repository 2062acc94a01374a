//! Crash-schedule chaos sweep (DESIGN.md "Fault model").
//!
//! Phase 1 arms every named fault site in turn (`FaultPlan::at(site,
//! 0)`) and runs the crash schedule — each site must crash, recover,
//! and leave the database answering exactly. Phase 2 sweeps seeded
//! fault plans (`--seeds N`, default 32) in both plain and
//! ambiguous-PUT S3 modes. Phase 3 runs the commit crash schedule once
//! per commit crash site (seeds `0..COMMIT_SITES`): a COPY's coordinator
//! dies mid-commit and every node's log must hold its record or none
//! of it.
//! Prints a one-line JSON verdict and exits non-zero if any run
//! violated an invariant.
//!
//!     cargo run --release --bin chaos_sweep -- --seeds 32

use eon_bench::chaos::{
    crash_schedule, crash_schedule_commit, seeded_crash_schedule, COMMIT_SITES,
};
use eon_bench::{metrics_summary, print_json};
use eon_storage::fault::{FaultPlan, SITES};

fn main() {
    let mut seeds: u64 = 32;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seeds takes a number");
            }
            other => panic!("unknown argument {other} (usage: chaos_sweep [--seeds N])"),
        }
    }

    let mut runs = 0usize;
    let mut passed = 0usize;
    let mut crashes = 0usize;
    let mut reclaimed = 0usize;
    let mut failures: Vec<serde_json::Value> = Vec::new();
    // Deterministic metrics snapshot of the first passing run — same
    // seed, same snapshot, byte for byte (see tests/crash_chaos.rs).
    let mut metrics_sample: Option<String> = None;

    // Phase 1: every named site, deterministically.
    for site in SITES {
        runs += 1;
        match crash_schedule(FaultPlan::at(site, 0), 0xc4a05, false) {
            Ok(r) => {
                passed += 1;
                crashes += r.crashes;
                reclaimed += r.reclaimed;
                metrics_sample.get_or_insert(r.metrics);
                if !r.fired.iter().any(|s| s == site) {
                    // The schedule is supposed to reach every site.
                    passed -= 1;
                    failures.push(serde_json::json!({
                        "mode": "site", "site": site, "error": "site never fired",
                    }));
                }
            }
            Err(e) => failures.push(serde_json::json!({
                "mode": "site", "site": site, "error": e,
            })),
        }
    }

    // Phase 2: seeded plans, plain and ambiguous S3.
    for seed in 0..seeds {
        for ambiguous in [false, true] {
            runs += 1;
            match seeded_crash_schedule(seed, ambiguous) {
                Ok(r) => {
                    passed += 1;
                    crashes += r.crashes;
                    reclaimed += r.reclaimed;
                }
                Err(e) => failures.push(serde_json::json!({
                    "mode": if ambiguous { "seeded+ambiguous" } else { "seeded" },
                    "seed": seed,
                    "error": e,
                })),
            }
        }
    }

    // Phase 3: commit, one seed per commit crash site.
    for seed in 0..COMMIT_SITES as u64 {
        runs += 1;
        match crash_schedule_commit(seed) {
            Ok(r) => {
                passed += 1;
                crashes += 1;
                reclaimed += r.reclaimed;
            }
            Err(e) => failures.push(serde_json::json!({
                "mode": "commit", "seed": seed, "error": e,
            })),
        }
    }

    if let Some(text) = &metrics_sample {
        let snapshot = serde_json::parse(text).expect("snapshot is valid JSON");
        print_json(
            "chaos_metrics",
            serde_json::json!({
                "summary": metrics_summary(&snapshot),
                "snapshot": snapshot,
            }),
        );
    }

    let failed = runs - passed;
    println!(
        "{}",
        serde_json::json!({
            "bench": "chaos_sweep",
            "sites": SITES.len(),
            "seeds": seeds,
            "commit_seeds": COMMIT_SITES,
            "runs": runs,
            "passed": passed,
            "failed": failed,
            "crashes_injected": crashes,
            "orphans_reclaimed": reclaimed,
            "failures": failures,
        })
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
