#!/bin/sh
# Non-test, non-comment, non-blank lines per crate ("PR 15's awk"):
# every `crates/<c>/src/**/*.rs`, each file counted up to its first
# top-level `#[cfg(test)]`, skipping blank lines and lines that start
# with `//`. Then the public-field counts of the two config structs.
# Run from anywhere; takes an optional repo root (default: this repo).
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

# loc <dir>...: non-test, non-comment, non-blank lines of `<dir>/src`.
loc() {
    for dir in "$@"; do find "$dir/src" -name '*.rs'; done | sort | xargs awk '
        FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        t { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/; do
    n=$(loc "$dir")
    printf '%-16s %6d\n' "eon-$(basename "$dir")" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"
# The offline dependency stand-ins, one total: a "net negative" claim
# counts them too.
printf '%-16s %6d\n' shims "$(loc shims/*/)"

# `pub` fields between `pub struct <name> {` and its closing brace.
fields() {
    awk -v s="pub struct $1 {" '
        index($0, s) == 1 { on = 1; next }
        on && /^}/ { exit }
        on && /^    pub / { n++ }
        END { print n + 0 }' "$2"
}
printf '%-16s %6d\n' "EonConfig fields" "$(fields EonConfig crates/core/src/config.rs)"
printf '%-16s %6d\n' "S3Config fields" "$(fields S3Config crates/storage/src/s3sim.rs)"

# "One storage stack" as numbers: `FileSystem` impls in non-test crate
# source (target 5: MemFs, S3SimFs, RetryFs, FileCache and the depot's
# `Reader` face) and retry-loop
# call sites outside eon-storage (target 0: only RetryFs retries).
# matches <pattern> <crate dir>...: non-test, non-comment lines matching.
matches() {
    pat=$1
    shift
    find "$@" -path '*/src/*' -name '*.rs' | sort | xargs awk -v pat="$pat" '
        FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        !t && $0 !~ /^[[:space:]]*\/\// && $0 ~ pat { n++ }
        END { print n + 0 }'
}
printf '%-16s %6d\n' "FileSystem impls" "$(matches 'impl FileSystem for' crates)"
printf '%-16s %6d\n' "with_retry calls" \
    "$(matches 'with_retry' $(ls -d crates/*/ | grep -v '^crates/storage/'))"

# "One semaphore, metrics wired at construction" as numbers: planned-
# wait loops (condvar `wait_for(` sites; target 1: the `ExecSlots`
# semaphore), registry re-homing methods (target 0: every component
# takes its registry when it is built) and condvars (target 2: the
# depot's single-flight fill and `ExecSlots` — commits only take a lock).
printf '%-16s %6d\n' "planned-wait loops" "$(matches 'wait_for[(]' crates)"
printf '%-16s %6d\n' "attach_metrics" "$(matches 'fn attach_metrics' crates)"
printf '%-16s %6d\n' "condvars" "$(matches 'Condvar::new[(]' crates)"

# "The catalog at rest in one codec" as a number: `Serialize` /
# `Deserialize` derives anywhere in the workspace's Rust (target 0:
# nothing persists through serde).
printf '%-16s %6d\n' "serde derives" \
    "$(grep -rE --include='*.rs' 'derive\(.*(Serialize|Deserialize)' crates shims src tests examples | wc -l)"

# "Scans feed the operators block by block" as a number: `Batch::concat`
# call sites in non-test crate source (target 4: the join's build side
# and the sort in `eon-exec::execute`, the coordinator's one
# concatenation and mergeout's inputs — no scan concatenates, and an
# Enterprise WOS buffer is one piece).
printf '%-16s %6d\n' "Batch::concat calls" "$(matches 'Batch::concat[(]' crates)"

# "Writes as columns" as a number: non-test lines naming `Vec<Vec<Value>>`
# in eon-columnar, in eon-core's write path and in eon-enterprise
# (target 7: both architectures' `copy_into*` row edges, Enterprise's
# `query` return and `Batch::into_rows` — every stage from the batch to
# the encoder, the WOS included, is typed columns).
printf '%-16s %6d\n' "row-path lines" "$(matches 'Vec<Vec<Value>>' crates/columnar \
    crates/core/src/load.rs crates/core/src/dml.rs crates/core/src/maintenance.rs crates/core/src/provider.rs \
    crates/enterprise)"

# "One task pool" as a number: `thread::scope` sites in non-test crate
# source (target 2: `eon-cluster::pool` and the `elasticity` bench's
# timing harness — both architectures' query participants run on the
# pool, and a batch of ranged reads is concurrent in the store, not in
# threads).
printf '%-16s %6d\n' "thread::scope sites" "$(matches 'thread::scope[(]' crates)"

# "Generated as columns" as a number: `Batch::from_rows` (and
# `from_rows_checked`) call sites in non-test crate source — the row
# edges left between a generator or client and the typed engine.
printf '%-16s %6d\n' "Batch::from_rows sites" "$(matches 'Batch::from_rows' crates)"
