#!/bin/sh
# Non-test, non-comment, non-blank lines per crate ("PR 15's awk"):
# every `crates/<c>/src/**/*.rs`, each file counted up to its first
# top-level `#[cfg(test)]`, skipping blank lines and lines that start
# with `//`. Then the public-field counts of the two config structs.
# Run from anywhere; takes an optional repo root (default: this repo).
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

total=0
for dir in crates/*/; do
    n=$(find "$dir/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        t { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%-16s %6d\n' "eon-$(basename "$dir")" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"

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
# source (target 4: MemFs, S3SimFs, RetryFs, FileCache) and retry-loop
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
# semaphore — group commit has no timer) and registry re-homing methods
# (target 0: every component takes its registry when it is built).
printf '%-16s %6d\n' "planned-wait loops" "$(matches 'wait_for[(]' crates)"
printf '%-16s %6d\n' "attach_metrics" "$(matches 'fn attach_metrics' crates)"
