#!/usr/bin/env bash
# Output parity between two `oolong` binaries over the embedded corpus.
#
#   scripts/cli_parity.sh OLD_BINARY NEW_BINARY
#
# Runs `check` (text, --json, --naive, --explain, --json --explain,
# --explain-unknown under the default budget and with --max-instances 20,
# and --modular), `explain --json`,
# `stats` (text and --json), `axioms --json`, `vc`, and `batch --no-cache`
# (--json, and text with --explain and the --events log on stdout) on
# every program `oolong corpus` lists, with
# each binary, and diffs stdout plus the exit code. `vc` prints every
# hypothesis with its fresh names, so it pins VC generation byte for byte.
# `batch` output carries wall-clock timings, so in what is recorded of it
# every `"millis":N` reads `"millis":0` and the summary line's `N ms` reads
# `0 ms`; nothing else is masked. Prints nothing and exits 0 when
# every invocation agrees byte for byte; otherwise prints the diff and
# exits 1.
#
# Every invocation runs pinned to one CPU (`taskset -c 0`). On Linux
# `available_parallelism()` honours the affinity mask, so the engine then
# runs one worker. With more workers, obligations that share a fingerprint
# (corpus:modular_stack's `vinit` and `vgrow`) race for the verdict store,
# and which of them reports `"cache_hit": true` depends on thread timing.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 OLD_BINARY NEW_BINARY" >&2; exit 2; }
old=$1
new=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

variants=(
    "check"
    "check --json"
    "check --naive"
    "check --explain"
    "check --json --explain"
    "check --explain-unknown"
    "check --explain-unknown --max-instances 20"
    "check --modular"
    "explain --json"
    "stats"
    "stats --json"
    "axioms --json"
    "vc"
    "batch --no-cache --json"
    "batch --no-cache --explain --events /dev/stdout"
)

mask() { # mask COMMAND: stdin to stdout, timings masked for `batch`
    if [ "$1" = batch ]; then
        sed -E 's/"millis":[-+0-9.eE]+/"millis":0/g; s/, [0-9.]+ ms$/, 0 ms/'
    else
        cat
    fi
}

record() { # record BINARY DIR
    mkdir -p "$2"
    local name variant cmd rest i=0
    for name in $(taskset -c 0 "$1" corpus | awk '{print $1}'); do
        for variant in "${variants[@]}"; do
            read -r cmd rest <<< "$variant"
            i=$((i + 1))
            {
                echo "== oolong $cmd corpus:$name $rest"
                # shellcheck disable=SC2086 # $rest is a flag list
                taskset -c 0 "$1" "$cmd" "corpus:$name" $rest 2>/dev/null | mask "$cmd" \
                    && code=0 || code=$?
                echo "== exit $code"
            } > "$2/$(printf '%03d' "$i")"
        done
    done
}

record "$old" "$out/old"
record "$new" "$out/new"
diff -r "$out/old" "$out/new"
