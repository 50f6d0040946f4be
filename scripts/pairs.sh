#!/usr/bin/env bash
# Paired host timing of the benchmark: this checkout against a parent.
#
#   scripts/pairs.sh [--pairs N] [--moves-sim] <parent-rev> [workload…]
#
# Clones <parent-rev> into target/pairs/parent, builds the `benchmark`
# binary of both checkouts once (`--locked`, into target/pairs/), then
# runs N alternating pairs (default 5) of every named workload (default:
# the four of BENCHMARK.json) at seeds 42 and 7, the parent first on odd
# pairs. A pair is one parent run and one run of this checkout at each
# seed, `--seconds` as BENCHMARK.json's `run_seconds`, untraced.
#
# For every end-to-end metric it prints both medians (over all runs of a
# side), the median of the pair ratios (this checkout / parent, each
# pair's two seeds summed), how many pairs this checkout won, and the
# worst and best pair ratio. It fails if a run is not `correct`, or if
# any pair's `sim_*` differ between the sides, unless `--moves-sim` is
# given (a change that moves virtual time on purpose).
#
# Writes only under target/pairs/ (the runs are kept in runs.jsonl, the
# children's stderr in logs/). Needs git, cargo and jq. Run it from
# anywhere inside the checkout.
set -euo pipefail
usage="usage: scripts/pairs.sh [--pairs N] [--moves-sim] <parent-rev> [workload…]"

pairs=5
moves_sim=0
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --moves-sim) moves_sim=1; shift ;;
        -h|--help) echo "$usage"; exit 0 ;;
        *) args+=("$1"); shift ;;
    esac
done
if [ ${#args[@]} -lt 1 ]; then
    echo "$usage" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "${args[0]}^{commit}")
workloads=("${args[@]:1}")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

out="$root/target/pairs"
parent="$out/parent"
mkdir -p "$out/logs"
if [ ! -d "$parent/.git" ]; then
    git clone --quiet --shared --no-checkout "$root" "$parent"
fi
git -C "$parent" checkout --quiet --detach "$rev"

build() { # <checkout> <target dir>
    CARGO_TARGET_DIR="$2" cargo build --release --quiet --locked \
        --manifest-path "$1/benchmark/Cargo.toml"
}
echo "building the parent ($rev) and this checkout" >&2
build "$parent" "$out/build-parent"
build "$root" "$out/build-change"

runs="$out/runs.jsonl"
: > "$runs"
run() { # <side> <pair> <workload> <seed>
    local dir=$root line
    [ "$1" = change ] || dir=$parent
    # The last line of standard output is the run's JSON object.
    line=$(cd "$dir" && "$out/build-$1/release/flock-benchmark" --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace 0 2>> "$out/logs/$1-$3-$4.log") || true
    line=${line##*$'\n'}
    jq -c --arg side "$1" --argjson pair "$2" --arg workload "$3" --argjson seed "$4" \
        '{side: $side, pair: $pair, workload: $workload, seed: $seed} + .' \
        <<< "${line:-"{\"correct\": false, \"metrics\": {}}"}" >> "$runs"
}
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2 == 1)); then order=(parent change); else order=(change parent); fi
    for w in "${workloads[@]}"; do
        for seed in 42 7; do
            echo "pair $p/$pairs: $w seed $seed" >&2
            for side in "${order[@]}"; do run "$side" "$p" "$w" "$seed"; done
        done
    done
done

# One row per workload and metric; a list of problems last.
jq -rs --slurpfile manifest BENCHMARK.json --argjson moves_sim "$moves_sim" '
    def median: sort | if length == 0 then null
        elif length % 2 == 1 then .[length / 2 | floor]
        else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    def r3: if . == null then null else . * 1000 | round / 1000 end;
    . as $runs
    | [$manifest[0].end_to_end[] | {name, better}] as $metrics
    | ([$runs[] | select(.correct != true)
        | "\(.side) \(.workload) seed \(.seed) pair \(.pair): not correct"]
      + [$runs | group_by([.workload, .seed, .pair])[]
        | select(length == 2 and $moves_sim == 0)
        | . as [$a, $b]
        | [$a.metrics | keys[] | select(startswith("sim_"))
            | select($a.metrics[.].value != $b.metrics[.].value)] as $moved
        | select($moved | length > 0)
        | "\($a.workload) seed \($a.seed) pair \($a.pair): \($moved | join(", ")) differ"]) as $problems
    | ($runs | group_by(.workload)[] | . as $w
        | $metrics[] | . as $m
        | [$w[] | select(.side == "parent") | .metrics[$m.name].value | numbers] as $p
        | [$w[] | select(.side == "change") | .metrics[$m.name].value | numbers] as $c
        | [$w | group_by(.pair)[]
            | ([.[] | select(.side == "change") | .metrics[$m.name].value | numbers] | add // 0) as $cs
            | ([.[] | select(.side == "parent") | .metrics[$m.name].value | numbers] | add // 0) as $ps
            | if $ps == 0 then 1 else $cs / $ps end] as $ratios
        | def gain: if $m.better == "higher" then . else -. end;
        [$w[0].workload, $m.name, ($p | median | r3), ($c | median | r3),
           ($ratios | median | r3),
           "\($ratios | map(select(gain > (1 | gain))) | length)/\($ratios | length)",
           ($ratios | min_by(gain) | r3), ($ratios | max_by(gain) | r3)]
        | map(. // "-") | @tsv),
      ($problems[] | "PROBLEM\t\(.)")
' "$runs" > "$out/summary.tsv"

printf '%-20s %-14s %12s %12s %8s %6s %8s %8s\n' \
    workload metric parent change ratio wins worst best
status=0
while IFS=$'\t' read -r a b c d e f g h; do
    if [ "$a" = PROBLEM ]; then
        echo "FAIL: $b" >&2
        status=1
        continue
    fi
    printf '%-20s %-14s %12s %12s %8s %6s %8s %8s\n' "$a" "$b" "$c" "$d" "$e" "$f" "$g" "$h"
done < "$out/summary.tsv"
exit $status
