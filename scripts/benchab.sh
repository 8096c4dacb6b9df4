#!/usr/bin/env bash
# benchab.sh — interleaved A/B of the repository benchmark
# (verdictbench, see BENCHMARK.json) between two git revisions.
#
#   bash scripts/benchab.sh BASE NEW [PAIRS [SECONDS [SEED [WORKLOAD...]]]]
#
# BASE and NEW are git revisions; "." names the current checkout as it
# is, uncommitted changes included. Every other revision is checked out
# with `git worktree` under a temporary directory ($TMPDIR, removed on
# exit), and each side runs `bash verdictbench/run.sh` in its own tree,
# so it benchmarks its own source; the first run on a side builds
# verdictbench and the rest reuse that build.
#
# For each workload (default: corpus guest-loops event-storm) the
# script runs PAIRS pairs (default 10) of SECONDS-long runs (default
# 20, BENCHMARK.json's run_seconds) on input seed SEED (default 1),
# alternating which side runs first. It then prints, for every
# end-to-end metric, each side's median and quartiles, the change of
# the medians, and how many pairs NEW won (by the metric's "better"
# direction in BENCHMARK.json). Any run whose verdicts were not all
# correct, or that failed verdicts, is reported and makes the exit
# status 1.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
base=$1 new=$2
pairs=${3:-10}
seconds=${4:-20}
seed=${5:-1}
shift $(( $# < 5 ? $# : 5 ))
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    workloads=(corpus guest-loops event-storm)
fi

repo=$(git rev-parse --show-toplevel)
cd "$repo"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchab.XXXXXX")
trees=()
cleanup() {
    for t in ${trees[@]+"${trees[@]}"}; do
        git -C "$repo" worktree remove --force "$t" >/dev/null 2>&1 || true
    done
    git -C "$repo" worktree prune >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT

# checkout sets dir to the directory a side runs in.
checkout() {
    local rev=$1 name=$2
    if [ "$rev" = "." ]; then
        dir=$repo
        return
    fi
    dir="$tmp/$name"
    git -C "$repo" worktree add --detach --quiet "$dir" "$rev"
    trees+=("$dir")
}
checkout "$base" base
dirA=$dir
checkout "$new" new
dirB=$dir
echo "benchab: base $base ($dirA), new $new ($dirB)"
echo "benchab: $pairs pairs x ${seconds}s, seed $seed, workloads ${workloads[*]}"

# The metrics, in BENCHMARK.json order, as "name better" lines.
directions=$(sed -n 's/.*"name": *"\([^"]*\)",.*"better": *"\([a-z]*\)".*"bound".*/\1 \2/p' "$repo/BENCHMARK.json")

status=0
# runside appends one run's metrics to $tmp/<side>-<workload> as
# "pair metric value" lines.
runside() {
    local side=$1 dir=$2 workload=$3 pair=$4 line
    line=$(cd "$dir" && bash verdictbench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1) || true
    case $line in
    '{"correct":true,'*'"failed":0,'*) ;;
    *)
        echo "benchab: $side $workload pair $pair: incorrect or failed run: $line" >&2
        status=1
        ;;
    esac
    echo "$line" | grep -o '"[a-z_.0-9]*":{"value":[-+0-9.eE]*' |
        sed 's/"\([^"]*\)":{"value":\(.*\)/\1 \2/' |
        sed "s/^/$pair /" >>"$tmp/$side-$workload" || true
}

for w in "${workloads[@]}"; do
    : >"$tmp/base-$w"
    : >"$tmp/new-$w"
    for p in $(seq 1 "$pairs"); do
        if [ $((p % 2)) -eq 1 ]; then
            runside base "$dirA" "$w" "$p"
            runside new "$dirB" "$w" "$p"
        else
            runside new "$dirB" "$w" "$p"
            runside base "$dirA" "$w" "$p"
        fi
        echo "benchab: $w pair $p/$pairs done"
    done
done

for w in "${workloads[@]}"; do
    echo
    echo "== $w ($pairs pairs, ${seconds}s, seed $seed)"
    printf '%-20s %-32s %-32s %8s %6s\n' metric "base median [q1 q3]" "new median [q1 q3]" change "wins"
    echo "$directions" | while read -r m better; do
        awk -v m="$m" -v better="$better" -v pairs="$pairs" '
            function quant(v, n, q,    pos, lo) {
                pos = (n - 1) * q + 1
                lo = int(pos)
                if (lo >= n) return v[n]
                return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
            }
            function sort(v, n,    i, j, x) {
                for (i = 2; i <= n; i++) {
                    x = v[i]
                    for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                    v[j + 1] = x
                }
            }
            $2 == m {
                if (FILENAME == ARGV[1]) { a[$1] = $3; av[++na] = $3 }
                else { b[$1] = $3; bv[++nb] = $3 }
            }
            END {
                if (na == 0 || nb == 0) exit
                wins = 0
                for (p in a) if (p in b) {
                    if ((better == "higher" && b[p] > a[p]) || (better == "lower" && b[p] < a[p])) wins++
                }
                sort(av, na); sort(bv, nb)
                ma = quant(av, na, 0.5); mb = quant(bv, nb, 0.5)
                change = ma == 0 ? 0 : (mb - ma) / ma * 100
                printf "%-20s %-32s %-32s %+7.1f%% %3d/%d\n", m,
                    sprintf("%.5g [%.5g %.5g]", ma, quant(av, na, 0.25), quant(av, na, 0.75)),
                    sprintf("%.5g [%.5g %.5g]", mb, quant(bv, nb, 0.25), quant(bv, nb, 0.75)),
                    change, wins, pairs
            }' "$tmp/base-$w" "$tmp/new-$w"
    done
done
exit $status
