#!/usr/bin/env bash
# Runs every skute_bench workload REPS times through run.py, alternating the
# workload order between reps, then one traced pass.
#
#   bench/skute_bench/run_all.sh [REPS] [OUT_DIR]
#
# Run from the repository root. Rep r uses seed r. Results land in
# OUT_DIR (default bench/skute_bench/results/<commit>) as
# <workload>-<rep>.json, the binary's full result with host metadata. The
# traced pass writes trace/<workload>.json (per-layer metrics) and
# trace/<workload>.selftime.txt (self-time rows of its Chrome trace).
set -euo pipefail

reps=${1:-10}
commit=$(git describe --always --dirty 2>/dev/null || echo unknown)
out=${2:-bench/skute_bench/results/$commit}
build=${CARGO_TARGET_DIR:-.bench_build}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=($(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'))
mkdir -p "$out/trace"

run() {  # workload seed trace
  python3 bench/skute_bench/run.py --workload "$1" --seed "$2" \
    --seconds "$seconds" --trace "$3" | tail -n 1
}

for rep in $(seq 1 "$reps"); do
  order=("${workloads[@]}")
  if (( rep % 2 == 0 )); then
    order=($(printf '%s\n' "${workloads[@]}" | tac))
  fi
  for w in "${order[@]}"; do
    echo "rep $rep: $w" >&2
    run "$w" "$rep" 0 > /dev/null
    cp "$build/runs/$w-$rep.json" "$out/$w-$rep.json"
  done
done

for w in "${workloads[@]}"; do
  echo "traced: $w" >&2
  run "$w" 1 1 > "$out/trace/$w.json"
  python3 bench/skute_bench/selftime.py "$build/runs/$w-1.trace.json" \
    > "$out/trace/$w.selftime.txt"
done
