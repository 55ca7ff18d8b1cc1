#!/usr/bin/env bash
# The shipped runs the dead-code census counts (tools/census.py): every
# bench binary (the short --smoke form where one exists), the examples, the
# quickstart and fig12 with every export flag, fig17 with --profile-out, and
# perf_scenarios on the OpenWhisk day at both trace levels. No test runs, so
# a function only a unit test calls stays at zero.
#
#   cmake --preset coverage && cmake --build --preset coverage -j4
#   cmake -S perfbench -B build/coverage-perfbench -DCMAKE_BUILD_TYPE=Debug \
#       -DCMAKE_CXX_FLAGS="-O0 --coverage" -DCMAKE_EXE_LINKER_FLAGS=--coverage
#   cmake --build build/coverage-perfbench --target perf_scenarios -j4
#   cmake --preset coverage-inline && cmake --build --preset coverage-inline
#   tools/census_runs.sh build/coverage build/coverage-perfbench
#   python3 tools/census.py build/coverage build/coverage-perfbench \
#       --inline-tree build/coverage-inline
#
# Output files land in a fresh temporary directory. The runs are
# independent (each writes its own output files, and libgcov merges the
# .gcda counters under a file lock), so up to `nproc` of them run at once;
# every run is kept, and the script fails if any run fails, after printing
# the failed commands and their stderr. About 5 minutes on 4 vCPUs: every
# bench profiles the platform in memory, at -O0, on each run.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 COVERAGE_BUILD PERFBENCH_COVERAGE_BUILD" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tree=$(cd "$1" && pwd)
perf_tree=$(cd "$2" && pwd)
bench=$tree/bench
examples=$tree/examples
perf=$perf_tree/perf_scenarios
# Only the runs below may count. The build's gtest_discover_tests runs
# `amoeba_tests --gtest_list_tests` after each link, and that start-up
# writes .gcda counters too (amoeba::set_contract_handler among them), so
# an already-built tree holds counters no shipped run made: delete them.
find "$tree" "$perf_tree" -name '*.gcda' -delete
work=$(mktemp -d)
cd "$work"
echo "census runs in $work"

max_jobs=$(nproc)
n=0
run() {
  while (( $(jobs -rp | wc -l) >= max_jobs )); do wait -n || true; done
  n=$((n + 1))
  echo "== [$n] $*"
  printf '%s\n' "$*" > "run$n.cmd"
  { if "$@" > /dev/null 2> "run$n.err"; then echo 0; else echo $?; fi \
      > "run$n.status"; } &
}

export_flags() {
  echo --trace-out "$1_trace.json" --metrics-out "$1_metrics.jsonl" \
    --audit-out "$1_audit.jsonl" --summary-out "$1_summary.txt" \
    --profile-out "$1_profile.jsonl"
}

for b in fig02_iaas_utilization fig03_peak_load fig04_latency_breakdown \
         fig08_meter_curves fig09_latency_surfaces fig10_qos_cdf \
         fig11_resource_usage fig13_usage_timeline fig14_nom_resource_usage \
         fig15_discriminant_error fig16_nop_qos_violation tab03_sensitivity \
         tab_overhead_meters abl_anticipation abl_prewarm_headroom \
         abl_sample_period abl_switch_margins; do
  run "$bench/$b"
done
# shellcheck disable=SC2046  # export_flags is a word list on purpose
run "$bench/fig12_switch_timeline" $(export_flags fig12)
run "$bench/fig17_cluster_scale" --smoke --jobs 2 --json-out fig17.json \
  --profile-out fig17_profile.jsonl
run "$bench/fig18_callgraph_qos" --smoke --jobs 2 --json-out fig18.json
run "$bench/abl_fault_tolerance" --smoke --jobs 2
run "$bench/micro_simulator" --events 20000 --repeats 1 \
  --json-out micro_simulator.json
# Merge into a copy of the committed file: the merge is what parses it.
cp "$root/BENCH_simulator.json" bench_simulator.json
run "$bench/tab_overhead_profiler" --period-s 360 --repeats 1 \
  --max-overhead-pct 1000 --json-out bench_simulator.json

# shellcheck disable=SC2046
run "$examples/quickstart" $(export_flags quickstart)
run "$examples/diurnal_day"
run "$examples/capacity_planner"
run "$examples/contention_probe"

for trace in 0 1; do
  run "$perf" --workload openwhisk_day --seed 3 --seconds 1 --trace "$trace"
done

wait
failed=0
for ((i = 1; i <= n; ++i)); do
  if [[ "$(cat "run$i.status")" != 0 ]]; then
    failed=1
    echo "FAILED (exit $(cat "run$i.status")): $(cat "run$i.cmd")" >&2
    cat "run$i.err" >&2
  fi
done
exit "$failed"
