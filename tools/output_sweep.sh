#!/usr/bin/env bash
# output_sweep.sh — run every bench and example at the CI sizes and collect
# their deterministic outputs in one directory, so that a refactor is
# proven by comparing two sweeps:
#
#   tools/output_sweep.sh build-before sweep-before
#   tools/output_sweep.sh build-after  sweep-after
#   diff -r sweep-before sweep-after
#
# BUILD_DIR is a configured and built tree of this repository (Release is
# what CI uses; any build type gives the same bytes). OUT_DIR is created and
# receives, per run, `<run>.stdout` and, for benches, `<run>.json` and
# `<run>.trace.json`. The matrix benches run at --jobs=1 and --jobs=4.
#
# Wall-clock figures are left out: micro_codecs keeps only its exact
# allocs_per_op counts (micro_codecs.allocs.json; the timings and the
# calibrated iteration counts are dropped), obs_overhead contributes only
# its --digest document, and micro_simcore, whose every figure is a timing,
# is not run. Every output is written under a relative name from inside
# OUT_DIR, so the "wrote <path>" lines match between two sweeps.
#
# Exits non-zero if any run exits non-zero; the failed runs are listed.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" || exit 2
cd "$2" || exit 2

failed=()

# run NAME BINARY ARGS...: stdout and stderr to NAME.stdout.
run() {
  local name=$1
  shift
  if ! "$@" > "$name.stdout" 2>&1; then
    failed+=("$name")
  fi
}

# bench NAME BINARY ARGS...: a bench run with --json and --trace.
bench() {
  local name=$1 binary=$2
  shift 2
  run "$name" "$build/bench/$binary" "$@" \
    --json="$name.json" --trace="$name.trace.json"
}

bench fig1_queries_per_page fig1_queries_per_page
bench fig2_hol_blocking fig2_hol_blocking --queries=100
bench fig3_bytes_per_resolution fig3_bytes_per_resolution --names=100
bench fig4_packets_per_resolution fig4_packets_per_resolution
bench fig5_overhead_breakdown fig5_overhead_breakdown --names=100
bench fig6_page_load fig6_page_load --pages=10 --planetlab-nodes=4 \
  --planetlab-pages=2 --jobs=1
bench table1_landscape table1_landscape
bench table2_features table2_features
bench ablation_client_policies ablation_client_policies
bench ablation_hpack ablation_hpack
bench ablation_tls ablation_tls
bench ablation_transport ablation_transport
bench ext_doq_comparison ext_doq_comparison
for jobs in 1 4; do
  bench "chaos_matrix.j$jobs" chaos_matrix --queries=60 --jobs=$jobs
  bench "availability_matrix.j$jobs" availability_matrix --jobs=$jobs
  bench "overload_matrix.j$jobs" overload_matrix --jobs=$jobs
  bench "mobility_matrix.j$jobs" mobility_matrix --jobs=$jobs
done

# Wall-clock benches: only their deterministic fields.
if run micro_codecs "$build/bench/micro_codecs" --json=micro_codecs.raw.json
then
  python3 - micro_codecs.raw.json micro_codecs.allocs.json <<'EOF' ||
import json, sys
doc = json.load(open(sys.argv[1]))
allocs = {name: fields["allocs_per_op"]
          for name, fields in doc["scenarios"].items()}
with open(sys.argv[2], "w") as out:
    json.dump(allocs, out, indent=2, sort_keys=True)
    out.write("\n")
EOF
    failed+=("micro_codecs (allocs_per_op)")
fi
rm -f micro_codecs.stdout micro_codecs.raw.json
run obs_overhead "$build/bench/obs_overhead" --jobs=1 --no-gate \
  --digest=obs_overhead.digest.json
rm -f obs_overhead.stdout

examples=(quickstart hol_blocking_demo resolver_survey page_load_study
          overhead_audit doq_quickstart chaos_recovery)
for example in "${examples[@]}"; do
  run "$example" "$build/examples/$example"
done
run trace_a_resolution "$build/examples/trace_a_resolution" \
  trace_a_resolution.trace.json

for transport in udp tcp dot doh doh1 doq; do
  run "dohdig.$transport" "$build/examples/dohdig" x.example \
    --transport "$transport" --trace
done
run dohdig.doh.fresh "$build/examples/dohdig" --transport doh --fresh
run dohdig.doh1.go.fresh "$build/examples/dohdig" www.example.com \
  --transport doh1 --provider GO --fresh

if [ ${#failed[@]} -ne 0 ]; then
  echo "output_sweep: ${#failed[@]} run(s) failed: ${failed[*]}" >&2
  exit 1
fi
echo "output_sweep: all runs passed; outputs in $(pwd)"
