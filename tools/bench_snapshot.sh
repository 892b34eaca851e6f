#!/usr/bin/env bash
# Writes a stable-schema benchmark snapshot (BENCH_<date>.json at the
# repo root) from the google-benchmark microbenchmarks, so perf
# regressions show up as a diff between two checked-in snapshots.
#
# Usage: tools/bench_snapshot.sh [build-dir] [out-file]
#   build-dir  defaults to "build" (bench binaries in <build-dir>/bench)
#   out-file   defaults to BENCH_$(date -u +%Y%m%d).json at the repo root
#
# Schema (gbis-bench-snapshot-v1): one object per benchmark case with
# real/cpu time in nanoseconds plus the machine context of the run.
# Fields are append-only; consumers must ignore unknown keys.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_file="${2:-$repo_root/BENCH_$(date -u +%Y%m%d).json}"
bench_dir="$build_dir/bench"

command -v jq >/dev/null || { echo "bench_snapshot: jq not found" >&2; exit 1; }
[ -d "$bench_dir" ] || {
  echo "bench_snapshot: $bench_dir missing — build with GBIS_BUILD_BENCH=ON" >&2
  exit 1
}

# The microbenchmarks only: table reproducers take minutes and print
# human-layout tables, not machine-readable timings.
micro_benches=(micro_kl micro_sa micro_compaction micro_gen micro_obs)

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

for name in "${micro_benches[@]}"; do
  bin="$bench_dir/$name"
  [ -x "$bin" ] || { echo "bench_snapshot: $bin missing" >&2; exit 1; }
  echo "bench_snapshot: running $name" >&2
  "$bin" --benchmark_format=json \
         --benchmark_min_time=0.1 \
         >"$tmp_dir/$name.json" \
    || { echo "bench_snapshot: $name failed" >&2; exit 1; }
done

# Merge: context from the first run, one flat entry per benchmark case.
jq -s \
  --arg schema "gbis-bench-snapshot-v1" \
  --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --arg commit "$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  '{
    schema: $schema,
    date: $date,
    commit: $commit,
    context: (.[0].context | {
      host_name, num_cpus, mhz_per_cpu,
      cpu_scaling_enabled, library_build_type
    }),
    benchmarks: [ .[] | .benchmarks[] | {
      name, iterations,
      real_time_ns: (if .time_unit == "ms" then .real_time * 1e6
                     elif .time_unit == "us" then .real_time * 1e3
                     else .real_time end),
      cpu_time_ns:  (if .time_unit == "ms" then .cpu_time * 1e6
                     elif .time_unit == "us" then .cpu_time * 1e3
                     else .cpu_time end)
    } ]
  }' "$tmp_dir"/*.json >"$out_file"

echo "bench_snapshot: wrote $out_file ($(jq '.benchmarks | length' "$out_file") cases)" >&2
