#!/usr/bin/env bash
# Reproduces the ROADMAP "Measured starting point" table with the shipped
# CLIs: a Release build of jsoncdn-analyze and jsoncdn-jlog, the 2M-row
# `jsoncdn-jlog synth` store (seed 42, also converted to v1), and one timed
# run per table row, all at --threads 1 except the last.
#
#   bash perfbench/roadmap_rows.sh
#
# Run from anywhere inside a jsoncdn checkout; builds into .bench_build/tools
# and writes its stores under .bench_work/roadmap (removed at exit).
set -euo pipefail
cd "$(dirname "$0")/.."

build=.bench_build/tools
work=.bench_work/roadmap
trap 'rm -rf "$work"' EXIT

log=.bench_build/tools.log
mkdir -p .bench_build
if ! { cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j 4 --target jsoncdn-analyze jsoncdn-jlog; } \
     >"$log" 2>&1; then
  echo "build failed, see $log" >&2
  exit 1
fi
analyze="$build/tools/jsoncdn-analyze"
jlog="$build/tools/jsoncdn-jlog"

mkdir -p "$work"
"$jlog" synth --records 2000000 --seed 42 --out "$work/synth.jlog" >/dev/null
have_v1=1
"$jlog" convert "$work/synth.jlog" "$work/synth.v1.jlog" --to v1 \
  >/dev/null 2>&1 || have_v1=0

TIMEFORMAT=%R
row() {
  local label=$1
  shift
  local seconds
  seconds=$({ time "$analyze" "$@" >/dev/null 2>&1; } 2>&1)
  printf '%-40s %8s s\n' "$label" "$seconds"
}

if [ "$have_v1" = 1 ]; then
  row "--characterize, v1 in memory" "$work/synth.v1.jlog" --characterize --threads 1
else
  echo "--characterize, v1 in memory             (no v1 writer; row skipped)"
fi
row "--characterize, v2 read_all" "$work/synth.jlog" --characterize --threads 1
row "--periodicity" "$work/synth.jlog" --periodicity --threads 1
row "--ngram" "$work/synth.jlog" --ngram --threads 1
row "--streaming, v2 out-of-core" "$work/synth.jlog" --streaming --threads 1
row "--streaming, v2 out-of-core, 4 threads" "$work/synth.jlog" --streaming --threads 4
