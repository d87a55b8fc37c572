#!/bin/sh
# Golden-report check: runs one shipped entry point in the current directory,
# saves its stdout to OUTPUT and diffs it against the committed FIXTURE.
#
#   check.sh FIXTURE OUTPUT COMMAND [ARG...]
#
# Fails when COMMAND exits non-zero or when its stdout differs from FIXTURE;
# the unified diff shows every changed line. tests/golden/CMakeLists.txt
# describes the suite and how to re-pin the fixtures.
set -u
fixture=$1
output=$2
shift 2
mkdir -p "$(dirname "$output")"
if ! "$@" > "$output"; then
  echo "golden: command failed: $*" >&2
  exit 1
fi
diff -u "$fixture" "$output"
