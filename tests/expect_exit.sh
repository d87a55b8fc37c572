#!/bin/sh
# CLI failure check: runs COMMAND and passes only when it exits with exactly
# STATUS (a crash, which the shell reports as 128 + signal, never does) and
# its stderr contains MESSAGE.
#
#   expect_exit.sh STATUS MESSAGE COMMAND [ARG...]
set -u
status=$1
message=$2
shift 2
err=$("$@" 2>&1 >/dev/null)
got=$?
printf '%s\n' "$err"
if [ "$got" -ne "$status" ]; then
  echo "expect_exit: exit status $got, want $status: $*" >&2
  exit 1
fi
case $err in
  *"$message"*) ;;
  *)
    echo "expect_exit: stderr lacks: $message" >&2
    exit 1
    ;;
esac
