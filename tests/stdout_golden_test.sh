#!/bin/sh
# Each program's stdout against its committed golden: runs every BIN with
# no arguments in a scratch directory and diffs its stdout against
# GOLDEN_DIR/<basename of BIN>.golden. A program that exits non-zero fails
# the test. Every program runs, so one failure does not hide the others.
# A relative BIN is taken from the current directory.
#
#   sh stdout_golden_test.sh GOLDEN_DIR BIN...           # diff each golden
#   sh stdout_golden_test.sh --update GOLDEN_DIR BIN...  # rewrite them
set -eu
Update=
if [ "$1" = --update ]; then
  Update=1
  shift
fi
GoldenDir=$1
shift
Work=$(mktemp -d)
trap 'rm -rf "$Work"' EXIT

Status=0
for Bin in "$@"; do
  case $Bin in
  /*) ;;
  *) Bin=$PWD/$Bin ;;
  esac
  Name=$(basename "$Bin")
  Code=0
  (cd "$Work" && "$Bin" > "$Work/$Name.out") || Code=$?
  if [ "$Code" -ne 0 ]; then
    echo "$Name: exit $Code" >&2
    Status=1
    continue
  fi
  if [ -n "$Update" ]; then
    cp "$Work/$Name.out" "$GoldenDir/$Name.golden"
  elif ! diff -u "$GoldenDir/$Name.golden" "$Work/$Name.out"; then
    Status=1
  fi
done
exit $Status
