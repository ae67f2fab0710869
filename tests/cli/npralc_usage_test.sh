#!/bin/sh
# npralc's command-line contract, end to end against the built binary:
#
#  * every malformed invocation is bad usage: exit 2 with
#    "error: <flag>: ..." on stderr (never a silent default or an abort);
#  * the well-formed forms of the same invocations exit 0;
#  * alloc, run, verify, batch and serve all give lint_buggy.s (which reads
#    a register before it may be defined) the same use-of-undef verdict.
#
# usage: npralc_usage_test.sh <path/to/npralc> <examples/asm directory>
set -u
NPRALC=$1
ASM=$2
F=$ASM/two_threads.s
BUGGY=$ASM/lint_buggy.s
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
FAILED=0

fail() {
  echo "FAIL: $*"
  FAILED=1
}

# expect <status> <npralc args...>: run npralc and check its exit status.
# The time limit turns a form that wrongly starts a daemon into a failure.
expect() {
  Want=$1
  shift
  timeout 60 "$NPRALC" "$@" >"$TMP/out" 2>"$TMP/err"
  Got=$?
  [ "$Got" -eq "$Want" ] || fail "npralc $* exited $Got, want $Want"
}

# expect_usage <flag> <npralc args...>: exit 2 naming the offending flag.
expect_usage() {
  Flag=$1
  shift
  expect 2 "$@"
  grep -q -e "^error: $Flag: " "$TMP/err" ||
    fail "npralc $* did not report 'error: $Flag: ...'"
}

expect_usage -nreg alloc "$F" -nreg abc
expect_usage -nreg alloc "$F" -nreg 0
expect_usage -nreg alloc "$F" -nreg 12x
expect_usage -iters run "$F" -iters -3
expect_usage --jobs batch "$F" --jobs abc
expect_usage --hoplat grid s1 --hoplat 0
expect_usage --credits grid s1 --credits abc
expect_usage --engines grid s1 --engines 17
expect_usage --max-spills alloc "$F" --allow-spill --max-spills -1
expect_usage --bogus alloc "$F" --bogus
expect_usage -nreg alloc "$F" -nreg
expect_usage --max-request-bytes serve --socket "$TMP/s" --max-request-bytes 0
expect_usage --profile-hash client --socket "$TMP/s" --health --profile-hash -1

expect 0 alloc "$F" -nreg 12
expect 0 alloc "$F" -nreg 0x10
expect 0 run "$F" -iters 3
expect 0 batch "$F" --jobs 2
expect 0 batch "$F" --jobs 0
expect 0 grid s1 --engines 2 -iters 5 --hoplat 1 --credits 2
expect 0 alloc "$F" --allow-spill --max-spills 0
# The full unsigned 64-bit range parses; the exit is the missing daemon.
expect 1 client --socket "$TMP/none" --health \
  --profile-hash 18446744073709551615

# One verdict for lint_buggy.s from every front end that allocates.
for Cmd in alloc run verify batch; do
  expect 1 $Cmd "$BUGGY"
  grep -q use-of-undef "$TMP/out" "$TMP/err" ||
    fail "npralc $Cmd lint_buggy.s: no use-of-undef verdict"
done

"$NPRALC" serve --socket "$TMP/sock" --workers 1 2>"$TMP/serve.err" &
Daemon=$!
Tries=0
while [ ! -S "$TMP/sock" ] && [ $Tries -lt 100 ]; do
  sleep 0.05
  Tries=$((Tries + 1))
done
expect 1 client --socket "$TMP/sock" "$BUGGY"
grep -q use-of-undef "$TMP/err" ||
  fail "serve lint_buggy.s: no use-of-undef verdict"
kill -TERM $Daemon
wait $Daemon || fail "serve did not drain cleanly"

exit $FAILED
