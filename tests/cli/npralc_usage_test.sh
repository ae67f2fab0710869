#!/bin/sh
# npralc's command-line contract, end to end against the built binary:
#
#  * every malformed invocation is bad usage: exit 2 with
#    "error: <flag>: ..." on stderr (never a silent default or an abort);
#  * the well-formed forms of the same invocations exit 0;
#  * alloc, run, verify, batch and serve all give lint_buggy.s (which reads
#    a register before it may be defined) the same use-of-undef verdict;
#  * grid classifies an allocation failure like the other front ends do
#    ("engine <E>: [alloc/infeasible] ...") and degrades a tight budget by
#    spilling instead of failing;
#  * a trace or profile that cannot be written, or a trace that cannot be
#    read, fails with exit 1 and an error (never a success note or an
#    abort), and an input path that names a directory is an I/O error,
#    not empty text;
#  * lint --physical refuses a register index past the ceiling however
#    many digits it has;
#  * no subcommand takes --validate (every job is validated);
#  * a block no path reaches gets an analysis and an allocation, from
#    npralc and from the daemon, which keeps serving.
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
expect_usage --retry-degraded batch "$F" --retry-degraded
grep -q '^error: --retry-degraded: unknown flag$' "$TMP/err" ||
  fail "npralc batch --retry-degraded: not an unknown flag"
for Cmd in analyze alloc run baseline sra lint verify profile batch \
  trace-validate report; do
  expect_usage --validate $Cmd "$F" --validate
done
expect_usage --validate grid s1 --validate
expect_usage --validate serve --socket "$TMP/v" --validate
expect_usage --validate client --socket "$TMP/v" "$F" --validate

expect 0 alloc "$F" -nreg 12
expect 0 alloc "$F" -nreg 0x10
expect 0 run "$F" -iters 3
expect 0 batch "$F" --jobs 2
expect 0 batch "$F" --jobs 0
expect 0 grid s1 --engines 2 -iters 5 --hoplat 1 --credits 2
expect 0 alloc "$F" --allow-spill --max-spills 0
expect 0 verify "$F" --jobs 2 -nreg 16 --allow-spill --max-spills 8 --pgo-static
# The full unsigned 64-bit range parses; the exit is the missing daemon.
expect 1 client --socket "$TMP/none" --health \
  --profile-hash 18446744073709551615

expect 1 grid s1 --engines 2 -nreg 64
grep -q -F '[alloc/infeasible]' "$TMP/err" ||
  fail "npralc grid s1 -nreg 64: no [alloc/infeasible] verdict"
expect 0 grid s1 --engines 4 -nreg 96 --json

# A full disk fails a wall trace as it fails a cycle trace or a profile.
if [ -w /dev/full ]; then
  expect 1 batch "$F" --trace-out /dev/full
  grep -q '^error: failed writing' "$TMP/err" ||
    fail "npralc batch --trace-out /dev/full: no write error"
  expect 1 run "$F" --trace-cycles /dev/full
  expect 1 profile "$F" -o /dev/full
  grep -q '^error: failed writing' "$TMP/err" ||
    fail "npralc profile -o /dev/full: no write error"
fi
# A directory opens but cannot be read: an I/O error naming the path.
expect 1 alloc "$TMP"
grep -q 'io-error' "$TMP/err" ||
  fail "npralc alloc <directory>: no io-error verdict"
# A timestamp that overflows a double is a classified error, not an abort.
printf '[{"ph": "i", "name": "a", "ts": 1e999, "pid": 0, "tid": 0}]' \
  >"$TMP/inf.json"
for Cmd in trace-validate report; do
  expect 1 $Cmd "$TMP/inf.json"
  grep -q 'number out of range at line 1, offset' "$TMP/err" ||
    fail "npralc $Cmd ts 1e999: no classified error"
done

# p4294967296 is 2^32: a 32-bit index would wrap it to p0.
printf '.thread t0\nmain:\n    imm  p4294967296, 1\n    storea 0x100, p4294967296\n    halt\n' \
  >"$TMP/wrap.s"
expect 1 lint "$TMP/wrap.s" --physical
grep -q 'out of range' "$TMP/err" ||
  fail "npralc lint --physical p4294967296: not out of range"

# hash_probe.s with `beq cur, k, hit` and `hit:` swapped leaves a block no
# path reaches; registers co-live only there once aborted the bounds
# estimator (exit 134).
sed -e 's/^    beq  cur, k, hit$/@HIT@/' -e 's/^hit:$/    beq  cur, k, hit/' \
  -e 's/^@HIT@$/hit:/' "$ASM/hash_probe.s" >"$TMP/unreachable.s"
cmp -s "$ASM/hash_probe.s" "$TMP/unreachable.s" &&
  fail "hash_probe.s: the unreachable-block mutant is unchanged"
expect 0 analyze "$TMP/unreachable.s"
for Nreg in 128 16; do
  expect 0 alloc "$TMP/unreachable.s" -nreg $Nreg
done
expect 1 alloc "$TMP/unreachable.s" -nreg 8
grep -q -F '[alloc/infeasible]' "$TMP/err" ||
  fail "npralc alloc unreachable.s -nreg 8: no [alloc/infeasible] verdict"
expect 0 alloc "$TMP/unreachable.s" -nreg 8 --allow-spill

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
expect 0 client --socket "$TMP/sock" "$TMP/unreachable.s"
grep -q 'validated=1' "$TMP/err" ||
  fail "serve unreachable.s: not validated"
expect 0 client --socket "$TMP/sock" --health
grep -q 'state=serving' "$TMP/out" ||
  fail "serve: no health answer after unreachable.s"
kill -TERM $Daemon
wait $Daemon || fail "serve did not drain cleanly"

exit $FAILED
