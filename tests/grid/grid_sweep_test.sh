#!/bin/sh
# The 144-config `npralc grid --json` sweep against its golden: scenarios
# s1/s2/s3/mixed x placements roundrobin/bounds/search x 1/2/4/16 engines
# x -nreg 128/96/64, infeasible configs included. One golden line per
# config: the config, its exit code and the first 16 hex digits of the
# SHA-256 of its stdout and of its stderr. The configs run four at a time.
#
#   sh grid_sweep_test.sh NPRALC GOLDEN           # diff the sweep against GOLDEN
#   sh grid_sweep_test.sh NPRALC GOLDEN --update  # rewrite GOLDEN
set -eu
Npralc=$1
Golden=$2
Work=$(mktemp -d)
trap 'rm -rf "$Work"' EXIT

for S in s1 s2 s3 mixed; do
  for P in roundrobin bounds search; do
    for E in 1 2 4 16; do
      for N in 128 96 64; do
        echo "$S $P $E $N"
      done
    done
  done
done > "$Work/configs"

# Each config writes its stdout, stderr and exit code under $Work.
xargs -P 4 -L 1 sh -c '
  Out="$1/$2.$3.$4.$5"
  Code=0
  "$0" grid "$2" --placement "$3" --engines "$4" -nreg "$5" --json \
    > "$Out.out" 2> "$Out.err" || Code=$?
  echo "$Code" > "$Out.code"
' "$Npralc" "$Work" < "$Work/configs"

hash16() { sha256sum < "$1" | cut -c1-16; }
while read -r S P E N; do
  F="$Work/$S.$P.$E.$N"
  echo "$S $P $E $N exit=$(cat "$F.code") stdout=$(hash16 "$F.out")" \
    "stderr=$(hash16 "$F.err")"
done < "$Work/configs" > "$Work/sweep"

if [ "${3:-}" = --update ]; then
  cp "$Work/sweep" "$Golden"
  exit 0
fi
diff -u "$Golden" "$Work/sweep"
