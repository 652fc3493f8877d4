#!/usr/bin/env bash
#===-- scripts/flag_errors_smoke.sh - Driver flag-error exit codes ---------===#
#
# Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
#
# Runs the driver on malformed and conflicting invocations and checks each
# one's exact exit status (2 for a flag error, 1 for an unknown corpus),
# that it printed an `error:` line, and that it did not abort (no
# "terminate called" on stderr).  The ctest flag-conflict smokes match
# stderr text only; this script is what pins the exit codes.
#
# Usage: scripts/flag_errors_smoke.sh <path-to-stcfa> <program.stml>
#
#===------------------------------------------------------------------------===#

set -u

STCFA=$1
INPUT=$2
BIG=99999999999999999999 # overflows every integer type
FAILED=0

expect() {
  local want=$1
  shift
  local err rc
  err=$("$STCFA" "$@" 2>&1 >/dev/null </dev/null)
  rc=$?
  if [[ $rc -ne $want ]]; then
    echo "FAIL: stcfa $* exited $rc, want $want: $err"
    FAILED=1
  elif [[ $err == *"terminate called"* ]]; then
    echo "FAIL: stcfa $* aborted: $err"
    FAILED=1
  elif [[ $err != *"error:"* ]]; then
    echo "FAIL: stcfa $* printed no error line: $err"
    FAILED=1
  fi
}

# Malformed corpus suffixes are unknown corpora (input error).
expect 1 --corpus=cubic:x
expect 1 --corpus=lexgen:abc
expect 1 --corpus=joinpoint:q
expect 1 --corpus=random:zz
expect 1 --corpus=cubic:$BIG
expect 1 --corpus=wide:$BIG

# Malformed or out-of-range numeric flag values (usage error).
expect 2 --corpus=life --query=klimited:x
expect 2 --corpus=life --query=klimited:$BIG
expect 2 "$INPUT" --slice=expr@$BIG:1
expect 2 "$INPUT" --slice=expr@1:
expect 2 --corpus=life --timeout-ms=
expect 2 --corpus=life --timeout-ms=$BIG
expect 2 --corpus=life --close-budget=$BIG
expect 2 --corpus=life --close-budget=0
expect 2 --corpus=life --kernel-threshold=$BIG
expect 2 --corpus=life --kernel-threshold=-1
expect 2 --corpus=life --kernel-chunk-rows=4294967296
expect 2 --corpus=life --threads=abc
expect 2 --corpus=life --threads=$BIG
expect 2 --serve --serve-max-cost=0
expect 2 --serve --serve-max-request-mb=17592186044416
expect 2 --corpus=life --snapshot-cache-max-mb=17592186044416

# Flag conflicts.
expect 2 --load-snapshot=/nonexistent.snap --close-budget=10
expect 2 --snapshot-cache --analysis=hybrid --degrade=standard
expect 2 --snapshot-cache --lint "$INPUT"
expect 2 --load-snapshot=/nonexistent.snap --lint
expect 2 --serve --dce
expect 2 --serve --query=labels
expect 2 "$INPUT" --slice=expr@2:1 --lint
expect 2 "$INPUT" --dce --export-deps=dot
expect 2 --gen-shape=wide:0

if [[ $FAILED -ne 0 ]]; then
  exit 1
fi
echo "flag-errors-smoke: ok"
