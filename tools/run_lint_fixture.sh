#!/bin/sh
# Smoke-checks `karousos check` against the checked-in known-bad advice
# fixture, read as one epoch: the run must exit nonzero and report both
# planted rule IDs (KAR-ADV-003 dangling prec, KAR-ADV-010 write-order cycle).
#
#   usage: run_lint_fixture.sh <karousos-binary> <fixture-dir>
set -u

bin="$1"
fixtures="$2"

out="$("$bin" check --trace "$fixtures/lint_bad.trace" --advice "$fixtures/lint_bad.advice" \
    --epoch-size 0)"
status=$?
printf '%s\n' "$out"

if [ "$status" -eq 0 ]; then
  echo "FAIL: check exited 0 on a known-bad fixture" >&2
  exit 1
fi
for rule in KAR-ADV-003 KAR-ADV-010; do
  case "$out" in
    *"$rule"*) ;;
    *)
      echo "FAIL: check output is missing $rule" >&2
      exit 1
      ;;
  esac
done
echo "lint fixture check passed (exit $status, both rules reported)"
