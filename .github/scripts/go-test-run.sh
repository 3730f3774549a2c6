#!/usr/bin/env bash
# go test for the CI steps that select tests by name (-run PATTERN): same
# arguments, same output, same exit status — except that a package
# answering "[no tests to run]" fails the step. A renamed or moved test
# must break the gate that names it, not turn it into a silent no-op.
set -u -o pipefail
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go test "$@" 2>&1 | tee "$out"
status=${PIPESTATUS[0]}
if grep -F '[no tests to run]' "$out" >&2; then
  echo "go test $*: the -run pattern selected no test in the package(s) above" >&2
  exit 1
fi
exit "$status"
