#!/usr/bin/env bash
# bench-metric.sh FILE BENCH UNIT: print the value `go test -bench` reported
# for UNIT (ns/op, B/op, allocs/op, or a custom unit such as ns/arrival) on
# the line of benchmark BENCH in FILE. BENCH is matched whole, up to the
# -GOMAXPROCS suffix, so Foo does not pick up FooBar. A missing benchmark or
# unit is an error: a gate must never compare against an empty string.
set -euo pipefail
file=$1 bench=$2 unit=$3
awk -v bench="$bench" -v unit="$unit" '
  $1 == bench || index($1, bench "-") == 1 {
    for (i = 2; i < NF; i++) if ($(i + 1) == unit) { print $i; found = 1; exit }
  }
  END { if (!found) { print "no " unit " for " bench " in " FILENAME > "/dev/stderr"; exit 1 } }
' "$file"
