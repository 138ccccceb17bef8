#!/usr/bin/env bash
# Hostile-input smoke for the CLI: malformed solve requests must come back as
# typed errors (exit 2), never as a crash (exit >= 128), and must not leave a
# block store behind.
#
#   tools/hostile_input_smoke.sh [path/to/apspark_cli]   # default build/
set -u

cli=${1:-build/apspark_cli}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
printf 'apsp 0 0\n' > "$work/zero-vertices.txt"
printf 'apsp 4 0\n0 1 2.5\n1 x\n' > "$work/bad-edge.txt"

failures=0
expect_rejected() {
  local name=$1 store=$2
  shift 2
  "$cli" "$@" > "$work/$name.log" 2>&1
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL $name: exit $rc, want 2"
    cat "$work/$name.log"
    failures=$((failures + 1))
  elif [ -e "$store" ]; then
    echo "FAIL $name: created $store"
    failures=$((failures + 1))
  else
    echo "ok   $name: $(grep -m1 '^apspark:' "$work/$name.log")"
  fi
}

expect_rejected zero-vertices "$work/store-a" \
  solve --input "$work/zero-vertices.txt" --persist "$work/store-a"
expect_rejected malformed-edge "$work/store-b" \
  solve --input "$work/bad-edge.txt" --persist "$work/store-b"
expect_rejected sources-persist "$work/store-c" \
  solve --er 20 --sources 2 --persist "$work/store-c"

[ "$failures" -eq 0 ]
