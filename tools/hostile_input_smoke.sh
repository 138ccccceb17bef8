#!/usr/bin/env bash
# Hostile-input smoke for the CLI: malformed solve and serve requests must
# come back as typed errors (exit 2), never as a crash (exit >= 128), and a
# rejected solve must not leave a block store behind. Registered as the
# `cli_hostile_input` ctest.
#
#   tools/hostile_input_smoke.sh [path/to/apspark_cli]   # default build/
set -u

cli=${1:-build/apspark_cli}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
printf 'apsp 0 0\n' > "$work/zero-vertices.txt"
printf 'apsp 4 0\n0 1 2.5\n1 x\n' > "$work/bad-edge.txt"
printf 'apsp 3000000000 0\n' > "$work/huge-plane.txt"
printf 'apsp 4 2\n0 1 2.5\n' > "$work/directed-flag.txt"
printf '0 1\na b\n' > "$work/query-not-ids.txt"
printf '0 1\n0\n' > "$work/query-lone-id.txt"
printf '0 1\n0 12345678901234567890\n' > "$work/query-20-digits.txt"
printf '0 1\n0 1 2\n' > "$work/query-trailing.txt"

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
expect_rejected huge-plane "$work/store-d" \
  solve --input "$work/huge-plane.txt" --persist "$work/store-d"
expect_rejected directed-flag "$work/store-e" \
  solve --input "$work/directed-flag.txt" --persist "$work/store-e"

# Malformed query files against a valid store.
if ! "$cli" solve --er 8 --block 4 --persist "$work/store" \
    > "$work/store.log" 2>&1; then
  echo "FAIL store: could not persist a solve to serve"
  cat "$work/store.log"
  failures=$((failures + 1))
fi
for query in not-ids lone-id 20-digits trailing; do
  expect_rejected "query-$query" "$work/no-store" \
    serve --store "$work/store" --queries "$work/query-$query.txt"
done

[ "$failures" -eq 0 ]
