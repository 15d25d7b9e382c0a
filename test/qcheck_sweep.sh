#!/bin/sh
# Run every qcheck suite on fresh seeds.
#
# `dune runtest` pins QCHECK_SEED (the env stanza in test/dune), so
# tier-1 never passes or fails on a lucky draw.  This sweep keeps the
# properties exploring: it runs each suite directly with `dune exec`,
# which keeps the caller's environment, once per seed.  It also checks
# that qcheck-alcotest reports the seed it was given, so a pin can never
# silently win.  A failure prints the one command that replays it.
#
# Usage (from the repository root):
#   sh test/qcheck_sweep.sh            three fresh seeds
#   sh test/qcheck_sweep.sh SEED...    the given seeds
set -eu

suites=$(grep -l QCheck test/test_*.ml | sed 's|^test/||; s|\.ml$||')

if [ $# -eq 0 ]; then
  set -- $(od -An -N12 -tu4 /dev/urandom)
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
for seed in "$@"; do
  echo "QCHECK_SEED=$seed"
  for t in $suites; do
    if ! QCHECK_SEED=$seed dune exec "test/$t.exe" >"$out" 2>&1; then
      cat "$out"
      echo "FAILED; replay with: QCHECK_SEED=$seed dune exec test/$t.exe"
      exit 1
    fi
    if ! grep -qx "qcheck random seed: $seed" "$out"; then
      cat "$out"
      echo "$t did not run on QCHECK_SEED=$seed"
      exit 1
    fi
  done
done
