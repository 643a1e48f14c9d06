#!/bin/sh
# The run list of CI's two byte checks: every subcommand at its default config,
# mc-steady on the look-ahead path, mc-transient with snapshots, over two seeds
# on two workers and on the look-ahead path, a transient with the resummed
# residual (its asymmetric K[p, q] and residual.csv) and a transient from the
# point start: 12 invocations.
# Usage: sh .github/default-runs.sh SRC_TREE OUT_ROOT, which runs the code of
# SRC_TREE/src and writes under OUT_ROOT.
set -eu
src="$1/src"
out="$2"
run() { PYTHONPATH="$src" python -m randloc "$@" --out "$out"; }
for sub in gamma steady transient mc-steady mc-transient oracle fig1; do
  run "$sub"
done
run mc-steady --set m_particles=70000 --set tau_end=5
run mc-transient --jobs 2 --set seeds=1,2 --set snapshot_taus=0.5,3
run mc-transient --set m_particles=70000 --set tau_end=3 --set g0=0.05 --set snapshot_taus=1,2
run transient --set residual_m_max=3 --set tau_end=0.3 --set snapshot_stride=1
run transient --set init=point
