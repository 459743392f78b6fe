#!/bin/sh
# Write the byte-identity artifact matrix of this checkout into OUT_DIR.
#
#     tools/artifact_matrix.sh OUT_DIR
#
# Runs the CLI from this checkout's src on 24 cases, one subdirectory
# each: the four bench configs at seeds 1, 2 and 3; the defaults of
# free_packet, grid_scattering, two_level_collapse (--traj 200), eraser,
# thermal and walk-scan (--traj 10000); grid_scattering with a repulsive
# soft_coulomb pair, on its default 1-D grid and for 20 steps on a 2-D
# 16-point grid; the eraser in sde mode (--traj 20); and conserve at
# seeds 2, 3 and 5.
# BLAS and OpenMP run on one thread so the bytes do not depend on the
# thread count. Two checkouts' OUT_DIRs compare with `diff -r`.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
export PYTHONPATH="$ROOT/src"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
CONFIGS=$(mktemp -d)
trap 'rm -rf "$CONFIGS"' EXIT

# each case writes into OUT/LABEL and its summary line into OUT/LABEL.log;
# paths are relative to OUT, so two OUT_DIRs hold the same bytes
run() {
    label=$1
    shift
    (cd "$OUT" && python3 -m collapsim.cli "$@" --out-dir "$label") > "$OUT/$label.log"
}

for config in "$ROOT"/bench/configs/*.json; do
    name=$(basename "$config" .json)
    for seed in 1 2 3; do
        run "$name-seed$seed" run "$config" --seed "$seed"
    done
done
for scenario in free_packet grid_scattering; do
    echo "{\"scenario\": \"$scenario\"}" > "$CONFIGS/$scenario.json"
    run "$scenario" run "$CONFIGS/$scenario.json"
done
# every shipped pair is attractive; these two reach the repulsive rate
REPULSIVE='"physics": {"potential": {"form": "soft_coulomb"}}'
echo "{\"scenario\": \"grid_scattering\", $REPULSIVE}" > "$CONFIGS/soft_coulomb_1d.json"
run soft_coulomb_1d run "$CONFIGS/soft_coulomb_1d.json"
cat > "$CONFIGS/soft_coulomb_2d.json" <<EOF
{"scenario": "grid_scattering", $REPULSIVE,
 "grid": {"dims": 2, "points_per_axis": 16, "extent": 4.5},
 "initial": {"centers": [-0.7, -0.35, 0.7, 0.35], "widths": [1.0, 1.0, 1.0, 1.0],
             "momenta": [0.6, 0.0, -0.6, 0.0]},
 "numerics": {"dt": 0.008, "n_steps": 20}}
EOF
run soft_coulomb_2d run "$CONFIGS/soft_coulomb_2d.json"
echo '{"scenario": "two_level_collapse"}' > "$CONFIGS/two_level_collapse.json"
run two_level_collapse run "$CONFIGS/two_level_collapse.json" --traj 200
run eraser eraser
echo '{"scenario": "eraser", "eraser": {"mode": "sde"}}' > "$CONFIGS/eraser_sde.json"
run eraser_sde eraser "$CONFIGS/eraser_sde.json" --traj 20
run thermal thermal
run walk_scan walk-scan --traj 10000
for seed in 2 3 5; do
    run "conserve-seed$seed" conserve --seed "$seed"
done
