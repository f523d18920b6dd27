#!/usr/bin/env bash
# Compare what this checkout computes with what a base commit computes:
#   * the files `sdefl reproduce` writes: every file on both sides, and the
#     CSV and SVG files byte for byte (JSON files carry wall clock);
#   * perfbench's `track` and `calibrate` rounds for seeds 1-5: each round's
#     fingerprint and its attempted and failed operation counts.
#
# Usage: .github/scripts/reproduce_against_base.sh BASE_SHA [WORK_DIR]
#
# Checks BASE_SHA out with `git worktree` and runs both sides.  The rounds of
# both sides run this checkout's perfbench/workloads.py, imported without
# writing bytecode, against each side's src/.  The script fails when a CSV or
# SVG file differs, or a file of any kind exists on one side only, unless a
# line that this checkout adds to CHANGES.md since BASE_SHA names the file;
# and when a workload's rounds differ, unless such a line names the workload
# and says "fingerprint".
set -euo pipefail

base=$1
work=${2:-$(mktemp -d)}
cd "$(git rev-parse --show-toplevel)"
mkdir -p "$work"

git worktree add --detach "$work/base" "$base" > /dev/null
trap 'git worktree remove --force "$work/base"' EXIT
(cd "$work/base" && PYTHONPATH=src python -m sdefl reproduce --out "$work/base-out" > /dev/null)
PYTHONPATH=src python -m sdefl reproduce --out "$work/head-out" > /dev/null

# One line per workload and seed: workload, seed, attempted, failed, fingerprint.
rounds() {
  PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$1/src:$PWD/perfbench" python - << 'EOF'
import contextlib

import workloads

cases = workloads.setup()
for name in ("track", "calibrate"):
    workload = workloads.WORKLOADS[name](cases, None)
    for seed in range(1, 6):
        res = workload.run_round(seed, contextlib.nullcontext())
        print(name, seed, res.attempted, res.failed, repr(res.fingerprint))
EOF
}
rounds "$work/base" > "$work/base-rounds"
rounds "$PWD" > "$work/head-rounds"

added=$(git diff "$base" -- CHANGES.md | grep '^+' | grep -v '^+++' || true)
status=0
for name in $({ ls -A "$work/base-out"; ls -A "$work/head-out"; } | sort -u); do
  if [ ! -e "$work/head-out/$name" ]; then
    what="exists at $base only"
  elif [ ! -e "$work/base-out/$name" ]; then
    what="is new since $base"
  elif [[ $name != *.csv && $name != *.svg ]] || cmp -s "$work/base-out/$name" "$work/head-out/$name"; then
    continue
  else
    what="differs from $base"
  fi
  if grep -qwF -- "$name" <<< "$added"; then
    echo "$name $what; CHANGES.md names it"
  else
    echo "::error::$name $what, and no line added to CHANGES.md names it"
    status=1
  fi
done
for name in track calibrate; do
  if cmp -s <(grep "^$name " "$work/base-rounds") <(grep "^$name " "$work/head-rounds"); then
    continue
  fi
  if grep -wF -- "$name" <<< "$added" | grep -qi 'fingerprint'; then
    echo "perfbench $name rounds differ from $base; CHANGES.md names the workload"
  else
    echo "::error::perfbench $name rounds (fingerprint, attempted, failed) differ from $base," \
      "and no line added to CHANGES.md names the workload's fingerprint"
    status=1
  fi
done
exit "$status"
