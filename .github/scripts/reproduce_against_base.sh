#!/usr/bin/env bash
# Compare the CSV and SVG files of `sdefl reproduce` with those of a base commit.
#
# Usage: .github/scripts/reproduce_against_base.sh BASE_SHA [WORK_DIR]
#
# Checks BASE_SHA out with `git worktree`, runs `sdefl reproduce` there and in
# this checkout, and compares every CSV and SVG file byte for byte.  It fails
# when a file differs, or exists on one side only, unless a line that this
# checkout adds to CHANGES.md since BASE_SHA names the file.
set -euo pipefail

base=$1
work=${2:-$(mktemp -d)}
cd "$(git rev-parse --show-toplevel)"
mkdir -p "$work"

git worktree add --detach "$work/base" "$base" > /dev/null
trap 'git worktree remove --force "$work/base"' EXIT
(cd "$work/base" && PYTHONPATH=src python -m sdefl reproduce --out "$work/base-out" > /dev/null)
PYTHONPATH=src python -m sdefl reproduce --out "$work/head-out" > /dev/null

added=$(git diff "$base" -- CHANGES.md | grep '^+' | grep -v '^+++' || true)
status=0
for name in $(ls "$work/base-out" "$work/head-out" | grep -E '\.(csv|svg)$' | sort -u); do
  if cmp -s "$work/base-out/$name" "$work/head-out/$name"; then
    continue
  fi
  if grep -qwF -- "$name" <<< "$added"; then
    echo "$name differs from $base; CHANGES.md names it"
  else
    echo "::error::$name differs from $base, and no line added to CHANGES.md names it"
    status=1
  fi
done
exit "$status"
