#!/usr/bin/env python3
"""Compare the CSV and SVG files of two `sdefl reproduce` runs made at
different numpy SIMD levels.

Usage: python .github/scripts/compare_across_simd.py DIR_A DIR_B

Both directories must hold the same CSV and SVG files.  Each file must match
byte for byte, except the ones in NEAR below.  numpy's AVX-512 `exp` and
`log` round differently from the C library's in the last bit, and these
files carry such values.  Each of them must have the same lines and fields,
with equal text fields and floats equal to a relative RTOL.  Exits 1 and
names every file that fails.
"""

import math
import os
import sys

RTOL = 1e-12
# with the largest relative difference measured with AVX-512 dispatch off
NEAR = (
    "heston_particle_filtered.csv",  # 4.4e-16
    "bates_particle_filtered.csv",  # 3.9e-16
    "ou_jump_mle_estimate.csv",  # 1.2e-13
    "ou_jump_mle_paper_estimate.csv",  # 1.2e-13
)


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def near_mismatch(a, b):
    """The first line of a and b whose fields differ beyond RTOL, or None."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines against {len(lines_b)}"
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        fields_a, fields_b = la.split(","), lb.split(",")
        if len(fields_a) != len(fields_b):
            return f"line {number}: field counts differ"
        for fa, fb in zip(fields_a, fields_b):
            x, y = _float(fa), _float(fb)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                same = fa == fb
            else:
                same = abs(x - y) <= RTOL * max(abs(x), abs(y))
            if not same:
                return f"line {number}: '{fa}' against '{fb}'"
    return None


def main(dir_a, dir_b):
    def artifacts(d):
        return {n for n in os.listdir(d) if n.endswith((".csv", ".svg"))}

    names_a, names_b = artifacts(dir_a), artifacts(dir_b)
    failed = [f"{n}: in one run only" for n in sorted(names_a ^ names_b)]
    for name in sorted(names_a & names_b):
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            continue
        why = near_mismatch(a.decode(), b.decode()) if name in NEAR else "bytes differ"
        if why is None:
            print(f"{name}: equal to a relative {RTOL:g}, not byte for byte")
        else:
            failed.append(f"{name}: {why}")
    for line in failed:
        print(f"::error::{line}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
