#!/usr/bin/env python3
"""Sweep small grids and compare the width with the largest constant-sum
layer, printing one line per (d, ell) pair.

The sweep stays exact: width and layer sizes are closed forms.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from downset.combinatorics import check_middle_layer_conjecture  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-dim", type=int, default=3)
    ap.add_argument("--max-ell", type=int, default=4)
    args = ap.parse_args()

    print("d ell width max_layer argmax_sums stated midpoint equal seconds")
    for d in range(1, args.max_dim + 1):
        for ell in range(1, args.max_ell + 1):
            start = time.perf_counter()
            r = check_middle_layer_conjecture(d, ell)
            elapsed = time.perf_counter() - start
            sums = ",".join(str(s) for s in r.argmax_sums)
            print(f"{d} {ell} {r.width} {r.max_layer_size} {sums} "
                  f"{r.stated_sum} {r.midpoint_sum} {str(r.equal).lower()} {elapsed:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
