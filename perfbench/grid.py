"""Reference figures for the ROADMAP grid; recorded in README.md, not benchmarked.

Usage (from the repository root):

    python3 perfbench/grid.py

Times ``run_protocol`` (one point at tau_r/4) and a 200-point
``sweep_interaction_time`` over [0, tau_r/2] at n_bar in {36, 1e3, 1e4, 1e5},
thermal atom at beta = 1, phi = 0. Prints the median wall time of several
repeats (one for the 1e5 sweep) next to the reference-kernel time measured
just before, without rescaling.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

from hostspeed import reference_kernel
from workloads import import_program

N_BARS = (36.0, 1e3, 1e4, 1e5)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    pkg = import_program()
    kernel_ms = median_time(reference_kernel, 200) * 1e3
    print(f"reference kernel: {kernel_ms:.3f} ms")
    for n_bar in N_BARS:
        config = pkg.ProtocolConfig(prep=pkg.CoherentPrep(math.sqrt(n_bar)),
                                    interaction_time=0.0, initial_beta=1.0)
        half = config.timescales().half_revival
        point = pkg.ProtocolConfig(prep=config.prep, interaction_time=half / 2,
                                   initial_beta=1.0)
        grid = [half * k / 199 for k in range(200)]
        one = median_time(lambda: pkg.run_protocol(point), 21 if n_bar < 1e5 else 5)
        sweep = median_time(lambda: pkg.sweep_interaction_time(config, grid),
                            5 if n_bar < 1e4 else 1)
        print(f"n_bar {n_bar:>8g}  n_max {config.prep.n_max:>6d}  "
              f"run_protocol {one * 1e3:9.3f} ms  200-point sweep {sweep * 1e3:10.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
