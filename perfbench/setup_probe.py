"""One cold start: import bqrelax from the given source directory, solve the
bundled tight_n2 fixture once (sdr1), print ``ready <monotonic clock>`` and exit.

The parent times each start from process spawn to that clock reading.
Usage: python3 setup_probe.py <src-dir>
"""

import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from bqrelax import fixtures, relax, solver

    prog, _ = relax.build_sdr1(fixtures.tight_n2())
    sol = solver.solve(prog)
    if sol.status != solver.STATUS_OPTIMAL:
        print(f"warm-up solve ended {sol.status}", file=sys.stderr)
        return 1
    print("ready", repr(time.monotonic()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
