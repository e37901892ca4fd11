"""Set-up probe: import the CLI, then sample one path on each grid.

    python3 perfbench/probe.py SEED [KIND:N:HORIZON ...]

KIND is ``fbm`` (circulant sampler, which fills the embedding cache for
that grid) or ``bm``.  Prints one JSON line with the import and first-path
times and the interpreter and library versions.
"""

from __future__ import annotations

import json
import platform
import sys
import time


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    import fbmlab
    import fbmlab.cli  # noqa: F401
    import numpy
    import scipy
    from fbmlab.sampler import Grid, SeedPolicy, sample_bm, sample_fbm

    imported = time.perf_counter()
    seeds = SeedPolicy(int(argv[0]), 0)
    for spec in argv[1:]:
        kind, n, horizon = spec.split(":")
        grid = Grid(int(n), float(horizon))
        if kind == "fbm":
            sample_fbm(grid, seeds)
        else:
            sample_bm(grid, seeds)
    sampled = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - started,
                "first_path_s": sampled - imported,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "fbmlab_file": fbmlab.__file__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
