"""Set-up probe: ``python3 -m perfbench.probe <workload>``.

Runs in a fresh interpreter, gets the program ready for the workload's
first operation, and prints the seconds that took as its last line.
Imports count: a change that moves work into import time shows here.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main(workload: str) -> None:
    from perfbench import common

    common.import_program()
    if workload == "bulk-arrays":
        import numpy as np

        from repro.fp import vectorized
        from repro.fp.format import ALL_FORMATS
        from repro.fp.rounding import RoundingMode

        # first call of every op per format: lazy tables count as set-up
        for fmt in ALL_FORMATS:
            one = np.full(4, fmt.one(), dtype=np.uint64)
            for op in common.OPS:
                getattr(vectorized, f"vec_{op}")(
                    fmt, *([one] * common.ARITY[op]),
                    RoundingMode.NEAREST_EVEN, with_flags=True)
    elif workload == "paper-regen":
        import tempfile

        from repro.engine import Engine, ResultCache
        from repro.experiments import REGISTRY  # noqa: F401
        from repro.explore.recommend import recommend  # noqa: F401
        from repro.kernels.batched import BatchedMatmulArray  # noqa: F401

        with tempfile.TemporaryDirectory(dir=common.RUN_DIR) as d:
            Engine(cache=ResultCache(d))
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    print(f"{time.perf_counter() - T0:.6f}")


if __name__ == "__main__":
    main(sys.argv[1])
