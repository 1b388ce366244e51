"""Run one evifuse benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload {train,evaluate} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it imports evifuse from the
checkout's ``src``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The line before it records the environment, the sample
count of each operation, the median predict_sample() latency and the
first errors.
"""

import os

# One BLAS thread, fixed before numpy loads: default OpenBLAS threading
# on a 2-CPU machine makes evaluate slower and its timing noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "evifuse" / "__init__.py").is_file():
        print(f"run.py: no evifuse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    details, result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
