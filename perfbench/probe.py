"""Set-up probe: a fresh process that performs one workload's set-up.

It imports ``awgauss`` from the checkout, generates the workload's inputs (for
``pairwise_small`` that includes building the ``GaussianSpec`` objects) and
prints ``ready``.  ``run.py`` times it from process start to that line, which
is the workload's ``setup_s``.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports awgauss: interpreter start and import are set-up)


def main(argv) -> int:
    workloads.WORKLOADS[argv[0]](int(argv[1]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
