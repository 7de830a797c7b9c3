"""Set-up probe: a fresh interpreter imports the CLI and runs the warm-up document.

    python3 perfbench/setup_probe.py SRC_DIR WARMUP_DOC_PATH

run.py times this whole process; the warm-up pays the lazy scipy.spatial
import that every first `verify` pays.
"""

import sys

from workloads import WARMUP_ARGS

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from homothety_orbits import cli

    sys.exit(cli.main([*WARMUP_ARGS, "--input", sys.argv[2]]))
