"""``python -m repro`` — shorthand for ``python -m repro.experiments``.

The experiments CLI is the package's only entry point; this alias just
saves the suffix (``python -m repro open_system``, ``python -m repro
resume RUNDIR``, ...).
"""

import sys

from repro.experiments.__main__ import main

if __name__ == "__main__":
    main(sys.argv[1:])
