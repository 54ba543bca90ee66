"""`python -m privavg`: the privavg command, run without an installed script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
