"""``python -m alphacf``: the same command line as the ``alphacf`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
