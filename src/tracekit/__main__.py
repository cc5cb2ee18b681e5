"""``python -m tracekit``: the same command line as the ``tracekit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
