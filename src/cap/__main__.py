"""`python -m cap`: the same command line as the `cap` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
