"""`python -m tilesim`: the command line interface of `tilesim.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
