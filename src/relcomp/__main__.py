"""``python -m relcomp``: the relcomp command line tool (see relcomp.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
