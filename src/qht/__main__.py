"""``python -m qht``: the same command line as the installed ``qht`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
