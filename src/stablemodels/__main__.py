"""Entry point for ``python -m stablemodels``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
