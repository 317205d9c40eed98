"""Entry point for ``python -m beliefsim``; the same command line as ``beliefsim``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
