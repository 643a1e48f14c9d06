"""Runs the command-line front end: ``python -m randloc <subcommand> ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
