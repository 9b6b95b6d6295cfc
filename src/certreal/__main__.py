"""``python -m certreal``: the command-line interface (cli.py)."""

import sys

from .cli import main

sys.exit(main())
