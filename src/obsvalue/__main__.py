"""``python -m obsvalue``: the command-line interface of :mod:`obsvalue.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
