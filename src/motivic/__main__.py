"""`python -m motivic script.mot`: the same entry point as the `motivic` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
