"""``python -m cmx``: the command-line interface of `cmx.cli`."""

import sys

from .cli import main

sys.exit(main())
