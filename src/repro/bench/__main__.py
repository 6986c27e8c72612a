"""Entry point: ``python -m repro.bench`` (see :mod:`repro.bench.cli`)."""

import sys

from .cli import main

sys.exit(main(sys.argv[1:]))
