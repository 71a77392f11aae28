"""``python -m liemat``: the command-line interface of :mod:`liemat.cli`."""

from .cli import main

main()
