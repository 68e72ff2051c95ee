"""``python -m coverlink``: the command-line front end (see ``coverlink.cli``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
