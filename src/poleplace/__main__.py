"""``python3 -m poleplace``: the same command line as the ``poleplace`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
