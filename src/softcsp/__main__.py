"""``python -m softcsp``: the ``softcsp`` command, for when the console
script is not installed."""

from .cli import main

if __name__ == "__main__":
    main()
