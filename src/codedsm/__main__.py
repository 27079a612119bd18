"""``python -m codedsm``: the ``codedsm`` command line."""

from .harness import main

if __name__ == "__main__":
    main()
