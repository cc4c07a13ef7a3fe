"""`python -m butterfly`: the same command line as the `butterfly` script."""

from .cli import run

if __name__ == "__main__":
    run()
