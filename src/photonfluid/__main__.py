"""`python -m photonfluid <stage> --config run.cfg` runs the CLI."""

from .cli import entry

if __name__ == "__main__":
    entry()
