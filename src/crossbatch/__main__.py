"""`python -m crossbatch`: the crossbatch command line."""

from .cli import entrypoint

__all__: list[str] = []

if __name__ == "__main__":
    entrypoint()
