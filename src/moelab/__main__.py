"""``python -m moelab``: the ``moelab`` command line."""
from .cli import entry

if __name__ == "__main__":
    entry()
