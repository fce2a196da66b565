"""The ``pythonpath`` setting in pyproject.toml makes ``src/`` importable
in the test process; the CLI tests also start ``python -m qsdcsim``
subprocesses, which find the package through ``PYTHONPATH``."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
