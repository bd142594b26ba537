"""Test-session setup shared by every module.

``pythonpath`` in pyproject.toml puts ``src`` on this process's import
path; exporting it through PYTHONPATH lets the ``python -m costsense``
subprocesses some tests start import the same checkout.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
