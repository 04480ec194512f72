"""Loaded by pytest before it collects anything: no bytecode is written.

Neither this interpreter nor the child interpreters the tests start write
``__pycache__`` directories, so a test run leaves ``src/`` as checked out.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
