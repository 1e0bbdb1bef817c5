"""Locate the package and the test oracles in the checkout the benchmark
runs from, and put them first on the import path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/dppls/__init__.py", "tests/oracles.py")


def use_checkout():
    """Exit with code 2 unless the checkout holds the package sources."""
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"bench: not a dppls checkout: {ROOT} lacks "
                         f"{', '.join(missing)}\n")
        raise SystemExit(2)
    for sub in ("tests", "src"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def verify_import(package):
    """Exit with code 2 if `package` was not imported from this checkout."""
    expected = (ROOT / "src" / package.__name__).resolve()
    if Path(package.__file__).resolve().parent != expected:
        sys.stderr.write(f"bench: {package.__name__} imported from "
                         f"{package.__file__}, not from {expected}\n")
        raise SystemExit(2)
