"""Where the benchmark finds the program: the ``src/`` tree of its own checkout.

The benchmark imports rissim from source, never from an installed copy, so a
run measures exactly the commit it sits in.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and import rissim.

    Raises:
        SystemExit: if the checkout holds no rissim sources, or rissim
            resolves to another copy.
    """
    if not (SRC / "rissim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no rissim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rissim

    if Path(rissim.__file__).resolve().parent != SRC / "rissim":
        raise SystemExit(f"benchmark: rissim imported from {rissim.__file__}, not {SRC}")
