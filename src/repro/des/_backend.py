"""Kernel backend selection: compiled (mypyc) vs pure python.

The strict-mypy tier (``repro.des``, ``repro.reports``, ``repro.cache``)
doubles as a compilation boundary: ``REPRO_COMPILE=1 pip install .``
builds it with mypyc (see ``setup.py``), producing extension modules
that shadow the ``.py`` sources.  At runtime nothing changes for
callers — the import system prefers the extensions when present and
falls back to source otherwise — but one knob steers the choice:

``REPRO_PURE_PYTHON=1``
    Force the interpreted sources even when compiled extensions are
    installed (``repro._purity`` rewires the import machinery before
    any tier module loads).  The two builds are bit-identical on every
    golden; this switch exists for debugging, for perf A/B runs and for
    the CI equivalence matrix.

This module must stay interpreted (it is excluded from the mypyc build)
so the selection logic runs before — and independently of — whatever it
selects.  Backend identity is surfaced as ``kernel.backend`` in run
telemetry and in every ``BENCH_*.json`` host block, so perf baselines
are never cross-compared between backends.
"""

from __future__ import annotations

import importlib.machinery
import os
import sys
from typing import Optional

__all__ = ["compiled_active", "kernel_backend", "pure_python_forced"]

_compiled_active: Optional[bool] = None


def pure_python_forced() -> bool:
    """True when ``REPRO_PURE_PYTHON`` demands the interpreted tier."""
    return os.environ.get("REPRO_PURE_PYTHON", "") not in ("", "0")


def compiled_active() -> bool:
    """True when the kernel tier is running as compiled extensions."""
    global _compiled_active
    if _compiled_active is None:
        module = sys.modules.get("repro.des.environment")
        if module is None:  # pragma: no cover - import-order corner
            return False  # undecided: don't cache before the module loads
        origin = getattr(getattr(module, "__spec__", None), "origin", "") or ""
        _compiled_active = origin.endswith(
            tuple(importlib.machinery.EXTENSION_SUFFIXES)
        ) and not pure_python_forced()
    return _compiled_active


def kernel_backend() -> str:
    """``"compiled"`` or ``"pure"`` — for telemetry and baselines."""
    return "compiled" if compiled_active() else "pure"

