"""Build shim: editable-install fallback + opt-in mypyc kernel build.

`pip install -e .` needs bdist_wheel under PEP 660; this environment has no
network to fetch it, so `python setup.py develop` (or `pip install -e .
--config-settings editable_mode=compat`) provides the fallback.
Configuration lives in pyproject.toml.

Compiled kernel tier
--------------------

``REPRO_COMPILE=1 pip install .`` compiles the strict-mypy tier
(``repro.des``, ``repro.reports``, ``repro.cache``) with mypyc.  The
default build stays pure python — mypy/mypyc is only needed when the
flag is set (CI's ``compiled-smoke`` job exercises it).  At runtime the
compiled extensions shadow the ``.py`` sources transparently;
``REPRO_PURE_PYTHON=1`` forces the sources back (see
``repro/des/_backend.py`` and ``repro/_purity.py``).
"""

import os

from setuptools import setup

#: Strict-tier modules compiled when REPRO_COMPILE=1.  Deliberately NOT
#: everything under the tier:
#:   * ``__init__.py`` files stay interpreted so packages keep normal
#:     import semantics and the REPRO_PURE_PYTHON source-only finder can
#:     reroute their submodules;
#:   * ``des/_backend.py`` stays interpreted — it decides between the
#:     compiled and interpreted builds, so it cannot live inside either;
#:   * ``des/rng.py`` is numpy-bound (no hot pure-python arithmetic);
#:   * ``des/trace.py`` and ``cache/entry.py`` use
#:     ``@dataclass(slots=True)``, which mypyc does not support.
MYPYC_MODULES = [
    "src/repro/des/environment.py",
    "src/repro/des/errors.py",
    "src/repro/des/event.py",
    "src/repro/des/monitor.py",
    "src/repro/des/process.py",
    "src/repro/des/queues.py",
    "src/repro/des/resource.py",
    "src/repro/cache/client_cache.py",
    "src/repro/cache/lru.py",
    "src/repro/reports/amnesic.py",
    "src/repro/reports/base.py",
    "src/repro/reports/bitseq.py",
    "src/repro/reports/signatures.py",
    "src/repro/reports/sizes.py",
    "src/repro/reports/window.py",
]


def _ext_modules():
    if os.environ.get("REPRO_COMPILE", "") in ("", "0"):
        return []
    from mypyc.build import mypycify

    return mypycify(MYPYC_MODULES, opt_level="3")


setup(ext_modules=_ext_modules())
