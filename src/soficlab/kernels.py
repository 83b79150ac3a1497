"""Sweep-kernel backend selection: compiled extension if built, else pure Python.

Set SOFICLAB_KERNEL=python to force the fallback (for debugging); both
backends consume identical uniforms and produce bitwise-equal trajectories.
"""

import os

_forced = os.environ.get("SOFICLAB_KERNEL", "").lower()

if _forced == "python":
    from ._glauber_py import glauber_sweeps

    BACKEND = "python"
else:  # pragma: no cover - depends on build environment
    try:
        from ._glauber import glauber_sweeps

        BACKEND = "cython"
    except ImportError:
        from ._glauber_py import glauber_sweeps

        BACKEND = "python"

__all__ = ["glauber_sweeps", "BACKEND"]
