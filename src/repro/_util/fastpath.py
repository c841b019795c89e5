"""Optional-numpy gate for the vectorized execution paths.

numpy is an *optional* dependency (the ``fast`` extra in ``pyproject.toml``):
every protocol keeps a pure-Python implementation, and the vectorized
execution path is an acceleration layered on top.  This module is
the one place that decides whether numpy is available, so

* the import guard is written once instead of per-module, and
* falling back is *loud*: the first feature that wanted numpy and could not
  have it emits a :class:`FallbackWarning` (once per feature), instead of
  silently running orders of magnitude slower.
"""

from __future__ import annotations

import warnings

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

#: True when the vectorized representation/kernels can run.
HAVE_NUMPY = np is not None

_warned: set[str] = set()


class FallbackWarning(RuntimeWarning):
    """Emitted once per feature when a vectorized path degrades to pure Python."""


def warn_fallback(feature: str) -> None:
    """Warn (once per ``feature``) that a numpy-backed path is unavailable.

    Call sites fall back to the pure-Python implementation right after; the
    warning exists so a deployment that *meant* to install the ``fast`` extra
    notices the silent 10-100x slowdown.
    """
    if feature in _warned:
        return
    _warned.add(feature)
    warnings.warn(
        f"{feature}: numpy is not installed, falling back to the pure-Python "
        "path (pip install 'repro-patt-shamir04[fast]' for the vectorized "
        "implementation)",
        FallbackWarning,
        stacklevel=3,
    )


def require_numpy(feature: str):
    """Return the numpy module or raise for features with no fallback."""
    if np is None:
        from repro.exceptions import ConfigurationError

        raise ConfigurationError(
            f"{feature} requires numpy; install the 'fast' extra "
            "(pip install 'repro-patt-shamir04[fast]')"
        )
    return np
