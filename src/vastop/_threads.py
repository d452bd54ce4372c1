"""Honor VASTOP_THREADS before any BLAS-backed import happens.

Imported first by the package __init__ so that setting VASTOP_THREADS in the
environment caps the worker pools of whatever BLAS numpy was built against.
An invalid value is left out of the BLAS variables here (importing never
fails); the CLI and the Monte Carlo engine report it as a config error.
"""

import os


def thread_count() -> int | None:
    """VASTOP_THREADS as a positive integer, None when unset or empty.

    Raises ValueError for any other value.
    """
    raw = os.environ.get("VASTOP_THREADS")
    if not raw:
        return None
    if raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    raise ValueError(f"VASTOP_THREADS must be a positive integer, got {raw!r}")


try:
    _cap = thread_count()
except ValueError:
    _cap = None
if _cap is not None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, str(_cap))
