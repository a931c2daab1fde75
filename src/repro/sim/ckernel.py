"""Build and load the optional C kernels with :mod:`ctypes`.

One loader serves both kernels (:mod:`repro.net.fastalloc`,
:mod:`repro.sim.fastdrain`).  A kernel source is compiled once per
machine with strict IEEE-754 flags and cached by source hash under the
user's temp directory; concurrent builds race safely through an atomic
rename.  ``REPRO_NO_CKERNEL=1`` in the environment, a missing C
compiler, a failed build or a failed load all yield ``None``, and the
caller falls back to its vectorized NumPy path.  No third-party packages
are involved (ctypes is stdlib).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["load"]

# Strict IEEE-754 only: never -ffast-math, and -ffp-contract=off so FMA
# contraction cannot change rounding vs. the NumPy fallbacks.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

#: ``{symbol: (restype, argtypes)}`` for one kernel library.
Signatures = Dict[str, Tuple[Any, List[Any]]]


def _build(src: str) -> Optional[str]:
    """Compile (or reuse) ``src``; return the .so path or ``None``."""
    try:
        with open(src, "rb") as fh:
            source = fh.read()
        tag = hashlib.sha256(source).hexdigest()[:16]
        stem = os.path.splitext(os.path.basename(src))[0]  # "_fastalloc"
        cache = os.path.join(tempfile.gettempdir(),
                             f"repro-{stem.lstrip('_')}-{os.getuid()}")
        os.makedirs(cache, exist_ok=True)
        so_path = os.path.join(cache, f"{stem}-{tag}.so")
        if not os.path.exists(so_path):
            tmp = f"{so_path}.tmp.{os.getpid()}"
            subprocess.run(["cc", *_CFLAGS, "-o", tmp, src],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, so_path)  # atomic: concurrent builds race safely
        return so_path
    except Exception:
        return None


def load(src: str, signatures: Signatures) -> Optional[ctypes.CDLL]:
    """Build ``src``, load it and bind ``signatures``; ``None`` if unusable."""
    if os.environ.get("REPRO_NO_CKERNEL") == "1":
        return None
    so_path = _build(src)
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        for symbol, (restype, argtypes) in signatures.items():
            fn = getattr(lib, symbol)
            fn.restype = restype
            fn.argtypes = argtypes
        return lib
    except Exception:
        return None
