"""Optional C kernel for the fabric's progressive-filling allocator.

The max–min allocator is the simulator's measured hot spot: tens of
thousands of reallocations, each running ~a dozen water-filling rounds,
each round a handful of small-array NumPy calls whose cost is ufunc
dispatch rather than data.  This module builds and loads
``_fastalloc.c`` through :mod:`repro.sim.ckernel` and exposes
:func:`assign_rates`.

The kernel is bit-for-bit equivalent to the NumPy allocator — see the
header comment in ``_fastalloc.c`` and DESIGN.md §8 — and
``repro bench --check`` gates both kernel modes on the same golden
fingerprints.

No C compiler, a failed build, or ``REPRO_NO_CKERNEL=1`` in the
environment leaves :data:`AVAILABLE` false and the fabric uses its
pure-NumPy fast path instead.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

import numpy as np

from repro.sim import ckernel

__all__ = ["AVAILABLE", "assign_rates"]

_LIB = ckernel.load(
    os.path.join(os.path.dirname(__file__), "_fastalloc.c"),
    {"repro_assign_rates": (
        ctypes.c_int64,
        [ctypes.c_int64, ctypes.c_int64,     # n_nodes, m
         ctypes.c_void_p, ctypes.c_void_p,   # src, dst
         ctypes.c_void_p,                    # caps
         ctypes.c_double, ctypes.c_double,   # nic_bw, bisection
         ctypes.c_int64,                     # has_core
         ctypes.c_void_p])})                 # out_rates

#: True when the compiled kernel is loaded and usable.
AVAILABLE = _LIB is not None


def assign_rates(n_nodes: int, src: np.ndarray, dst: np.ndarray,
                 caps: np.ndarray, nic_bw: float,
                 bisection_bw: Optional[float],
                 out_rates: np.ndarray) -> bool:
    """Run the C allocator; returns False if the caller must fall back.

    ``src``/``dst`` must be contiguous int64, ``caps``/``out_rates``
    contiguous float64, all of the same length.  Every element of
    ``out_rates`` is written.
    """
    if _LIB is None:
        return False
    m = src.shape[0]
    rc = _LIB.repro_assign_rates(
        n_nodes, m, src.ctypes.data, dst.ctypes.data, caps.ctypes.data,
        nic_bw, 0.0 if bisection_bw is None else bisection_bw,
        0 if bisection_bw is None else 1, out_rates.ctypes.data)
    return rc == 0
