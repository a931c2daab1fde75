"""Optional C kernel for the fabric's per-event reallocation.

Every fabric flow event recomputes max–min fair rates for all live flows
and the time until the earliest completion.  At shuffle scale that is
tens of thousands of reallocations over thousands of flows, and in
NumPy each costs endpoint compression, a dozen small-array ufunc calls
per water-filling round and a separate horizon pass — dispatch, not
data.  This module builds and loads ``_fastalloc.c`` through
:mod:`repro.sim.ckernel` and exposes the pre-bound entry point
:data:`RAW_ALLOCATE`, which does all three in one native call over the
flow table's columns and caller-owned scratch (the
:class:`~repro.net.fabric.Fabric` keeps it, so no call allocates).

The kernel is bit-for-bit equivalent to the NumPy fallback — see the
header comment in ``_fastalloc.c`` and DESIGN.md §8 — and
``repro bench --check`` gates both kernel modes on the same golden
fingerprints.

No C compiler, a failed build, or ``REPRO_NO_CKERNEL=1`` in the
environment leaves :data:`AVAILABLE` false and :data:`RAW_ALLOCATE`
``None``; the fabric then takes its NumPy path.
"""

from __future__ import annotations

import ctypes
import os

from repro.sim import ckernel

__all__ = ["AVAILABLE", "RAW_ALLOCATE"]

_P = ctypes.c_void_p
_LIB = ckernel.load(
    os.path.join(os.path.dirname(__file__), "_fastalloc.c"),
    {"repro_fabric_allocate": (
        ctypes.c_double,                     # horizon
        [ctypes.c_int64,                     # m
         _P, _P, _P, _P, _P,                 # src, dst, caps, remaining, rate
         ctypes.c_int64,                     # n_nodes
         ctypes.c_double, ctypes.c_double,   # nic_bw, bisection_bw
         ctypes.c_int64,                     # has_core
         _P, _P, _P])})                      # chmap, iscr, dscr

#: True when the compiled kernel is loaded and usable.
AVAILABLE = _LIB is not None

#: ``repro_fabric_allocate`` taking raw ``arr.ctypes.data`` addresses
#: (see ``_fastalloc.c`` for the argument contract), or None when the
#: kernel is unavailable.
RAW_ALLOCATE = _LIB.repro_fabric_allocate if _LIB is not None else None
