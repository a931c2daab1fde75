"""Optional C kernels for the fluid-flow drain and the pipe's fair share.

Every fluid model (:class:`~repro.sim.fluid.FluidPipe`,
:class:`~repro.net.fabric.Fabric`) advances every flow's remaining-byte
counter at each flow event through
:meth:`~repro.sim.flowarray.FlowTable.drain`; on busy pipes (spill
storms, hundreds of concurrent writers) and shuffle waves that
decrement-and-compact loop is one of the simulator's inner loops.  This
module builds and loads ``_fastdrain.c`` through :mod:`repro.sim.ckernel`
and exposes the pre-bound entry points :data:`RAW_DRAIN` and
:data:`RAW_FAIR` (the pipe's fused fair-share + horizon).

The kernel is bit-for-bit equivalent to the NumPy fallback — see the
header comment in ``_fastdrain.c`` and DESIGN.md §12 — and
``repro bench --check`` gates both kernel modes on the same golden
fingerprints (Hypothesis drives the adversarial cases in
``tests/sim/test_fastdrain.py``).

No C compiler, a failed build, or ``REPRO_NO_CKERNEL=1`` in the
environment leaves :data:`AVAILABLE` false and both entry points
``None``; callers then take the vectorized NumPy path.
"""

from __future__ import annotations

import ctypes
import os

from repro.sim import ckernel

__all__ = ["AVAILABLE", "RAW_DRAIN", "RAW_FAIR"]

_LIB = ckernel.load(
    os.path.join(os.path.dirname(__file__), "_fastdrain.c"),
    {"repro_fluid_drain": (
        ctypes.c_int64,
        [ctypes.c_int64, ctypes.c_double,    # n, dt
         ctypes.c_void_p, ctypes.c_void_p,   # remaining, rate
         ctypes.c_void_p,                    # finished (out)
         ctypes.c_int64, ctypes.c_void_p]),  # n_extra, extra column ptrs
     "repro_fair_share": (
        ctypes.c_double,                     # horizon
        [ctypes.c_double, ctypes.c_int64,    # capacity, n
         ctypes.c_void_p, ctypes.c_void_p,   # caps, order
         ctypes.c_void_p, ctypes.c_void_p])})  # remaining, rates

#: True when the compiled kernel is loaded and usable.
AVAILABLE = _LIB is not None

# Pre-bound entry points for the hot path: callers cache the raw
# ``arr.ctypes.data`` integer addresses and call these directly, so a
# per-event kernel call allocates no ctypes wrapper objects.  None when
# the kernel is unavailable.
RAW_DRAIN = _LIB.repro_fluid_drain if _LIB is not None else None
RAW_FAIR = _LIB.repro_fair_share if _LIB is not None else None
