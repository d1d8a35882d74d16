"""Loading and driving a compiled native step-loop extension.

The stdlib ctypes loader opens the shared object and types its four
``nx_*`` symbols.  The extension *borrows* the engine's numpy buffers —
``nx_bind`` receives raw ``double*`` views of ``sim.signals`` /
``sim.x``, so every value the C loop writes is immediately visible to
Python (co-simulation taps, scope logging, the step hook) without
copies.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np


class _CtypesLib:
    def __init__(self, so_path: str):
        lib = ctypes.CDLL(so_path)
        dp = ctypes.POINTER(ctypes.c_double)
        lib.nx_bind.argtypes = [dp, dp, dp]
        lib.nx_bind.restype = None
        lib.nx_out_major.argtypes = [ctypes.c_longlong]
        lib.nx_out_major.restype = None
        lib.nx_finish.argtypes = [ctypes.c_longlong]
        lib.nx_finish.restype = None
        lib.nx_run.argtypes = [ctypes.c_longlong, ctypes.c_longlong, dp, dp]
        lib.nx_run.restype = None
        self._lib = lib
        self._dp = dp

    def _ptr(self, arr: Optional[np.ndarray]):
        if arr is None:
            return None
        return arr.ctypes.data_as(self._dp)

    def bind(self, sigs, states, dwork_init):
        self._lib.nx_bind(
            self._ptr(sigs), self._ptr(states), self._ptr(dwork_init)
        )

    def out_major(self, step: int):
        self._lib.nx_out_major(step)

    def finish(self, step: int):
        self._lib.nx_finish(step)

    def run(self, start: int, n: int, scope_out, trace_out):
        self._lib.nx_run(start, n, self._ptr(scope_out), self._ptr(trace_out))


class NativePath:
    """A bound native executor for one simulator's buffers.

    ``signals`` must be a contiguous float64 ndarray (the engine swaps
    its scalar list out right before binding); ``states`` is the
    engine's state vector, shared with every ``BlockContext.x`` view.
    """

    def __init__(self, program, so_path: str, signals: np.ndarray,
                 states: Optional[np.ndarray]):
        self.program = program
        self.so_path = so_path
        self._lib = _CtypesLib(so_path)
        self._sigs = signals
        self._states = states if program.n_states else None
        self._dwork = (
            np.asarray(program.dwork_init, dtype=np.float64)
            if program.n_dwork else None
        )
        if not isinstance(self._sigs, np.ndarray):
            raise TypeError("bind requires ndarray signals")
        self._lib.bind(self._sigs, self._states, self._dwork)

    def out_major(self, step: int) -> None:
        self._lib.out_major(step)

    def finish(self, step: int) -> None:
        self._lib.finish(step)

    def run_chunk(self, start: int, n: int, want_trace: bool):
        """Run ``n`` major steps; returns ``(scope_rows, trace_rows)``
        as ``(n, n_scopes)`` / ``(n, n_signals)`` arrays (trace is
        ``None`` unless requested)."""
        scope = np.empty((n, max(1, len(self.program.scope_sigs))))
        trace = np.empty((n, self.program.n_signals)) if want_trace else None
        self._lib.run(start, n, scope, trace)
        return scope, trace
