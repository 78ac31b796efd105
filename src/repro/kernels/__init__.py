"""Compiled search kernels: tabulated waveforms + SoA batch state.

The hot path of every energy/delay figure is the match-line discharge.
This package compiles it: :class:`WaveformTable` tabulates the RK4
discharge endpoints over the dense mismatch-class grid once per
electrical configuration, :class:`SoAState` re-expresses the stored
trits as contiguous planes so batch mismatch counting is one matmul,
and :class:`KernelEngine` stitches both into flat per-class sensing
tables every ``TCAMArray`` batch API gathers from.

Every array builds its engine on first use (``array.kernel``); the
scalar APIs keep the RK4 integrator as the reference path -- tables
validate against it to ``<= 1e-9`` relative error, and keys beyond a
pinned grid fall back to it.  See DESIGN.md §11.
"""

from .engine import KernelEngine, PrechargeClassRow, RaceClassRow
from .soa import SoAState
from .waveform import WaveformTable

__all__ = [
    "KernelEngine",
    "PrechargeClassRow",
    "RaceClassRow",
    "SoAState",
    "WaveformTable",
]
