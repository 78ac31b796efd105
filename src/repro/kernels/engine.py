"""Compiled per-class sensing tables for one array.

A match line's sensing result depends only on its mismatch class
``(n_miss, driven)``.  The kernel engine compiles the class triangle of
the array's electrical configuration into flat per-``driven`` rows of
sensing results -- match verdicts, restore/dissipation/sense energies,
strobe and restore delays -- plus per-``driven`` rows of distance-mode
strobe windows.  The rows survive writes (content never enters the
class physics), are gathered with fancy indexing by every batch API,
and are the array's memo of nominal class physics (the per-key
distance bodies read them too).  Fault-shaped classes -- a row whose
weakened retention pull-downs conduct, or whose sense amp carries an
offset -- are memoized beside the rows by their full physics signature
(:meth:`KernelEngine.signature_results`).

Precharge-style rows are derived from a :class:`WaveformTable` (the
tabulated RK4 endpoints); current-race rows evaluate the race amp's
closed form per class.  Both reuse the array's own per-class helpers
(:meth:`TCAMArray._precharge_class_from_v_end` /
:meth:`TCAMArray._signature_results`), so every tabulated quantity is
the exact object the scalar search would have computed.

Counters: ``table_hits`` counts per-key class queries served from the
tables, ``rk4_fallbacks`` counts queries answered by the RK4 reference
path (keys whose ``driven`` exceeds a pinned grid); the array delta-
syncs both into the ``MetricsRegistry`` as ``kernels.table_hits`` /
``kernels.rk4_fallbacks`` at batch boundaries.  Every row compilation
runs inside a ``kernels.build_row`` span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import KernelError
from .waveform import WaveformTable


@dataclass(frozen=True)
class PrechargeClassRow:
    """Per-class sensing results of one ``driven`` value, as flat arrays.

    Entry ``n`` of every field is the corresponding attribute of the
    array's ``_PrechargeClassResult`` for class ``(n, driven)``.
    """

    v_end: np.ndarray
    is_match: np.ndarray
    e_restore: np.ndarray
    e_diss: np.ndarray
    e_sense: np.ndarray
    t_sense: np.ndarray
    t_restore: np.ndarray


@dataclass(frozen=True)
class RaceClassRow:
    """Per-class current-race results of one ``driven`` value."""

    is_match: np.ndarray
    energy: np.ndarray
    delay: np.ndarray


class SignatureMemo(dict):
    """Signature-keyed class results; a deep copy of the array (same
    electrical configuration) shares them instead of copying them."""

    def __deepcopy__(self, memo: dict) -> "SignatureMemo":
        return self


class KernelEngine:
    """Compiled class tables + counters for one :class:`TCAMArray`.

    Args:
        array: The owning array (its electrical configuration is fixed
            at construction, so the tables never need invalidation).
        max_driven: Largest tabulated ``driven_cols``; ``None`` tabulates
            the full triangle up to the array width.  Batches containing
            keys that drive more columns fall back to the RK4 reference
            path for those keys.
    """

    def __init__(self, array, *, max_driven: int | None = None) -> None:
        cols = array.geometry.cols
        if max_driven is None:
            max_driven = cols
        if not 0 <= max_driven <= cols:
            raise KernelError(
                f"max_driven must be in [0, {cols}], got {max_driven}"
            )
        self._array = array
        self.max_driven = int(max_driven)
        self.table_hits = 0
        self.rk4_fallbacks = 0
        self._rows: dict[int, PrechargeClassRow | RaceClassRow] = {}
        self._window_rows: dict[int, np.ndarray] = {}
        # Sensing results of exceptional (fault-shaped) classes, keyed by
        # the full physics signature -- it can never go stale.
        self._signatures = SignatureMemo()
        if array.sensing == "precharge":
            self.waveform: WaveformTable | None = WaveformTable(
                array.c_ml,
                array.cell.i_pulldown,
                array.cell.i_leak,
                array.precharge.target_voltage(),
                array.t_eval,
                max_driven=self.max_driven,
            )
        else:
            self.waveform = None

    # -- table access ------------------------------------------------------

    def in_grid(self, driven: int) -> bool:
        """True when every class of this ``driven`` value is tabulated."""
        return 0 <= driven <= self.max_driven

    @property
    def rows_built(self) -> int:
        """Number of ``driven`` rows compiled so far."""
        return len(self._rows)

    def row(self, driven: int) -> PrechargeClassRow | RaceClassRow:
        """Compiled sensing row for one ``driven`` value (built lazily)."""
        if not self.in_grid(driven):
            raise KernelError(
                f"driven {driven} outside compiled grid [0, {self.max_driven}]"
            )
        cached = self._rows.get(driven)
        if cached is not None:
            return cached
        with obs.span("kernels.build_row", table="class", driven=driven):
            built = self._build_row(driven)
        self._rows[driven] = built
        return built

    def _build_row(self, driven: int) -> PrechargeClassRow | RaceClassRow:
        array = self._array
        if array.sensing == "precharge":
            results = [
                array._precharge_class_from_v_end(float(v)) for v in self.waveform.row(driven)
            ]
            row_type = PrechargeClassRow
        else:
            results = array._signature_results(
                [(n, (), driven - n, 0.0) for n in range(driven + 1)]
            )
            row_type = RaceClassRow
        built = row_type(
            **{
                name: np.array(
                    [getattr(r, name) for r in results],
                    dtype=bool if name == "is_match" else float,
                )
                for name in row_type.__dataclass_fields__
            }
        )
        for field in vars(built).values():
            field.setflags(write=False)
        return built

    def precompute(self, drivens: "range | list[int] | None" = None) -> None:
        """Compile rows eagerly (the whole grid by default)."""
        if drivens is None:
            drivens = range(self.max_driven + 1)
        for d in drivens:
            self.row(int(d))

    def window_row(self, driven: int) -> np.ndarray:
        """Crossing-time table for the distance-mode evaluation windows.

        Entry ``n`` is the time for an ``n``-mismatch line (of ``driven``
        driven columns) to cross the sense reference -- float for float
        ``TCAMArray._crossing_time``, with non-finite crossings clamped
        to ``t_eval``.  Entry 0 (a full match never crosses) is
        ``t_eval``.  The distance kernel gathers
        nearest/threshold/top-k strobe windows from these rows instead
        of re-deriving them per key.  Precharge sensing only.
        """
        if self._array.sensing != "precharge":
            raise KernelError("window tables apply to precharge-style sensing only")
        if not self.in_grid(driven):
            raise KernelError(
                f"driven {driven} outside compiled grid [0, {self.max_driven}]"
            )
        cached = self._window_rows.get(driven)
        if cached is not None:
            return cached
        array = self._array
        with obs.span("kernels.build_row", table="window", driven=driven):
            out = np.empty(driven + 1)
            out[0] = array.t_eval
            for n in range(1, driven + 1):
                out[n] = array._crossing_time(n, driven)
        out.setflags(write=False)
        self._window_rows[driven] = out
        return out

    def signature_results(self, signatures: list[tuple]) -> list:
        """Sensing results of exceptional classes, memoized by signature.

        A signature is ``(n_strong, weak_offsets, n_leak, sa_offset)``
        (see :meth:`TCAMArray._signature_results`).  It fixes the whole
        physics of a match line, so the memo survives writes, fault-map
        changes and array copies.  Every missing signature integrates in
        one stacked pass inside a ``kernels.integrate_signatures`` span.
        """
        memo = self._signatures
        missing = [s for s in dict.fromkeys(signatures) if s not in memo]
        if missing:
            with obs.span("kernels.integrate_signatures", n_signatures=len(missing)):
                memo.update(zip(missing, self._array._signature_results(missing)))
        return [memo[s] for s in signatures]

    def _electrical_signature(self) -> tuple:
        """The parameters the compiled tables depend on (and nothing else)."""
        array = self._array
        cell = array.cell
        sig = (
            array.sensing,
            self.max_driven,
            array.geometry.cols,
            float(array.c_ml),
            # The pull-down / leakage curves are fully determined by the
            # cell's type and parameter set.
            type(cell).__name__,
            repr(cell.params),
            float(array.t_eval),
            float(array.vdd),
        )
        if array.sensing == "precharge":
            sig += (
                float(array.precharge.target_voltage()),
                float(array.sense_amp.v_ref),
            )
        return sig

    def adopt_tables(self, donor: "KernelEngine") -> None:
        """Share the donor engine's compiled tables with this engine.

        The class tables and the signature memo depend only on the
        array's electrical configuration, never on its contents or its
        fault map -- so a fleet of identical banks (a
        :class:`~repro.tcam.chip.TCAMChip`, a sharded retrieval index) can
        compile the triangle once and serve every bank from it.  The
        caches are shared *by reference*: a row lazily built (or a
        signature integrated) through any adopting engine becomes
        visible to all of them.
        Hit/fallback counters stay per-engine.

        Raises:
            KernelError: if the two arrays differ in any parameter the
                tables are derived from (sensing style, grid bound,
                geometry, ML load, cell currents, timing, voltages).
        """
        if donor is self:
            return
        mine, theirs = self._electrical_signature(), donor._electrical_signature()
        if mine != theirs:
            raise KernelError(
                "cannot adopt kernel tables across electrically different "
                f"arrays: {mine} != {theirs}"
            )
        self._rows = donor._rows
        self._window_rows = donor._window_rows
        self._signatures = donor._signatures
        self.waveform = donor.waveform

    # -- validation / diagnostics -----------------------------------------

    def validate(self, rtol: float = 1e-9) -> float:
        """Validate the waveform table against the scalar RK4 reference.

        Returns the worst relative endpoint error (see
        :meth:`WaveformTable.validate`); current-race tables have no
        integration step and trivially validate at 0.0.
        """
        if self.waveform is None:
            return 0.0
        drivens = sorted(
            d for d in self._rows if isinstance(self._rows[d], PrechargeClassRow)
        )
        return self.waveform.validate(rtol=rtol, drivens=drivens or None)

    def counters(self) -> dict[str, int]:
        """Snapshot of the hit/fallback/build counters."""
        return {
            "table_hits": self.table_hits,
            "rk4_fallbacks": self.rk4_fallbacks,
            "rows_built": self.rows_built,
            "classes_tabulated": (
                self.waveform.classes_tabulated if self.waveform is not None else 0
            ),
        }
