"""Defect maps over the cells of one TCAM array.

A :class:`FaultMap` records *hardware* defects of a deployed array --
which cells are broken and how -- without knowing anything about the
array's electrical configuration.  The array core interprets the map at
search time: faulty cells perturb the match-line discharge through the
same :mod:`repro.circuits` physics the healthy cells use, so a fault
shows up as a wrong *sensed* decision rather than a bolted-on output
bit-flip.

Fault taxonomy (per cell unless noted):

* ``STUCK_MATCH`` -- the compare pull-down path is open.  The cell can
  never discharge its match line, so a genuine mismatch in this column
  is invisible (false-match pressure).
* ``STUCK_MISS`` -- the compare path is shorted to the search-line
  drive.  Whenever the column is driven the cell conducts, regardless
  of the stored trit (false-miss pressure).
* ``STUCK_TRIT`` -- the storage element is frozen at one trit (writes
  no longer take); the compare path itself is healthy and acts on the
  frozen value.
* ``RETENTION`` -- retention loss / disturb accumulation shifted the
  stored device's threshold by ``value`` volts, weakening the pull-down
  (the :meth:`~repro.tcam.cell.CellDescriptor.i_pulldown` ``vt_offset``
  hook).  Slow near-misses are where sensing actually fails.
* ``dead_rows`` (row-level) -- the row's match line or driver is gone;
  the row is never precharged, burns no search energy and can never
  match (a hard false-miss for its content).
* ``sa_offset`` (row-level) -- the row's sense amplifier carries a
  static input-referred offset [V], shifting its decision threshold.

The map is deliberately a plain value object: mutation bumps
:attr:`version` so an attached array can clear its fault-class memo,
and :meth:`split_cols` / :meth:`split_rows` project one chip-level map
onto segmented banks and multi-bank chips.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import FaultError

#: Trit encodings a ``STUCK_TRIT`` cell may freeze at (0, 1, X).
_TRIT_CODES = (0, 1, 2)


class FaultKind(enum.IntEnum):
    """Per-cell fault categories (``NONE`` marks a healthy cell)."""

    NONE = 0
    STUCK_MATCH = 1
    STUCK_MISS = 2
    STUCK_TRIT = 3
    RETENTION = 4


class FaultMap:
    """Defect state of one ``rows x cols`` array.

    Args:
        rows: Array row count.
        cols: Trits per row.

    Attributes:
        kind: ``(rows, cols)`` int8 matrix of :class:`FaultKind` codes.
        value: ``(rows, cols)`` float matrix -- the Vt shift [V] of a
            ``RETENTION`` cell, or the frozen trit code of a
            ``STUCK_TRIT`` cell; 0.0 elsewhere.
        dead_rows: ``(rows,)`` bool -- rows with a broken match line.
        sa_offset: ``(rows,)`` float -- per-row sense-amp offsets [V].
        version: Monotonic mutation counter; every state change bumps
            it so attached arrays can invalidate cached trajectories.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise FaultError(f"fault map must be at least 1x1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.kind = np.zeros((rows, cols), dtype=np.int8)
        self.value = np.zeros((rows, cols), dtype=float)
        self.dead_rows = np.zeros(rows, dtype=bool)
        self.sa_offset = np.zeros(rows, dtype=float)
        self.version = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _check_cell(self, row: int, col: int) -> None:
        if not 0 <= row < self.rows:
            raise FaultError(f"row {row} outside [0, {self.rows})")
        if not 0 <= col < self.cols:
            raise FaultError(f"col {col} outside [0, {self.cols})")

    def set_cell(self, row: int, col: int, kind: FaultKind, value: float = 0.0) -> None:
        """Mark one cell faulty (or healthy again with ``FaultKind.NONE``).

        Args:
            row: Cell row.
            col: Cell column.
            kind: Fault category.
            value: Vt shift [V] for ``RETENTION`` (must be finite),
                frozen trit code (0/1/2) for ``STUCK_TRIT``; ignored
                otherwise.
        """
        self._check_cell(row, col)
        kind = FaultKind(kind)
        if kind is FaultKind.RETENTION:
            if not np.isfinite(value):
                raise FaultError(f"retention Vt shift must be finite, got {value}")
        elif kind is FaultKind.STUCK_TRIT:
            if int(value) not in _TRIT_CODES:
                raise FaultError(
                    f"stuck trit must encode 0, 1 or X (codes {_TRIT_CODES}), got {value}"
                )
            value = float(int(value))
        else:
            value = 0.0
        self.kind[row, col] = int(kind)
        self.value[row, col] = value
        self.version += 1

    def set_dead_row(self, row: int, dead: bool = True) -> None:
        """Mark a whole row's match line broken (or repaired)."""
        if not 0 <= row < self.rows:
            raise FaultError(f"row {row} outside [0, {self.rows})")
        self.dead_rows[row] = bool(dead)
        self.version += 1

    def set_sa_offset(self, row: int, offset: float) -> None:
        """Set the static input offset of one row's sense amplifier [V]."""
        if not 0 <= row < self.rows:
            raise FaultError(f"row {row} outside [0, {self.rows})")
        if not np.isfinite(offset):
            raise FaultError(f"sense-amp offset must be finite, got {offset}")
        self.sa_offset[row] = float(offset)
        self.version += 1

    def merge(self, other: "FaultMap") -> None:
        """Overlay ``other``'s faults onto this map (other wins on overlap)."""
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise FaultError(
                f"cannot merge a {other.rows}x{other.cols} map into "
                f"{self.rows}x{self.cols}"
            )
        faulty = other.kind != int(FaultKind.NONE)
        self.kind[faulty] = other.kind[faulty]
        self.value[faulty] = other.value[faulty]
        self.dead_rows |= other.dead_rows
        nonzero = other.sa_offset != 0.0
        self.sa_offset[nonzero] = other.sa_offset[nonzero]
        self.version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """True when the map carries no fault of any kind."""
        return (
            not self.kind.any()
            and not self.dead_rows.any()
            and not self.sa_offset.any()
        )

    def faulty_cell_mask(self) -> np.ndarray:
        """Bool ``(rows, cols)`` mask of cells carrying any cell fault."""
        return self.kind != int(FaultKind.NONE)

    def faulty_rows(self) -> np.ndarray:
        """Bool ``(rows,)`` mask of rows touched by any fault kind."""
        return (
            self.faulty_cell_mask().any(axis=1)
            | self.dead_rows
            | (self.sa_offset != 0.0)
        )

    def n_faulty_cells(self) -> int:
        """Cells carrying a cell-level fault."""
        return int(np.count_nonzero(self.kind))

    def effective_stored(self, stored: np.ndarray) -> np.ndarray:
        """Trit matrix the hardware actually holds.

        ``STUCK_TRIT`` cells present their frozen value regardless of
        what was written; every other kind leaves the stored trit alone
        (their damage is electrical, applied in the discharge model).
        """
        if stored.shape != (self.rows, self.cols):
            raise FaultError(
                f"stored matrix shape {stored.shape} does not match fault map "
                f"{self.rows}x{self.cols}"
            )
        frozen = self.kind == int(FaultKind.STUCK_TRIT)
        if not frozen.any():
            return stored
        out = stored.copy()
        out[frozen] = self.value[frozen].astype(stored.dtype)
        return out

    def summary(self) -> dict[str, int]:
        """Fault census: per-kind cell counts plus row-level totals."""
        out = {
            kind.name.lower(): int(np.count_nonzero(self.kind == int(kind)))
            for kind in FaultKind
            if kind is not FaultKind.NONE
        }
        out["dead_rows"] = int(np.count_nonzero(self.dead_rows))
        out["sa_offset_rows"] = int(np.count_nonzero(self.sa_offset))
        return out

    def copy(self) -> "FaultMap":
        """Independent deep copy (same version counter)."""
        out = FaultMap(self.rows, self.cols)
        out.kind = self.kind.copy()
        out.value = self.value.copy()
        out.dead_rows = self.dead_rows.copy()
        out.sa_offset = self.sa_offset.copy()
        out.version = self.version
        return out

    # ------------------------------------------------------------------
    # Projections (banks and chips)
    # ------------------------------------------------------------------

    def split_cols(self, widths: list[int]) -> list["FaultMap"]:
        """Project onto consecutive column segments (segmented banks).

        Row-level faults (dead rows, SA offsets) replicate into every
        segment: a broken match line kills the whole logical row, and a
        segmented bank strobes each segment with its own per-row SA.
        """
        if any(w < 1 for w in widths):
            raise FaultError(f"segment widths must be >= 1, got {widths}")
        if sum(widths) != self.cols:
            raise FaultError(f"segments {widths} do not sum to {self.cols} columns")
        maps = []
        lo = 0
        for w in widths:
            seg = FaultMap(self.rows, w)
            seg.kind = self.kind[:, lo : lo + w].copy()
            seg.value = self.value[:, lo : lo + w].copy()
            seg.dead_rows = self.dead_rows.copy()
            seg.sa_offset = self.sa_offset.copy()
            seg.version = self.version
            maps.append(seg)
            lo += w
        return maps

    def split_rows(self, rows_per_bank: int) -> list["FaultMap"]:
        """Project onto consecutive row groups (multi-bank chips)."""
        if rows_per_bank < 1:
            raise FaultError(f"rows_per_bank must be >= 1, got {rows_per_bank}")
        if self.rows % rows_per_bank != 0:
            raise FaultError(
                f"{self.rows} rows do not split into banks of {rows_per_bank}"
            )
        maps = []
        for lo in range(0, self.rows, rows_per_bank):
            hi = lo + rows_per_bank
            bank = FaultMap(rows_per_bank, self.cols)
            bank.kind = self.kind[lo:hi].copy()
            bank.value = self.value[lo:hi].copy()
            bank.dead_rows = self.dead_rows[lo:hi].copy()
            bank.sa_offset = self.sa_offset[lo:hi].copy()
            bank.version = self.version
            maps.append(bank)
        return maps

    def __repr__(self) -> str:
        return (
            f"FaultMap({self.rows}x{self.cols}, cells={self.n_faulty_cells()}, "
            f"dead_rows={int(np.count_nonzero(self.dead_rows))}, v{self.version})"
        )
