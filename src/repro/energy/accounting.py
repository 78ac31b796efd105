"""Per-component energy ledger.

Every array operation returns an :class:`EnergyLedger` that attributes each
joule to a named component (``ml_precharge``, ``sl``, ``sa``...).  Ledgers
add, merge and scale; the breakdown benchmark (R-F7) is a direct read-out
of one.  A batch search keeps its per-key ledgers as one
:class:`EnergyMatrix` -- the same ledgers, stored column by column.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ReproError


class EnergyComponent(str, enum.Enum):
    """Canonical component names used by the TCAM accounting."""

    ML_PRECHARGE = "ml_precharge"
    ML_DISSIPATION = "ml_dissipation"
    SEARCHLINE = "sl"
    SENSE_AMP = "sa"
    RACE_SOURCE = "race_source"
    PRIORITY_ENCODER = "priority_encoder"
    LEAKAGE = "leakage"
    WRITE = "write"
    CLOCK = "clock"
    REPAIR = "repair"


class EnergyLedger:
    """Additive map from component name to joules.

    Components may be :class:`EnergyComponent` members or free-form strings
    (for ad-hoc experiments); they are normalized to strings internally.

    >>> led = EnergyLedger()
    >>> led.add(EnergyComponent.SEARCHLINE, 1e-15)
    >>> led.add("sl", 2e-15)
    >>> round(led.total * 1e15, 3)
    3.0
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, float] | None = None) -> None:
        self._entries: dict[str, float] = {}
        if entries:
            for name, joules in entries.items():
                self.add(name, joules)

    @staticmethod
    def _key(component: EnergyComponent | str) -> str:
        return component.value if isinstance(component, EnergyComponent) else str(component)

    @classmethod
    def _from_booked(cls, entries: dict[str, float]) -> "EnergyLedger":
        """Adopt ``entries`` as the component map without re-validation.

        Internal fast path for the batch kernels, which assemble thousands
        of single-search ledgers per call: the caller promises the keys are
        canonical component strings in booking order and the values are the
        exact floats the equivalent :meth:`add` sequence would have stored
        (non-negative, finite).  The dict is adopted, not copied.
        """
        led = cls.__new__(cls)
        led._entries = entries
        return led

    def add(self, component: EnergyComponent | str, joules: float) -> None:
        """Accumulate ``joules`` under ``component``.

        Raises:
            ReproError: for negative or non-finite energy.
        """
        if not joules >= 0.0:  # also catches NaN
            raise ReproError(f"energy must be non-negative and finite, got {joules}")
        key = self._key(component)
        self._entries[key] = self._entries.get(key, 0.0) + joules

    def get(self, component: EnergyComponent | str) -> float:
        """Energy booked under ``component`` so far [J] (0.0 if absent)."""
        return self._entries.get(self._key(component), 0.0)

    @property
    def total(self) -> float:
        """Sum over all components [J]."""
        return sum(self._entries.values())

    # -- stable read surface -------------------------------------------------
    # The supported way to consume a ledger (benchmarks, workloads and the
    # trace exporter all go through these); ``_entries`` stays private.

    def components(self) -> tuple[str, ...]:
        """Component names with booked energy, in booking order."""
        return tuple(self._entries)

    def as_dict(self) -> dict[str, float]:
        """Copy of the component map in booking order (cf. sorted
        :meth:`breakdown`)."""
        return dict(self._entries)

    def __iter__(self) -> "Iterator[tuple[str, float]]":
        """Iterate ``(component, joules)`` pairs in booking order."""
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def fraction(self, component: EnergyComponent | str) -> float:
        """``component``'s share of the total (0.0 for an empty ledger)."""
        total = self.total
        if total == 0.0:
            return 0.0
        return self.get(component) / total

    def breakdown(self) -> dict[str, float]:
        """Copy of the component map, largest first."""
        return dict(sorted(self._entries.items(), key=lambda kv: -kv[1]))

    def fractions(self) -> dict[str, float]:
        """Breakdown normalized to the total (empty ledger -> empty dict)."""
        total = self.total
        if total == 0.0:
            return {}
        return {k: v / total for k, v in self.breakdown().items()}

    def merge(self, other: "EnergyLedger") -> None:
        """Add every component of ``other`` into this ledger."""
        for name, joules in other._entries.items():
            self.add(name, joules)

    def scaled(self, factor: float) -> "EnergyLedger":
        """Return a new ledger with every entry multiplied by ``factor``."""
        if factor < 0.0:
            raise ReproError(f"scale factor must be non-negative, got {factor}")
        return EnergyLedger({k: v * factor for k, v in self._entries.items()})

    def __add__(self, other: "EnergyLedger") -> "EnergyLedger":
        out = EnergyLedger(self._entries)
        out.merge(other)
        return out

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.3e}" for k, v in self.breakdown().items())
        return f"EnergyLedger({parts})"

    @classmethod
    def sum(cls, ledgers: Iterable["EnergyLedger"]) -> "EnergyLedger":
        """Merge an iterable of ledgers into a fresh one."""
        out = cls()
        for ledger in ledgers:
            out.merge(ledger)
        return out


class EnergyMatrix:
    """The per-key ledgers of one batch, as arrays.

    Row ``i`` is key ``i``'s ledger: ``values[i, c]`` joules under
    component ``LAYOUT[c]`` where ``booked[i, c]`` (0.0 elsewhere),
    booked in ascending ``rank[..., c]`` -- one ``(components,)`` order
    shared by every row, or an ``(n_keys, components)`` order per row.
    The booking order has to be carried per key because it can differ
    between neighbours: a chip books a wake-up ``clock`` before the
    bank's components, a fabric whose second probe woke a gated bank
    books it after them.  Every matrix uses the one column layout
    :data:`LAYOUT`, so matrices of different layers merge elementwise.

    Every operation reproduces the ledger arithmetic bit for bit:

    * :meth:`merged` adds matrices elementwise.  A ledger merge adds
      ``0.0 + x`` for a new component and skips an absent one; the
      matrix adds ``x + 0.0`` there instead, the same float for
      non-negative joules.
    * :meth:`totals` sums each row left to right in booking order with
      ``np.cumsum`` (a strictly sequential accumulation, like
      :attr:`EnergyLedger.total`).  ``np.add.reduce``/``reduceat`` sum
      pairwise and do not reproduce it.
    * :meth:`summed` accumulates the rows top to bottom, as
      :meth:`EnergyLedger.sum` over the per-key ledgers does.
    """

    __slots__ = ("values", "booked", "rank")

    def __init__(self, values: np.ndarray, booked: np.ndarray, rank: np.ndarray) -> None:
        self.values = values
        self.booked = booked
        self.rank = rank

    @staticmethod
    def column(name: str) -> int:
        """Column of component ``name`` in :data:`LAYOUT`."""
        try:
            return _COLUMN[name]
        except KeyError:
            raise ReproError(
                f"component {name!r} has no column in the batch layout {LAYOUT}"
            ) from None

    @classmethod
    def empty(cls, n: int) -> "EnergyMatrix":
        """``n`` empty ledgers."""
        shape = (n, len(LAYOUT))
        return cls(np.zeros(shape), np.zeros(shape, dtype=bool), _LAYOUT_RANK)

    @classmethod
    def booking(cls, names: Sequence[str], n: int) -> "EnergyMatrix":
        """``n`` ledgers that each book ``names``, in that order, at 0.0 J
        until the caller fills ``values[:, column(name)]`` (and clears
        ``booked`` where a key does not book a component)."""
        names = tuple(names)
        pattern = _BOOKINGS.get(names)
        if pattern is None:
            cols = [cls.column(name) for name in names]
            rank = np.arange(len(cols), len(cols) + len(LAYOUT))  # unbooked last
            rank[cols] = np.arange(len(cols))
            mask = np.zeros(len(LAYOUT), dtype=bool)
            mask[cols] = True
            pattern = _BOOKINGS[names] = (mask, rank)
        mask, rank = pattern
        booked = np.empty((n, len(LAYOUT)), dtype=bool)
        booked[:] = mask
        return cls(np.zeros((n, len(LAYOUT))), booked, rank)

    @classmethod
    def from_ledgers(cls, ledgers: Sequence[EnergyLedger]) -> "EnergyMatrix":
        """Stack ledgers row by row."""
        out = cls.empty(len(ledgers))
        out.rank = np.zeros(out.values.shape, dtype=np.int64)
        for i, ledger in enumerate(ledgers):
            for pos, (name, joules) in enumerate(ledger._entries.items()):
                c = cls.column(name)
                out.values[i, c], out.booked[i, c], out.rank[i, c] = joules, True, pos
        return out

    def __len__(self) -> int:
        return self.values.shape[0]

    def merged(self, other: "EnergyMatrix", rows: np.ndarray | None = None) -> "EnergyMatrix":
        """Each row's ledger with ``other``'s merged in after it.

        With ``rows``, row ``j`` of ``other`` merges into row
        ``rows[j]`` of this matrix and the remaining rows are unchanged.
        """
        # A component new to a row ranks after everything the row holds.
        offset = int(self.rank.max(initial=0)) + 1
        if rows is None:
            return EnergyMatrix(
                self.values + other.values,
                self.booked | other.booked,
                np.where(self.booked, self.rank, other.rank + offset),
            )
        values = self.values.copy()
        booked = self.booked.copy()
        rank = np.empty(values.shape, dtype=np.int64)
        rank[...] = self.rank
        held = booked[rows]
        values[rows] += other.values
        rank[rows] = np.where(held, rank[rows], other.rank + offset)
        booked[rows] = held | other.booked
        return EnergyMatrix(values, booked, rank)

    def _row_rank(self, i: int) -> np.ndarray:
        return self.rank if self.rank.ndim == 1 else self.rank[i]

    def totals(self) -> np.ndarray:
        """Per-row :attr:`EnergyLedger.total`: a left-to-right sum in
        booking order (unbooked columns add an exact ``+0.0`` last)."""
        key = np.where(self.booked, self.rank, np.iinfo(np.int64).max)
        order = np.argsort(key, axis=1, kind="stable")
        ordered = np.take_along_axis(self.values, order, axis=1)
        return np.cumsum(ordered, axis=1)[:, -1]

    def ledger(self, i: int) -> EnergyLedger:
        """Key ``i``'s :class:`EnergyLedger`."""
        booked = np.flatnonzero(self.booked[i])
        order = booked[np.argsort(self._row_rank(i)[booked], kind="stable")]
        values = self.values[i]
        return EnergyLedger._from_booked(
            {LAYOUT[c]: float(values[c]) for c in order.tolist()}
        )

    def summed(self) -> EnergyLedger:
        """:meth:`EnergyLedger.sum` of the rows: each component summed
        top to bottom, components in order of first booking."""
        if len(self) == 0:
            return EnergyLedger()
        sums = np.cumsum(self.values, axis=0)[-1]
        first = np.argmax(self.booked, axis=0)
        cols = sorted(
            np.flatnonzero(self.booked.any(axis=0)).tolist(),
            key=lambda c: (first[c], self._row_rank(first[c])[c]),
        )
        return EnergyLedger._from_booked({LAYOUT[c]: float(sums[c]) for c in cols})


#: Column layout of every :class:`EnergyMatrix`: the canonical components
#: in the order an array search books them, the rest, then the free-form
#: ones the fabric (``link``, ``distribution``) and the serving layer
#: (``dispatch``) book.  A batch books nothing else.
LAYOUT = tuple(
    c.value
    for c in (
        EnergyComponent.SEARCHLINE,
        EnergyComponent.ML_PRECHARGE,
        EnergyComponent.ML_DISSIPATION,
        EnergyComponent.SENSE_AMP,
        EnergyComponent.RACE_SOURCE,
        EnergyComponent.PRIORITY_ENCODER,
        EnergyComponent.LEAKAGE,
        EnergyComponent.CLOCK,
        EnergyComponent.WRITE,
        EnergyComponent.REPAIR,
    )
) + ("link", "distribution", "dispatch")
_COLUMN = {name: c for c, name in enumerate(LAYOUT)}
_LAYOUT_RANK = np.arange(len(LAYOUT))

#: Booked mask and rank of each :meth:`EnergyMatrix.booking` name order.
_BOOKINGS: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
