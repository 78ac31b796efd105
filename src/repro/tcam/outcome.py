"""The common read surface of every search outcome.

Four outcome types grew up independently -- :class:`~repro.tcam.array.
SearchOutcome`, :class:`~repro.tcam.bank.SegmentedSearchOutcome`,
:class:`~repro.tcam.chip.ChipSearchOutcome` and :class:`~repro.tcam.
array.NearestMatchOutcome` -- with four incompatible shapes.  They all
answer the same five questions, so :class:`BaseOutcome` names them once:

* ``match_mask`` -- per-row verdicts (``None`` where not modeled),
* ``first_match`` -- winning row index, or ``None``,
* ``energy`` -- the operation's :class:`~repro.energy.accounting.
  EnergyLedger`,
* ``search_delay`` -- key-to-result latency [s],
* ``cycle_time`` -- minimum time before the next operation [s].

Subclasses keep their historical field names (no caller breaks); where a
canonical name is not already a dataclass field they add a delegating
property.  :meth:`BaseOutcome.to_dict` renders the canonical surface
plus each type's extra fields as one JSON-ready dict -- the single
serialization used by the trace exporter and the CLI ``--json`` mode.

A batch search returns one :class:`BatchOutcome`: the same five answers
for every key as arrays (an ``(n_keys x component)`` energy matrix among
them), with the per-key outcome objects built only when indexed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

from ..energy.accounting import EnergyMatrix

#: Version of the serialized outcome format emitted by
#: :meth:`BaseOutcome.to_dict` (and hence every CLI ``--json`` payload
#: and trace export).  Bump on any change to the canonical key set or
#: the meaning of an existing key; see DESIGN.md section 7.
SCHEMA_VERSION = 1


class BaseOutcome:
    """Uniform accessor surface + serializer shared by all outcomes.

    Deliberately field-free: concrete outcome dataclasses own their
    storage, this base only reads it through the canonical names above.
    """

    @property
    def energy_total(self) -> float:
        """Total operation energy [J]."""
        return self.energy.total

    def _extra_dict(self) -> dict[str, Any]:
        """Type-specific fields appended to :meth:`to_dict`."""
        return {}

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict with one canonical shape for every outcome.

        Canonical keys (always present): ``schema_version``, ``type``,
        ``match_mask``, ``first_match``, ``energy`` (component map),
        ``energy_total``, ``search_delay``, ``cycle_time``.
        Type-specific extras follow.  Downstream consumers should
        check ``schema_version`` (currently :data:`SCHEMA_VERSION`)
        before relying on the shape.
        """
        mask = self.match_mask
        out: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "type": type(self).__name__,
            "match_mask": None if mask is None else [bool(m) for m in mask],
            "first_match": None if self.first_match is None else int(self.first_match),
            "energy": self.energy.as_dict(),
            "energy_total": self.energy.total,
            "search_delay": self.search_delay,
            "cycle_time": self.cycle_time,
        }
        out.update(self._extra_dict())
        return out


def mask_to_list(mask: np.ndarray | None) -> list[bool] | None:
    """Plain-bool list form of a verdict mask (``None`` passes through)."""
    if mask is None:
        return None
    return [bool(m) for m in mask]


class BatchOutcome(Sequence):
    """Struct-of-arrays outcome of one batch search, one row per key.

    Attributes:
        first: Per key, the winning row (or rule) index, ``-1`` for none.
        search_delay: Per-key key-to-result latency [s].
        cycle_time: Per-key minimum time before the next operation [s].
        energy: The per-key ledgers as one :class:`~repro.energy.
            accounting.EnergyMatrix`.
        match: ``(n_keys, rows)`` physical verdicts, or ``None`` where
            per-row masks are not modeled (the fabric merge).
        columns: The layer's own per-key columns (e.g. the array's
            dense miss histogram, the chip's bank index).

    Indexing key ``i`` builds (once) the layer's per-key outcome object
    -- a :class:`~repro.tcam.array.SearchOutcome`, ``ChipSearchOutcome``
    or ``FabricSearchOutcome`` -- with ``view(batch, i)``, so callers
    that walk the batch item by item see exactly the objects the scalar
    path returns, while columnar consumers never build them.
    """

    def __init__(
        self,
        *,
        first: np.ndarray,
        search_delay: np.ndarray,
        cycle_time: np.ndarray,
        energy: EnergyMatrix,
        view: Callable[["BatchOutcome", int], BaseOutcome],
        match: np.ndarray | None = None,
        **columns: Any,
    ) -> None:
        self.first = first
        self.search_delay = search_delay
        self.cycle_time = cycle_time
        self.energy = energy
        self.match = match
        self.columns = columns
        self._view = view
        self._items: list[BaseOutcome | None] = [None] * len(first)

    @classmethod
    def of(cls, outcomes: Sequence[BaseOutcome]) -> "BatchOutcome":
        """Columns of a plain outcome list (a bank without a batch
        engine); its items are the given objects."""
        if isinstance(outcomes, BatchOutcome):
            return outcomes
        outcomes = list(outcomes)
        masks = [o.match_mask for o in outcomes]
        return cls(
            first=np.array(
                [-1 if o.first_match is None else o.first_match for o in outcomes],
                dtype=np.int64,
            ),
            search_delay=np.array([o.search_delay for o in outcomes], dtype=float),
            cycle_time=np.array([o.cycle_time for o in outcomes], dtype=float),
            energy=EnergyMatrix.from_ledgers([o.energy for o in outcomes]),
            match=(
                np.array(masks, dtype=bool)
                if masks and all(m is not None for m in masks)
                else None
            ),
            view=_listed,
            items=outcomes,
        )

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self._items)
        if not -n <= i < n:
            raise IndexError(f"batch index {i} out of range for {n} keys")
        i = int(i) % n
        item = self._items[i]
        if item is None:
            item = self._items[i] = self._view(self, i)
        return item

    def __iter__(self) -> Iterator[BaseOutcome]:
        return (self[i] for i in range(len(self)))

    # Concatenation yields the plain list of items, as a list result did.
    def __add__(self, other: Sequence[BaseOutcome]) -> list[BaseOutcome]:
        return list(self) + list(other)

    def __radd__(self, other: Sequence[BaseOutcome]) -> list[BaseOutcome]:
        return list(other) + list(self)


def _listed(batch: BatchOutcome, i: int) -> BaseOutcome:
    return batch.columns["items"][i]
