"""Search backends the serving engine dispatches batches to.

A backend owns one piece of TCAM hardware model and turns a dispatched
batch into outcomes.  Keys always hit the hardware in arrival order --
batching only changes the *grouping*, never the sequence -- so the
search-line toggle chains and ledgers evolve exactly
as one long serial key stream would, whatever the policy.  That is what
makes energy-per-request comparable across policies: the physics term
is identical; only the per-dispatch overhead amortization differs.

The per-dispatch overhead itself lives in :class:`ServiceModel`: a
fixed controller/IO time and energy cost per batch (the quantity
dynamic batching amortizes), plus the sequential occupancy of the
single search port (``sum(cycle_time)``).  Backends return the
hardware's :class:`~repro.tcam.outcome.BatchOutcome`, which the engine
reads column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..energy.accounting import EnergyMatrix
from ..errors import ServeError
from ..tcam.outcome import BaseOutcome, BatchOutcome
from ..tcam.trit import TernaryWord

#: Free-form :class:`EnergyLedger` component the per-batch dispatch
#: overhead is booked under (controller decode, IO, key marshalling).
DISPATCH_COMPONENT = "dispatch"


@dataclass(frozen=True)
class ServiceModel:
    """Modeled cost of dispatching one batch to the search port.

    Attributes:
        t_overhead: Fixed per-dispatch time [s] -- controller decode,
            key marshalling, result collection.  Paid once per batch,
            so batching amortizes it.
        e_overhead: Fixed per-dispatch energy [J], booked under the
            ``dispatch`` ledger component and split evenly over the
            batch's requests.
    """

    t_overhead: float = 200e-9
    e_overhead: float = 20e-12

    def __post_init__(self) -> None:
        if self.t_overhead < 0.0 or self.e_overhead < 0.0:
            raise ServeError("service-model overheads must be non-negative")

    def batch_service_time(self, outcomes: Sequence[BaseOutcome]) -> float:
        """Port occupancy of one batch [s].

        One search port issues the batch back to back, so occupancy is
        the fixed overhead plus the sum of per-search cycle times
        (cycle time includes match-line restore where applicable).
        """
        return self.t_overhead + sum(BatchOutcome.of(outcomes).cycle_time.tolist())


class ArrayBackend:
    """Serve one :class:`~repro.tcam.array.TCAMArray` (bank indices ignored).

    Args:
        array: The loaded array; batches run on its compiled kernel.
    """

    def __init__(self, array) -> None:
        self.array = array

    @property
    def cols(self) -> int:
        """Key width served by this backend."""
        return self.array.geometry.cols

    def search_batch(
        self, keys: Sequence[TernaryWord], banks: Sequence[int]
    ) -> BatchOutcome:
        """Search ``keys`` in order; ``banks`` is ignored (single array)."""
        return self.array.search_batch(list(keys))


class ChipBackend:
    """Serve one :class:`~repro.tcam.chip.TCAMChip`, honoring bank routing."""

    def __init__(self, chip) -> None:
        self.chip = chip

    @property
    def cols(self) -> int:
        """Key width served by this backend."""
        return self.chip.geometry.cols

    def search_batch(
        self, keys: Sequence[TernaryWord], banks: Sequence[int]
    ) -> BatchOutcome:
        """Search ``keys`` in order, each routed to its bank."""
        return self.chip.search_batch(list(keys), list(banks))


def request_energy(
    outcomes: BatchOutcome, model: ServiceModel, batch_size: int
) -> np.ndarray:
    """Per-request energy [J]: own search + an even share of batch overhead.

    Each request's ledger gets the ``dispatch`` share booked after its
    search components, and its total is summed left to right in booking
    order -- the float ``EnergyLedger.total`` of that ledger.
    """
    energy = outcomes.energy
    if model.e_overhead:
        share = EnergyMatrix.booking((DISPATCH_COMPONENT,), len(energy))
        share.values[:, share.column(DISPATCH_COMPONENT)] = model.e_overhead / batch_size
        energy = energy.merged(share)
    return energy.totals()
