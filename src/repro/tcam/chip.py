"""Chip-level organization: banks, bank selection and power gating.

A TCAM chip tiles many banks.  Two system-level effects only appear at
this level:

* **Bank selection** -- a hash/profile steers each search to one bank, so
  only that bank's match lines and search lines move.
* **Non-volatile power gating** -- FeFET (and ReRAM) banks retain their
  contents with the supply collapsed, so idle banks can be gated to zero
  leakage and woken in nanoseconds.  SRAM-based banks must keep their
  supply up to retain data, paying retention leakage forever -- or accept
  a full reload from backing store on wake, paying the whole write energy
  again.

Experiment R-F12 sweeps the search duty cycle to show where the
non-volatile standby story dominates total energy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..energy.accounting import EnergyComponent, EnergyLedger, EnergyMatrix
from ..errors import CapacityError, TCAMError
from ..faults.faultmap import FaultMap
from .array import SearchOutcome, TCAMArray
from .outcome import BaseOutcome, BatchOutcome
from .trit import TernaryWord


_CLOCK = EnergyComponent.CLOCK.value
_LEAK = EnergyComponent.LEAKAGE.value


@dataclass(frozen=True)
class GatingPolicy:
    """How idle banks are handled.

    Attributes:
        gate_idle_banks: Collapse the supply of banks not being searched.
        wakeup_latency: Supply-restore time when a gated bank is searched [s].
        wakeup_energy: Supply-rail recharge energy per wake event [J].
        retention_required: True when the cells lose data if gated
            (SRAM-based chips); gating is then refused.
    """

    gate_idle_banks: bool = False
    wakeup_latency: float = 10e-9
    wakeup_energy: float = 50e-15
    retention_required: bool = False

    def __post_init__(self) -> None:
        if self.wakeup_latency < 0.0 or self.wakeup_energy < 0.0:
            raise TCAMError("wake-up costs must be non-negative")
        if self.gate_idle_banks and self.retention_required:
            raise TCAMError(
                "cannot gate idle banks: the cell technology loses data "
                "without supply (volatile storage)"
            )


@dataclass(frozen=True)
class ChipSearchOutcome(BaseOutcome):
    """One chip search.

    Attributes:
        bank: Bank that served the search.
        row: Global row index of the first match, or ``None``.
        outcome: The bank-level search outcome.
        energy: Bank search energy + idle-bank leakage + wake-up costs.
        latency: Search delay including any wake-up.
    """

    bank: int
    row: int | None
    outcome: SearchOutcome
    energy: EnergyLedger
    latency: float

    @property
    def match_mask(self):
        """Per-row verdicts of the bank that served the search."""
        return self.outcome.match_mask

    @property
    def first_match(self) -> int | None:
        """Chip-global row index of the first match, or ``None``."""
        return self.row

    @property
    def search_delay(self) -> float:
        """Key-to-result latency including any wake-up [s]."""
        return self.latency

    @property
    def cycle_time(self) -> float:
        """Minimum time before the next operation [s]."""
        return self.outcome.cycle_time

    def _extra_dict(self) -> dict:
        return {"bank": int(self.bank), "latency": self.latency}


def _chip_view(batch: BatchOutcome, i: int) -> ChipSearchOutcome:
    """Key ``i`` of a :meth:`TCAMChip.search_batch` result."""
    cols = batch.columns
    row = int(batch.first[i])
    for idxs, inner in cols["parts"]:
        j = int(np.searchsorted(idxs, i))
        if j < idxs.size and idxs[j] == i:
            break
    return ChipSearchOutcome(
        bank=int(cols["bank"][i]),
        row=None if row < 0 else row,
        outcome=inner[j],
        energy=batch.energy.ledger(i),
        latency=float(batch.search_delay[i]),
    )


class TCAMChip:
    """A chip of ``n_banks`` identical banks with one shared search port.

    Args:
        build_bank: Zero-argument factory producing one bank
            (:class:`TCAMArray` or compatible); called ``n_banks`` times.
        n_banks: Bank count.
        gating: Idle-bank gating policy.
    """

    def __init__(self, build_bank, n_banks: int, gating: GatingPolicy | None = None) -> None:
        if n_banks < 1:
            raise TCAMError(f"n_banks must be >= 1, got {n_banks}")
        self.banks = [build_bank() for _ in range(n_banks)]
        geometry = self.banks[0].geometry
        for bank in self.banks[1:]:
            if bank.geometry != geometry:
                raise TCAMError("all banks must share one geometry")
        self.geometry = geometry
        self.gating = gating if gating is not None else GatingPolicy()
        self._powered = np.ones(n_banks, dtype=bool)
        if self.gating.gate_idle_banks:
            self._powered[:] = False

    # ------------------------------------------------------------------

    @property
    def n_banks(self) -> int:
        """Number of banks."""
        return len(self.banks)

    @property
    def rows_total(self) -> int:
        """Total row capacity of the chip."""
        return self.n_banks * self.geometry.rows

    def _split(self, global_row: int) -> tuple[int, int]:
        if not 0 <= global_row < self.rows_total:
            raise TCAMError(f"row {global_row} outside [0, {self.rows_total})")
        return divmod(global_row, self.geometry.rows)

    def write(self, global_row: int, word: TernaryWord) -> EnergyLedger:
        """Write one word at a chip-global row (wakes the bank if gated)."""
        bank_idx, local_row = self._split(global_row)
        ledger = EnergyLedger()
        self._wake(bank_idx, ledger)
        ledger.merge(self.banks[bank_idx].write(local_row, word).energy)
        return ledger

    def load(self, words: list[TernaryWord]) -> EnergyLedger:
        """Fill the chip row-major with ``words``."""
        if len(words) > self.rows_total:
            raise CapacityError(
                f"{len(words)} words do not fit in {self.rows_total} chip rows"
            )
        ledger = EnergyLedger()
        for row, word in enumerate(words):
            ledger.merge(self.write(row, word))
        return ledger

    def load_rows(self, words: list[TernaryWord], start_row: int = 0) -> EnergyLedger:
        """Bulk-fill chip rows row-major with one wake + one bump per bank.

        Ledger-identical to a :meth:`write` loop over the same rows, but
        each touched bank wakes once and takes its whole block through
        the bank's bulk path (:meth:`TCAMArray.load_rows`: one
        content-version bump per bank instead of one per row) -- the
        corpus-load path for the retrieval workload.
        Banks without a bulk path fall back to per-row writes.
        """
        if start_row + len(words) > self.rows_total:
            raise CapacityError(
                f"{len(words)} words at row {start_row} do not fit in "
                f"{self.rows_total} chip rows"
            )
        ledger = EnergyLedger()
        rows = self.geometry.rows
        pos = 0
        while pos < len(words):
            bank_idx, local_row = divmod(start_row + pos, rows)
            n_block = min(rows - local_row, len(words) - pos)
            block = words[pos : pos + n_block]
            self._wake(bank_idx, ledger)
            bank = self.banks[bank_idx]
            bulk = getattr(bank, "load_rows", None)
            if bulk is not None:
                ledger.merge(bulk(block, start_row=local_row))
            else:
                for offset, word in enumerate(block):
                    ledger.merge(bank.write(local_row + offset, word).energy)
            pos += n_block
        return ledger

    def attach_faults(self, faults: FaultMap | None) -> None:
        """Attach a chip-global defect map (``rows_total x cols``).

        Row groups project onto the banks in chip row-major order, so
        fault row ``i`` lands on bank ``i // rows`` local row
        ``i % rows`` -- the same addressing :meth:`write` uses.
        """
        if faults is None:
            for bank in self.banks:
                bank.detach_faults()
            return
        if (faults.rows, faults.cols) != (self.rows_total, self.geometry.cols):
            raise TCAMError(
                f"fault map {faults.rows}x{faults.cols} does not match chip "
                f"{self.rows_total}x{self.geometry.cols}"
            )
        for bank, sub in zip(self.banks, faults.split_rows(self.geometry.rows)):
            bank.attach_faults(sub)

    def detach_faults(self) -> None:
        """Remove the defect maps from every bank."""
        self.attach_faults(None)

    # ------------------------------------------------------------------

    def _wake(self, bank_idx: int, ledger: EnergyLedger) -> float:
        """Power a gated bank up; return the added latency."""
        if self._powered[bank_idx]:
            return 0.0
        ledger.add(EnergyComponent.CLOCK, self.gating.wakeup_energy)
        self._powered[bank_idx] = True
        return self.gating.wakeup_latency

    def _overheads(self, bank_ids: np.ndarray, idle_time: float) -> EnergyMatrix:
        """Step the wake / idle-leak / gating state machine through a
        batch in key order: per key, the wake-up ``clock`` and idle
        ``leakage`` a :meth:`search` call would book first."""
        out = EnergyMatrix.booking((_CLOCK, _LEAK), len(bank_ids))
        clock, leak = out.column(_CLOCK), out.column(_LEAK)
        out.booked[:, clock] = False
        out.booked[:, leak] = idle_time > 0.0
        for i, b in enumerate(bank_ids.tolist()):
            if not self._powered[b]:
                out.values[i, clock] = self.gating.wakeup_energy
                out.booked[i, clock] = self._powered[b] = True
            if idle_time > 0.0:
                powered = int(np.count_nonzero(self._powered))
                leak_power = self.banks[0].standby_power()
                out.values[i, leak] = powered * leak_power * idle_time
            self._sleep_idle(b)
        return out

    def _sleep_idle(self, active_bank: int) -> None:
        """Gate every bank except the one just used (it stays warm)."""
        if self.gating.gate_idle_banks:
            self._powered[:] = False
            self._powered[active_bank] = True

    def search(self, key: TernaryWord, bank: int, idle_time: float = 0.0) -> ChipSearchOutcome:
        """Search one bank; account idle-bank leakage over ``idle_time``.

        Args:
            key: Search key (bank-width).
            bank: Bank index to search (bank-selection is the caller's
                profile/hash decision).
            idle_time: Wall-clock time since the previous chip operation
                [s]; ungated banks leak over it.
        """
        if not 0 <= bank < self.n_banks:
            raise TCAMError(f"bank {bank} outside [0, {self.n_banks})")
        with obs.span("chip.search", bank=bank, n_banks=self.n_banks) as sp:
            ledger = EnergyLedger()
            extra_latency = self._wake(bank, ledger)

            # Idle leakage of every powered bank over the idle window.
            if idle_time > 0.0:
                powered = int(np.count_nonzero(self._powered))
                leak_power = self.banks[0].standby_power()
                ledger.add(EnergyComponent.LEAKAGE, powered * leak_power * idle_time)

            if sp is not None:
                # Wake + idle overhead is this span's own energy; the bank
                # search nested below contributes the rest, so the tree's
                # merged total reproduces the outcome ledger exactly.
                sp.add_energy(ledger)
                m = obs.metrics()
                if m is not None:
                    m.counter("chip.searches").inc()
                    for component, joules in ledger:
                        m.counter("energy." + component).inc(joules)

            outcome = self.banks[bank].search(key)
            ledger.merge(outcome.energy)
            self._sleep_idle(bank)

            row = None
            if outcome.first_match is not None:
                row = bank * self.geometry.rows + outcome.first_match
            result = ChipSearchOutcome(
                bank=bank,
                row=row,
                outcome=outcome,
                energy=ledger,
                latency=outcome.search_delay + extra_latency,
            )
            if sp is not None:
                sp.set_delay(result.latency)
                sp.annotate(row=result.row, wakeup=extra_latency > 0.0)
            return result

    def search_batch(
        self,
        keys: Iterable[TernaryWord],
        banks: int | Sequence[int],
        idle_time: float = 0.0,
    ) -> BatchOutcome:
        """Search many keys, sharding the work across banks.

        Returns one :class:`~repro.tcam.outcome.BatchOutcome` whose items
        are the :class:`ChipSearchOutcome` sequence a serial loop of
        :meth:`search` calls would produce (same ledgers, rows and
        latencies; the wake / idle-leak / gating state machine is stepped
        through the keys in order before any bank is searched).  Each
        bank then runs one ``search_batch`` over the keys routed to it,
        in their original relative order, so its search-line toggle chain
        evolves exactly as in the serial loop -- which is what makes
        bank-sharding safe.  Each key's energy is its overhead row with
        its bank's row merged in after it.

        Args:
            keys: Search keys (bank-width).
            banks: Bank index per key, or one index for the whole batch.
            idle_time: Idle window accounted before each search [s], as
                in :meth:`search`.
        """
        keys = list(keys)
        n = len(keys)
        if isinstance(banks, (int, np.integer)):
            bank_ids = np.full(n, int(banks), dtype=np.int64)
        else:
            bank_ids = np.array([int(b) for b in banks], dtype=np.int64)
        if bank_ids.size != n:
            raise TCAMError(f"{bank_ids.size} bank indices for {n} keys")
        bad = (bank_ids < 0) | (bank_ids >= self.n_banks)
        if bad.any():
            raise TCAMError(f"bank {int(bank_ids[bad][0])} outside [0, {self.n_banks})")
        if not keys:
            return []

        with obs.span("chip.search_batch", n_keys=n, n_banks=self.n_banks) as sp:
            overhead = self._overheads(bank_ids, idle_time)
            m = obs.metrics()
            if sp is not None or m is not None:
                for i in range(n):
                    ledger = overhead.ledger(i)
                    if sp is not None:
                        sp.add_energy(ledger)
                    if m is not None:
                        m.counter("chip.searches").inc()
                        for component, joules in ledger:
                            m.counter("energy." + component).inc(joules)

            # One batch per bank over its keys, in their original order.
            touched = np.unique(bank_ids).tolist()
            parts = []
            for b in touched:
                idxs = np.arange(n) if len(touched) == 1 else np.flatnonzero(bank_ids == b)
                bank = self.banks[b]
                bank_keys = [keys[i] for i in idxs.tolist()]
                if hasattr(bank, "search_batch"):
                    result = bank.search_batch(bank_keys)
                else:
                    result = [bank.search(key) for key in bank_keys]
                parts.append((idxs, BatchOutcome.of(result)))

            if len(parts) == 1:
                # One bank served every key in order (each fabric probe):
                # its columns are the chip's.
                inner = parts[0][1]
                first, delay, cycle = inner.first, inner.search_delay, inner.cycle_time
                energy, match = inner.energy, inner.match
            else:
                first = np.empty(n, dtype=np.int64)
                delay, cycle = np.empty(n), np.empty(n)
                energy = EnergyMatrix.empty(n)
                has_masks = all(p.match is not None for _, p in parts)
                match = np.empty((n, self.geometry.rows), dtype=bool) if has_masks else None
                for idxs, p in parts:
                    first[idxs], delay[idxs], cycle[idxs] = p.first, p.search_delay, p.cycle_time
                    energy = energy.merged(p.energy, rows=idxs)
                    if has_masks:
                        match[idxs] = p.match
            woke = overhead.booked[:, overhead.column(_CLOCK)]
            if sp is not None:
                sp.annotate(banks_touched=len(touched))
            return BatchOutcome(
                first=np.where(first >= 0, bank_ids * self.geometry.rows + first, -1),
                search_delay=delay + np.where(woke, self.gating.wakeup_latency, 0.0),
                cycle_time=cycle,
                energy=overhead.merged(energy),
                match=match,
                view=_chip_view,
                bank=bank_ids,
                parts=parts,
            )

    # ------------------------------------------------------------------

    def standby_power(self) -> float:
        """Chip standby power with the present gating state [W]."""
        powered = int(np.count_nonzero(self._powered))
        return powered * self.banks[0].standby_power()

    def energy_per_search_at_rate(self, searches_per_second: float) -> float:
        """Amortized total energy per search at a given search rate [J].

        Total = one bank search + (chip standby power x the idle interval)
        + (wake energy when gating).  This is the quantity experiment
        R-F12 sweeps: at high rates the search term dominates; at low
        rates the standby term does -- unless idle banks are gated.
        """
        if searches_per_second <= 0.0:
            raise TCAMError("search rate must be positive")
        interval = 1.0 / searches_per_second
        rng = np.random.default_rng(0)
        from .trit import random_word

        key = random_word(self.geometry.cols, rng)
        result = self.search(key, bank=0, idle_time=interval)
        return result.energy.total
