"""NAND-type FeFET TCAM array.

The architectural counterpoint to the NOR array (experiment R-F11): cells
of one word form a *series* string, so only fully matching words discharge
their evaluation node.  Miss-dominated traffic pays almost no match-path
energy -- at the cost of a string-RC delay that grows quadratically with
the word width, which is why NAND TCAMs are confined to short words or
segment-serial organizations.

Cell mapping (inverse polarity of the NOR cell): each ternary cell is two
FeFETs *in parallel* inside the series chain.  The device driven by the
search symbol must conduct iff the cell matches:

=========== =============== ===============
stored trit M_A (on SL)     M_B (on SLB)
=========== =============== ===============
``0``        LVT (match 0)   HVT
``1``        HVT             LVT (match 1)
``X``        LVT             LVT (always)
=========== =============== ===============

Searching ``X`` raises both lines so any healthy cell conducts.

The implementation reuses the NOR array's ternary store, write costing,
search-line and priority-encoder models, swapping the match path for
:class:`~repro.circuits.nandstring.NANDMatchString`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.nandstring import NANDMatchString, NANDStringParams
from ..circuits.searchline import SearchLine, count_toggles
from ..circuits.wire import M4_WIRE, WireModel
from ..energy.accounting import EnergyComponent, EnergyLedger
from ..errors import TCAMError
from .area import cell_dimensions
from .array import ArrayGeometry, SearchOutcome, WriteOutcome
from .cells.fefet2t import FeFET2TCell, FeFET2TCellParams
from .priority import PriorityEncoder
from .trit import TernaryWord, Trit, mismatch_counts, nand_drive_vector


@dataclass(frozen=True)
class NANDCellElectricals:
    """Series-path electricals of one NAND ternary cell.

    Attributes:
        r_on: On-resistance of a conducting (LVT, driven) device [ohm].
        c_node: Diffusion capacitance at the inter-cell node [F].
        i_off: Off current of a blocking cell [A].
        c_sl_gate: Gate load per search line [F].
    """

    r_on: float
    c_node: float
    i_off: float
    c_sl_gate: float


def nand_cell_electricals(params: FeFET2TCellParams | None = None) -> NANDCellElectricals:
    """Derive the NAND string electricals from the 2-FeFET cell device.

    The on-resistance is the LVT device linearized in triode at the search
    gate bias; the off current is the driven-HVT subthreshold path.
    """
    cell = FeFET2TCell(params)
    v_probe = 0.05
    i_on = cell.i_pulldown(v_probe)
    if i_on <= 0.0:
        raise TCAMError("NAND cell derivation: LVT device does not conduct")
    return NANDCellElectricals(
        r_on=v_probe / i_on,
        c_node=cell.c_ml_per_cell,  # two junctions at each internal node
        i_off=cell.i_leak(0.9),
        c_sl_gate=cell.c_sl_gate_per_cell,
    )


class NANDTCAMArray:
    """A rows x cols NAND-type FeFET TCAM array.

    Args:
        geometry: Array shape.
        cell_params: 2-FeFET cell parameters (defaults match the NOR cell).
        vdd: Supply [V].
        c_eval: Evaluation-node capacitance per word [F].
        sl_wire: Search-line routing layer.
        t_eval: Evaluation window [s]; defaults to 2x the full-match
            string discharge time (the row-delay-critical quantity).
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        cell_params: FeFET2TCellParams | None = None,
        vdd: float | None = None,
        c_eval: float = 1.0e-15,
        sl_wire: WireModel = M4_WIRE,
        t_eval: float | None = None,
    ) -> None:
        self.geometry = geometry
        self.vdd = vdd if vdd is not None else geometry.node.vdd_nominal
        self.cell_params = cell_params if cell_params is not None else FeFET2TCellParams()
        self.cell = FeFET2TCell(self.cell_params)
        self.electricals = nand_cell_electricals(self.cell_params)

        self._stored = np.full(
            (geometry.rows, geometry.cols), int(Trit.X), dtype=np.int8
        )
        self._valid = np.zeros(geometry.rows, dtype=bool)
        self._last_drive: tuple[int, ...] | None = None

        _, cell_h = cell_dimensions(self.cell.area_f2, geometry.node)
        self.search_line = SearchLine(
            n_rows=geometry.rows,
            c_gate_per_cell=self.electricals.c_sl_gate,
            cell_pitch=cell_h,
            wire=sl_wire,
        )
        self._sl_r_driver = 2.0e3
        self.encoder = PriorityEncoder(geometry.rows)

        self.string_params = NANDStringParams(
            n_cells=geometry.cols,
            r_on_per_cell=self.electricals.r_on,
            c_node_per_cell=self.electricals.c_node,
            c_eval=c_eval,
            i_off_per_cell=self.electricals.i_off,
        )
        self.v_sense = 0.5 * self.vdd
        string = NANDMatchString(self.string_params, self.vdd, self.vdd)
        self._string = string
        self.t_eval = t_eval if t_eval is not None else 2.0 * string.time_to(self.v_sense)
        if self.t_eval <= 0.0:
            raise TCAMError(f"t_eval must be positive, got {self.t_eval}")

    # ------------------------------------------------------------------
    # Storage (shares the NOR array's conventions)
    # ------------------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.geometry.rows:
            raise TCAMError(f"row {row} outside [0, {self.geometry.rows})")

    def write(self, row: int, word: TernaryWord) -> WriteOutcome:
        """Store ``word`` at ``row`` (same contract as the NOR array)."""
        self._check_row(row)
        if len(word) != self.geometry.cols:
            raise TCAMError(
                f"word width {len(word)} does not match array cols {self.geometry.cols}"
            )
        ledger = EnergyLedger()
        latency = 0.0
        changed = 0
        new = word.as_array()
        for col in range(self.geometry.cols):
            old_trit = Trit(int(self._stored[row, col]))
            new_trit = Trit(int(new[col]))
            cost = self.cell.write_cost(old_trit, new_trit)
            ledger.add(EnergyComponent.WRITE, cost.energy)
            latency = max(latency, cost.latency)
            if old_trit is not new_trit:
                changed += 1
        self._stored[row] = new
        self._valid[row] = True
        return WriteOutcome(row=row, energy=ledger, latency=latency, cells_changed=changed)

    def load(self, words: list[TernaryWord], start_row: int = 0) -> EnergyLedger:
        """Write a batch of words into consecutive rows."""
        if start_row + len(words) > self.geometry.rows:
            raise TCAMError(
                f"cannot load {len(words)} words at row {start_row} into "
                f"{self.geometry.rows} rows"
            )
        ledger = EnergyLedger()
        for offset, word in enumerate(words):
            ledger.merge(self.write(start_row + offset, word).energy)
        return ledger

    def word_at(self, row: int) -> TernaryWord:
        """The stored word at ``row``."""
        self._check_row(row)
        return TernaryWord(self._stored[row])

    def invalidate(self, row: int) -> None:
        """Remove ``row`` from match participation (erase to all-X)."""
        self._check_row(row)
        self._stored[row] = int(Trit.X)
        self._valid[row] = False

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    @property
    def sl_settle_delay(self) -> float:
        """Search-line settling delay [s]."""
        return self.search_line.settle_delay(self._sl_r_driver)

    def search(self, key: TernaryWord) -> SearchOutcome:
        """One NAND search with energy/delay accounting.

        A search-X column raises *both* lines (every cell conducts), so the
        mismatch count from the shared ternary algebra -- where X on either
        side matches -- carries over unchanged.
        """
        if len(key) != self.geometry.cols:
            raise TCAMError(
                f"key width {len(key)} does not match array cols {self.geometry.cols}"
            )
        key_arr = key.as_array()
        miss = mismatch_counts(self._stored, key_arr)
        logical_match = (miss == 0) & self._valid

        ledger = EnergyLedger()
        self._book_searchline_energy(ledger, key)

        physical = np.zeros(self.geometry.rows, dtype=bool)
        unique, counts = np.unique(miss, return_counts=True)
        for n_miss, n_rows in zip(unique, counts):
            result = self._string.evaluate(int(n_miss), self.v_sense, self.t_eval)
            physical[miss == n_miss] = result.conducts
            ledger.add(EnergyComponent.ML_PRECHARGE, float(n_rows) * result.energy)
            if int(n_miss) == 0:
                diss = 0.5 * self._string.total_capacitance * (
                    self.vdd**2 - result.v_end**2
                )
                ledger.add(EnergyComponent.ML_DISSIPATION, float(n_rows) * diss)
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.geometry.rows * 1.0e-15 * self.vdd**2,  # per-row eval latch
        )
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.encoder.energy_per_search)

        effective = physical & self._valid
        first = self.encoder.encode(effective)
        search_delay = self.sl_settle_delay + self.t_eval + self.encoder.delay
        cycle_time = search_delay + 0.2 * self.t_eval  # eval-node restore

        leak = (
            self.geometry.rows
            * self.geometry.cols
            * self.cell.standby_leakage(self.vdd)
            * self.vdd
            * cycle_time
        )
        ledger.add(EnergyComponent.LEAKAGE, leak)

        histogram: dict[int, int] = {}
        for n in miss[self._valid]:
            histogram[int(n)] = histogram.get(int(n), 0) + 1
        errors = int(np.count_nonzero(effective != logical_match))
        return SearchOutcome(
            match_mask=effective,
            first_match=first,
            energy=ledger,
            search_delay=search_delay,
            cycle_time=cycle_time,
            miss_histogram=dict(sorted(histogram.items())),
            functional_errors=errors,
        )

    def _book_searchline_energy(self, ledger: EnergyLedger, key: TernaryWord) -> None:
        drive = nand_drive_vector(key)
        previous = self._last_drive if self._last_drive is not None else tuple(
            0 for _ in drive
        )
        toggles = count_toggles(previous, drive)
        ledger.add(
            EnergyComponent.SEARCHLINE,
            toggles * self.search_line.toggle_energy(self.cell.v_search),
        )
        self._last_drive = drive

    def match_delay(self) -> float:
        """Full-match string discharge time to the sense threshold [s]."""
        return self._string.time_to(self.v_sense)

    def sense_margin(self) -> float:
        """V(1-mismatch) - V(match) on the evaluation node at the strobe [V].

        The NAND polarity is inverted: a broken (one-mismatch) string
        stays high while a fully conducting one discharges.
        """
        match = self._string.evaluate(0, self.v_sense, self.t_eval)
        broken = self._string.evaluate(1, self.v_sense, self.t_eval)
        return broken.v_end - match.v_end

    def standby_power(self) -> float:
        """Array standby power [W] (same cell leakage as the NOR array)."""
        return (
            self.geometry.rows
            * self.geometry.cols
            * self.cell.standby_leakage(self.vdd)
            * self.vdd
        )

    def valid_mask(self) -> np.ndarray:
        """Copy of the per-row valid bits."""
        return self._valid.copy()

    def stored_matrix(self) -> np.ndarray:
        """Copy of the stored trit encodings (rows x cols int8)."""
        return self._stored.copy()
