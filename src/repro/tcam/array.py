"""The TCAM array: search and write with full energy/delay accounting.

A :class:`TCAMArray` holds ``rows`` ternary words of ``cols`` trits in a
given cell technology and executes the two TCAM operations:

* :meth:`TCAMArray.search` -- parallel compare of a key against every row.
  Rows are grouped by their sensing class (all rows with the same
  pull-down signature and sense-amp offset share identical match-line
  dynamics), each group's ML trajectory is integrated once, and the
  per-component energies are booked into an
  :class:`~repro.energy.accounting.EnergyLedger`.
* :meth:`TCAMArray.write` -- replace one stored word, paying the cell
  technology's per-trit transition costs.

Engine rule: the scalar APIs (:meth:`~TCAMArray.search`,
:meth:`~TCAMArray.nearest_match`, :meth:`~TCAMArray.threshold_match`,
:meth:`~TCAMArray.topk_match`) are the golden reference; every ``*_batch``
API runs on the compiled kernel (:mod:`repro.kernels`) and is
bit-identical to a loop of scalar calls -- on healthy and fault-
injected hardware alike (a healthy row is a faulty row with an empty
fault map).

Two sensing styles are supported (``sensing="precharge"`` and
``sensing="current_race"``), covering the conventional NOR scheme and the
precharge-free scheme of Design CR.  The match decision is *physical*: the
sensed ML voltage is compared by the sense amplifier, so an under-margined
configuration really does return wrong matches (exploited by the failure-
injection tests and the Monte-Carlo yield analysis).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..circuits.matchline import MatchLine, MatchLineLoad
from ..circuits.precharge import FullSwingPrecharge, PrechargeScheme
from ..circuits.rc import discharge_waveform_batch
from ..circuits.searchline import SearchLine, count_toggles
from ..circuits.senseamp import CurrentRaceSenseAmp, VoltageSenseAmp
from ..circuits.wire import M2_WIRE, M4_WIRE, WireModel
from ..energy.accounting import EnergyComponent, EnergyLedger, EnergyMatrix
from ..energy.estimator import ArrayEstimator
from ..errors import TCAMError
from ..faults.faultmap import FaultKind, FaultMap
from .area import TECH_45NM, TechNode, cell_dimensions
from .cell import CellDescriptor
from .outcome import BaseOutcome, BatchOutcome
from .priority import PriorityEncoder
from .trit import (
    TernaryWord,
    Trit,
    drive_matrix,
    drive_vector,
    mismatch_counts,
    pack_keys,
)

_SENSING_STYLES = ("precharge", "current_race")

#: Set bits of a 2-bit (SL, SLB) drive-code difference: its toggle count.
_BITS_SET = np.array([0, 1, 1, 2])

# Canonical component keys, pre-resolved for the batch assembly
# (EnergyLedger._from_booked and EnergyMatrix take plain strings).
_SL = EnergyComponent.SEARCHLINE.value
_PRE = EnergyComponent.ML_PRECHARGE.value
_DISS = EnergyComponent.ML_DISSIPATION.value
_SA = EnergyComponent.SENSE_AMP.value
_RACE = EnergyComponent.RACE_SOURCE.value
_ENC = EnergyComponent.PRIORITY_ENCODER.value
_LEAK = EnergyComponent.LEAKAGE.value

# Ledger component -> per-phase child span of one traced search.  Every
# component a search can book appears here, so a traced span tree carries
# the outcome ledger's exact component map (the span-sum invariant).
_SPAN_ENERGY_GROUPS = {
    EnergyComponent.SEARCHLINE.value: "array.sl_drive",
    EnergyComponent.ML_PRECHARGE.value: "array.ml",
    EnergyComponent.ML_DISSIPATION.value: "array.ml",
    EnergyComponent.SENSE_AMP.value: "array.sense",
    EnergyComponent.RACE_SOURCE.value: "array.sense",
    EnergyComponent.PRIORITY_ENCODER.value: "array.encode",
    EnergyComponent.LEAKAGE.value: "array.standby",
}


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical shape of an array.

    Attributes:
        rows: Number of stored words.
        cols: Trits per word.
        node: Technology node (sets feature size and nominal VDD).
    """

    rows: int
    cols: int
    node: TechNode = TECH_45NM

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise TCAMError(f"array must be at least 1x1, got {self.rows}x{self.cols}")


@dataclass(frozen=True)
class SearchOutcome(BaseOutcome):
    """Everything one search returns.

    Attributes:
        match_mask: Per-row physical match verdicts (invalid rows masked).
        first_match: Lowest matching row index, or ``None``.
        energy: Per-component energy ledger for this search [J].
        search_delay: Key-to-result latency [s].
        cycle_time: Minimum time before the next search can issue [s]
            (includes ML restore for precharge-style sensing).
        miss_histogram: ``{mismatch_count: row_count}`` over valid rows.
        functional_errors: Rows whose physical verdict disagrees with the
            logical ternary match (0 in a healthy design).
    """

    match_mask: np.ndarray
    first_match: int | None
    energy: EnergyLedger
    search_delay: float
    cycle_time: float
    miss_histogram: dict[int, int]
    functional_errors: int

    def _extra_dict(self) -> dict:
        return {
            "miss_histogram": {int(k): int(v) for k, v in self.miss_histogram.items()},
            "functional_errors": int(self.functional_errors),
        }


def _search_view(batch: BatchOutcome, i: int) -> SearchOutcome:
    """Key ``i`` of a :meth:`TCAMArray.search_batch` result."""
    hist = batch.columns["miss_counts"][i]
    classes = np.flatnonzero(hist)
    first = int(batch.first[i])
    return SearchOutcome(
        match_mask=batch.match[i].copy(),
        first_match=None if first < 0 else first,
        energy=batch.energy.ledger(i),
        search_delay=float(batch.search_delay[i]),
        cycle_time=float(batch.cycle_time[i]),
        miss_histogram=dict(zip(classes.tolist(), hist[classes].tolist())),
        functional_errors=int(batch.columns["functional_errors"][i]),
    )


@dataclass(frozen=True)
class _PrechargeClassResult:
    """Per-mismatch-class sensing results for precharge-style search.

    One instance covers every row sharing ``(n_miss, driven_cols)``: the
    trajectory endpoint, the sense decision derived from it and the
    per-line restore costs.  These are exactly the quantities the scalar
    search recomputes per class per search; the compiled kernel holds
    them as flat per-``driven`` rows (see
    :class:`~repro.kernels.PrechargeClassRow`).
    """

    v_end: float
    is_match: bool
    e_restore: float
    e_diss: float
    e_sense: float
    t_sense: float
    t_restore: float


@dataclass(frozen=True)
class _RaceClassResult:
    """Per-mismatch-class results for current-race search."""

    is_match: bool
    energy: float
    delay: float


@dataclass(frozen=True)
class NearestMatchOutcome(BaseOutcome):
    """Result of an approximate (best-match) search.

    Attributes:
        row: Row with the fewest mismatching cells, or ``None`` when the
            array holds no valid rows.
        distance: That row's mismatch count.
        energy: Ledger for the operation [J].
        search_delay: Time until the winner is distinguishable [s].
    """

    row: int | None
    distance: int
    energy: EnergyLedger
    search_delay: float

    @property
    def match_mask(self) -> None:
        """Per-row verdicts are not modeled in best-match mode."""
        return None

    @property
    def first_match(self) -> int | None:
        """Canonical alias for :attr:`row`."""
        return self.row

    @property
    def cycle_time(self) -> float:
        """The full evaluation window is the cycle in best-match mode."""
        return self.search_delay

    def _extra_dict(self) -> dict:
        return {"row": self.row, "distance": int(self.distance)}


@dataclass(frozen=True)
class ThresholdMatchOutcome(BaseOutcome):
    """Result of a tolerance (threshold) search.

    TAP-CAM-style approximate matching: the sense strobe is delayed just
    long enough for the first *excluded* mismatch class
    (``max_distance + 1``) to cross the reference, so every valid row
    within ``max_distance`` mismatches reads as a match.

    Attributes:
        match_mask: Valid rows within ``max_distance`` mismatches.
        first_match: Lowest accepted row index, or ``None``.
        n_matches: Number of accepted rows.
        max_distance: The tolerance the search ran at.
        energy: Ledger for the operation [J].
        search_delay: Key-to-verdict latency [s].
    """

    match_mask: np.ndarray
    first_match: int | None
    n_matches: int
    max_distance: int
    energy: EnergyLedger
    search_delay: float

    @property
    def cycle_time(self) -> float:
        """The delayed-strobe window is the cycle in tolerance mode."""
        return self.search_delay

    def _extra_dict(self) -> dict:
        return {
            "n_matches": int(self.n_matches),
            "max_distance": int(self.max_distance),
        }


@dataclass(frozen=True)
class TopKMatchOutcome(BaseOutcome):
    """Result of a k-nearest (top-k) associative search.

    Attributes:
        rows: Up to ``k`` row indices in priority order (ascending
            mismatch distance, ties broken by row index).
        distances: Mismatch count of each returned row.
        k: The requested result count.
        energy: Ledger for the operation [J].
        search_delay: Key-to-last-result latency [s] (the priority
            encoder drains the winners sequentially).
    """

    rows: tuple[int, ...]
    distances: tuple[int, ...]
    k: int
    energy: EnergyLedger
    search_delay: float

    @property
    def match_mask(self) -> None:
        """Per-row verdicts are not modeled in top-k mode."""
        return None

    @property
    def first_match(self) -> int | None:
        """The nearest returned row (priority order), or ``None``."""
        return self.rows[0] if self.rows else None

    @property
    def cycle_time(self) -> float:
        """The full drain of the k winners is the cycle in top-k mode."""
        return self.search_delay

    def _extra_dict(self) -> dict:
        return {
            "rows": [int(r) for r in self.rows],
            "distances": [int(d) for d in self.distances],
            "k": int(self.k),
        }


@dataclass(frozen=True)
class WriteOutcome:
    """Result of writing one word.

    Attributes:
        row: Row written.
        energy: Ledger holding the write energy.
        latency: Write latency [s] (cells within a word write in parallel).
        cells_changed: Number of cells whose trit actually changed.
    """

    row: int
    energy: EnergyLedger
    latency: float
    cells_changed: int


class TCAMArray:
    """One TCAM array instance.

    Args:
        cell: Electrical descriptor of the cell technology.
        geometry: Rows/cols/node.
        sensing: ``"precharge"`` (NOR, precharge-high) or
            ``"current_race"`` (precharge-free, Design CR).
        vdd: Array supply [V]; defaults to the node's nominal.
        precharge: Precharge scheme for precharge-style sensing; defaults
            to a full-swing scheme at ``vdd``.
        sense_amp: Voltage sense amp; defaults to a latch referenced at
            half the precharge target.
        race_amp: Current-race sense amp for ``current_race`` sensing.
        t_eval: Evaluation window [s]; defaults to 2x the worst-case
            single-mismatch discharge time (a standard timing margin).
        ml_wire: Match-line routing layer.
        sl_wire: Search-line routing layer.
        encoder: Priority encoder; defaults to one sized for ``rows``.
        estimator: Energy estimator every ledger booking routes through;
            defaults to an :class:`~repro.energy.estimator.ArrayEstimator`
            over this array's cell and sensing chain (bit-identical to
            the historical inline accounting).  Pass a factory to study
            alternative cost models without touching the physics.
    """

    def __init__(
        self,
        cell: CellDescriptor,
        geometry: ArrayGeometry,
        *,
        sensing: str = "precharge",
        vdd: float | None = None,
        precharge: PrechargeScheme | None = None,
        sense_amp: VoltageSenseAmp | None = None,
        race_amp: CurrentRaceSenseAmp | None = None,
        t_eval: float | None = None,
        ml_wire: WireModel = M2_WIRE,
        sl_wire: WireModel = M4_WIRE,
        encoder: PriorityEncoder | None = None,
        estimator: "Callable[[TCAMArray], ArrayEstimator] | None" = None,
    ) -> None:
        if sensing not in _SENSING_STYLES:
            raise TCAMError(f"sensing must be one of {_SENSING_STYLES}, got {sensing!r}")
        self.cell = cell
        self.geometry = geometry
        self.sensing = sensing
        self.vdd = vdd if vdd is not None else geometry.node.vdd_nominal
        if self.vdd <= 0.0:
            raise TCAMError(f"vdd must be positive, got {self.vdd}")

        rows, cols = geometry.rows, geometry.cols
        self._stored = np.full((rows, cols), int(Trit.X), dtype=np.int8)
        self._valid = np.zeros(rows, dtype=bool)
        self._write_counts = np.zeros((rows, cols), dtype=np.int64)
        self._last_drive: tuple[int, ...] | None = None
        self._faults: FaultMap | None = None
        self._faults_seen_version = -1
        self._faults_empty = True
        # Compiled-kernel state: the engine (built on first use) compiles
        # per-class sensing tables that survive writes; the SoA snapshot
        # tracks stored content through this version counter (bumped by
        # every write / invalidate / fault-map change).
        self._content_version = 0
        self._kernel = None
        self._soa = None

        cell_w, cell_h = cell_dimensions(cell.area_f2, geometry.node)
        self.cell_width = cell_w
        self.cell_height = cell_h

        # Sensing chain -----------------------------------------------------
        if sensing == "precharge":
            self.precharge = precharge if precharge is not None else FullSwingPrecharge(self.vdd)
            v_pre = self.precharge.target_voltage()
            self.sense_amp = (
                sense_amp if sense_amp is not None else VoltageSenseAmp(v_ref=0.5 * v_pre, vdd=self.vdd)
            )
            if not 0.0 < self.sense_amp.v_ref < v_pre:
                raise TCAMError(
                    f"sense reference {self.sense_amp.v_ref} V outside (0, {v_pre}) V"
                )
            self.race_amp = None
            sa_input_cap = self.sense_amp.input_capacitance
        else:
            self.race_amp = race_amp if race_amp is not None else CurrentRaceSenseAmp(vdd=self.vdd)
            self.precharge = None
            self.sense_amp = None
            sa_input_cap = self.race_amp.input_capacitance

        # Match-line capacitance ---------------------------------------------
        ml_length = cols * cell_w
        self.c_ml = (
            cols * cell.c_ml_per_cell
            + ml_wire.capacitance(ml_length)
            + sa_input_cap
            + 0.1e-15  # precharge / race-source device junction
        )
        self._ml_wire = ml_wire

        # Search lines -------------------------------------------------------
        self.search_line = SearchLine(
            n_rows=rows,
            c_gate_per_cell=cell.c_sl_gate_per_cell,
            cell_pitch=cell_h,
            wire=sl_wire,
        )
        self._sl_r_driver = 2.0e3  # sized driver for the SL RC
        self.encoder = encoder if encoder is not None else PriorityEncoder(rows)

        # Evaluation window ---------------------------------------------------
        if sensing == "precharge":
            self.t_eval = t_eval if t_eval is not None else self._default_t_eval()
            if self.t_eval <= 0.0:
                raise TCAMError(f"t_eval must be positive, got {self.t_eval}")
        else:
            self.t_eval = self.race_amp.cutoff_time(self.c_ml)

        # Energy protocol -----------------------------------------------------
        # Every ledger booking below goes through this estimator; the
        # default reproduces the historical inline formulas bit for bit.
        self.estimator = ArrayEstimator(self) if estimator is None else estimator(self)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def _default_t_eval(self) -> float:
        """2x the single-mismatch crossing time (worst-case row)."""
        load = MatchLineLoad(
            capacitance=self.c_ml,
            n_miss=1,
            n_match=self.geometry.cols - 1,
            i_pulldown=self.cell.i_pulldown,
            i_leak=self.cell.i_leak,
        )
        line = MatchLine(load, self.precharge.target_voltage(), self.vdd)
        t_cross = line.time_to(self.sense_amp.v_ref)
        if not np.isfinite(t_cross):
            raise TCAMError(
                "single-mismatch line never crosses the sense reference; "
                "the cell's pull-down is too weak for this configuration"
            )
        return 2.0 * t_cross

    @property
    def rows(self) -> int:
        """Number of stored words."""
        return self.geometry.rows

    @property
    def cols(self) -> int:
        """Trits per word."""
        return self.geometry.cols

    @property
    def sl_settle_delay(self) -> float:
        """Search-line settling delay [s]."""
        return self.search_line.settle_delay(self._sl_r_driver)

    def stored_matrix(self) -> np.ndarray:
        """Copy of the stored trit encodings (rows x cols int8)."""
        return self._stored.copy()

    def word_at(self, row: int) -> TernaryWord:
        """The stored word at ``row``."""
        self._check_row(row)
        return TernaryWord(self._stored[row])

    def valid_mask(self) -> np.ndarray:
        """Copy of the per-row valid bits."""
        return self._valid.copy()

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.geometry.rows:
            raise TCAMError(f"row {row} outside [0, {self.geometry.rows})")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def write(self, row: int, word: TernaryWord) -> WriteOutcome:
        """Store ``word`` at ``row``, paying per-cell transition costs.

        A write moves the content version, so the next batch rebuilds the
        SoA snapshot; the compiled class tables depend only on the
        electrical configuration and survive.  A rejected write (bad row
        or width) changes nothing.
        """
        self._check_row(row)
        if len(word) != self.geometry.cols:
            raise TCAMError(
                f"word width {len(word)} does not match array cols {self.geometry.cols}"
            )
        self._content_version += 1
        ledger = EnergyLedger()
        latency = 0.0
        changed = 0
        new = word.as_array()
        for col in range(self.geometry.cols):
            old_trit = Trit(int(self._stored[row, col]))
            new_trit = Trit(int(new[col]))
            cost = self.estimator.write_cost(old_trit, new_trit)
            ledger.add(EnergyComponent.WRITE, cost.energy)
            latency = max(latency, cost.latency)
            if old_trit is not new_trit:
                changed += 1
                self._write_counts[row, col] += 1
        self._stored[row] = new
        self._valid[row] = True
        m = obs.metrics()
        if m is not None:
            m.counter("tcam.writes").inc()
            m.counter("tcam.cells_changed").inc(changed)
            m.counter("energy.write").inc(ledger.total)
        return WriteOutcome(row=row, energy=ledger, latency=latency, cells_changed=changed)

    def invalidate(self, row: int) -> None:
        """Remove ``row`` from match participation (erase to all-X).

        Moves the content version, like :meth:`write`.
        """
        self._check_row(row)
        self._content_version += 1
        self._stored[row] = int(Trit.X)
        self._valid[row] = False

    def load(self, words: list[TernaryWord], start_row: int = 0) -> EnergyLedger:
        """Write a batch of words into consecutive rows; return total energy."""
        if start_row + len(words) > self.geometry.rows:
            raise TCAMError(
                f"cannot load {len(words)} words at row {start_row} into "
                f"{self.geometry.rows} rows"
            )
        ledger = EnergyLedger()
        for offset, word in enumerate(words):
            ledger.merge(self.write(start_row + offset, word).energy)
        return ledger

    def load_rows(
        self, words: Sequence[TernaryWord], start_row: int = 0
    ) -> EnergyLedger:
        """Bulk-write ``words`` into consecutive rows with one version bump.

        Ledger-identical to :meth:`load` (the same per-cell transition
        costs accumulate in the same row-major order), but
        ``_content_version`` moves once for the whole corpus instead of
        once per row -- the difference between one SoA rebuild and 100k
        of them when a retrieval corpus loads.  The per-cell costs come
        from the estimator's 3x3 ``(old, new)`` transition table gathered
        over the block.
        """
        words = list(words)
        n_rows = len(words)
        if start_row + n_rows > self.geometry.rows:
            raise TCAMError(
                f"cannot load {n_rows} words at row {start_row} into "
                f"{self.geometry.rows} rows"
            )
        ledger = EnergyLedger()
        if n_rows == 0:
            return ledger
        for word in words:
            if len(word) != self.geometry.cols:
                raise TCAMError(
                    f"word width {len(word)} does not match array cols "
                    f"{self.geometry.cols}"
                )
        self._content_version += 1
        new = np.stack([w.as_array() for w in words])
        block = slice(start_row, start_row + n_rows)
        old = self._stored[block]
        # The estimator prices only nine distinct trit transitions.
        e_tab = np.empty((3, 3), dtype=np.float64)
        for o in range(3):
            for t in range(3):
                e_tab[o, t] = self.estimator.write_cost(Trit(o), Trit(t)).energy
        # Row sums left to right, as the per-trit write loop adds them.
        row_e = np.cumsum(e_tab[old, new], axis=1)[:, -1]
        changed = old != new
        total_changed = int(np.count_nonzero(changed))
        self._write_counts[block][changed] += 1
        self._stored[block] = new
        self._valid[block] = True
        for e in row_e:
            ledger.add(EnergyComponent.WRITE, float(e))
        m = obs.metrics()
        if m is not None:
            m.counter("tcam.writes").inc(n_rows)
            m.counter("tcam.cells_changed").inc(total_changed)
            m.counter("energy.write").inc(ledger.total)
        return ledger

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def attach_faults(self, faults: FaultMap | None) -> None:
        """Attach a defect map; searches then sense the faulty hardware.

        Faulty cells perturb the match-line discharge itself (their
        pull-down composition feeds the same RK4 integration healthy
        rows use), so faults manifest as wrong *sensed* decisions, not
        output bit-flips.  Scalar and batch searches keep their usual
        engines: a healthy row is a faulty row with an empty fault map,
        so an **empty** map is equivalent to no map, bit for bit.

        Attaching (and any later mutation of the attached map, detected
        through :attr:`FaultMap.version`) moves the content version, so
        the next batch rebuilds its fault-aware SoA planes.  Fault-shaped
        sensing classes are memoized by their full physics signature
        (see :meth:`~repro.kernels.KernelEngine.signature_results`),
        which no map change can make stale.

        Args:
            faults: The defect map (array-shaped), or ``None`` to detach.
        """
        if faults is not None and (faults.rows, faults.cols) != (
            self.geometry.rows,
            self.geometry.cols,
        ):
            raise TCAMError(
                f"fault map {faults.rows}x{faults.cols} does not match array "
                f"{self.geometry.rows}x{self.geometry.cols}"
            )
        self._faults = faults
        if faults is None:
            self._faults_seen_version = -1
            self._faults_empty = True
        else:
            self._faults_seen_version = faults.version
            self._faults_empty = faults.is_empty()
        self._content_version += 1

    def detach_faults(self) -> None:
        """Remove the attached defect map."""
        self.attach_faults(None)

    @property
    def faults(self) -> FaultMap | None:
        """The attached defect map, or ``None``."""
        return self._faults

    def _fault_injection_active(self) -> bool:
        """True when a non-empty fault map must shape the next search.

        Re-inspects the attached map when its version counter moved
        (in-place mutation after attach) and moves the content version
        once per such change.
        """
        fm = self._faults
        if fm is None:
            return False
        if fm.version != self._faults_seen_version:
            self._content_version += 1
            self._faults_seen_version = fm.version
            self._faults_empty = fm.is_empty()
        return not self._faults_empty

    def _fault_row_composition(
        self, key_arr: np.ndarray, driven: np.ndarray, eff_stored: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-cell pull-down / weakened-pull-down masks of one key.

        A cell pulls its match line down when it (a) mismatches on the
        hardware's effective content and its pull-down path is intact
        (not ``STUCK_MATCH``), or (b) is ``STUCK_MISS`` and its column
        is driven.  ``RETENTION`` pull-downs conduct through a shifted
        threshold (the ``weak`` mask; ``None`` on healthy hardware).
        """
        x = int(Trit.X)
        mism = (
            driven[np.newaxis, :]
            & (eff_stored != x)
            & (eff_stored != key_arr[np.newaxis, :])
        )
        if self._faults_empty:
            return mism, None
        kind = self._faults.kind
        pulldown = (mism & (kind != int(FaultKind.STUCK_MATCH))) | (
            (kind == int(FaultKind.STUCK_MISS)) & driven[np.newaxis, :]
        )
        weak = pulldown & (kind == int(FaultKind.RETENTION))
        return pulldown, weak

    def _book_fault_metrics(self, errors: np.ndarray) -> None:
        """Count fault-injected searches and the functional errors seen
        (``errors``: per-search functional error counts)."""
        m = obs.metrics()
        if m is None or self._faults_empty:
            return
        m.counter("faults.searches").inc(len(errors))
        m.counter("faults.functional_errors").inc(int(np.sum(errors)))

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------

    def search(self, key: TernaryWord, row_mask: np.ndarray | None = None) -> SearchOutcome:
        """Execute one search and account its energy and timing.

        This is the golden reference every batch path is tested against:
        each sensing class is integrated by RK4 on the spot.  When an
        observability session is active, the search is traced as an
        ``array.search`` span whose per-phase children carry exact
        slices of the returned ledger (see :data:`_SPAN_ENERGY_GROUPS`).

        Args:
            key: Search key (may contain X columns, which are masked).
            row_mask: Optional per-row evaluation mask.  Rows outside the
                mask are not precharged, not sensed and cannot match --
                the selective-precharge mechanism used by
                :class:`~repro.tcam.bank.SegmentedBank`.
        """
        with obs.span(
            "array.search",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            sensing=self.sensing,
        ) as sp:
            self._book_path("scalar")
            outcome = self._search_impl(key, row_mask)
            if sp is not None:
                self._book_search_span(sp, outcome, n_searches=1)
            return outcome

    def _active_mask(self, row_mask: np.ndarray | None) -> np.ndarray:
        """The per-row evaluation mask (all rows when ``row_mask`` is None)."""
        if row_mask is None:
            return np.ones(self.geometry.rows, dtype=bool)
        active = np.asarray(row_mask, dtype=bool)
        if active.shape != (self.geometry.rows,):
            raise TCAMError(
                f"row_mask must have shape ({self.geometry.rows},), got {active.shape}"
            )
        return active

    def _search_impl(
        self, key: TernaryWord, row_mask: np.ndarray | None = None
    ) -> SearchOutcome:
        if len(key) != self.geometry.cols:
            raise TCAMError(
                f"key width {len(key)} does not match array cols {self.geometry.cols}"
            )
        active = self._active_mask(row_mask)
        ledger = EnergyLedger()
        self._book_searchline_energy(ledger, key)
        outcome = self._search_key(ledger, key.as_array(), active)
        self._book_fault_metrics([outcome.functional_errors])
        return outcome

    def _search_key(
        self, ledger: EnergyLedger, key_arr: np.ndarray, active: np.ndarray
    ) -> SearchOutcome:
        """Reference search body for one key whose SL energy is booked.

        A sensed row's sensing class is its pull-down signature
        ``(n_strong, weak_offsets, n_leak)`` -- intact conducting
        pull-downs, the sorted Vt shifts of the conducting retention-
        weakened ones, and leaking driven cells -- plus its SA offset, a
        threshold shift applied to the sensed endpoint.  A healthy row is
        ``(n_miss, (), driven - n_miss)`` at offset 0.  Dead rows are not
        sensed.  Every group is integrated directly (one stacked RK4
        pass, no memo) from broadcast compares, independent of the SoA
        planes.  Shared by the scalar :meth:`search` and the kernel's
        per-key fallback for keys beyond a pinned engine grid.
        """
        fm = self._faults if self._fault_injection_active() else None
        driven = key_arr != int(Trit.X)
        driven_cols = int(np.count_nonzero(driven))
        eff = self._stored if fm is None else fm.effective_stored(self._stored)
        pulldown, weak = self._fault_row_composition(key_arr, driven, eff)
        n_pull = pulldown.sum(axis=1)
        nominal = active if fm is None else active & ~fm.dead_rows
        exceptional: dict[int, tuple] = {}
        if fm is not None:
            # A conducting weak pull-down or a biased SA takes the row off
            # the nominal class of its pull-down count.
            n_weak = weak.sum(axis=1)
            exc = nominal & ((n_weak > 0) | (fm.sa_offset != 0.0))
            nominal = nominal & ~exc
            for r in np.flatnonzero(exc).tolist():
                exceptional[r] = (
                    int(n_pull[r] - n_weak[r]),
                    tuple(sorted(fm.value[r][weak[r]].tolist())),
                    driven_cols - int(n_pull[r]),
                    float(fm.sa_offset[r]),
                )
        classes, counts = np.unique(n_pull[nominal], return_counts=True)
        groups = {
            (n, (), driven_cols - n, 0.0): c
            for n, c in zip(classes.tolist(), counts.tolist())
        }
        for sig in exceptional.values():
            groups[sig] = groups.get(sig, 0) + 1
        sigs = sorted(groups)
        results = dict(zip(sigs, self._signature_results(sigs)))

        physical = np.zeros(self.geometry.rows, dtype=bool)
        for n in classes.tolist():
            physical[nominal & (n_pull == n)] = results[(n, (), driven_cols - n, 0.0)].is_match
        for r, sig in exceptional.items():
            physical[r] = results[sig].is_match
        if fm is None:
            miss = miss_eff = n_pull
        else:
            miss = mismatch_counts(self._stored, key_arr)
            miss_eff = mismatch_counts(eff, key_arr)
        booked = [(groups[s], results[s]) for s in sigs]
        return self._assemble_outcome(ledger, physical, booked, miss, miss_eff, active)

    def search_batch(
        self,
        keys: Iterable[TernaryWord],
        row_mask: np.ndarray | None = None,
    ) -> BatchOutcome:
        """Execute many searches on the compiled kernel.

        Returns one :class:`~repro.tcam.outcome.BatchOutcome` whose items
        are exactly the :class:`SearchOutcome` sequence that calling
        :meth:`search` once per key would produce (including the sequential
        search-line toggle semantics: the first key toggles against the
        array's current drive state and each subsequent key against its
        predecessor), but every count comes from one SoA matmul and
        every per-class sensing quantity from the compiled tables or the
        engine's signature memo (see :meth:`_search_batch_kernel`).  An
        attached fault map changes neither the engine nor the guarantee.

        Args:
            keys: Search keys, all of the array's width.
            row_mask: Optional per-row evaluation mask applied to every
                key in the batch (as in :meth:`search`).
        """
        keys = list(keys)
        if not keys:
            return []
        with obs.span(
            "array.search_batch",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            sensing=self.sensing,
            n_keys=len(keys),
        ) as sp:
            return self._run_batch(sp, self._search_batch_impl, keys, row_mask)

    def _search_batch_impl(
        self,
        keys: list[TernaryWord],
        row_mask: np.ndarray | None = None,
    ) -> BatchOutcome:
        packed = self._pack_batch(keys)
        active = self._active_mask(row_mask)
        self._book_path("kernel")
        outcomes = self._search_batch_kernel(packed, active)
        self._book_fault_metrics(outcomes.columns["functional_errors"])
        return outcomes

    # -- observability booking -------------------------------------------------

    def _run_batch(self, sp, impl, *args):
        """Run one batch ``impl`` and book its energy and kernel counters.

        Shared by every ``*_batch`` API: the span receives the summed
        ledger, and the engine's hit/fallback counters are delta-synced
        into the metrics registry once per batch.
        """
        m = obs.metrics()
        eng = self.kernel
        before = (eng.table_hits, eng.rk4_fallbacks)
        outcomes = impl(*args)
        if sp is not None:
            if isinstance(outcomes, BatchOutcome):
                ledger = outcomes.energy.summed()
            else:
                ledger = EnergyLedger.sum(o.energy for o in outcomes)
            sp.add_energy(ledger)
            self._book_batch_metrics(len(outcomes), ledger)
        if m is not None:
            for name, prev, now in zip(
                ("kernels.table_hits", "kernels.rk4_fallbacks"),
                before,
                (eng.table_hits, eng.rk4_fallbacks),
            ):
                m.counter(name).inc(now - prev)
        return outcomes

    @staticmethod
    def _book_path(path: str, n: int = 1) -> None:
        """Count under ``tcam.path.<path>``: one per array call for the
        ``kernel`` (every batch) / ``scalar`` paths, one per out-of-grid
        key for ``rk4_fallback``."""
        m = obs.metrics()
        if m is not None:
            m.counter("tcam.path." + path).inc(n)

    def _book_search_span(self, sp, outcome: SearchOutcome, n_searches: int) -> None:
        """Annotate a finished search's span and bump the search metrics.

        The outcome ledger is *read only*: per-phase child spans receive
        fresh slice ledgers (see :meth:`~repro.obs.span.Span.split_energy`),
        so tracing can never perturb the returned accounting.
        """
        sp.set_delay(outcome.search_delay)
        sp.annotate(
            first_match=outcome.first_match,
            functional_errors=outcome.functional_errors,
        )
        sp.split_energy(outcome.energy, _SPAN_ENERGY_GROUPS)
        self._book_batch_metrics(n_searches, outcome.energy)

    def _book_batch_metrics(self, n_searches: int, ledger: EnergyLedger) -> None:
        """Count searches and attribute joules per component."""
        m = obs.metrics()
        if m is None:
            return
        m.counter("tcam.searches").inc(n_searches)
        if n_searches > 1:
            m.histogram("tcam.batch_size").observe(n_searches)
        for component, joules in ledger:
            m.counter("energy." + component).inc(joules)

    # -- compiled kernel -------------------------------------------------------

    @property
    def kernel(self):
        """The compiled :class:`~repro.kernels.KernelEngine` behind every
        batch API and every memoized class lookup.

        Built on first use, so arrays that never run a batch (pickled
        Monte-Carlo and campaign payloads) carry no tables.  Assigning an
        engine built with a smaller ``max_driven`` pins the grid: keys
        driving more columns then take the RK4 reference per key.
        """
        if self._kernel is None:
            from ..kernels import KernelEngine

            self._kernel = KernelEngine(self)
        return self._kernel

    @kernel.setter
    def kernel(self, engine) -> None:
        if engine._array is not self:
            raise TCAMError("a kernel engine serves only the array it was built for")
        self._kernel = engine

    def _soa_state(self):
        """Current-content SoA snapshot, rebuilt when the version moves."""
        from ..kernels import SoAState

        soa = self._soa
        if soa is None or soa.version != self._content_version:
            soa = SoAState.from_array(self, self._content_version)
            self._soa = soa
        return soa

    def _pack_batch(self, keys: list[TernaryWord]) -> np.ndarray:
        """Stack a key batch into its int8 matrix, checking the width."""
        packed = pack_keys(keys)
        if packed.shape[1] != self.geometry.cols:
            raise TCAMError(
                f"key width {packed.shape[1]} does not match array cols "
                f"{self.geometry.cols}"
            )
        return packed

    def _class_results(
        self, classes: Iterable[int], driven: int
    ) -> dict[int, _PrechargeClassResult | _RaceClassResult]:
        """Sensing results of the classes ``(n, driven)``, keyed by ``n``.

        Read from the engine's compiled row of ``driven`` -- the one place
        class physics is memoized.  A ``driven`` beyond a pinned engine's
        grid is integrated by the RK4 reference instead.
        """
        eng = self.kernel
        classes = [int(n) for n in classes]
        if not eng.in_grid(driven):
            signatures = [(n, (), driven - n, 0.0) for n in classes]
            return dict(zip(classes, self._signature_results(signatures)))
        row = eng.row(driven)
        result = _PrechargeClassResult if self.sensing == "precharge" else _RaceClassResult
        return {
            n: result(**{f: getattr(row, f)[n].item() for f in result.__dataclass_fields__})
            for n in classes
        }

    def _search_batch_kernel(self, packed: np.ndarray, active: np.ndarray) -> BatchOutcome:
        """Kernel body of :meth:`_search_batch_impl`: columnar assembly.

        The SoA matmuls (exact integer float32 accumulation) yield, per
        ``(key, row)``, the mismatches on the written and on the
        effective content, the conducting pull-downs and their
        retention-weakened subset.  A sensed pair is *nominal* when no
        weak pull-down conducts and its SA is unbiased: its class is its
        pull-down count, gathered from the compiled row of the key's
        ``driven``.  The other, *exceptional* pairs read the engine's
        signature memo and are scattered into the dense ``(key, class)``
        count matrix at their canonical signature rank (ascending
        signature -- ascending ``n_miss`` on healthy hardware -- is the
        order the reference books its groups in).  Each energy
        component is then one row-wise ``np.cumsum`` of count x table
        value: strictly left-to-right, like the reference's
        ``ledger.add`` loop, with an exact ``+0.0`` for every absent
        class.  Keys driving more columns than a pinned grid take the
        reference body :meth:`_search_key`.
        """
        eng = self.kernel
        fm = self._faults if self._fault_injection_active() else None
        soa = self._soa_state()
        rows, cols = self.geometry.rows, self.geometry.cols
        n_keys = packed.shape[0]
        precharge = self.sensing == "precharge"
        with obs.span(
            "array.kernel_batch", n_keys=n_keys, sensing=self.sensing
        ) as sp:
            intended, effective, pull, weak = soa.search_counts(packed)
            driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
            sensed = active if fm is None else active & ~soa.faults.dead
            sl_delay = self.sl_settle_delay
            enc_delay = self.encoder.delay
            # Exactly the scalar leakage expression sans the trailing
            # ``* cycle_time`` factor (left-associative, so the prefix
            # product is a common subexpression).
            k_leak = self.estimator.leakage_power(self.vdd)
            av = active & self._valid
            sv = sensed & self._valid

            # Dense per-(key, class) row counts: nominal sensed pairs by
            # pull-down count, valid rows by effective mismatch count.
            n_classes = cols + 1
            base = (np.arange(n_keys) * n_classes)[:, np.newaxis]
            off_eff = effective + base
            off_pull = off_eff if pull is effective else pull + base
            counts_valid = np.bincount(
                off_eff[:, self._valid].ravel(), minlength=n_keys * n_classes
            ).reshape(n_keys, n_classes)

            # Exceptional pairs, their signatures and signature ids.
            exc_k = exc_r = exc_id = np.empty(0, dtype=np.intp)
            exc_sigs: list[tuple] = []
            if fm is None:
                nominal_pulls = off_pull[:, sensed].ravel()
            else:
                sa = soa.faults.sa_offset
                exc = sensed & ((weak > 0) | (sa != 0.0))
                exc_k, exc_r = np.nonzero(exc)
                nominal_pulls = off_pull[sensed & ~exc]
                ids: dict[tuple, int] = {}
                exc_id = np.array(
                    [
                        ids.setdefault((p - w, o, d - p, s), len(ids))
                        for p, w, o, d, s in zip(
                            pull[exc_k, exc_r].tolist(),
                            weak[exc_k, exc_r].tolist(),
                            soa.weak_offsets(packed, exc_k, exc_r),
                            driven_all[exc_k].tolist(),
                            sa[exc_r].tolist(),
                        )
                    ],
                    dtype=np.intp,
                )
                exc_sigs = list(ids)
            counts_nom = np.bincount(
                nominal_pulls, minlength=n_keys * n_classes
            ).reshape(n_keys, n_classes)

            # The batch's columns.  Energy columns in canonical booking
            # order; only reference-body keys can leave some unbooked.
            if precharge:
                components = (_SL, _PRE, _DISS, _SA, _ENC, _LEAK)
                e_fields = ("e_restore", "e_diss", "e_sense")
                fields = e_fields + ("t_sense", "t_restore")
            else:
                components = (_SL, _RACE, _ENC, _LEAK)
                e_fields = fields = ("energy",)
            ledgers = EnergyMatrix.booking(components, n_keys)
            energy, booked = ledgers.values, ledgers.booked
            col = [ledgers.column(name) for name in components]
            energy[:, col[0]] = self._batch_toggles(packed) * self.estimator.sl_toggle_energy()
            energy[:, col[-2]] = self.estimator.encode_energy()
            match = np.zeros((n_keys, rows), dtype=bool)
            first = np.full(n_keys, -1, dtype=np.int64)
            search_delay = np.empty(n_keys)
            cycle_time = np.empty(n_keys)
            errors = np.empty(n_keys, dtype=np.int64)

            # Out-of-grid keys take the reference body, booked as RK4
            # fallbacks; so does every key when no row is sensed (nothing
            # to integrate, only SL, encoder and leakage book).
            in_grid = driven_all <= eng.max_driven
            if not in_grid.all():
                self._book_path("rk4_fallback", int(np.count_nonzero(~in_grid)))
            if not sensed.any():
                in_grid[:] = False
            fallback_idx = np.flatnonzero(~in_grid)
            if fallback_idx.size:
                n_groups = np.count_nonzero(counts_nom, axis=1)
                if exc_sigs:
                    width = len(exc_sigs)
                    n_groups += np.bincount(
                        np.unique(exc_k * width + exc_id) // width, minlength=n_keys
                    )
            for k in fallback_idx.tolist():
                ledger = EnergyLedger()
                ledger.add(EnergyComponent.SEARCHLINE, float(energy[k, col[0]]))
                ref = self._search_key(ledger, packed[k], active)
                eng.rk4_fallbacks += int(n_groups[k])
                for c, name in zip(col, components):
                    energy[k, c] = ledger.get(name)
                    booked[k, c] = name in ledger._entries
                match[k] = ref.match_mask
                first[k] = -1 if ref.first_match is None else ref.first_match
                search_delay[k], cycle_time[k] = ref.search_delay, ref.cycle_time
                errors[k] = ref.functional_errors

            idx = np.flatnonzero(in_grid)
            drivens = np.flatnonzero(np.bincount(driven_all[idx])).tolist() if idx.size else []
            n_e = len(e_fields)
            e_cols = slice(col[1], col[1] + n_e)  # the layout keeps them adjacent
            for d in drivens:
                # The whole batch is one group in the common case: slice
                # it rather than gather it.
                whole = len(drivens) == 1 and idx.size == n_keys
                grp = slice(None) if whole else idx[driven_all[idx] == d]
                row = eng.row(d)
                counts = counts_nom[grp, : d + 1]
                tab = np.array([getattr(row, f) for f in fields])
                phys = row.is_match[pull[grp]]
                sel = np.flatnonzero(driven_all[exc_k] == d)
                if sel.size:
                    # Scatter the group's exceptional classes into the
                    # dense counts at their canonical signature rank.
                    uniq, inv = np.unique(exc_id[sel], return_inverse=True)
                    sigs = [exc_sigs[i] for i in uniq.tolist()]
                    results = eng.signature_results(sigs)
                    width = d + 1 + len(sigs)
                    all_sigs = [(n, (), d - n, 0.0) for n in range(d + 1)] + sigs
                    order = sorted(range(width), key=all_sigs.__getitem__)
                    rank = np.empty(width, dtype=np.intp)
                    rank[order] = np.arange(width)
                    local = exc_k[sel] if whole else np.searchsorted(grp, exc_k[sel])
                    dense = np.zeros((counts.shape[0], width), dtype=np.int64)
                    dense[:, rank[: d + 1]] = counts
                    np.add.at(dense, (local, rank[d + 1 + inv]), 1)
                    counts = dense
                    extra = [[getattr(r, f) for r in results] for f in fields]
                    tab = np.concatenate([tab, extra], axis=1)[:, order]
                    phys[local, exc_r[sel]] = np.array(
                        [r.is_match for r in results], dtype=bool
                    )[inv]
                eng.table_hits += int(np.count_nonzero(counts))
                cnt = counts[:, np.newaxis, :].astype(np.float64)
                energy[grp, e_cols] = np.cumsum(cnt * tab[:n_e], axis=2)[:, :, -1]
                if precharge:
                    # Max reductions are order-independent selections;
                    # absent classes read 0.0, the reference's start value.
                    t_sa, t_res = np.where(cnt > 0, tab[n_e:], 0.0).max(axis=2).T
                    t_sense = self.t_eval + t_sa
                    search_delay[grp] = sl_delay + t_sense + enc_delay
                    cycle_time[grp] = sl_delay + (t_sense + t_res)
                else:
                    cutoff = self.race_amp.cutoff_time(self.c_ml)
                    search_delay[grp] = sl_delay + cutoff + enc_delay
                    cycle_time[grp] = sl_delay + 1.2 * cutoff

                eff = phys & sv
                errors[grp] = np.count_nonzero(eff != ((intended[grp] == 0) & av), axis=1)
                first[grp] = np.where(eff.any(axis=1), eff.argmax(axis=1), -1)
                match[grp] = eff
            energy[idx, col[-1]] = k_leak * cycle_time[idx]
            if sp is not None:
                sp.annotate(
                    fallback_keys=int(fallback_idx.size),
                    exceptional_pairs=int(exc_k.size),
                    rows_built=eng.rows_built,
                )
            return BatchOutcome(
                first=first,
                search_delay=search_delay,
                cycle_time=cycle_time,
                energy=ledgers,
                match=match,
                view=_search_view,
                miss_counts=counts_valid,
                functional_errors=errors,
            )

    # -- search-line booking -------------------------------------------------

    def _book_searchline_energy(self, ledger: EnergyLedger, key: TernaryWord) -> None:
        drive = drive_vector(key)
        if self._last_drive is None:
            previous = tuple(0 for _ in drive)
        else:
            previous = self._last_drive
        toggles = count_toggles(previous, drive)
        ledger.add(EnergyComponent.SEARCHLINE, toggles * self.estimator.sl_toggle_energy())
        self._last_drive = drive

    def _batch_toggles(self, packed: np.ndarray) -> np.ndarray:
        """Per-key search-line toggle counts for a stacked key batch.

        Threads ``_last_drive`` through the batch in order: key 0 toggles
        against the array's current drive state, key ``k`` against key
        ``k - 1``, and the final key's drive becomes the new array state --
        exactly the sequence ``search`` would produce key by key.
        """
        drives = drive_matrix(packed)
        previous = np.empty_like(drives)
        previous[0] = 0 if self._last_drive is None else self._last_drive
        previous[1:] = drives[:-1]
        toggles = _BITS_SET[drives ^ previous].sum(axis=1)
        self._last_drive = tuple(drives[-1].tolist())
        return toggles

    # -- per-mismatch-class sensing results ----------------------------------

    def _ml_voltages_after_eval(self, signatures: Sequence[tuple]) -> list[float]:
        """ML voltages at strobe time for several pull-down signatures.

        A signature ``(n_strong, weak_offsets, n_leak)`` fixes the line's
        composite current: ``n_strong`` intact pull-downs, one pull-down
        per retention Vt shift in ``weak_offsets`` and ``n_leak`` leaking
        matched cells (a healthy ``(n_miss, driven)`` class is
        ``(n_miss, (), driven - n_miss)``).  All signatures are
        integrated in one stacked RK4 pass (elementwise identical to
        integrating each alone), so the cost of the Python-level step
        loop is shared across the whole set.
        """
        v_pre = self.precharge.target_voltage()
        out = [v_pre] * len(signatures)
        loads: list[tuple[int, int, tuple, int]] = []
        for j, (n_strong, offsets, n_leak) in enumerate(signatures):
            if n_strong < 0 or n_leak < 0:
                raise TCAMError("inconsistent mismatch accounting")
            if n_strong + len(offsets) + n_leak == 0:
                continue  # fully masked key: nothing can discharge the line
            loads.append((j, n_strong, offsets, n_leak))
        if not loads:
            return out

        i_pulldown = self.cell.i_pulldown
        i_leak = self.cell.i_leak

        def currents(v: np.ndarray) -> np.ndarray:
            stacked = np.empty(len(loads))
            for k, (_, n_strong, offsets, n_leak) in enumerate(loads):
                v_k = float(v[k])
                total = 0.0
                if n_strong:
                    total += n_strong * i_pulldown(v_k)
                for dvt in offsets:
                    total += i_pulldown(v_k, dvt)
                if n_leak:
                    total += n_leak * i_leak(v_k)
                stacked[k] = total
            return stacked

        grid = np.linspace(0.0, self.t_eval, 65)
        v_end = discharge_waveform_batch(
            self.c_ml, currents, np.full(len(loads), v_pre), grid
        )
        for k, (j, _, _, _) in enumerate(loads):
            out[j] = float(v_end[k])
        return out

    def _ml_voltage_after_eval(self, n_miss: int, driven_cols: int, v_pre: float) -> float:
        """Strobe-time ML voltage of one mismatch class (``v_pre`` must be
        the active precharge target; kept as an argument for call-site
        clarity in the characterization helpers)."""
        return self._ml_voltages_after_eval([(n_miss, (), driven_cols - n_miss)])[0]

    def _signature_results(
        self, signatures: Sequence[tuple]
    ) -> list[_PrechargeClassResult | _RaceClassResult]:
        """Sensing results of ``(n_strong, weak_offsets, n_leak, sa_offset)``
        classes, computed directly (no memo).

        The first three fields are the pull-down signature (see
        :meth:`_ml_voltages_after_eval`); the SA offset shifts the
        decision threshold applied to the sensed endpoint (precharge) or
        to the race (current race).
        """
        if self.sensing == "precharge":
            v_ends = self._ml_voltages_after_eval([s[:3] for s in signatures])
            return [
                self._precharge_class_from_v_end(v, s[3]) for v, s in zip(v_ends, signatures)
            ]
        v_trip = self.race_amp.v_trip
        i_pd, i_lk = self.cell.i_pulldown(v_trip), self.cell.i_leak(v_trip)
        out = []
        for n_strong, offsets, n_leak, sa_offset in signatures:
            i_total = n_strong * i_pd + n_leak * i_lk
            for dvt in offsets:
                i_total += self.cell.i_pulldown(v_trip, dvt)
            decision = self.estimator.race(i_total, sa_offset)
            out.append(_RaceClassResult(decision.is_match, decision.energy, decision.delay))
        return out

    def _precharge_class_from_v_end(
        self, v_end: float, offset: float = 0.0
    ) -> _PrechargeClassResult:
        decision = self.estimator.sense(v_end, offset)
        e_restore = self.estimator.ml_precharge_energy(v_end)
        e_diss = self.estimator.ml_dissipation_energy(v_end)
        return _PrechargeClassResult(
            v_end=v_end,
            is_match=decision.is_match,
            e_restore=e_restore,
            e_diss=e_diss,
            e_sense=decision.energy,
            t_sense=decision.delay,
            t_restore=self.precharge.restore_time(self.c_ml, v_end),
        )

    # -- outcome assembly ------------------------------------------------------

    def _assemble_outcome(
        self,
        ledger: EnergyLedger,
        physical: np.ndarray,
        booked: Sequence[tuple[int, _PrechargeClassResult | _RaceClassResult]],
        miss: np.ndarray,
        miss_eff: np.ndarray,
        active: np.ndarray,
    ) -> SearchOutcome:
        """Book the sensed groups and build the outcome of one search.

        The reference assembly behind :meth:`_search_key`.  ``booked``
        holds ``(row_count, class_result)`` per sensing group in
        canonical signature order (ascending ``n_miss`` on healthy
        hardware); each group books ``count x value``.  The histogram
        runs over the effective content ``miss_eff`` of the valid rows,
        the error oracle over the intended content ``miss`` and the
        caller's full mask (a matching word on a dead row is an error).
        """
        if self.sensing == "precharge":
            t_sa_max = 0.0
            t_restore_max = 0.0
            if booked:
                for n_rows, r in booked:
                    ledger.add(EnergyComponent.ML_PRECHARGE, float(n_rows) * r.e_restore)
                    ledger.add(EnergyComponent.ML_DISSIPATION, float(n_rows) * r.e_diss)
                    ledger.add(EnergyComponent.SENSE_AMP, float(n_rows) * r.e_sense)
                    t_sa_max = max(t_sa_max, r.t_sense)
                    t_restore_max = max(t_restore_max, r.t_restore)
                t_sense = self.t_eval + t_sa_max
                t_cycle = t_sense + t_restore_max
            else:
                t_sense = self.t_eval
                t_cycle = self.t_eval
        else:
            if booked:
                for n_rows, r in booked:
                    ledger.add(EnergyComponent.RACE_SOURCE, float(n_rows) * r.energy)
                # Matched lines were charged to the trip point and reset to
                # ground; the reset burns stored charge but draws nothing new.
                cutoff = self.race_amp.cutoff_time(self.c_ml)
                t_sense = cutoff
                t_cycle = 1.2 * cutoff  # reset phase
            else:
                t_sense = self.race_amp.t_window
                t_cycle = self.race_amp.t_window

        # Priority encoding --------------------------------------------------
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())
        effective = physical & self._valid
        first = self.encoder.encode(effective)

        search_delay = self.sl_settle_delay + t_sense + self.encoder.delay
        cycle_time = self.sl_settle_delay + t_cycle

        # Standby leakage over the cycle ----------------------------------------
        leak = self.estimator.leakage_power(self.vdd) * cycle_time
        ledger.add(EnergyComponent.LEAKAGE, leak)

        logical_match = (miss == 0) & self._valid & active
        classes, counts = np.unique(miss_eff[self._valid], return_counts=True)
        histogram = {int(n): int(c) for n, c in zip(classes, counts)}
        errors = int(np.count_nonzero(effective != logical_match))
        return SearchOutcome(
            match_mask=effective,
            first_match=first,
            energy=ledger,
            search_delay=search_delay,
            cycle_time=cycle_time,
            miss_histogram=histogram,
            functional_errors=errors,
        )

    # ------------------------------------------------------------------
    # Approximate search (associative-memory mode, used by the HDC and
    # retrieval workloads)
    # ------------------------------------------------------------------

    def _require_precharge(self, api: str) -> None:
        """Shared sensing-mode guard; ``api`` names the calling method."""
        if self.sensing != "precharge":
            raise TCAMError(f"{api} requires precharge-style sensing")

    def _require_no_faults(self, api: str) -> None:
        """Shared fault-injection guard; ``api`` names the calling method."""
        if self._fault_injection_active():
            raise TCAMError(
                f"{api} does not support fault injection; detach the fault map first"
            )

    def nearest_match(self, key: TernaryWord) -> NearestMatchOutcome:
        """Best-match search: the row with the fewest mismatching cells.

        Physically this is time-domain sensing: every match line is
        precharged and released, and the *last* line to cross the sense
        reference (or the one that never does) is the winner, since lines
        discharge faster the more pull-downs they carry.  The evaluation
        window therefore extends until the winner is separable from the
        runner-up, and every line with at least one mismatch fully
        discharges -- which is why associative-memory mode costs more per
        search than exact-match mode.

        Only supported for precharge-style sensing.
        """
        self._require_precharge("nearest_match()")
        self._require_no_faults("nearest_match()")
        with obs.span(
            "array.nearest_match",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
        ) as sp:
            self._book_path("scalar")
            outcome = self._nearest_match_impl(key)
            if sp is not None:
                sp.set_delay(outcome.search_delay)
                sp.annotate(row=outcome.row, distance=outcome.distance)
                sp.split_energy(outcome.energy, _SPAN_ENERGY_GROUPS)
                self._book_batch_metrics(1, outcome.energy)
            return outcome

    def _nearest_match_impl(self, key: TernaryWord) -> NearestMatchOutcome:
        if len(key) != self.geometry.cols:
            raise TCAMError(
                f"key width {len(key)} does not match array cols {self.geometry.cols}"
            )
        key_arr = key.as_array()
        driven_cols = int(np.count_nonzero(key_arr != int(Trit.X)))
        miss = mismatch_counts(self._stored, key_arr)

        ledger = EnergyLedger()
        self._book_searchline_energy(ledger, key)

        valid_idx = np.flatnonzero(self._valid)
        if valid_idx.size == 0:
            return NearestMatchOutcome(None, 0, ledger, self.sl_settle_delay)
        best_pos = int(valid_idx[np.argmin(miss[valid_idx])])
        best_distance = int(miss[best_pos])

        v_pre = self.precharge.target_voltage()
        # Window: long enough for the runner-up distance class to cross.
        runner_up = best_distance + 1
        if runner_up <= driven_cols and runner_up > 0:
            t_window = self._crossing_time(runner_up, driven_cols)
        else:
            t_window = self.t_eval

        # Every line with miss > best fully discharges; the winner class
        # droops only.  Restore costs follow.
        n_losers = int(np.count_nonzero(miss[valid_idx] > best_distance))
        n_winners = int(valid_idx.size - n_losers)
        ledger.add(
            EnergyComponent.ML_PRECHARGE, self.estimator.ml_precharge_energy(0.0, n_losers)
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            self.estimator.ml_dissipation_energy(0.0, n_losers),
        )
        if best_distance == 0:
            v_winner = self._ml_voltage_after_eval(0, driven_cols, v_pre)
        else:
            v_winner = 0.0  # the winner itself also discharges, just last
            ledger.add(
                EnergyComponent.ML_DISSIPATION,
                self.estimator.ml_dissipation_energy(0.0, n_winners),
            )
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(v_winner, n_winners),
        )
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.estimator.sense_idle_energy(valid_idx.size),
        )
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())

        delay = self.sl_settle_delay + t_window + self.encoder.delay
        ledger.add(EnergyComponent.LEAKAGE, self.standby_power() * delay)
        return NearestMatchOutcome(best_pos, best_distance, ledger, delay)

    def nearest_match_batch(self, keys: Iterable[TernaryWord]) -> list[NearestMatchOutcome]:
        """Best-match search over a batch on the fused distance kernel.

        Equivalent to ``[nearest_match(k) for k in keys]`` outcome by
        outcome: one SoA matmul for the whole mismatch matrix, evaluation
        windows and winner droop voltages from the compiled tables (see
        :meth:`_nearest_match_batch_kernel`).
        """
        self._require_precharge("nearest_match_batch()")
        self._require_no_faults("nearest_match_batch()")
        keys = list(keys)
        if not keys:
            return []
        with obs.span(
            "array.nearest_match_batch",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            n_keys=len(keys),
        ) as sp:
            return self._run_batch(sp, self._nearest_match_batch_kernel, keys)

    def _nearest_key(
        self,
        miss: np.ndarray,
        driven_cols: int,
        n_toggles: int,
        e_toggle: float,
        valid_idx: np.ndarray,
    ) -> NearestMatchOutcome:
        """Per-key best-match body (the kernel's out-of-grid fallback)."""
        ledger = EnergyLedger()
        ledger.add(EnergyComponent.SEARCHLINE, n_toggles * e_toggle)
        if valid_idx.size == 0:
            return NearestMatchOutcome(None, 0, ledger, self.sl_settle_delay)
        best_pos = int(valid_idx[np.argmin(miss[valid_idx])])
        best_distance = int(miss[best_pos])

        runner_up = best_distance + 1
        if runner_up <= driven_cols and runner_up > 0:
            t_window = self._window(runner_up, driven_cols)
        else:
            t_window = self.t_eval

        n_losers = int(np.count_nonzero(miss[valid_idx] > best_distance))
        n_winners = int(valid_idx.size - n_losers)
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(0.0, n_losers),
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            self.estimator.ml_dissipation_energy(0.0, n_losers),
        )
        if best_distance == 0:
            v_winner = self._class_results([0], driven_cols)[0].v_end
        else:
            v_winner = 0.0
            ledger.add(
                EnergyComponent.ML_DISSIPATION,
                self.estimator.ml_dissipation_energy(0.0, n_winners),
            )
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(v_winner, n_winners),
        )
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.estimator.sense_idle_energy(valid_idx.size),
        )
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())

        delay = self.sl_settle_delay + t_window + self.encoder.delay
        ledger.add(EnergyComponent.LEAKAGE, self.standby_power() * delay)
        return NearestMatchOutcome(best_pos, best_distance, ledger, delay)

    def _crossing_time(self, n_miss: int, driven_cols: int) -> float:
        """Time for an ``n_miss``-mismatch line (of ``driven_cols`` driven
        columns) to cross the sense reference; ``t_eval`` if it never
        does.  The RK4-free closed form behind every distance window."""
        load = MatchLineLoad(
            capacitance=self.c_ml,
            n_miss=n_miss,
            n_match=max(driven_cols - n_miss, 0),
            i_pulldown=self.cell.i_pulldown,
            i_leak=self.cell.i_leak,
        )
        t_window = MatchLine(load, self.precharge.target_voltage(), self.vdd).time_to(
            self.sense_amp.v_ref
        )
        return float(t_window) if np.isfinite(t_window) else self.t_eval

    def _window(self, n_miss: int, driven_cols: int) -> float:
        """:meth:`_crossing_time` from the engine's compiled window row
        (computed directly beyond a pinned grid)."""
        eng = self.kernel
        if eng.in_grid(driven_cols):
            return float(eng.window_row(driven_cols)[n_miss])
        return self._crossing_time(n_miss, driven_cols)

    def _key_inputs(self, key: TernaryWord) -> tuple:
        """Inputs of a per-key distance body for one scalar call: the
        mismatch row, driven count, search-line toggles (advancing the
        drive state), toggle energy and valid rows."""
        packed = self._pack_batch([key])
        return (
            mismatch_counts(self._stored, packed[0]),
            int(np.count_nonzero(packed[0] != int(Trit.X))),
            int(self._batch_toggles(packed)[0]),
            self.estimator.sl_toggle_energy(),
            np.flatnonzero(self._valid),
        )

    # -- tolerance (threshold) search ------------------------------------------

    def threshold_match(self, key: TernaryWord, max_distance: int) -> ThresholdMatchOutcome:
        """Tolerance search: every row within ``max_distance`` mismatches.

        TAP-CAM-style approximate matching: the sense strobe is delayed
        exactly long enough for the first *excluded* mismatch class
        (``max_distance + 1``) to cross the reference, so rows carrying up
        to ``max_distance`` conducting cells still read as matches.  The
        verdict is a time-domain crossing detection like
        :meth:`nearest_match`, so only the sense amplifier's internal
        swing books -- which is what makes a tolerance probe cheaper per
        query than an exact-match :meth:`search` scan.

        Only supported for precharge-style sensing.
        """
        self._require_precharge("threshold_match()")
        self._require_no_faults("threshold_match()")
        self._check_max_distance(max_distance)
        with obs.span(
            "array.threshold_match",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            max_distance=max_distance,
        ) as sp:
            self._book_path("scalar")
            outcome = self._threshold_key(*self._key_inputs(key), max_distance)
            if sp is not None:
                sp.set_delay(outcome.search_delay)
                sp.annotate(n_matches=outcome.n_matches)
                sp.split_energy(outcome.energy, _SPAN_ENERGY_GROUPS)
                self._book_batch_metrics(1, outcome.energy)
            return outcome

    def threshold_match_batch(
        self, keys: Iterable[TernaryWord], max_distance: int
    ) -> list[ThresholdMatchOutcome]:
        """Tolerance search over a batch on the fused distance kernel.

        Equivalent to ``[threshold_match(k, max_distance) for k in keys]``
        outcome by outcome (one SoA matmul, windows and droop voltages
        from the compiled tables).
        """
        self._require_precharge("threshold_match_batch()")
        self._require_no_faults("threshold_match_batch()")
        self._check_max_distance(max_distance)
        keys = list(keys)
        if not keys:
            return []
        with obs.span(
            "array.threshold_match_batch",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            n_keys=len(keys),
            max_distance=max_distance,
        ) as sp:
            return self._run_batch(
                sp, self._threshold_match_batch_kernel, keys, max_distance
            )

    def _check_max_distance(self, max_distance: int) -> None:
        if max_distance < 0:
            raise TCAMError(f"max_distance must be >= 0, got {max_distance}")

    def _threshold_key(
        self,
        miss: np.ndarray,
        driven_cols: int,
        n_toggles: int,
        e_toggle: float,
        valid_idx: np.ndarray,
        max_distance: int,
    ) -> ThresholdMatchOutcome:
        """Per-key tolerance-search body (scalar API and kernel fallback)."""
        rows = self.geometry.rows
        ledger = EnergyLedger()
        ledger.add(EnergyComponent.SEARCHLINE, n_toggles * e_toggle)
        if valid_idx.size == 0:
            return ThresholdMatchOutcome(
                match_mask=np.zeros(rows, dtype=bool),
                first_match=None,
                n_matches=0,
                max_distance=max_distance,
                energy=ledger,
                search_delay=self.sl_settle_delay,
            )
        miss_v = miss[valid_idx]
        within = miss_v <= max_distance
        mask = np.zeros(rows, dtype=bool)
        mask[valid_idx[within]] = True
        n_matches = int(np.count_nonzero(within))
        n_losers = int(valid_idx.size - n_matches)

        # Strobe window: the first excluded class must cross the reference.
        cut = max_distance + 1
        if 0 < cut <= driven_cols:
            t_window = self._window(cut, driven_cols)
        else:
            t_window = self.t_eval

        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(0.0, n_losers),
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            self.estimator.ml_dissipation_energy(0.0, n_losers),
        )
        # Accepted rows droop to their class endpoints; each accepted
        # class books restore and dissipation, accumulated in ascending
        # n_miss order into one add per component (= the kernel's
        # segmented sums, bit for bit).
        e_pre, e_diss = self._droop_energies(miss_v[within], driven_cols)
        ledger.add(EnergyComponent.ML_PRECHARGE, e_pre)
        ledger.add(EnergyComponent.ML_DISSIPATION, e_diss)
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.estimator.sense_idle_energy(valid_idx.size),
        )
        ledger.add(EnergyComponent.PRIORITY_ENCODER, self.estimator.encode_energy())
        delay = self.sl_settle_delay + t_window + self.encoder.delay
        ledger.add(EnergyComponent.LEAKAGE, self.standby_power() * delay)
        return ThresholdMatchOutcome(
            match_mask=mask,
            first_match=self.encoder.encode(mask),
            n_matches=n_matches,
            max_distance=max_distance,
            energy=ledger,
            search_delay=delay,
        )

    def _droop_energies(self, miss: np.ndarray, driven_cols: int) -> tuple[float, float]:
        """Restore and dissipation of the surviving lines ``miss``,
        summed class by class in ascending ``n_miss`` order."""
        e_pre = 0.0
        e_diss = 0.0
        classes, counts = np.unique(miss, return_counts=True)
        results = self._class_results(classes, driven_cols)
        for n, c in zip(classes, counts):
            r = results[int(n)]
            e_pre += float(c) * r.e_restore
            e_diss += float(c) * r.e_diss
        return e_pre, e_diss

    # -- k-nearest (top-k) search ----------------------------------------------

    def topk_match(self, key: TernaryWord, k: int) -> TopKMatchOutcome:
        """k-nearest search: the ``k`` rows with the fewest mismatches.

        Time-domain sensing as in :meth:`nearest_match`, with the strobe
        delayed until the class one past the k-th winner crosses the
        reference; the priority encoder then drains the k winners
        sequentially (ascending distance, ties broken by row index).

        Only supported for precharge-style sensing.
        """
        self._require_precharge("topk_match()")
        self._require_no_faults("topk_match()")
        self._check_k(k)
        with obs.span(
            "array.topk_match",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            k=k,
        ) as sp:
            self._book_path("scalar")
            outcome = self._topk_key(*self._key_inputs(key), k)
            if sp is not None:
                sp.set_delay(outcome.search_delay)
                sp.annotate(n_returned=len(outcome.rows))
                sp.split_energy(outcome.energy, _SPAN_ENERGY_GROUPS)
                self._book_batch_metrics(1, outcome.energy)
            return outcome

    def topk_match_batch(self, keys: Iterable[TernaryWord], k: int) -> list[TopKMatchOutcome]:
        """k-nearest search over a batch on the fused distance kernel.

        Equivalent to ``[topk_match(key, k) for key in keys]`` outcome by
        outcome.
        """
        self._require_precharge("topk_match_batch()")
        self._require_no_faults("topk_match_batch()")
        self._check_k(k)
        keys = list(keys)
        if not keys:
            return []
        with obs.span(
            "array.topk_match_batch",
            rows=self.geometry.rows,
            cols=self.geometry.cols,
            n_keys=len(keys),
            k=k,
        ) as sp:
            return self._run_batch(sp, self._topk_match_batch_kernel, keys, k)

    def _check_k(self, k: int) -> None:
        if k < 1:
            raise TCAMError(f"k must be >= 1, got {k}")

    def _topk_key(
        self,
        miss: np.ndarray,
        driven_cols: int,
        n_toggles: int,
        e_toggle: float,
        valid_idx: np.ndarray,
        k: int,
    ) -> TopKMatchOutcome:
        """Per-key top-k body (scalar API and kernel fallback)."""
        ledger = EnergyLedger()
        ledger.add(EnergyComponent.SEARCHLINE, n_toggles * e_toggle)
        if valid_idx.size == 0:
            return TopKMatchOutcome((), (), k, ledger, self.sl_settle_delay)
        miss_v = miss[valid_idx]
        n_take = min(k, int(valid_idx.size))
        order = np.argsort(miss_v, kind="stable")[:n_take]
        sel_rows = valid_idx[order]
        sel_dist = miss_v[order]
        d_k = int(sel_dist[-1])

        # Strobe window: the class one past the k-th winner must cross.
        cut = d_k + 1
        if 0 < cut <= driven_cols:
            t_window = self._window(cut, driven_cols)
        else:
            t_window = self.t_eval

        # Every class deeper than the k-th winner fully discharges; the
        # surviving classes droop to their endpoints.
        survivors = miss_v <= d_k
        n_losers = int(valid_idx.size - np.count_nonzero(survivors))
        ledger.add(
            EnergyComponent.ML_PRECHARGE,
            self.estimator.ml_precharge_energy(0.0, n_losers),
        )
        ledger.add(
            EnergyComponent.ML_DISSIPATION,
            self.estimator.ml_dissipation_energy(0.0, n_losers),
        )
        e_pre, e_diss = self._droop_energies(miss_v[survivors], driven_cols)
        ledger.add(EnergyComponent.ML_PRECHARGE, e_pre)
        ledger.add(EnergyComponent.ML_DISSIPATION, e_diss)
        ledger.add(
            EnergyComponent.SENSE_AMP,
            self.estimator.sense_idle_energy(valid_idx.size),
        )
        ledger.add(
            EnergyComponent.PRIORITY_ENCODER,
            float(n_take) * self.estimator.encode_energy(),
        )
        delay = self.sl_settle_delay + t_window + float(n_take) * self.encoder.delay
        ledger.add(EnergyComponent.LEAKAGE, self.standby_power() * delay)
        return TopKMatchOutcome(
            rows=tuple(int(r) for r in sel_rows),
            distances=tuple(int(d) for d in sel_dist),
            k=k,
            energy=ledger,
            search_delay=delay,
        )

    # -- fused distance kernel tails -------------------------------------------

    def _distance_kernel_prologue(self, keys: list[TernaryWord]):
        """Shared front half of the distance kernels.

        One SoA matmul for the full ``(n_keys, rows)`` mismatch matrix
        (bit-identical to the broadcast reference), plus the per-key
        driven counts, sequential search-line toggle chain and the
        constant per-batch estimator values.
        """
        packed = self._pack_batch(keys)
        self._book_path("kernel")
        miss_all = self._soa_state().mismatch_counts(packed)
        driven_all = np.count_nonzero(packed != int(Trit.X), axis=1)
        toggles = self._batch_toggles(packed)
        e_toggle = self.estimator.sl_toggle_energy()
        # int * float == float64(int) * float bit for bit (exact ints).
        sl_e = toggles.astype(np.float64) * e_toggle
        valid_idx = np.flatnonzero(self._valid)
        return miss_all, driven_all, toggles, e_toggle, sl_e, valid_idx

    def _distance_fallbacks(self, body, miss_all, driven_all, toggles, e_toggle,
                            valid_idx, outcomes, *extra) -> np.ndarray:
        """Run keys beyond the engine grid through the per-key ``body``
        (booked as RK4 fallbacks); returns the in-grid key indices."""
        eng = self.kernel
        in_grid = driven_all <= eng.max_driven
        fallback_idx = np.flatnonzero(~in_grid)
        for q in fallback_idx.tolist():
            outcomes[q] = body(
                miss_all[q], int(driven_all[q]), int(toggles[q]), e_toggle,
                valid_idx, *extra,
            )
        eng.rk4_fallbacks += int(fallback_idx.size)
        if fallback_idx.size:
            self._book_path("rk4_fallback", int(fallback_idx.size))
        return np.flatnonzero(in_grid)

    def _diss0_table(self, n_max: int) -> np.ndarray:
        """Full-discharge dissipation per line count, tabulated 0..n_max.

        Entry ``n`` is exactly ``estimator.ml_dissipation_energy(0.0, n)``
        (same call, same float), so the kernels can gather count-scaled
        dissipation terms instead of memoizing per distinct count.
        """
        est = self.estimator
        return np.array(
            [est.ml_dissipation_energy(0.0, n) for n in range(n_max + 1)]
        )

    def _nearest_match_batch_kernel(
        self, keys: list[TernaryWord]
    ) -> list[NearestMatchOutcome]:
        """Fused distance kernel of :meth:`nearest_match_batch`.

        Winner/runner-up partitioning is vectorized over the whole
        mismatch matrix; evaluation windows come from the engine's
        crossing-time tables (:meth:`~repro.kernels.KernelEngine.window_row`,
        the same floats :meth:`_crossing_time` computes) and the
        winner droop voltages from the compiled waveform tables.  The
        per-key ledgers repeat the reference adds in the reference order,
        with the estimator's count-scaled terms memoized per distinct
        count -- identical call, identical float.  Keys driving more
        columns than the tabulated grid take the reference body per key
        and book RK4 fallbacks.
        """
        eng = self.kernel
        n_keys = len(keys)
        with obs.span("array.distance_kernel", mode="nearest", n_keys=n_keys) as sp:
            (miss_all, driven_all, toggles, e_toggle, sl_e, valid_idx) = (
                self._distance_kernel_prologue(keys)
            )
            outcomes: list[NearestMatchOutcome | None] = [None] * n_keys
            if valid_idx.size == 0:
                for q in range(n_keys):
                    ledger = EnergyLedger()
                    ledger.add(EnergyComponent.SEARCHLINE, float(sl_e[q]))
                    outcomes[q] = NearestMatchOutcome(
                        None, 0, ledger, self.sl_settle_delay
                    )
                return outcomes

            miss_v = miss_all[:, valid_idx]
            best_j = np.argmin(miss_v, axis=1)
            best_pos = valid_idx[best_j]
            best_d = np.take_along_axis(miss_v, best_j[:, np.newaxis], axis=1)[:, 0]
            n_losers = np.count_nonzero(miss_v > best_d[:, np.newaxis], axis=1)
            n_winners = valid_idx.size - n_losers

            r0 = self.estimator.ml_precharge_energy(0.0, 1)
            e_sa = self.estimator.sense_idle_energy(int(valid_idx.size))
            enc_e = self.estimator.encode_energy()
            enc_delay = self.encoder.delay
            sl_delay = self.sl_settle_delay
            k_leak = self.standby_power()
            diss_tab = self._diss0_table(int(valid_idx.size))

            idx = self._distance_fallbacks(
                self._nearest_key, miss_all, driven_all, toggles, e_toggle,
                valid_idx, outcomes,
            )
            if idx.size:
                # Pad the per-driven crossing-time rows and winner restore
                # energies into dense tables so the whole batch gathers in
                # one pass (entries beyond each row's triangle are masked
                # off by the ``ru <= d`` window condition below).
                d_arr = driven_all[idx]
                ds = np.unique(d_arr)
                maxd = int(ds[-1])
                win_tab = np.full((maxd + 1, maxd + 2), self.t_eval)
                rest0 = np.empty(maxd + 1)
                for d in ds:
                    d = int(d)
                    win_tab[d, : d + 1] = eng.window_row(d)
                    rest0[d] = eng.row(d).e_restore[0]
                eng.table_hits += int(idx.size)
                bd = best_d[idx]
                nl = n_losers[idx]
                nw = n_winners[idx]
                ru = bd + 1
                t_window = np.where(
                    ru <= d_arr,
                    win_tab[d_arr, np.minimum(ru, d_arr)],
                    self.t_eval,
                )
                delays = (sl_delay + t_window) + enc_delay
                leak = k_leak * delays
                pre_losers = nl.astype(np.float64) * r0
                pre_winners = nw.astype(np.float64) * np.where(
                    bd == 0, rest0[d_arr], r0
                )
                # Component totals, vectorized with the reference operand
                # grouping: two precharge adds fold to one elementwise sum
                # ((0.0 + a) + b == a + b); the winner dissipation term is
                # only added for distance > 0 (x + 0.0 == x for x >= 0.0).
                pre_tot = (pre_losers + pre_winners).tolist()
                diss_tot = (
                    diss_tab[nl] + np.where(bd != 0, diss_tab[nw], 0.0)
                ).tolist()
                assembled = [
                    NearestMatchOutcome(
                        pos,
                        dist,
                        EnergyLedger._from_booked({
                            _SL: sl,
                            _PRE: pre,
                            _DISS: dis,
                            _SA: e_sa,
                            _ENC: enc_e,
                            _LEAK: lk,
                        }),
                        dl,
                    )
                    for pos, dist, sl, pre, dis, lk, dl in zip(
                        best_pos[idx].tolist(),
                        bd.tolist(),
                        sl_e[idx].tolist(),
                        pre_tot,
                        diss_tot,
                        leak.tolist(),
                        delays.tolist(),
                    )
                ]
                for q, out in zip(idx.tolist(), assembled):
                    outcomes[q] = out
            if sp is not None:
                sp.annotate(fallback_keys=n_keys - int(idx.size))
            return outcomes

    def _valid_class_counts(self, miss_v: np.ndarray) -> np.ndarray:
        """Dense per-(key, class) valid-row counts from the valid-column
        mismatch matrix: one offset bincount."""
        n_keys = miss_v.shape[0]
        n_classes = self.geometry.cols + 1
        offsets = miss_v + (np.arange(n_keys) * n_classes)[:, np.newaxis]
        return np.bincount(
            offsets.ravel(), minlength=n_keys * n_classes
        ).reshape(n_keys, n_classes)

    def _threshold_match_batch_kernel(
        self, keys: list[TernaryWord], max_distance: int
    ) -> list[ThresholdMatchOutcome]:
        """Fused distance kernel of :meth:`threshold_match_batch` (cf.
        :meth:`_nearest_match_batch_kernel`); accepted-class restore and
        dissipation come from the compiled tables through row-wise
        ``np.cumsum`` over the dense class counts, reproducing the
        reference's left-to-right accumulation."""
        eng = self.kernel
        rows = self.geometry.rows
        n_keys = len(keys)
        with obs.span("array.distance_kernel", mode="threshold", n_keys=n_keys) as sp:
            (miss_all, driven_all, toggles, e_toggle, sl_e, valid_idx) = (
                self._distance_kernel_prologue(keys)
            )
            outcomes: list[ThresholdMatchOutcome | None] = [None] * n_keys
            if valid_idx.size == 0:
                for q in range(n_keys):
                    ledger = EnergyLedger()
                    ledger.add(EnergyComponent.SEARCHLINE, float(sl_e[q]))
                    outcomes[q] = ThresholdMatchOutcome(
                        match_mask=np.zeros(rows, dtype=bool),
                        first_match=None,
                        n_matches=0,
                        max_distance=max_distance,
                        energy=ledger,
                        search_delay=self.sl_settle_delay,
                    )
                return outcomes

            miss_v = miss_all[:, valid_idx]
            within = miss_v <= max_distance
            n_match = np.count_nonzero(within, axis=1)
            n_losers = valid_idx.size - n_match
            counts_valid = self._valid_class_counts(miss_v)
            cut = max_distance + 1

            r0 = self.estimator.ml_precharge_energy(0.0, 1)
            e_sa = self.estimator.sense_idle_energy(int(valid_idx.size))
            enc_e = self.estimator.encode_energy()
            enc_delay = self.encoder.delay
            sl_delay = self.sl_settle_delay
            k_leak = self.standby_power()
            diss_tab = self._diss0_table(int(valid_idx.size))

            idx = self._distance_fallbacks(
                self._threshold_key, miss_all, driven_all, toggles, e_toggle,
                valid_idx, outcomes, max_distance,
            )
            for d in np.unique(driven_all[idx]):
                d = int(d)
                grp = idx[driven_all[idx] == d]
                wrow = eng.window_row(d)
                vrow = eng.row(d)
                eng.table_hits += int(grp.size)
                t_window = float(wrow[cut]) if cut <= d else self.t_eval
                delay = (sl_delay + t_window) + enc_delay
                leak = k_leak * delay
                # Accepted classes are exactly the first ``cut`` columns of
                # the class histogram (miss <= driven bounds the rest out).
                width = min(cut, d + 1)
                cnt = counts_valid[grp][:, :width].astype(np.float64)
                e_pre = np.cumsum(cnt * vrow.e_restore[:width], axis=1)[:, -1]
                e_diss = np.cumsum(cnt * vrow.e_diss[:width], axis=1)[:, -1]
                nl = n_losers[grp]
                pre_losers = nl.astype(np.float64) * r0
                # Reference booking folds to one elementwise sum per
                # component: (0.0 + losers) + accepted == losers + accepted.
                pre_tot = (pre_losers + e_pre).tolist()
                diss_tot = (diss_tab[nl] + e_diss).tolist()
                sl_l = sl_e[grp].tolist()
                nm_l = n_match[grp].tolist()
                for i, q in enumerate(grp.tolist()):
                    ledger = EnergyLedger._from_booked({
                        _SL: sl_l[i],
                        _PRE: pre_tot[i],
                        _DISS: diss_tot[i],
                        _SA: e_sa,
                        _ENC: enc_e,
                        _LEAK: leak,
                    })
                    mask = np.zeros(rows, dtype=bool)
                    mask[valid_idx[within[q]]] = True
                    outcomes[q] = ThresholdMatchOutcome(
                        match_mask=mask,
                        first_match=self.encoder.encode(mask),
                        n_matches=nm_l[i],
                        max_distance=max_distance,
                        energy=ledger,
                        search_delay=delay,
                    )
            if sp is not None:
                sp.annotate(fallback_keys=n_keys - int(idx.size))
            return outcomes

    def _topk_match_batch_kernel(
        self, keys: list[TernaryWord], k: int
    ) -> list[TopKMatchOutcome]:
        """Fused distance kernel of :meth:`topk_match_batch`.

        Selection runs on a composite ``miss * n_valid + position`` key,
        which reproduces the reference's stable-sort tie-breaking
        (ascending distance, then row index) under ``argpartition``.
        """
        eng = self.kernel
        n_keys = len(keys)
        with obs.span("array.distance_kernel", mode="topk", n_keys=n_keys) as sp:
            (miss_all, driven_all, toggles, e_toggle, sl_e, valid_idx) = (
                self._distance_kernel_prologue(keys)
            )
            outcomes: list[TopKMatchOutcome | None] = [None] * n_keys
            if valid_idx.size == 0:
                for q in range(n_keys):
                    ledger = EnergyLedger()
                    ledger.add(EnergyComponent.SEARCHLINE, float(sl_e[q]))
                    outcomes[q] = TopKMatchOutcome((), (), k, ledger, self.sl_settle_delay)
                return outcomes

            n_valid = int(valid_idx.size)
            miss_v = miss_all[:, valid_idx]
            comp = miss_v * np.int64(n_valid) + np.arange(n_valid, dtype=np.int64)
            n_take = min(k, n_valid)
            if n_take < n_valid:
                part = np.argpartition(comp, n_take - 1, axis=1)[:, :n_take]
                comp_sel = np.take_along_axis(comp, part, axis=1)
                order = np.argsort(comp_sel, axis=1)
                sel_j = np.take_along_axis(part, order, axis=1)
            else:
                sel_j = np.argsort(comp, axis=1)
            sel_rows = valid_idx[sel_j]
            sel_dist = np.take_along_axis(miss_v, sel_j, axis=1)
            d_k = sel_dist[:, -1]
            n_losers = np.count_nonzero(miss_v > d_k[:, np.newaxis], axis=1)
            counts_valid = self._valid_class_counts(miss_v)

            r0 = self.estimator.ml_precharge_energy(0.0, 1)
            e_sa = self.estimator.sense_idle_energy(n_valid)
            enc_e = self.estimator.encode_energy()
            enc_delay = self.encoder.delay
            sl_delay = self.sl_settle_delay
            k_leak = self.standby_power()
            diss_tab = self._diss0_table(n_valid)

            idx = self._distance_fallbacks(
                self._topk_key, miss_all, driven_all, toggles, e_toggle,
                valid_idx, outcomes, k,
            )
            n_classes = self.geometry.cols + 1
            class_grid = np.arange(n_classes)
            for d in np.unique(driven_all[idx]):
                d = int(d)
                grp = idx[driven_all[idx] == d]
                wrow = eng.window_row(d)
                vrow = eng.row(d)
                eng.table_hits += int(grp.size)
                dk = d_k[grp]
                ru = dk + 1
                t_window = np.where(ru <= d, wrow[np.minimum(ru, d)], self.t_eval)
                delays = (sl_delay + t_window) + float(n_take) * enc_delay
                leak = k_leak * delays
                # Surviving classes: miss <= d_k, zeroed out per key.
                cv = counts_valid[grp] * (class_grid[np.newaxis, :] <= dk[:, np.newaxis])
                cnt = cv[:, : d + 1].astype(np.float64)
                e_pre = np.cumsum(cnt * vrow.e_restore, axis=1)[:, -1]
                e_diss = np.cumsum(cnt * vrow.e_diss, axis=1)[:, -1]
                nl = n_losers[grp]
                pre_losers = nl.astype(np.float64) * r0
                enc_total = float(n_take) * enc_e
                # Component totals folded as in the nearest kernel.
                pre_tot = (pre_losers + e_pre).tolist()
                diss_tot = (diss_tab[nl] + e_diss).tolist()
                sl_l = sl_e[grp].tolist()
                leak_l = leak.tolist()
                delays_l = delays.tolist()
                rows_l = sel_rows[grp].tolist()
                dist_l = sel_dist[grp].tolist()
                for i, q in enumerate(grp.tolist()):
                    ledger = EnergyLedger._from_booked({
                        _SL: sl_l[i],
                        _PRE: pre_tot[i],
                        _DISS: diss_tot[i],
                        _SA: e_sa,
                        _ENC: enc_total,
                        _LEAK: leak_l[i],
                    })
                    outcomes[q] = TopKMatchOutcome(
                        rows=tuple(rows_l[i]),
                        distances=tuple(dist_l[i]),
                        k=k,
                        energy=ledger,
                        search_delay=delays_l[i],
                    )
            if sp is not None:
                sp.annotate(fallback_keys=n_keys - int(idx.size))
            return outcomes

    # ------------------------------------------------------------------
    # Static characterization helpers (used by benches and analyses)
    # ------------------------------------------------------------------

    def sense_margin(self) -> float:
        """Worst-case V(match) - V(1-mismatch) at the strobe instant [V].

        Only meaningful for precharge-style sensing.
        """
        if self.sensing != "precharge":
            raise TCAMError("sense_margin() applies to precharge-style sensing only")
        v_pre = self.precharge.target_voltage()
        cols = self.geometry.cols
        v_match = self._ml_voltage_after_eval(0, cols, v_pre)
        v_miss = self._ml_voltage_after_eval(1, cols, v_pre)
        return v_match - v_miss

    def standby_power(self) -> float:
        """Array standby power [W] at the configured supply."""
        return self.estimator.leakage_power(self.vdd)

    def occupancy(self) -> float:
        """Fraction of rows holding valid entries."""
        return float(np.count_nonzero(self._valid)) / self.geometry.rows

    def x_density(self) -> float:
        """Fraction of X trits among the valid rows (0.0 when empty)."""
        valid_rows = self._stored[self._valid]
        if valid_rows.size == 0:
            return 0.0
        return float(np.mean(valid_rows == int(Trit.X)))

    def pipelined_cycle_time(self) -> float:
        """Cycle time with SL drive, evaluation and restore overlapped [s].

        A pipelined TCAM drives the next key's search lines while the
        previous search's match lines restore, so the issue rate is set by
        the slowest *stage* rather than their sum.  Only meaningful for
        precharge-style sensing (the restore stage exists there).
        """
        if self.sensing != "precharge":
            raise TCAMError("pipelined cycle time applies to precharge sensing")
        t_restore = self.precharge.restore_time(self.c_ml, 0.0)  # worst case
        stages = (self.sl_settle_delay, self.t_eval, t_restore)
        return max(stages)

    # ------------------------------------------------------------------
    # Wear / endurance
    # ------------------------------------------------------------------

    def wear_counts(self) -> np.ndarray:
        """Per-cell state-change counts since construction (rows x cols)."""
        return self._write_counts.copy()

    def wear_report(self) -> dict[str, float]:
        """Summary of accumulated cell wear.

        Returns:
            ``max``, ``mean`` and ``total`` state changes, plus the
            hottest cell's coordinates packed as ``hot_row``/``hot_col``.
        """
        counts = self._write_counts
        hot = np.unravel_index(int(np.argmax(counts)), counts.shape)
        return {
            "max": float(counts.max()),
            "mean": float(counts.mean()),
            "total": float(counts.sum()),
            "hot_row": float(hot[0]),
            "hot_col": float(hot[1]),
        }

    def remaining_lifetime_fraction(self, endurance_cycles: float) -> float:
        """Fraction of cell endurance the hottest cell has left.

        Args:
            endurance_cycles: The technology's program/erase endurance.
        """
        if endurance_cycles <= 0.0:
            raise TCAMError(f"endurance must be positive, got {endurance_cycles}")
        worst = float(self._write_counts.max())
        return max(1.0 - worst / endurance_cycles, 0.0)
