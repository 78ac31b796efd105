"""Structure-of-arrays snapshot of a TCAM array's stored state.

The scalar search path keeps the stored trits as one ``(rows, cols)``
int8 matrix and counts mismatches with a broadcast compare over the
columns.  The kernel path re-expresses the
same content as two contiguous *trit planes* -- ``plane0[r, c] = 1``
where row ``r`` stores a 0, ``plane1`` likewise for stored 1s -- so the
whole batch's mismatch counts collapse into two matmuls:

``miss = K1 @ plane0.T + K0 @ plane1.T``

where ``K1``/``K0`` are the key batch's "drives 1"/"drives 0" indicator
planes.  Every product term is 0 or 1 and every partial sum is an
integer bounded by ``cols``, so float32 BLAS accumulates the counts
*exactly* (all intermediates are integers below 2**24) in any summation
order -- the result is bit-identical to the broadcast count.

A fault map adds three more plane pairs under the same key matrix
(see :class:`FaultPlanes`): the hardware's effective content, the cells
that pull the match line down and the retention-weakened subset of those.

Every product runs on the calling thread: :func:`count_product` tiles a
product that OpenBLAS would split over worker threads into pieces it
keeps on one.  A threaded product of this size costs more than it
saves -- on a shared 2-CPU host the (1024 x 128) @ (128 x 256) count of
the retrieval gate takes ~8 ms threaded and ~1 ms tiled -- and the
counts are exact in any tiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from ..faults.faultmap import FaultKind


#: OpenBLAS splits a GEMM over threads once ``m * n * k`` reaches twice
#: its per-thread minimum (65536 x ``GEMM_MULTITHREAD_THRESHOLD`` = 4);
#: below it the product runs on the calling thread.
ONE_THREAD_MNK = 2 * 65536 * 4
#: Stored-row (output column) width of one tile of a split product.
ROW_CHUNK = 128


def count_product(kd: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """``kd @ plane`` as exact int64 counts, on the calling thread.

    A product below :data:`ONE_THREAD_MNK` runs as one matmul.  A larger
    one is split along the stored-row axis into :data:`ROW_CHUNK`-wide
    strips and each strip along the key axis into tiles small enough
    for one thread.  Every partial sum is an integer below 2**24, so the
    float32 counts are exact whatever the tiling.
    """
    m, k = kd.shape
    n = plane.shape[1]
    if m * k * n < ONE_THREAD_MNK:
        return (kd @ plane).astype(np.int64)
    out = np.empty((m, n), dtype=np.float32)
    width = min(n, ROW_CHUNK)
    step = max(1, (ONE_THREAD_MNK - 1) // (k * width))
    for c in range(0, n, width):
        strip = plane[:, c : c + width]
        for r in range(0, m, step):
            np.matmul(kd[r : r + step], strip, out=out[r : r + step, c : c + width])
    return out.astype(np.int64)


@dataclass(frozen=True)
class FaultPlanes:
    """Fault-aware planes of one content version.

    A cell pulls its match line down under a key driving 1 (0) when its
    effective trit is 0 (1) and its compare path is intact, or when it is
    ``STUCK_MISS``; ``STUCK_TRIT`` cells compare with their frozen trit.

    Attributes:
        planes: ``(3, 2*cols, rows)`` bool -- the effective-content,
            pull-down and retention-pull-down plane pairs, each with its
            drive-1 plane on top of its drive-0 plane (bools take a
            quarter of the bytes; widened per batch).
        value: ``(rows, cols)`` retention Vt shifts [V].
        dead: ``(rows,)`` bool dead rows.
        sa_offset: ``(rows,)`` per-row sense-amp offsets [V].

    The row-level vectors are the attached map's own arrays: its
    mutators move the array's content version, which rebuilds the
    snapshot before it is read again.
    """

    planes: np.ndarray
    value: np.ndarray
    dead: np.ndarray
    sa_offset: np.ndarray

    @classmethod
    def from_map(cls, fm, stored: np.ndarray) -> "FaultPlanes":
        eff = fm.effective_stored(stored)
        kind = fm.kind
        intact = kind != int(FaultKind.STUCK_MATCH)
        short = kind == int(FaultKind.STUCK_MISS)
        retention = kind == int(FaultKind.RETENTION)
        pull = [((eff == t) & intact) | short for t in (0, 1)]
        pairs = [(eff == 0, eff == 1), pull, [p & retention for p in pull]]
        return cls(
            planes=np.stack([np.vstack([lo.T, hi.T]) for lo, hi in pairs]),
            value=fm.value,
            dead=fm.dead_rows,
            sa_offset=fm.sa_offset,
        )


@dataclass
class SoAState:
    """Trit planes and valid bits of one array content version.

    Attributes:
        version: The array content version this snapshot was built from;
            the array rebuilds the snapshot when its counter moves.
        planes: ``(2*cols, rows)`` float32 matmul operand: 1.0 where the
            row stores 0 (top half) or 1 (bottom half).
        valid: ``(rows,)`` bool copy of the valid bits.
        faults: Fault-aware planes, or ``None`` on healthy hardware.
    """

    version: int
    planes: np.ndarray
    valid: np.ndarray
    faults: FaultPlanes | None = None

    @classmethod
    def from_array(cls, array, version: int) -> "SoAState":
        """Snapshot ``array``'s stored content (and its fault map)."""
        stored = array._stored
        if array.geometry.cols >= 2**24:
            # float32 accumulation is only exact while every partial sum
            # (bounded by cols) stays an exact float32 integer.
            raise KernelError("SoA matmul counts require cols < 2**24")
        fm = array.faults
        return cls(
            version=version,
            planes=np.ascontiguousarray(
                np.vstack([(stored == 0).T, (stored == 1).T]), dtype=np.float32
            ),
            valid=array._valid.copy(),
            faults=None if fm is None or fm.is_empty() else FaultPlanes.from_map(fm, stored),
        )

    def search_counts(self, packed: np.ndarray):
        """Per-(key, row) counts of one key batch, by exact matmuls.

        Args:
            packed: ``(n_keys, cols)`` int8 key matrix (trit codes).

        Returns:
            ``(intended, effective, pull, weak)``, each ``(n_keys, rows)``
            int64: mismatches on the written content, mismatches on the
            content the hardware holds, conducting pull-downs and the
            retention-weakened subset of them.  On healthy hardware the
            first three are one array and ``weak`` is ``None``.
        """
        packed = np.asarray(packed)
        cols = self.planes.shape[0] // 2
        if packed.ndim != 2 or packed.shape[1] != cols:
            raise KernelError(
                f"key batch shape {packed.shape} does not match {cols} plane columns"
            )
        # A driven-1 column mismatches stored 0s; a driven-0 column
        # mismatches stored 1s; X on either side never mismatches.  Both
        # drive polarities run as ONE matmul over the stacked planes:
        # every partial sum is still an exact integer below 2**24, so
        # float32 accumulation order cannot change the (integer) result.
        kd = np.empty((packed.shape[0], 2 * cols), dtype=np.float32)
        np.equal(packed, 1, out=kd[:, :cols], casting="unsafe")
        np.equal(packed, 0, out=kd[:, cols:], casting="unsafe")
        intended = count_product(kd, self.planes)
        if self.faults is None:
            return intended, intended, intended, None
        # One healthy-sized product per fault plane pair (a single
        # product four pairs wide would go to BLAS worker threads).
        planes = self.faults.planes.astype(np.float32)
        return (intended, *(count_product(kd, p) for p in planes))

    def mismatch_counts(self, packed: np.ndarray) -> np.ndarray:
        """Matmul mismatch counts for a stacked key batch.

        Returns ``(n_keys, rows)`` int64 counts, bit-identical to
        :func:`repro.tcam.trit.mismatch_counts_batch` on the snapshot's
        written content.
        """
        return self.search_counts(packed)[0]

    def weak_offsets(
        self, packed: np.ndarray, keys: np.ndarray, rows: np.ndarray
    ) -> list[tuple[float, ...]]:
        """Sorted Vt shifts of the conducting retention cells per pair.

        Entry ``i`` covers key ``keys[i]`` on row ``rows[i]``: the
        ascending Vt shifts of that row's retention-weakened pull-downs
        the key turns on (empty when none conduct).
        """
        cols = packed.shape[1]
        weak = self.faults.planes[2][:, rows].T
        key_rows = packed[keys]
        cells = (weak[:, :cols] & (key_rows == 1)) | (weak[:, cols:] & (key_rows == 0))
        shifts = np.where(cells, self.faults.value[rows], np.inf)
        shifts.sort(axis=1)
        return [
            tuple(s[:n].tolist()) for s, n in zip(shifts, np.count_nonzero(cells, axis=1))
        ]
