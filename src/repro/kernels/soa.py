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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError

# Trit encoding (see repro.tcam.trit): 0 -> 0, 1 -> 1, X -> 2.
_X = 2


@dataclass
class SoAState:
    """Trit planes and valid bits of one array content version.

    Attributes:
        version: The array content version this snapshot was built from;
            the array rebuilds the snapshot when its counter moves.
        plane0_t: ``(cols, rows)`` float32, 1.0 where the row stores 0.
        plane1_t: ``(cols, rows)`` float32, 1.0 where the row stores 1.
        valid: ``(rows,)`` bool copy of the valid bits.
    """

    version: int
    plane0_t: np.ndarray
    plane1_t: np.ndarray
    valid: np.ndarray

    @classmethod
    def from_array(cls, array, version: int) -> "SoAState":
        """Snapshot ``array``'s stored content."""
        stored = array._stored
        if array.geometry.cols >= 2**24:
            # float32 accumulation is only exact while every partial sum
            # (bounded by cols) stays an exact float32 integer.
            raise KernelError("SoA matmul counts require cols < 2**24")
        plane0_t = np.ascontiguousarray((stored == 0).T, dtype=np.float32)
        plane1_t = np.ascontiguousarray((stored == 1).T, dtype=np.float32)
        return cls(
            version=version,
            plane0_t=plane0_t,
            plane1_t=plane1_t,
            valid=array._valid.copy(),
        )

    def mismatch_counts(self, packed: np.ndarray) -> np.ndarray:
        """Matmul mismatch counts for a stacked key batch.

        Args:
            packed: ``(n_keys, cols)`` int8 key matrix (trit codes).

        Returns:
            ``(n_keys, rows)`` int64 counts, bit-identical to
            :func:`repro.tcam.trit.mismatch_counts_batch` on the
            snapshot's content.
        """
        packed = np.asarray(packed)
        if packed.ndim != 2 or packed.shape[1] != self.plane0_t.shape[0]:
            raise KernelError(
                f"key batch shape {packed.shape} does not match plane shape "
                f"{self.plane0_t.shape}"
            )
        cols = packed.shape[1]
        # A driven-1 column mismatches stored 0s; a driven-0 column
        # mismatches stored 1s; X on either side never mismatches.  Both
        # products run as ONE matmul over vertically stacked planes: every
        # partial sum is still an exact integer below 2**24, so float32
        # accumulation order cannot change the (integer) result.
        kd = np.empty((packed.shape[0], 2 * cols), dtype=np.float32)
        np.equal(packed, 1, out=kd[:, :cols], casting="unsafe")
        np.equal(packed, 0, out=kd[:, cols:], casting="unsafe")
        miss = kd @ self._stacked_planes()
        return miss.astype(np.int64)

    def _stacked_planes(self) -> np.ndarray:
        """``(2*cols, rows)`` vertical stack of the two trit planes,
        built once per snapshot (content changes rebuild the snapshot)."""
        stacked = getattr(self, "_planes_cache", None)
        if stacked is None:
            stacked = np.vstack([self.plane0_t, self.plane1_t])
            self._planes_cache = stacked
        return stacked
