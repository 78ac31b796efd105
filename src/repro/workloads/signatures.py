"""Byte-signature scanning (deep packet inspection) on a TCAM.

Network intrusion detection stores malware/protocol signatures in a TCAM
and slides the payload past it one byte at a time; every window position
is one search.  Wildcard bytes inside a signature and the unconstrained
tail beyond its length map directly onto don't-care columns.

Payload boundaries need care: a window hanging off the end of the payload
must not let a long signature "match" against missing bytes.  Each window
byte therefore carries a ninth *valid* trit: real payload bytes search
``1`` there, past-end positions search ``0``, and every byte a signature
constrains (specified or wildcard) stores ``1`` -- so a signature can only
match where all of its bytes actually exist.  This mirrors the per-byte
valid lane real scan engines add for exactly this reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import WorkloadError
from ..tcam.array import TCAMArray
from ..tcam.trit import TernaryWord, Trit

BITS_PER_BYTE = 8
TRITS_PER_BYTE = BITS_PER_BYTE + 1  # data bits + the valid lane


def _stored_byte_trits(value: int | None) -> list[Trit]:
    """Nine stored trits for one signature byte (``None`` = wildcard).

    The leading valid trit is 1: the byte must exist in the payload.
    """
    if value is None:
        return [Trit.ONE] + [Trit.X] * BITS_PER_BYTE
    if not 0 <= value <= 0xFF:
        raise WorkloadError(f"byte value {value} outside [0, 255]")
    return [Trit.ONE] + [Trit((value >> (7 - i)) & 1) for i in range(BITS_PER_BYTE)]


def _key_byte_trits(value: int | None) -> list[Trit]:
    """Nine key trits for one window byte (``None`` = past payload end)."""
    if value is None:
        return [Trit.ZERO] + [Trit.X] * BITS_PER_BYTE
    if not 0 <= value <= 0xFF:
        raise WorkloadError(f"byte value {value} outside [0, 255]")
    return [Trit.ONE] + [Trit((value >> (7 - i)) & 1) for i in range(BITS_PER_BYTE)]


@dataclass(frozen=True)
class Signature:
    """One byte signature.

    Attributes:
        sig_id: Opaque identifier reported on a hit.
        pattern: Byte values; ``None`` entries match any byte.
    """

    sig_id: int
    pattern: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if not self.pattern:
            raise WorkloadError("signature pattern must be non-empty")
        if all(b is None for b in self.pattern):
            raise WorkloadError("signature must constrain at least one byte")
        for b in self.pattern:
            if b is not None and not 0 <= b <= 0xFF:
                raise WorkloadError(f"byte value {b} outside [0, 255]")

    def __len__(self) -> int:
        return len(self.pattern)

    def matches_at(self, payload: bytes, position: int) -> bool:
        """Software oracle: does the signature match at ``position``?"""
        if position < 0 or position + len(self.pattern) > len(payload):
            return False
        for offset, expected in enumerate(self.pattern):
            if expected is not None and payload[position + offset] != expected:
                return False
        return True

    def to_word(self, window_bytes: int) -> TernaryWord:
        """TCAM image anchored at the window start, X-padded to the window."""
        if len(self.pattern) > window_bytes:
            raise WorkloadError(
                f"signature of {len(self.pattern)} bytes exceeds the "
                f"{window_bytes}-byte window"
            )
        trits: list[Trit] = []
        for b in self.pattern:
            trits.extend(_stored_byte_trits(b))
        trits.extend([Trit.X] * (TRITS_PER_BYTE * (window_bytes - len(self.pattern))))
        return TernaryWord(trits)


def window_key(payload: bytes, position: int, window_bytes: int) -> TernaryWord:
    """Search key for the window starting at ``position``.

    Window bytes past the payload end search ``0`` on their valid lane,
    so only signatures that fully fit in the remaining bytes can match.
    """
    if position < 0 or position >= len(payload):
        raise WorkloadError(f"position {position} outside the payload")
    index = position + np.arange(window_bytes)
    in_payload = index < len(payload)
    values = np.zeros(window_bytes, dtype=np.int64)
    values[in_payload] = np.frombuffer(payload, dtype=np.uint8)[index[in_payload]]
    trits = np.empty((window_bytes, TRITS_PER_BYTE), dtype=np.int8)
    trits[:, 0] = np.where(in_payload, int(Trit.ONE), int(Trit.ZERO))
    bit_shifts = np.arange(BITS_PER_BYTE - 1, -1, -1)
    trits[:, 1:] = (values[:, np.newaxis] >> bit_shifts) & 1
    trits[~in_payload, 1:] = int(Trit.X)
    return TernaryWord(trits.reshape(-1))


@dataclass(frozen=True)
class ScanHit:
    """One signature hit.

    Attributes:
        position: Payload byte offset of the window that matched.
        sig_id: The matching signature's identifier.
    """

    position: int
    sig_id: int


class SignatureSet:
    """A compiled signature database.

    Args:
        signatures: The signatures to compile.
        window_bytes: Sliding-window width; must fit the longest signature.
    """

    def __init__(self, signatures: list[Signature], window_bytes: int) -> None:
        if not signatures:
            raise WorkloadError("signature set must be non-empty")
        if window_bytes < 1:
            raise WorkloadError(f"window must be >= 1 byte, got {window_bytes}")
        longest = max(len(s) for s in signatures)
        if longest > window_bytes:
            raise WorkloadError(
                f"window of {window_bytes} bytes cannot hold a "
                f"{longest}-byte signature"
            )
        self.signatures = list(signatures)
        self.window_bytes = window_bytes

    @property
    def word_width(self) -> int:
        """TCAM word width in trits (nine per byte: valid lane + data)."""
        return self.window_bytes * TRITS_PER_BYTE

    def words(self) -> list[TernaryWord]:
        """TCAM images in signature order."""
        return [s.to_word(self.window_bytes) for s in self.signatures]

    def deploy(self, array: TCAMArray) -> None:
        """Load the compiled set into a matching-width array."""
        if array.geometry.cols != self.word_width:
            raise WorkloadError(
                f"signature scan needs a {self.word_width}-column array, "
                f"got {array.geometry.cols}"
            )
        if array.geometry.rows < len(self.signatures):
            raise WorkloadError(
                f"{len(self.signatures)} signatures do not fit in "
                f"{array.geometry.rows} rows"
            )
        array.load(self.words())

    def scan_reference(self, payload: bytes) -> list[ScanHit]:
        """Software oracle: first-matching-signature per window position."""
        hits = []
        for position in range(len(payload)):
            for sig in self.signatures:
                if sig.matches_at(payload, position):
                    hits.append(ScanHit(position=position, sig_id=sig.sig_id))
                    break
        return hits

    def scan_tcam(self, array: TCAMArray, payload: bytes) -> tuple[list[ScanHit], float]:
        """Slide the payload past the TCAM; returns (hits, total energy [J]).

        All window positions go through :meth:`TCAMArray.search_batch` in
        one call, so the whole scan runs on the compiled kernel.
        """
        if not payload:
            return [], 0.0
        with obs.span(
            "workload.dpi.scan",
            payload_bytes=len(payload),
            n_signatures=len(self.signatures),
        ):
            keys = [
                window_key(payload, position, self.window_bytes)
                for position in range(len(payload))
            ]
            outcomes = array.search_batch(keys)
        hits = []
        energy = 0.0
        for position, outcome in enumerate(outcomes):
            energy += outcome.energy_total
            if outcome.first_match is not None and outcome.first_match < len(self.signatures):
                hits.append(
                    ScanHit(
                        position=position,
                        sig_id=self.signatures[outcome.first_match].sig_id,
                    )
                )
        return hits, energy


def synthetic_signatures(
    n_signatures: int,
    rng: np.random.Generator,
    min_bytes: int = 4,
    max_bytes: int = 8,
    wildcard_fraction: float = 0.1,
) -> list[Signature]:
    """Draw random signatures with interior wildcard bytes.

    The first and last bytes are always specified (an all-wildcard edge
    would make the signature alias against everything).
    """
    if n_signatures < 1:
        raise WorkloadError(f"n_signatures must be >= 1, got {n_signatures}")
    if not 1 <= min_bytes <= max_bytes:
        raise WorkloadError(f"invalid length range [{min_bytes}, {max_bytes}]")
    if not 0.0 <= wildcard_fraction < 1.0:
        raise WorkloadError(
            f"wildcard_fraction must be in [0, 1), got {wildcard_fraction}"
        )
    signatures = []
    for sig_id in range(n_signatures):
        length = int(rng.integers(min_bytes, max_bytes + 1))
        pattern: list[int | None] = [int(b) for b in rng.integers(0, 256, size=length)]
        for i in range(1, length - 1):
            if rng.random() < wildcard_fraction:
                pattern[i] = None
        signatures.append(Signature(sig_id=sig_id, pattern=tuple(pattern)))
    return signatures


def plant_signatures(
    payload: bytearray,
    signatures: list[Signature],
    positions: list[tuple[int, int]],
) -> bytes:
    """Overwrite ``payload`` with signature bytes at given positions.

    Args:
        payload: Mutable byte buffer.
        signatures: Signature pool (indexed by the pairs below).
        positions: ``(signature_index, byte_offset)`` pairs to plant.

    Wildcard bytes inside a planted signature leave the payload byte
    untouched (any value matches).
    """
    for sig_index, offset in positions:
        if not 0 <= sig_index < len(signatures):
            raise WorkloadError(f"signature index {sig_index} out of range")
        sig = signatures[sig_index]
        if offset < 0 or offset + len(sig) > len(payload):
            raise WorkloadError(
                f"signature {sig_index} does not fit at offset {offset}"
            )
        for i, value in enumerate(sig.pattern):
            if value is not None:
                payload[offset + i] = value
    return bytes(payload)
