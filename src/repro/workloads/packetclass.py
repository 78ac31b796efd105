"""Packet classification (ACL matching) on a TCAM.

Five-tuple access-control rules -- source/destination prefixes, port
ranges, protocol -- compile into ternary words.  Port *ranges* cannot be
expressed directly in ternary; the standard technique is *prefix
expansion*: a range splits into the minimal set of prefix intervals, each
becoming one TCAM row.  The expansion factor (worst case ``2w - 2`` rows
per range) is itself a classic TCAM cost, so the generator reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import WorkloadError
from ..tcam.array import TCAMArray
from ..tcam.trit import TernaryWord, Trit, word_from_int

SRC_BITS = 16   # truncated addresses keep the demo arrays compact
DST_BITS = 16
PORT_BITS = 16
PROTO_BITS = 8
RULE_BITS = SRC_BITS + DST_BITS + PORT_BITS + PROTO_BITS


def range_to_prefixes(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Minimal prefix cover of the integer interval [lo, hi].

    Returns:
        ``(value, prefix_len)`` pairs; each covers ``value >> (width-len)``.

    >>> range_to_prefixes(0, 65535, 16)
    [(0, 0)]
    >>> len(range_to_prefixes(1, 65534, 16))
    30
    """
    if not 0 <= lo <= hi < (1 << width):
        raise WorkloadError(f"invalid range [{lo}, {hi}] for width {width}")
    prefixes: list[tuple[int, int]] = []
    while lo <= hi:
        # Largest block aligned at lo that still fits inside [lo, hi].
        size = lo & -lo if lo > 0 else 1 << width
        while size > hi - lo + 1:
            size >>= 1
        length = width - size.bit_length() + 1
        prefixes.append((lo, length))
        lo += size
    return prefixes


def _field_trits(value: int, prefix_len: int, width: int) -> list[Trit]:
    bits = word_from_int(value, width)
    return [bits[i] if i < prefix_len else Trit.X for i in range(width)]


@dataclass(frozen=True)
class AclRule:
    """One access-control rule.

    Attributes:
        src_prefix: Source prefix value (left-aligned in SRC_BITS).
        src_len: Source prefix length.
        dst_prefix: Destination prefix value.
        dst_len: Destination prefix length.
        port_lo: Destination-port range low end (inclusive).
        port_hi: Destination-port range high end (inclusive).
        proto: Protocol number, or ``None`` for any.
        action: Opaque action id (0 = deny, 1 = permit, ...).
    """

    src_prefix: int
    src_len: int
    dst_prefix: int
    dst_len: int
    port_lo: int
    port_hi: int
    proto: int | None
    action: int

    def __post_init__(self) -> None:
        if not 0 <= self.src_len <= SRC_BITS or not 0 <= self.dst_len <= DST_BITS:
            raise WorkloadError("prefix lengths out of range")
        if not 0 <= self.port_lo <= self.port_hi < (1 << PORT_BITS):
            raise WorkloadError(f"invalid port range [{self.port_lo}, {self.port_hi}]")
        if self.proto is not None and not 0 <= self.proto < (1 << PROTO_BITS):
            raise WorkloadError(f"invalid protocol {self.proto}")

    def matches(self, packet: "Packet") -> bool:
        """Software oracle for one packet."""
        if self.src_len and (packet.src >> (SRC_BITS - self.src_len)) != (
            self.src_prefix >> (SRC_BITS - self.src_len)
        ):
            return False
        if self.dst_len and (packet.dst >> (DST_BITS - self.dst_len)) != (
            self.dst_prefix >> (DST_BITS - self.dst_len)
        ):
            return False
        if not self.port_lo <= packet.port <= self.port_hi:
            return False
        if self.proto is not None and packet.proto != self.proto:
            return False
        return True

    def expand(self) -> list[TernaryWord]:
        """Prefix-expand the port range into TCAM words."""
        words = []
        for value, length in range_to_prefixes(self.port_lo, self.port_hi, PORT_BITS):
            trits = (
                _field_trits(self.src_prefix, self.src_len, SRC_BITS)
                + _field_trits(self.dst_prefix, self.dst_len, DST_BITS)
                + _field_trits(value, length, PORT_BITS)
                + (
                    _field_trits(self.proto, PROTO_BITS, PROTO_BITS)
                    if self.proto is not None
                    else [Trit.X] * PROTO_BITS
                )
            )
            words.append(TernaryWord(trits))
        return words


@dataclass(frozen=True)
class Packet:
    """A packet header in the truncated 5-tuple space."""

    src: int
    dst: int
    port: int
    proto: int

    def to_key(self) -> TernaryWord:
        """Fully specified search key."""
        parts = []
        for value, width in (
            (self.src, SRC_BITS),
            (self.dst, DST_BITS),
            (self.port, PORT_BITS),
            (self.proto, PROTO_BITS),
        ):
            shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
            parts.append(((value >> shifts) & 1).astype(np.int8))
        return TernaryWord(np.concatenate(parts))


class RuleSet:
    """An ordered ACL and its TCAM compilation.

    First-matching-rule-wins semantics map directly onto the priority
    encoder once the expanded rows keep rule order.
    """

    def __init__(self, rules: list[AclRule]) -> None:
        if not rules:
            raise WorkloadError("rule set must contain at least one rule")
        self.rules = list(rules)
        self._rows: list[tuple[TernaryWord, int]] = []
        for rule_idx, rule in enumerate(self.rules):
            for word in rule.expand():
                self._rows.append((word, rule_idx))

    @property
    def n_tcam_rows(self) -> int:
        """Rows after prefix expansion."""
        return len(self._rows)

    @property
    def expansion_factor(self) -> float:
        """TCAM rows per original rule."""
        return self.n_tcam_rows / len(self.rules)

    def classify_reference(self, packet: Packet) -> int | None:
        """First matching rule index by linear scan (the oracle)."""
        for idx, rule in enumerate(self.rules):
            if rule.matches(packet):
                return idx
        return None

    def deploy(self, array: TCAMArray) -> None:
        """Load the expanded rows into a RULE_BITS-wide array."""
        if array.geometry.cols != RULE_BITS:
            raise WorkloadError(
                f"ACL needs a {RULE_BITS}-column array, got {array.geometry.cols}"
            )
        if array.geometry.rows < self.n_tcam_rows:
            raise WorkloadError(
                f"{self.n_tcam_rows} expanded rows do not fit in "
                f"{array.geometry.rows} rows"
            )
        array.load([word for word, _ in self._rows])

    def classify_tcam(self, array: TCAMArray, packet: Packet):
        """One TCAM classification; returns ``(rule index | None, outcome)``."""
        outcome = array.search(packet.to_key())
        return self._rule_of(outcome), outcome

    def classify_tcam_batch(self, array: TCAMArray, packets: list[Packet]):
        """Classify a packet burst on the batched (compiled) search path.

        Returns one ``(rule index | None, outcome)`` pair per packet,
        identical to calling :meth:`classify_tcam` packet by packet.
        """
        with obs.span(
            "workload.acl.classify_batch",
            n_packets=len(packets),
            n_tcam_rows=self.n_tcam_rows,
        ):
            outcomes = array.search_batch([p.to_key() for p in packets])
        return [(self._rule_of(outcome), outcome) for outcome in outcomes]

    def _rule_of(self, outcome) -> int | None:
        if outcome.first_match is not None and outcome.first_match < len(self._rows):
            return self._rows[outcome.first_match][1]
        return None


def synthetic_acl(n_rules: int, rng: np.random.Generator) -> RuleSet:
    """Draw a synthetic ACL with realistic field statistics.

    ~60% of rules pin an exact port, ~25% use a port range (triggering
    prefix expansion), the rest accept any port; prefixes cluster at /8-/16
    of the truncated 16-bit fields.
    """
    if n_rules < 1:
        raise WorkloadError(f"n_rules must be >= 1, got {n_rules}")
    rules = []
    common_ports = (22, 53, 80, 443, 8080)
    for _ in range(n_rules):
        src_len = int(rng.integers(6, SRC_BITS + 1))
        dst_len = int(rng.integers(6, DST_BITS + 1))
        src = (int(rng.integers(0, 1 << src_len)) << (SRC_BITS - src_len)) if src_len else 0
        dst = (int(rng.integers(0, 1 << dst_len)) << (DST_BITS - dst_len)) if dst_len else 0
        roll = rng.random()
        if roll < 0.60:
            port = int(rng.choice(common_ports))
            port_lo = port_hi = port
        elif roll < 0.85:
            lo = int(rng.integers(1024, 60000))
            port_lo, port_hi = lo, min(lo + int(rng.integers(1, 2048)), 65535)
        else:
            port_lo, port_hi = 0, 65535
        proto = int(rng.choice([6, 17])) if rng.random() < 0.8 else None
        rules.append(
            AclRule(
                src_prefix=src,
                src_len=src_len,
                dst_prefix=dst,
                dst_len=dst_len,
                port_lo=port_lo,
                port_hi=port_hi,
                proto=proto,
                action=int(rng.integers(0, 2)),
            )
        )
    return RuleSet(rules)


def random_packets(
    ruleset: RuleSet, n_packets: int, rng: np.random.Generator, hit_fraction: float = 0.7
) -> list[Packet]:
    """Packets where ``hit_fraction`` are crafted to hit some rule."""
    if n_packets < 0:
        raise WorkloadError(f"n_packets must be non-negative, got {n_packets}")
    packets = []
    for _ in range(n_packets):
        if rng.random() < hit_fraction:
            rule = ruleset.rules[int(rng.integers(0, len(ruleset.rules)))]
            src_host = SRC_BITS - rule.src_len
            dst_host = DST_BITS - rule.dst_len
            packets.append(
                Packet(
                    src=rule.src_prefix | (int(rng.integers(0, 1 << src_host)) if src_host else 0),
                    dst=rule.dst_prefix | (int(rng.integers(0, 1 << dst_host)) if dst_host else 0),
                    port=int(rng.integers(rule.port_lo, rule.port_hi + 1)),
                    proto=rule.proto if rule.proto is not None else int(rng.choice([6, 17])),
                )
            )
        else:
            packets.append(
                Packet(
                    src=int(rng.integers(0, 1 << SRC_BITS)),
                    dst=int(rng.integers(0, 1 << DST_BITS)),
                    port=int(rng.integers(0, 1 << PORT_BITS)),
                    proto=int(rng.integers(0, 1 << PROTO_BITS)),
                )
            )
    return packets
