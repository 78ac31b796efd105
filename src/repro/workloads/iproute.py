"""IP longest-prefix-match routing on a TCAM.

The canonical TCAM application: each route ``addr/len`` becomes a ternary
word with ``len`` specified MSBs and ``32 - len`` don't-cares; routes are
stored longest-prefix-first so the priority encoder's first match *is*
the longest match.

:func:`synthetic_routing_table` draws prefix lengths from a distribution
shaped like public BGP snapshots (mass concentrated at /16-/24 with a
spike at /24), which is what gives the application benchmark its realistic
X-density and match statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import WorkloadError
from ..tcam.array import TCAMArray
from ..tcam.trit import TernaryWord, prefix_word, word_from_int

ADDRESS_BITS = 32

# Prefix-length histogram loosely shaped on public BGP table statistics:
# negligible mass below /8, a broad shelf /16-/23, and ~55-60% at /24.
_PREFIX_LENGTHS = np.arange(8, 33)
_PREFIX_WEIGHTS = np.array(
    [
        0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5,  # /8  - /15
        4.0, 2.0, 2.5, 3.0, 4.5, 5.0, 6.5, 7.0,  # /16 - /23
        55.0, 0.5, 0.4, 0.3, 0.3, 0.6, 0.8, 1.0, 1.6,  # /24 - /32
    ]
)


@dataclass(frozen=True)
class Route:
    """One routing-table entry.

    Attributes:
        prefix: Address prefix, right-padded with zeros to 32 bits.
        length: Prefix length (0-32).
        next_hop: Opaque next-hop identifier.
    """

    prefix: int
    length: int
    next_hop: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= ADDRESS_BITS:
            raise WorkloadError(f"prefix length {self.length} outside [0, 32]")
        if not 0 <= self.prefix < (1 << ADDRESS_BITS):
            raise WorkloadError(f"prefix {self.prefix:#x} is not a 32-bit value")
        mask = ((1 << self.length) - 1) << (ADDRESS_BITS - self.length) if self.length else 0
        if self.prefix & ~mask:
            raise WorkloadError(
                f"prefix {self.prefix:#010x}/{self.length} has bits below the mask"
            )

    def covers(self, address: int) -> bool:
        """True when ``address`` falls inside this prefix."""
        if self.length == 0:
            return True
        shift = ADDRESS_BITS - self.length
        return (address >> shift) == (self.prefix >> shift)

    def to_word(self) -> TernaryWord:
        """TCAM image: specified MSBs, X tail."""
        if self.length == 0:
            # All-X word: matches every address.
            return prefix_word(0, 0, ADDRESS_BITS)
        return prefix_word(self.prefix, self.length, ADDRESS_BITS)


class RoutingTable:
    """A software routing table plus its TCAM deployment.

    Routes are sorted longest-prefix-first before loading, which makes the
    TCAM's priority encoder implement LPM directly.  :meth:`lookup_reference`
    is the pure-software oracle the tests compare against.
    """

    def __init__(self, routes: list[Route]) -> None:
        if not routes:
            raise WorkloadError("routing table must contain at least one route")
        self.routes = sorted(routes, key=lambda r: -r.length)

    def __len__(self) -> int:
        return len(self.routes)

    def lookup_reference(self, address: int) -> Route | None:
        """Longest-prefix match by linear scan (the software oracle)."""
        if not 0 <= address < (1 << ADDRESS_BITS):
            raise WorkloadError(f"address {address:#x} is not a 32-bit value")
        best: Route | None = None
        for route in self.routes:
            if route.covers(address) and (best is None or route.length > best.length):
                best = route
        return best

    def words(self) -> list[TernaryWord]:
        """TCAM images in stored (priority) order."""
        return [r.to_word() for r in self.routes]

    def deploy(self, array: TCAMArray) -> None:
        """Load the table into a 32-column TCAM array.

        Raises:
            WorkloadError: when the array is too small or not 32 bits wide.
        """
        if array.geometry.cols != ADDRESS_BITS:
            raise WorkloadError(
                f"LPM needs a {ADDRESS_BITS}-column array, got {array.geometry.cols}"
            )
        if array.geometry.rows < len(self.routes):
            raise WorkloadError(
                f"{len(self.routes)} routes do not fit in {array.geometry.rows} rows"
            )
        array.load(self.words())

    def lookup_tcam(self, array: TCAMArray, address: int):
        """One TCAM lookup; returns ``(route | None, SearchOutcome)``."""
        key = word_from_int(address, ADDRESS_BITS)
        outcome = array.search(key)
        return self._route_of(outcome), outcome

    def lookup_tcam_batch(self, array: TCAMArray, addresses: list[int]):
        """Look up an address trace on the batched (compiled) search path.

        Returns one ``(route | None, SearchOutcome)`` pair per address,
        identical to calling :meth:`lookup_tcam` address by address.

        Args:
            array: The deployed TCAM array.
            addresses: Integer IPv4 addresses to look up.
        """
        with obs.span(
            "workload.lpm.lookup_batch",
            n_addresses=len(addresses),
            n_routes=len(self.routes),
        ):
            keys = [word_from_int(a, ADDRESS_BITS) for a in addresses]
            outcomes = array.search_batch(keys)
        return [(self._route_of(outcome), outcome) for outcome in outcomes]

    def _route_of(self, outcome) -> Route | None:
        if outcome.first_match is not None and outcome.first_match < len(self.routes):
            return self.routes[outcome.first_match]
        return None


def synthetic_routing_table(
    n_routes: int,
    rng: np.random.Generator,
    next_hops: int = 16,
) -> RoutingTable:
    """Draw a BGP-shaped synthetic routing table.

    Args:
        n_routes: Number of (distinct) routes to draw.
        rng: Random generator.
        next_hops: Size of the next-hop pool.
    """
    if n_routes < 1:
        raise WorkloadError(f"n_routes must be >= 1, got {n_routes}")
    if next_hops < 1:
        raise WorkloadError(f"next_hops must be >= 1, got {next_hops}")
    probs = _PREFIX_WEIGHTS / _PREFIX_WEIGHTS.sum()
    seen: set[tuple[int, int]] = set()
    routes: list[Route] = []
    while len(routes) < n_routes:
        length = int(rng.choice(_PREFIX_LENGTHS, p=probs))
        raw = int(rng.integers(0, 1 << ADDRESS_BITS))
        shift = ADDRESS_BITS - length
        prefix = (raw >> shift) << shift
        if (prefix, length) in seen:
            continue
        seen.add((prefix, length))
        routes.append(Route(prefix=prefix, length=length, next_hop=int(rng.integers(0, next_hops))))
    return RoutingTable(routes)


def trace_addresses(
    table: RoutingTable,
    n_lookups: int,
    rng: np.random.Generator,
    hit_fraction: float = 0.8,
) -> list[int]:
    """A lookup trace where ``hit_fraction`` of addresses hit stored prefixes.

    Hit addresses are drawn inside random routes (with random host bits);
    the rest are uniform random (and may still hit short prefixes).
    """
    if n_lookups < 0:
        raise WorkloadError(f"n_lookups must be non-negative, got {n_lookups}")
    if not 0.0 <= hit_fraction <= 1.0:
        raise WorkloadError(f"hit_fraction must be in [0, 1], got {hit_fraction}")
    addresses = []
    for _ in range(n_lookups):
        if rng.random() < hit_fraction:
            route = table.routes[int(rng.integers(0, len(table.routes)))]
            host_bits = ADDRESS_BITS - route.length
            host = int(rng.integers(0, 1 << host_bits)) if host_bits else 0
            addresses.append(route.prefix | host)
        else:
            addresses.append(int(rng.integers(0, 1 << ADDRESS_BITS)))
    return addresses
