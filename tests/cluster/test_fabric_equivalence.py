"""Sharding equivalence: the fabric must reproduce the unsharded chip.

The contract of the whole subsystem: for every distributor policy, a
cluster's merged answer is bit-identical to one reference
:class:`~repro.tcam.chip.TCAMChip` holding the same table in priority
order -- same winner for every key, same match set for the broadcast
policies, and for a 1-chip cluster the same energy ledger once the
link/distribution components are stripped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cluster import (
    DISTRIBUTOR_POLICIES,
    RuleTable,
    TCAMFabric,
    build_reference_chip,
    logical_winner,
)
from repro.energy.accounting import EnergyLedger
from repro.errors import CapacityError, ClusterError
from repro.tcam.trit import prefix_word, random_word

COLS = 16
N_RULES = 24


@pytest.fixture
def table(rng):
    words = []
    for _ in range(N_RULES):
        plen = int(rng.integers(3, COLS + 1))
        words.append(prefix_word(int(rng.integers(1 << 16)), plen, COLS))
    # Most-specific first: longest-prefix-match priority order.
    words.sort(key=lambda w: -sum(1 for t in w if t != 2))
    return RuleTable(tuple(words))


@pytest.fixture
def keys(rng):
    return [random_word(COLS, rng, x_fraction=0.05) for _ in range(20)]


def _fabric(table, n_chips, policy, **kw):
    kw.setdefault("spare_rows", 0)
    return TCAMFabric(table, n_chips=n_chips, policy=policy, **kw)


@pytest.mark.parametrize("policy", DISTRIBUTOR_POLICIES)
@pytest.mark.parametrize("n_chips", [1, 4])
@pytest.mark.parametrize("batched_reference", [False, True])
class TestWinnerEquivalence:
    def test_winner_matches_reference(
        self, table, keys, policy, n_chips, batched_reference
    ):
        """Against the reference chip's batch, and its scalar loop."""
        ref = build_reference_chip(table)
        if batched_reference:
            ref_out = ref.search_batch(keys, banks=0)
        else:
            ref_out = [ref.search(k, bank=0) for k in keys]
        fabric = _fabric(table, n_chips, policy)
        out = fabric.search_batch(keys)
        for i, (r, f) in enumerate(zip(ref_out, out)):
            assert f.rule == r.first_match, f"key {i} winner diverged"


@pytest.mark.parametrize("policy", ["hash", "range"])
@pytest.mark.parametrize("n_chips", [1, 4])
class TestMatchSetEquivalence:
    def test_broadcast_policies_see_every_match(
        self, table, keys, policy, n_chips
    ):
        ref = build_reference_chip(table)
        ref_out = ref.search_batch(keys, banks=0)
        out = _fabric(table, n_chips, policy).search_batch(keys)
        for r, f in zip(ref_out, out):
            expected = tuple(int(g) for g in np.flatnonzero(r.match_mask))
            assert f.matched_rules == expected


class TestReplicatedPruning:
    def test_matched_subset_with_global_winner(self, table, keys):
        ref = build_reference_chip(table)
        ref_out = ref.search_batch(keys, banks=0)
        out = _fabric(table, 4, "replicated").search_batch(keys)
        for r, f in zip(ref_out, out):
            full = set(int(g) for g in np.flatnonzero(r.match_mask))
            assert set(f.matched_rules) <= full
            assert f.rule == r.first_match

    def test_hot_hit_resolves_in_one_probe(self, rng):
        # A table whose top rule matches everything: the home-shard
        # probe finds a hot winner and must not broadcast.
        words = (prefix_word(0, 0, COLS),) + tuple(
            random_word(COLS, rng) for _ in range(7)
        )
        fabric = _fabric(RuleTable(words), 4, "replicated")
        out = fabric.search(random_word(COLS, rng))
        assert out.rule == 0
        assert not out.fallback
        assert len(out.shards_probed) == 1


@pytest.mark.parametrize("policy", DISTRIBUTOR_POLICIES)
class TestSingleChipLedgerEquality:
    def test_ledger_equals_reference_modulo_fabric_components(
        self, table, keys, policy
    ):
        ref = build_reference_chip(table)
        ref_out = ref.search_batch(keys, banks=0)
        out = _fabric(table, 1, policy).search_batch(keys)
        for r, f in zip(ref_out, out):
            d = f.energy.as_dict()
            d.pop("link", None)
            d.pop("distribution", None)
            assert d == r.energy.as_dict()


class TestSpanSumInvariant:
    def test_span_tree_energy_matches_outcomes(self, table, keys):
        fabric = _fabric(table, 4, "hash")
        with obs.observe() as sess:
            out = fabric.search_batch(keys)
        root = sess.spans[-1]
        assert root.name == "cluster.search_batch"
        merged = EnergyLedger.sum(o.energy for o in out)
        tree = root.total_energy()
        assert set(tree.as_dict()) == set(merged.as_dict())
        for component, joules in merged:
            assert tree.get(component) == pytest.approx(joules, rel=1e-12)
        assert tree.total == pytest.approx(merged.total, rel=1e-12)

    def test_no_session_is_a_noop(self, table, keys):
        assert not obs.is_enabled()
        baseline = _fabric(table, 2, "hash").search_batch(keys)
        with obs.observe():
            traced = _fabric(table, 2, "hash").search_batch(keys)
        for b, t in zip(baseline, traced):
            assert t.energy.as_dict() == b.energy.as_dict()


class TestLogicalOracleAgreement:
    @pytest.mark.parametrize("policy", DISTRIBUTOR_POLICIES)
    def test_fabric_agrees_with_oracle(self, table, keys, policy):
        fabric = _fabric(table, 3, policy)
        rules = dict(enumerate(table.rules))
        for key in keys:
            assert fabric.search(key).rule == logical_winner(rules, key)


class TestValidation:
    def test_key_width_mismatch(self, table, rng):
        fabric = _fabric(table, 2, "hash")
        with pytest.raises(ClusterError, match="width"):
            fabric.search(random_word(COLS + 1, rng))

    def test_zero_chips_rejected(self, table):
        with pytest.raises(ClusterError, match="n_chips"):
            TCAMFabric(table, n_chips=0)

    def test_undersized_banks_rejected(self, table):
        with pytest.raises(CapacityError, match="bank_rows"):
            TCAMFabric(table, n_chips=1, bank_rows=4)

    def test_empty_batch(self, table):
        assert _fabric(table, 2, "hash").search_batch([]) == []

    def test_counters_track_probes(self, table, keys):
        fabric = _fabric(table, 4, "hash")
        fabric.search_batch(keys)
        counters = fabric.counters()
        assert counters["queries_offered"] == len(keys)
        assert counters["probes_issued"] == 4 * len(keys)
