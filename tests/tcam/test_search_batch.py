"""Equivalence suite: the compiled batch engine vs sequential scalar search.

The batch path must be *bit-identical* to calling ``search()`` key by key:
same match masks, same first match, same per-component ledger floats,
same delays, same histograms -- including the sequential search-line
toggle semantics (key k toggles against key k-1).  The suite runs every
registered design (covering both sensing styles and all cell
technologies), masked keys, row masks, and how writes interact with the
compiled state (SoA snapshot rebuilt, class tables kept).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import all_designs, build_array, get_design
from repro.errors import TCAMError
from repro.tcam import ArrayGeometry, mismatch_counts_batch, pack_keys
from repro.tcam.trit import TernaryWord, Trit, mismatch_counts, random_word, word_from_string


def _loaded_pair(design_name, rows=16, cols=24, seed=7, x_fraction=0.2):
    """Two identically-written arrays (one for scalar, one for batch)."""
    spec = get_design(design_name)
    geo = ArrayGeometry(rows=rows, cols=cols)
    a = build_array(spec, geo)
    b = build_array(spec, geo)
    rng = np.random.default_rng(seed)
    words = [random_word(cols, rng, x_fraction) for _ in range(rows)]
    for i, w in enumerate(words):
        a.write(i, w)
        b.write(i, w)
    return a, b


def _assert_outcomes_identical(scalar, batch):
    assert len(scalar) == len(batch)
    for s, b in zip(scalar, batch):
        assert np.array_equal(s.match_mask, b.match_mask)
        assert s.first_match == b.first_match
        assert s.search_delay == b.search_delay
        assert s.cycle_time == b.cycle_time
        assert s.miss_histogram == b.miss_histogram
        assert s.functional_errors == b.functional_errors
        s_breakdown = s.energy.breakdown()
        b_breakdown = b.energy.breakdown()
        assert set(s_breakdown) == set(b_breakdown)
        for component, value in s_breakdown.items():
            # Exact float equality: the batch path must book the very
            # same numbers, not merely close ones.
            assert b_breakdown[component] == value, component
        assert s.energy.total == b.energy.total


SEARCHABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]
PRECHARGE = [spec.name for spec in all_designs() if spec.sensing == "precharge"]


class TestBatchEquivalence:
    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_bit_identical_to_sequential(self, design):
        a, b = _loaded_pair(design)
        rng = np.random.default_rng(11)
        keys = [random_word(24, rng, x_fraction=0.15) for _ in range(24)]
        scalar = [a.search(k) for k in keys]
        batch = b.search_batch(keys)
        _assert_outcomes_identical(scalar, batch)

    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_toggle_energy_ordering(self, design):
        """SL energy depends on key order; the batch must thread it."""
        a, b = _loaded_pair(design)
        rng = np.random.default_rng(3)
        keys = [random_word(24, rng) for _ in range(6)]
        # Repeat a key back-to-back: zero toggles on the repeat.
        keys = [keys[0], keys[0]] + keys[1:]
        scalar = [a.search(k) for k in keys]
        batch = b.search_batch(keys)
        _assert_outcomes_identical(scalar, batch)
        assert a._last_drive == b._last_drive
        # And a follow-up scalar search on each array still agrees.
        follow = random_word(24, np.random.default_rng(5))
        _assert_outcomes_identical([a.search(follow)], [b.search(follow)])

    def test_masked_keys(self):
        a, b = _loaded_pair("fefet2t")
        rng = np.random.default_rng(23)
        keys = [random_word(24, rng, x_fraction=0.6) for _ in range(12)]
        keys.append(TernaryWord(np.full(24, int(Trit.X), dtype=np.int8)))  # all-X
        _assert_outcomes_identical([a.search(k) for k in keys], b.search_batch(keys))

    def test_row_mask(self):
        a, b = _loaded_pair("cmos16t")
        rng = np.random.default_rng(29)
        mask = rng.random(16) < 0.5
        keys = [random_word(24, rng) for _ in range(8)]
        scalar = [a.search(k, row_mask=mask) for k in keys]
        batch = b.search_batch(keys, row_mask=mask)
        _assert_outcomes_identical(scalar, batch)

    def test_all_rows_masked_out(self):
        a, b = _loaded_pair("fefet2t")
        mask = np.zeros(16, dtype=bool)
        keys = [random_word(24, np.random.default_rng(1)) for _ in range(3)]
        scalar = [a.search(k, row_mask=mask) for k in keys]
        batch = b.search_batch(keys, row_mask=mask)
        _assert_outcomes_identical(scalar, batch)

    def test_partially_empty_array(self):
        """Invalid (never-written) rows must not match in either path."""
        spec = get_design("fefet2t")
        geo = ArrayGeometry(rows=8, cols=16)
        a, b = build_array(spec, geo), build_array(spec, geo)
        rng = np.random.default_rng(17)
        for i in range(4):
            w = random_word(16, rng)
            a.write(i, w)
            b.write(i, w)
        keys = [random_word(16, rng) for _ in range(6)]
        _assert_outcomes_identical([a.search(k) for k in keys], b.search_batch(keys))

    def test_empty_batch(self):
        a, _ = _loaded_pair("fefet2t")
        assert a.search_batch([]) == []

    def test_width_mismatch_rejected(self):
        a, _ = _loaded_pair("fefet2t")
        with pytest.raises(TCAMError):
            a.search_batch([word_from_string("101")])

    def test_mixed_width_batch_rejected(self):
        a, _ = _loaded_pair("fefet2t")
        rng = np.random.default_rng(2)
        with pytest.raises(TCAMError):
            a.search_batch([random_word(24, rng), random_word(23, rng)])

    def test_interleaving_scalar_and_batch(self):
        """Scalar and batch searches compose on one array."""
        a, b = _loaded_pair("fefet2t")
        rng = np.random.default_rng(41)
        keys = [random_word(24, rng) for _ in range(9)]
        scalar = [a.search(k) for k in keys]
        mixed = [b.search(keys[0])] + b.search_batch(keys[1:5]) + [
            b.search(keys[5])
        ] + b.search_batch(keys[6:])
        _assert_outcomes_identical(scalar, mixed)


class TestNearestMatchBatch:
    @pytest.mark.parametrize("design", PRECHARGE)
    def test_bit_identical_to_sequential(self, design):
        a, b = _loaded_pair(design)
        rng = np.random.default_rng(13)
        keys = [random_word(24, rng, x_fraction=0.1) for _ in range(10)]
        scalar = [a.nearest_match(k) for k in keys]
        batch = b.nearest_match_batch(keys)
        for s, x in zip(scalar, batch):
            assert s.row == x.row
            assert s.distance == x.distance
            assert s.search_delay == x.search_delay
            assert s.energy.breakdown() == x.energy.breakdown()

    def test_empty_array(self):
        spec = get_design("fefet2t")
        a = build_array(spec, ArrayGeometry(rows=4, cols=8))
        outcomes = a.nearest_match_batch([random_word(8, np.random.default_rng(0))])
        assert outcomes[0].row is None

    def test_requires_precharge(self):
        a, _ = _loaded_pair("fefet_cr")
        with pytest.raises(TCAMError):
            a.nearest_match_batch([random_word(24, np.random.default_rng(0))])


class TestCompiledState:
    def test_write_between_batches_stays_exact(self):
        """A write moves the content version; the class tables survive."""
        a, _ = _loaded_pair("fefet2t")
        rng = np.random.default_rng(31)
        keys = [random_word(24, rng) for _ in range(8)]
        a.search_batch(keys)
        rows_built = a.kernel.rows_built
        version = a._content_version
        a.write(0, random_word(24, rng))
        assert a._content_version == version + 1
        # Results after the write still match a fresh scalar array.
        spec = get_design("fefet2t")
        fresh = build_array(spec, ArrayGeometry(rows=16, cols=24))
        for i in range(16):
            fresh.write(i, a.word_at(i))
        fresh._last_drive = a._last_drive
        _assert_outcomes_identical([fresh.search(k) for k in keys], a.search_batch(keys))
        assert a.kernel.rows_built == rows_built

    def test_invalidate_row_rebuilds_snapshot(self):
        a, _ = _loaded_pair("fefet2t")
        a.search_batch([random_word(24, np.random.default_rng(0)) for _ in range(4)])
        soa = a._soa
        a.invalidate(2)
        a.search_batch([random_word(24, np.random.default_rng(1))])
        assert a._soa is not soa
        assert not a._soa.valid[2]

    def test_second_batch_builds_nothing(self):
        a, _ = _loaded_pair("fefet2t")
        rng = np.random.default_rng(37)
        keys = [random_word(24, rng) for _ in range(16)]
        a.search_batch(keys)
        rows_first, hits_first = a.kernel.rows_built, a.kernel.table_hits
        a.search_batch(keys)
        # Second pass over the same keys compiles nothing new.
        assert a.kernel.rows_built == rows_first
        assert a.kernel.table_hits > hits_first

    def test_rejected_write_leaves_version_unchanged(self):
        """A width-mismatch write is validated before anything moves."""
        a, _ = _loaded_pair("fefet2t")
        a.search_batch([random_word(24, np.random.default_rng(2))])
        version, soa = a._content_version, a._soa
        with pytest.raises(TCAMError):
            a.write(0, random_word(23, np.random.default_rng(3)))
        with pytest.raises(TCAMError):
            a.write(99, random_word(24, np.random.default_rng(3)))
        assert a._content_version == version
        a.search_batch([random_word(24, np.random.default_rng(4))])
        assert a._soa is soa


class TestTernaryWordFastPath:
    def test_int8_array_accepted(self):
        w = TernaryWord(np.array([0, 1, 2, 1], dtype=np.int8))
        assert str(w) == "01X1"

    def test_invalid_code_rejected(self):
        with pytest.raises(TCAMError):
            TernaryWord(np.array([0, 3, 1], dtype=np.int8))
        with pytest.raises(TCAMError):
            TernaryWord(np.array([-1, 0], dtype=np.int8))

    def test_empty_array_rejected(self):
        with pytest.raises(TCAMError):
            TernaryWord(np.array([], dtype=np.int8))

    def test_fast_path_copies(self):
        src = np.array([0, 1, 2], dtype=np.int8)
        w = TernaryWord(src)
        src[0] = 1
        assert w[0] is Trit.ZERO

    def test_matches_slow_path(self):
        data = [0, 1, 2, 0, 1]
        assert TernaryWord(np.array(data, dtype=np.int8)) == TernaryWord(data)


class TestPackHelpers:
    def test_pack_keys_shape_and_values(self):
        rng = np.random.default_rng(5)
        keys = [random_word(12, rng, 0.2) for _ in range(7)]
        packed = pack_keys(keys)
        assert packed.shape == (7, 12)
        for k, key in enumerate(keys):
            assert np.array_equal(packed[k], key.as_array())

    def test_pack_rejects_empty(self):
        with pytest.raises(TCAMError):
            pack_keys([])

    def test_mismatch_counts_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        stored = np.stack(
            [random_word(10, rng, 0.3).as_array() for _ in range(6)]
        )
        keys = [random_word(10, rng, 0.2) for _ in range(5)]
        packed = pack_keys(keys)
        batch = mismatch_counts_batch(stored, packed)
        for k, key in enumerate(keys):
            assert np.array_equal(batch[k], mismatch_counts(stored, key.as_array()))


class TestWorkloadBatchAPIs:
    def test_packetclass_batch_equals_scalar(self):
        from repro.workloads.packetclass import (
            RULE_BITS,
            random_packets,
            synthetic_acl,
        )

        rng = np.random.default_rng(19)
        ruleset = synthetic_acl(8, rng)
        spec = get_design("fefet2t")
        geo = ArrayGeometry(rows=max(ruleset.n_tcam_rows, 1), cols=RULE_BITS)
        a, b = build_array(spec, geo), build_array(spec, geo)
        ruleset.deploy(a)
        ruleset.deploy(b)
        packets = random_packets(ruleset, 10, rng)
        scalar = [ruleset.classify_tcam(a, p) for p in packets]
        batch = ruleset.classify_tcam_batch(b, packets)
        for (r_s, o_s), (r_b, o_b) in zip(scalar, batch):
            assert r_s == r_b
            assert o_s.energy.total == o_b.energy.total

    def test_iproute_batch_equals_scalar(self):
        from repro.workloads.iproute import (
            ADDRESS_BITS,
            synthetic_routing_table,
            trace_addresses,
        )

        rng = np.random.default_rng(21)
        table = synthetic_routing_table(12, rng)
        spec = get_design("fefet2t")
        geo = ArrayGeometry(rows=16, cols=ADDRESS_BITS)
        a, b = build_array(spec, geo), build_array(spec, geo)
        table.deploy(a)
        table.deploy(b)
        addresses = trace_addresses(table, 10, rng)
        scalar = [table.lookup_tcam(a, addr) for addr in addresses]
        batch = table.lookup_tcam_batch(b, addresses)
        for (r_s, o_s), (r_b, o_b) in zip(scalar, batch):
            assert r_s == r_b
            assert o_s.energy.total == o_b.energy.total

    def test_hdc_batch_equals_scalar(self):
        from repro.workloads.hdc import HDCMemory

        rng = np.random.default_rng(25)
        spec = get_design("fefet2t")
        geo = ArrayGeometry(rows=4, cols=32)
        a, b = build_array(spec, geo), build_array(spec, geo)
        mem_a, mem_b = HDCMemory(a, 0.3), HDCMemory(b, 0.3)
        for label in range(3):
            examples = rng.integers(0, 2, size=(5, 32))
            mem_a.train_class(label, examples)
            mem_b.train_class(label, examples)
        queries = rng.integers(0, 2, size=(6, 32)).astype(np.int8)
        scalar = [mem_a.classify(q) for q in queries]
        batch = mem_b.classify_batch(queries)
        for s, x in zip(scalar, batch):
            assert s.label == x.label
            assert s.distance == x.distance
            assert s.energy == x.energy
