import random

import pytest

from mockingbird import forests
from mockingbird.forests import (
    compact_key,
    forest_upset,
    ladder,
    parse_forest,
)
from mockingbird.oracle import (
    OracleError,
    oracle_extremal_census,
    oracle_poset_counts,
)
from mockingbird.posets import poset_analysis
from mockingbird.sequences import interval_family
from mockingbird.series import solve_interval_family
from tests_util import (all_combinators, all_combinators_nested, oracle_md_k, oracle_ni,
                        oracle_ns)

F = parse_forest


class TestPosetCounts:
    def test_d0(self):
        counts = oracle_poset_counts(0)
        assert (counts.elements, counts.hasse_edges, counts.intervals) == (1, 0, 1)
        assert counts.cover_equals_step

    def test_d3(self):
        counts = oracle_poset_counts(3)
        assert (counts.elements, counts.hasse_edges, counts.intervals) == \
            (42, 97, 371)
        assert counts.cover_equals_step

    def test_d4(self):
        counts = oracle_poset_counts(4)
        assert (counts.elements, counts.hasse_edges, counts.intervals) == \
            (1806, 8287, 144513)
        assert counts.cover_equals_step

    def test_infeasible_d(self):
        with pytest.raises(OracleError):
            oracle_poset_counts(6)

    def test_counts_on_keys_without_parsing_forests(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a forest was parsed")

        monkeypatch.setattr(forests, "_parse", fail)
        golden = [(1, 0, 1), (2, 1, 3), (6, 7, 17), (42, 97, 371),
                  (1806, 8287, 144513)]
        for d, want in enumerate(golden):
            counts = oracle_poset_counts(d)
            assert (counts.elements, counts.hasse_edges,
                    counts.intervals) == want, d
            assert counts.cover_equals_step is True


class TestCoverEqualsStep:
    def test_random_small_upsets(self):
        from test_forests import random_white_forest

        rng = random.Random(2718)
        checked = 0
        while checked < 50:
            f = random_white_forest(rng, 6)
            g = forest_upset(f, budget=2000)
            if not g.is_complete:
                continue
            poset_analysis(g, check_lattice=False)
            assert g.covers == g.succ, compact_key(f)
            checked += 1


class TestNi:
    def test_all_black_coefficient(self):
        ni = oracle_ni(F("w(w) w"))
        assert ni[F("b(b b) b")] == 4

    def test_total_edge_count(self):
        assert sum(oracle_ni(F("w(w) w")).values()) == 20

    def test_empty_forest(self):
        assert oracle_ni(F("")) == {}

    def test_bottom_omitted(self):
        assert F("w(w) w") not in oracle_ni(F("w(w) w"))


class TestNs:
    def test_all_black_coefficient(self):
        ns = oracle_ns(F("w(w) w"))
        assert ns[F("b(b b) b")] == 12

    def test_interval_total(self):
        assert sum(oracle_ns(F("w(w) w")).values()) == 51

    def test_bottom_is_one(self):
        assert oracle_ns(F("w(w) w"))[F("w(w) w")] == 1

    def test_sum_equals_interval_family_on_ladders(self):
        for d in range(5):
            assert sum(oracle_ns(ladder(d)).values()) == interval_family(1, d)


class TestUpsetSizeMoments:
    def test_moments_match_interval_series(self):
        # coefficient d of F_k is reliable for k <= 2^(6 - d)
        family = solve_interval_family(6)
        for d in range(5):
            g = forest_upset(ladder(d))
            poset_analysis(g, check_lattice=False)
            sizes = [r.bit_count() for r in g.reach]
            for k in range(1, 5):
                assert sum(v ** k for v in sizes) == family[k][d], (d, k)


class TestMdK:
    def test_k1_is_constant_one(self):
        md = oracle_md_k(F("w(w)"), 1)
        assert set(md.values()) == {1}

    def test_ladder1_k2(self):
        md = oracle_md_k(ladder(1), 2)
        assert md == {F("w"): 3, F("b"): 1}

    def test_empty_forest(self):
        assert oracle_md_k(ladder(0), 3) == {F(""): 1}

    def test_weighted_sum_matches_interval_family(self):
        for d in range(3):
            for k in range(1, 4):
                md = oracle_md_k(ladder(d), k)
                ns = oracle_ns(ladder(d))
                weighted = sum(ns[f] * c for f, c in md.items())
                assert weighted == interval_family(k, d), (d, k)

    def test_k_validation(self):
        with pytest.raises(OracleError):
            oracle_md_k(ladder(1), 0)


class TestCensus:
    def test_degree_3(self):
        assert oracle_extremal_census(3) == {
            "total": 5, "maximal": 2, "minimal": 4}

    def test_degree_0(self):
        assert oracle_extremal_census(0) == {
            "total": 1, "maximal": 1, "minimal": 1}

    def test_degree_7(self):
        assert oracle_extremal_census(7) == {
            "total": 429, "maximal": 51, "minimal": 344}

    def test_catalan_totals(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        for degree, expected in enumerate(catalan):
            assert len(all_combinators(degree)) == expected

    def test_degree_cap(self):
        with pytest.raises(OracleError):
            oracle_extremal_census(11)

    def test_all_combinators_match_nested_terms_degree_le_8(self):
        # the same terms in the same order as the Term-level loop
        for degree in range(9):
            assert all_combinators(degree) == all_combinators_nested(degree)
