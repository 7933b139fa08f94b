"""End-to-end acceptance suite.

Each test function covers one numbered criterion; the pytest verbose output
gives the one-line pass/fail verdict per criterion.  The depth-5 streaming
oracle (3b) runs only when MOCKINGBIRD_RUN_GATED is set.
"""

import json
import os
import time
from itertools import combinations_with_replacement

import pytest

from mockingbird import bridge, oracle, rewrite, sequences, terms
from mockingbird.cli import main as cli_main
from mockingbird.forests import compact_key, forest_upset, join, ladder, meet, parse_forest
from mockingbird.posets import down_sets, poset_analysis
from mockingbird.terms import parse_term
from tests_util import all_combinators, oracle_ni, oracle_ns, step_successors, term_metrics

SYS_M = rewrite.load_system("builtin:M")
GATED = bool(os.environ.get("MOCKINGBIRD_RUN_GATED"))


def _enumerate_cli(capsys, name):
    code = cli_main(["enumerate", name, "--count", "8"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    return json.loads(out)


def test_criterion_1_sequence_reproduction(capsys):
    for name, golden in sequences.GOLDEN_PREFIXES.items():
        start = time.monotonic()
        values = _enumerate_cli(capsys, name)
        elapsed = time.monotonic() - start
        assert values == golden, name
        assert elapsed < 1.0, (name, elapsed)


def test_criterion_2_method_triangulation():
    start = time.monotonic()
    for name in sequences.SEQUENCE_NAMES:
        rec = sequences.seq_by_recurrence(name, 13).values
        ser = sequences.seq_by_series(name, 13).values
        assert rec == ser, name
    assert time.monotonic() - start < 5.0


def test_criterion_3_oracle_ground_truth():
    counts3 = oracle.oracle_poset_counts(3)
    assert (counts3.elements, counts3.hasse_edges, counts3.intervals) == \
        (42, 97, 371)
    start = time.monotonic()
    counts4 = oracle.oracle_poset_counts(4)
    elapsed = time.monotonic() - start
    assert (counts4.elements, counts4.hasse_edges, counts4.intervals) == \
        (1806, 8287, 144513)
    assert counts3.cover_equals_step and counts4.cover_equals_step
    assert elapsed < 30.0


@pytest.mark.skipif(not GATED, reason="set MOCKINGBIRD_RUN_GATED to run")
def test_criterion_3b_oracle_depth_5_gated():
    start = time.monotonic()
    counts = oracle.oracle_poset_counts(5)
    elapsed = time.monotonic() - start
    assert (counts.elements, counts.hasse_edges) == (3263442, 29942737)
    assert elapsed < 600.0


def _check_lattice_operations(base):
    g = forest_upset(base)
    poset_analysis(g, check_lattice=False)
    index = {g.nodes[i]: i for i in range(len(g.nodes))}
    down = down_sets(g)
    for a, b in combinations_with_replacement(range(len(g.nodes)), 2):
        m = index[meet(g.nodes[a], g.nodes[b])]
        j = index[join(g.nodes[a], g.nodes[b])]
        # greatest lower bound: the common lower bounds are exactly the
        # down-set of the meet; dually for the join.
        assert down[m] == down[a] & down[b]
        assert g.reach[j] == g.reach[a] & g.reach[b]


def test_criterion_4_lattice_property():
    # term upsets of every combinator of degree <= 5 are lattices
    for degree in range(6):
        for t in all_combinators(degree):
            g = rewrite.explore_component(SYS_M, t, "up")
            poset_analysis(g)
            assert g.is_lattice

    # the recursive meet/join realize GLB/LUB on every pair, on the forest
    # upsets of the same combinators (deduplicated) and the ladders to d=4
    bases = {compact_key(ladder(d)): ladder(d) for d in range(5)}
    for degree in range(6):
        for t in all_combinators(degree):
            f = bridge.fr_map(t)
            bases.setdefault(compact_key(f), f)
    for base in bases.values():
        _check_lattice_operations(base)


def test_criterion_5_isomorphism_degree_le_5():
    for degree in range(6):
        for t in all_combinators(degree):
            rep = bridge.verify_fr_isomorphism(t)
            assert rep.isomorphic, (terms.render_term(t), rep.verdict)
            assert rep.term_count == rep.forest_count


def test_criterion_5b_isomorphism_degree_6():
    for t in all_combinators(6):
        rep = bridge.verify_fr_isomorphism(t)
        assert rep.isomorphic, (terms.render_term(t), rep.verdict)
        assert rep.term_count == rep.forest_count


def test_criterion_6_figure_checks():
    g = rewrite.explore_component(SYS_M, parse_term("M(M(MM))", {"M"}), "up")
    poset_analysis(g)
    assert len(g.nodes) == 6
    assert sum(map(len, g.succ)) == 7
    assert len(g.loops) == 6
    assert g.is_lattice

    sys_i = rewrite.load_system("builtin:I")
    g2 = rewrite.explore_component(sys_i, parse_term("II(III)", {"I"}), "up")
    poset_analysis(g2)
    assert len(g2.nodes) == 7
    assert not g2.is_lattice


def test_criterion_7_pattern_census():
    motzkin = [1, 1, 1, 2, 4, 9, 21, 51]
    minimal = [1, 1, 2, 4, 12, 34, 108, 344]
    for degree in range(8):
        census = oracle.oracle_extremal_census(degree)
        assert census["maximal"] == motzkin[degree]
        assert census["minimal"] == minimal[degree]


def test_criterion_8_ni_ns_spot_values():
    f = parse_forest("w(w) w")
    all_black = parse_forest("b(b b) b")
    assert oracle_ni(f)[all_black] == 4
    assert oracle_ns(f)[all_black] == 12


def test_criterion_9_property_suites():
    # height preservation under one step, all combinators of degree <= 8
    for degree in range(9):
        for t in all_combinators(degree):
            h = term_metrics(t).height
            assert all(term_metrics(u).height == h
                       for u in step_successors(SYS_M, t))

    # acyclicity and unique extremes of every explored component (deg <= 5)
    for degree in range(6):
        for t in all_combinators(degree):
            g = rewrite.explore_component(SYS_M, t, "up")
            poset_analysis(g, check_lattice=False)
            assert g.is_acyclic
            assert g.minimal == {0}
            assert len(g.maximal) == 1
            # cover equals single step on every tested upset
            assert g.covers == g.succ

    # every divergence joins (local confluence), degree <= 5
    for degree in range(6):
        for t in all_combinators(degree):
            assert rewrite.local_confluence_probe(SYS_M, t).all_joinable

    # cover equals single step on the ladder upsets
    for d in range(5):
        g = forest_upset(ladder(d))
        poset_analysis(g, check_lattice=False)
        assert g.covers == g.succ
