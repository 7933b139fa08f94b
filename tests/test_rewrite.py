import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from mockingbird.bridge import right_comb, term_key
from mockingbird.oracle import all_combinators
from mockingbird.posets import poset_analysis
from mockingbird.rewrite import (
    SystemError_,
    _KeyRules,
    explore_component,
    extremal_by_pattern,
    is_hierarchical,
    load_system,
    local_confluence_probe,
    step_predecessors,
    step_successors,
)
from mockingbird.terms import app, basic, parse_term, render_term, var
from tests_util import (
    explore_reference,
    predecessor_set,
    random_m_term,
    render_full,
    successor_list,
    term_metrics,
)

SYS_M = load_system("builtin:M")
SYS_I = load_system("builtin:I")
SYS_K = load_system("builtin:K")
SYS_KS = load_system("builtin:KS")


def TM(text):
    return parse_term(text, {"M"})


class TestLoadSystem:
    def test_builtin_m(self):
        rule = SYS_M.rules["M"]
        assert rule.order == 1
        assert rule.rhs == parse_term("x1x1", frozenset())

    def test_builtin_s(self):
        sys_s = load_system("builtin:S")
        assert sys_s.rules["S"].rhs == parse_term("x1x3(x2x3)", frozenset())

    def test_builtin_ks_has_both(self):
        assert SYS_KS.alphabet == {"K", "S"}

    def test_index_exceeds_order(self):
        with pytest.raises(SystemError_):
            load_system("K 2 := x1 x3")

    def test_rhs_with_combinator_rejected(self):
        with pytest.raises(SystemError_):
            load_system("A 1 := x1 M")

    def test_duplicate_rule(self):
        with pytest.raises(SystemError_):
            load_system("A 1 := x1\nA 1 := x1 x1")

    def test_comments_and_blanks(self):
        sys_ = load_system("# a system\n\nM 1 := x1 x1  # duplicator\n")
        assert sys_.alphabet == {"M"}

    def test_empty_system(self):
        with pytest.raises(SystemError_):
            load_system("# nothing here")


class TestStepSuccessors:
    def test_fig_root_steps(self):
        succ = step_successors(SYS_M, TM("M(M(MM))"))
        expected = {TM("M(M(MM))"), TM("M(MM(MM))"), TM("M(MM)(M(MM))")}
        assert succ == expected

    def test_ks_inner_redex(self):
        t = parse_term("S(KKS)K(SS)", {"K", "S"})
        succ = step_successors(SYS_KS, t)
        assert parse_term("SKK(SS)", {"K", "S"}) in succ

    def test_no_redex_on_leaf(self):
        assert step_successors(SYS_M, TM("M")) == set()

    def test_self_loop_included(self):
        assert step_successors(SYS_M, TM("MM")) == {TM("MM")}

    def test_oversaturated_spine(self):
        # M M M: the inner redex M M fires, leaving the extra argument
        succ = step_successors(SYS_M, TM("MMM"))
        assert succ == {TM("(MM)M")} == {TM("MMM")}

    def test_variables_are_inert(self):
        t = parse_term("x1(Mx2)", frozenset({"M"}))
        succ = step_successors(SYS_M, t)
        assert succ == {parse_term("x1(x2x2)", frozenset({"M"}))}


class TestStepPredecessors:
    def test_square_root(self):
        preds = step_predecessors(SYS_M, TM("(MM)(MM)"))
        assert preds == {TM("M(MM)"), TM("(MM)(MM)")}

    def test_self_loop_source_only(self):
        assert step_predecessors(SYS_M, TM("MM")) == {TM("MM")}

    def test_leaf_has_none(self):
        assert step_predecessors(SYS_M, TM("M")) == set()

    def test_erasing_system_rejected(self):
        with pytest.raises(SystemError_):
            step_predecessors(SYS_K, parse_term("K", {"K"}))

    def test_inverse_consistency_degree_le_5(self):
        for degree in range(6):
            for t in all_combinators(degree):
                for s in step_predecessors(SYS_M, t):
                    assert t in step_successors(SYS_M, s)
                for u in step_successors(SYS_M, t):
                    assert t in step_predecessors(SYS_M, u)


class TestExplore:
    def test_fig_component_m(self):
        g = explore_component(SYS_M, TM("M(M(MM))"), "up")
        assert len(g.nodes) == 6
        assert len(g.nonloop_edges()) == 7
        assert len(g.self_loops()) == 6

    def test_fig_component_i(self):
        t = parse_term("II(III)", {"I"})
        g = explore_component(SYS_I, t, "up")
        assert len(g.nodes) == 7

    def test_r4_has_42_nodes(self):
        g = explore_component(SYS_M, TM("M(M(M(MM)))"), "up")
        assert len(g.nodes) == 42

    def test_budget_flags_incomplete(self):
        g = explore_component(SYS_M, TM("M(M(M(MM)))"), "up", budget=10)
        assert not g.is_complete
        assert len(g.nodes) == 10

    def test_class_direction_reaches_predecessors(self):
        g = explore_component(SYS_M, TM("(MM)(MM)"), "class")
        assert TM("M(MM)") in g.nodes

    def test_class_warns_for_non_hierarchical(self):
        # S is not hierarchical but keeps all variables, so its inverse
        # steps stay enumerable
        sys_s = load_system("builtin:S")
        t = parse_term("SSSS", {"S"})
        with pytest.warns(UserWarning):
            explore_component(sys_s, t, "class", budget=50)

    def test_invalid_direction(self):
        with pytest.raises(SystemError_):
            explore_component(SYS_M, TM("MM"), "down")

    def test_node_zero_is_start(self):
        g = explore_component(SYS_M, TM("M(MM)"), "up")
        assert g.nodes[0] == TM("M(MM)")

    def test_deterministic_node_order(self):
        g1 = explore_component(SYS_M, TM("M(M(M(MM)))"), "up")
        g2 = explore_component(SYS_M, TM("M(M(M(MM)))"), "up")
        assert g1.nodes == g2.nodes
        assert g1.step_edges == g2.step_edges


class TestHierarchical:
    def test_m_is_hierarchical(self):
        assert is_hierarchical(SYS_M) == {"M": True}

    def test_i_is_not_hierarchical(self):
        # rhs x1 puts x1 at depth 0, not at the required depth 1
        assert is_hierarchical(SYS_I) == {"I": False}

    def test_k_is_not(self):
        assert is_hierarchical(SYS_K) == {"K": False}

    def test_s_is_not(self):
        assert is_hierarchical(load_system("builtin:S")) == {"S": False}


class TestHeightPreservation:
    def test_all_m_terms_degree_le_8(self):
        for degree in range(9):
            for t in all_combinators(degree):
                h = term_metrics(t).height
                for u in step_successors(SYS_M, t):
                    assert term_metrics(u).height == h


class TestPosetShape:
    def test_acyclic_unique_min_max_degree_le_5(self):
        for degree in range(6):
            for t in all_combinators(degree):
                g = explore_component(SYS_M, t, "up")
                poset_analysis(g, check_lattice=False)
                assert g.is_acyclic
                assert g.minimal == {0}
                assert len(g.maximal) == 1

    def test_lattice_property_degree_le_5(self):
        for degree in range(6):
            for t in all_combinators(degree):
                g = explore_component(SYS_M, t, "up")
                poset_analysis(g)
                assert g.is_lattice, render_term(t)


class TestConfluence:
    def test_m_divergences_join(self):
        report = local_confluence_probe(SYS_M, TM("M(M(MM))"))
        assert report.pairs_checked > 0
        assert report.all_joinable

    def test_ks_divergences_join(self):
        t = parse_term("S(KKS)K(SS)", {"K", "S"})
        report = local_confluence_probe(SYS_KS, t)
        assert report.all_joinable

    def test_single_successor_vacuous(self):
        report = local_confluence_probe(SYS_M, TM("MM"))
        assert report.pairs_checked == 0
        assert report.all_joinable

    def test_truncated_walk_is_inconclusive(self):
        report = local_confluence_probe(SYS_M, TM("M(M(MM))"), join_budget=1)
        assert report.pairs_checked > 0
        assert report.inconclusive
        assert not report.failures
        assert not report.all_joinable


class TestExtremal:
    def test_examples(self):
        assert extremal_by_pattern(TM("((MM)M)M")) == {
            "maximal": True, "minimal": True}
        # no M(x1 x2), and the two sides MM and M differ
        assert extremal_by_pattern(TM("(MM)M")) == {
            "maximal": True, "minimal": True}
        assert extremal_by_pattern(TM("M(MM)")) == {
            "maximal": False, "minimal": True}
        assert extremal_by_pattern(TM("(MM)(MM)")) == {
            "maximal": True, "minimal": False}

    def test_variables_rejected(self):
        with pytest.raises(SystemError_):
            extremal_by_pattern(parse_term("Mx1", {"M"}))

    def test_foreign_combinator_rejected(self):
        with pytest.raises(SystemError_):
            extremal_by_pattern(parse_term("K", {"K"}))

    def test_deep_combs(self):
        # no recursion over the term: both answer at any depth
        left_comb = TM("M")
        for _ in range(3000):
            left_comb = app(left_comb, TM("M"))
        assert extremal_by_pattern(right_comb(3000)) == {
            "maximal": False, "minimal": True}
        assert extremal_by_pattern(left_comb) == {
            "maximal": True, "minimal": True}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(9, 16), st.integers(0, 2**32))
    def test_agrees_with_graph_characterization_random(self, degree, seed):
        t = random_m_term(random.Random(seed), degree)
        flags = extremal_by_pattern(t)
        assert flags["maximal"] == (step_successors(SYS_M, t) <= {t})
        assert flags["minimal"] == (step_predecessors(SYS_M, t) <= {t})

    def test_agrees_with_graph_characterization_degree_le_8(self):
        for degree in range(9):
            for t in all_combinators(degree):
                flags = extremal_by_pattern(t)
                succ_max = step_successors(SYS_M, t) <= {t}
                pred_min = step_predecessors(SYS_M, t) <= {t}
                assert flags["maximal"] == succ_max, render_term(t)
                assert flags["minimal"] == pred_min, render_term(t)


# Systems for the comparison with the Term step of tests_util: the builtins,
# multi-letter names one of which is a prefix of another, and a pair of
# order-3 rules.  Leaves include x1..x12, so x1 is a prefix of x10.
REFERENCE_SYSTEMS = {
    "M": SYS_M,
    "I": SYS_I,
    "K": SYS_K,
    "S": load_system("builtin:S"),
    "KS": SYS_KS,
    "AB-A-W": load_system("AB 2 := x2 x1 x1\nA 1 := x1 x1\nW 2 := x1 x2 x2"),
    "B-C": load_system("B 3 := x1 (x2 x3)\nC 3 := x1 x3 x2"),
}
INVERTIBLE = {"M", "I", "S", "AB-A-W", "B-C"}


def terms_over(system):
    leaves = st.one_of(st.sampled_from(sorted(system.alphabet)).map(basic),
                       st.integers(1, 12).map(var))
    return st.recursive(
        leaves, lambda sub: st.tuples(sub, sub).map(lambda lr: app(*lr)),
        max_leaves=10)


@st.composite
def system_and_term(draw, names=tuple(REFERENCE_SYSTEMS)):
    name = draw(st.sampled_from(names))
    system = REFERENCE_SYSTEMS[name]
    return name, system, draw(terms_over(system))


class TestAgainstTermStep:
    @settings(max_examples=500, deadline=None)
    @given(system_and_term(), st.data())
    def test_keys_sort_as_full_rendering(self, case, data):
        _, system, t = case
        u = data.draw(terms_over(system))
        tokens = _KeyRules(system, app(t, u)).tokens
        assert (term_key(t, tokens) < term_key(u, tokens)) == \
            (render_full(t) < render_full(u))

    @settings(max_examples=300, deadline=None)
    @given(system_and_term())
    def test_step_successors_and_predecessors(self, case):
        name, system, t = case
        assert step_successors(system, t) == set(successor_list(system, t))
        if name in INVERTIBLE:
            assert step_predecessors(system, t) == predecessor_set(system, t)
        else:
            with pytest.raises(SystemError_):
                step_predecessors(system, t)

    @settings(max_examples=200, deadline=None)
    @given(system_and_term(), st.integers(1, 60))
    def test_explore_up(self, case, budget):
        _, system, t = case
        g = explore_component(system, t, "up", budget=budget)
        ref = explore_reference(system, t, "up", budget)
        assert g.nodes == ref.nodes
        assert g.step_edges == ref.step_edges
        assert g.is_complete == ref.is_complete

    @settings(max_examples=100, deadline=None)
    @given(system_and_term(("M", "I", "S")), st.integers(1, 60))
    def test_explore_class(self, case, budget):
        _, system, t = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            g = explore_component(system, t, "class", budget=budget)
        ref = explore_reference(system, t, "class", budget)
        assert g.nodes == ref.nodes
        assert g.step_edges == ref.step_edges
        assert g.is_complete == ref.is_complete


def test_deep_left_spine_upset():
    # nothing in the step recurses: the 5,000-letter left spine ends in
    # the loop M M, so its upset is the term alone
    t = TM("M" * 5000)
    g = explore_component(SYS_M, t, "up")
    assert g.nodes == [t]
    assert g.step_edges == {(0, 0)}
    assert g.is_complete
