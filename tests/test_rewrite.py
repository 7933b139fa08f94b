import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from mockingbird import posets
from mockingbird.mterms import encode_term, key_extremal_flags
from mockingbird.posets import poset_analysis, reachability
from mockingbird.rewrite import (
    MAX_STEP_SIZE,
    SystemError_,
    _KeyRules,
    explore_component,
    is_hierarchical,
    load_system,
    local_confluence_probe,
    upset_confluence,
)
from mockingbird.terms import (Application, app, basic, parse_term,
                               render_term, subterms_preorder, term_key, var)
from tests_util import (
    all_combinators,
    explore_reference,
    predecessor_set,
    probe_reference,
    random_m_term,
    render_full,
    right_comb,
    step_successors,
    successor_list,
    term_metrics,
)

SYS_M = load_system("builtin:M")
SYS_I = load_system("builtin:I")
SYS_K = load_system("builtin:K")
SYS_KS = load_system("builtin:KS")


def live_applications():
    gc.collect()
    return sum(isinstance(o, Application) for o in gc.get_objects())


def TM(text):
    return parse_term(text, {"M"})


def kept_up_set(g, i):
    """The nodes of g reachable from node i along its step edges."""
    seen, stack = {i}, [i]
    while stack:
        u = stack.pop()
        for v in g.succ[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


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

    def test_order_bounded_by_the_least_redex(self):
        # a redex of order n has 2n + 1 symbols, so past MAX_STEP_SIZE no
        # step could ever fire the rule
        order = (MAX_STEP_SIZE - 1) // 2
        assert load_system(f"K {order} := x1").rules["K"].order == order
        with pytest.raises(SystemError_, match=f"^line 2: order {order + 1} "
                           f"too large: a redex has {2 * order + 3} symbols"):
            load_system(f"M 1 := x1 x1\nK {order + 1} := x1")


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

    def test_order_past_nine_and_sparse_rhs(self):
        # eleven dots before the head, and a template over x2 and x11 only
        system = load_system("E 11 := x11 x2 x11\nK 2097151 := x1")
        args = "".join(f"x{i}" for i in range(1, 11))
        t = parse_term(f"K(E{args}(E{args}x11)x12)", {"E", "K"})
        succ = step_successors(system, t)
        assert succ == set(successor_list(system, t))
        assert len(succ) == 2


class TestStepPredecessors:
    # the inverse step lives only in tests_util (predecessor_set), as the
    # oracle of the minimality tests below

    def test_square_root(self):
        preds = predecessor_set(SYS_M, TM("(MM)(MM)"))
        assert preds == {TM("M(MM)"), TM("(MM)(MM)")}

    def test_self_loop_source_only(self):
        assert predecessor_set(SYS_M, TM("MM")) == {TM("MM")}

    def test_leaf_has_none(self):
        assert predecessor_set(SYS_M, TM("M")) == set()

    def test_inverse_consistency_degree_le_5(self):
        for degree in range(6):
            for t in all_combinators(degree):
                for s in predecessor_set(SYS_M, t):
                    assert t in step_successors(SYS_M, s)
                for u in step_successors(SYS_M, t):
                    assert t in predecessor_set(SYS_M, u)


class TestExplore:
    def test_fig_component_m(self):
        g = explore_component(SYS_M, TM("M(M(MM))"), "up")
        assert len(g.nodes) == 6
        assert sum(map(len, g.succ)) == 7
        assert len(g.loops) == 6

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

    @pytest.mark.parametrize("direction", ["down", "class"])
    def test_invalid_direction(self, direction):
        # the upset is the one walk
        with pytest.raises(SystemError_, match="invalid direction"):
            explore_component(SYS_M, TM("MM"), direction)

    def test_node_zero_is_start(self):
        g = explore_component(SYS_M, TM("M(MM)"), "up")
        assert g.nodes[0] == TM("M(MM)")

    def test_terms_share_subterms_and_die_with_the_result(self):
        t = TM("M(M(M(M(MM))))")
        before = live_applications()
        g = explore_component(SYS_M, t, "up")
        subterms = [u for node in g.nodes for _, u in subterms_preorder(node)]
        assert len({id(u) for u in subterms}) == len(set(subterms))
        del g, subterms
        assert live_applications() == before

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

    @staticmethod
    def fields(report):
        return (report.pairs_checked, report.joinable_pairs, report.failures,
                report.inconclusive)

    @staticmethod
    def upset(system, t, budget):
        """The upset of t as check reads the probe off it: explored within
        the budget, and analysed when complete."""
        g = explore_component(system, t, "up", budget=budget)
        if g.is_complete:
            poset_analysis(g, check_lattice=False)
        return g

    def test_matches_pairwise_walks_degree_le_5(self):
        for degree in range(6):
            for t in all_combinators(degree):
                report = local_confluence_probe(SYS_M, t)
                assert self.fields(report) == \
                    self.fields(probe_reference(SYS_M, t)), render_term(t)
                g = self.upset(SYS_M, t, 100_000)
                assert self.fields(upset_confluence(SYS_M, g)) == \
                    self.fields(report), render_term(t)

    @pytest.mark.parametrize("name", ["K", "S", "I", "KS"])
    def test_matches_pairwise_walks_random(self, name):
        # 200 seeded terms with up to 20 applications over the system and
        # x1, x2, at budgets 10, 40 and 150: equal reports where the upset
        # completes within the budget; on truncated ones the same pairs,
        # each pair called joinable having a common element in the two
        # kept up-sets
        system = REFERENCE_SYSTEMS[name]
        rng = random.Random(name)
        leaves = [basic(c) for c in sorted(system.alphabet)] * 4 + \
            [var(1), var(2)]

        def random_term(degree):
            if degree == 0:
                return rng.choice(leaves)
            left = rng.randint(0, degree - 1)
            return app(random_term(left), random_term(degree - 1 - left))

        complete = truncated = 0
        for _ in range(200):
            t, budget = random_term(rng.randint(1, 20)), rng.choice((10, 40, 150))
            report = local_confluence_probe(system, t, budget)
            reference = probe_reference(system, t, budget)
            g = self.upset(system, t, budget)
            assert self.fields(upset_confluence(system, g)) == \
                self.fields(report)
            if g.is_complete:
                complete += 1
                assert self.fields(report) == self.fields(reference)
                continue
            truncated += report.pairs_checked > 0
            assert report.pairs_checked == reference.pairs_checked
            succs = sorted(step_successors(system, t) - {t}, key=render_full)
            unjoined = {frozenset(pair)
                        for pair in report.failures + report.inconclusive}
            index = {u: i for i, u in enumerate(g.nodes)}
            for i, s1 in enumerate(succs):
                for s2 in succs[i + 1:]:
                    if frozenset((s1, s2)) not in unjoined:
                        assert kept_up_set(g, index[s1]) & \
                            kept_up_set(g, index[s2])
        assert complete >= 100 and truncated >= 3

    OMEGA = "S(SKK)(SKK)(S(SKK)(SKK))"  # steps to itself in three steps

    @pytest.mark.parametrize("budget", [5, 50, 2_000])
    @pytest.mark.parametrize("text", [OMEGA + "(K(SKK)S)", f"K({OMEGA})({OMEGA})"])
    def test_matches_pairwise_walks_on_cyclic_walks(self, text, budget):
        # past budget 5 the walk holds a cycle, so the labels of the join
        # reader run to a fixpoint
        t = parse_term(text, {"K", "S"})
        g = explore_component(SYS_KS, t, "up", budget=budget)
        assert reachability(g.succ)[0] is (budget == 5)
        report = local_confluence_probe(SYS_KS, t, budget)
        assert report.pairs_checked > 0
        assert self.fields(report) == self.fields(probe_reference(SYS_KS, t, budget))
        assert self.fields(upset_confluence(SYS_KS, g)) == self.fields(report)

    def test_labels_hold_only_the_successors(self, monkeypatch):
        # each node of the walk holds one bit per successor of the start,
        # and one for the start: k + 1 bits, however many nodes the walk keeps
        widest = []

        def spy(adj, width=None):
            acyclic, reach = reachability(adj, width)
            widest.append(max(r.bit_length() for r in reach))
            return acyclic, reach

        monkeypatch.setattr(posets, "reachability", spy)
        t = parse_term("S(SS)(SS)(SS(KSS)(SS))", {"K", "S"})
        report = local_confluence_probe(SYS_KS, t, 20_000)
        assert report.pairs_checked == 3 and report.all_joinable
        assert widest and max(widest) <= 3 + 1

    def test_steps_each_kept_node_once(self, monkeypatch):
        calls = []
        step = _KeyRules.successors

        def counting_step(rules, key):
            calls.append(key)
            return step(rules, key)

        for t, budget in ((TM("M(M(M(MM)))"), 100_000), (right_comb(200), 50)):
            kept = len(explore_component(SYS_M, t, "up", budget=budget).nodes)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(_KeyRules, "successors", counting_step)
                report = local_confluence_probe(SYS_M, t, budget)
            assert len(calls) <= kept + 1
        assert kept == 50
        assert report.pairs_checked == len(report.inconclusive) == 19_701
        assert report.joinable_pairs == 0 and not report.failures


def extremal_flags(t):
    """(maximal, minimal) of an M-combinator, read off its prefix key."""
    return key_extremal_flags(encode_term(t)[0])


class TestExtremal:
    def test_examples(self):
        assert extremal_flags(TM("((MM)M)M")) == (True, True)
        # no M(x1 x2), and the two sides MM and M differ
        assert extremal_flags(TM("(MM)M")) == (True, True)
        assert extremal_flags(TM("M(MM)")) == (False, True)
        assert extremal_flags(TM("(MM)(MM)")) == (True, False)

    def test_deep_combs(self):
        # no recursion over the term: both answer at any depth
        left_comb = TM("M")
        for _ in range(3000):
            left_comb = app(left_comb, TM("M"))
        assert extremal_flags(right_comb(3000)) == (False, True)
        assert extremal_flags(left_comb) == (True, True)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(9, 16), st.integers(0, 2**32))
    def test_agrees_with_graph_characterization_random(self, degree, seed):
        t = random_m_term(random.Random(seed), degree)
        maximal, minimal = extremal_flags(t)
        assert maximal == (step_successors(SYS_M, t) <= {t})
        assert minimal == (predecessor_set(SYS_M, t) <= {t})

    def test_agrees_with_graph_characterization_degree_le_8(self):
        for degree in range(9):
            for t in all_combinators(degree):
                maximal, minimal = extremal_flags(t)
                succ_max = step_successors(SYS_M, t) <= {t}
                pred_min = predecessor_set(SYS_M, t) <= {t}
                assert maximal == succ_max, render_term(t)
                assert minimal == pred_min, render_term(t)


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
        _, system, t = case
        assert step_successors(system, t) == set(successor_list(system, t))

    @settings(max_examples=200, deadline=None)
    @given(system_and_term(), st.integers(1, 60))
    def test_explore_up(self, case, budget):
        _, system, t = case
        g = explore_component(system, t, budget=budget)
        assert (g.nodes, g.step_edges, g.is_complete) == \
            explore_reference(system, t, budget)


def test_deep_left_spine_upset():
    # nothing in the step recurses: the 5,000-letter left spine ends in
    # the loop M M, so its upset is the term alone
    t = TM("M" * 5000)
    g = explore_component(SYS_M, t, "up")
    assert g.nodes == [t]
    assert g.step_edges == {(0, 0)}
    assert g.is_complete
