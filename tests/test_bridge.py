import random
import re
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from mockingbird import bridge, terms
from mockingbird.bridge import (
    fr_key,
    fr_map,
    verify_fr_isomorphism,
)
from mockingbird.forests import (
    BLACK,
    WHITE,
    compact_key,
    forest_upset,
    key_successors,
    ladder,
    render_forest,
    upset_counts,
)
from mockingbird.mterms import encode_term, key_redex_successors
from mockingbird.posets import ExplorationError, poset_analysis
from mockingbird.rewrite import explore_component, load_system
from mockingbird.terms import TermError, decode_term, parse_term, subterm_end
from tests_util import (all_combinators, erase_black, fire_redex, fr_map_recursive,
                        is_white_only, progressing_redexes, random_m_term, right_comb,
                        step_successors)

SYS_M = load_system("builtin:M")


def TM(text):
    return parse_term(text, {"M"})


class TestFrMap:
    def test_leaves(self):
        assert fr_map(TM("M")) == ()
        assert fr_map(parse_term("x1", frozenset())) == ()
        assert fr_map(TM("MM")) == ()

    def test_white_leaf(self):
        assert render_forest(fr_map(parse_term("Mx1", {"M"}))) == "w"
        assert render_forest(fr_map(TM("M(MM)"))) == "w"

    def test_nested(self):
        assert render_forest(fr_map(TM("M(M(MM))"))) == "w(w)"

    def test_variable_head_transparent(self):
        assert fr_map(parse_term("x1(M(MM))", {"M"})) == fr_map(TM("M(MM)"))

    def test_concatenation(self):
        assert render_forest(fr_map(TM("(M(MM))(M(MM))"))) == "w w"

    def test_foreign_combinator(self):
        with pytest.raises(TermError):
            fr_map(parse_term("K", {"K"}))

    def test_deep_terms_without_recursion(self):
        # fr_map reads the term through its prefix key and parses the key
        # in one pass, so depth does not matter
        t = TM("M")
        for _ in range(5000):
            t = terms.app(t, TM("M"))
        assert fr_map(t) == ()
        f, depth = fr_map(right_comb(3000)), 0
        while f:
            ((color, f),) = f
            assert color == "w"
            depth += 1
        assert depth == 2999

    def test_image_white_only_10k_random(self):
        from tests_util import random_m_term

        rng = random.Random(424242)
        for _ in range(10_000):
            t = random_m_term(rng, rng.randint(0, 7))
            assert is_white_only(fr_map(t))


class TestRightComb:
    def test_base(self):
        assert right_comb(0) == TM("M")

    def test_two(self):
        assert right_comb(2) == TM("M(MM)")

    def test_four(self):
        assert right_comb(4) == TM("M(M(M(MM)))")

    def test_fr_of_comb_is_ladder(self):
        for d in range(8):
            assert fr_map(right_comb(d)) == ladder(max(d - 1, 0))


class TestProgressingRedexes:
    def test_loop_only_redex_excluded(self):
        assert progressing_redexes(TM("MM")) == []

    def test_order_matches_forest_whites(self):
        # firing any progressing redex is a non-loop step, and they are all
        # of them
        from tests_util import random_m_term

        rng = random.Random(31)
        for _ in range(500):
            t = random_m_term(rng, rng.randint(0, 6))
            fired = {fire_redex(t, p) for p in progressing_redexes(t)}
            assert fired == step_successors(SYS_M, t) - {t}
            assert len(fired) == len(progressing_redexes(t))

    def test_redex_count_equals_white_count(self):
        from tests_util import random_m_term, white_count

        rng = random.Random(32)
        for _ in range(500):
            t = random_m_term(rng, rng.randint(0, 6))
            assert len(progressing_redexes(t)) == white_count(fr_map(t))


class TestStringKeys:
    def test_encoding(self):
        key, leaves = encode_term(parse_term("M(x1 x2)M", {"M"}))
        assert key[:4] == "..M." and key[-1] == "M"
        assert len(key) == 7 and len(set(key[4:6])) == 2
        assert decode_term(key, leaves) == parse_term("M(x1 x2)M", {"M"})

    def test_foreign_combinator(self):
        with pytest.raises(TermError):
            encode_term(parse_term("MK", {"M", "K"}))

    def test_round_trip_deep_term(self):
        t = TM("M")
        for _ in range(5000):
            t = terms.app(t, TM("M"))
        key, leaves = encode_term(t)
        assert len(key) == 10_001
        assert decode_term(key, leaves) == t

    @pytest.mark.parametrize("variables", [0, 2])
    def test_string_step_matches_rewrite_system(self, variables):
        from tests_util import random_m_term

        rng = random.Random(33 + variables)
        for _ in range(500):
            t = random_m_term(rng, rng.randint(0, 6), variables)
            key, leaves = encode_term(t)
            fired = [decode_term(k, leaves) for k in key_redex_successors(key)]
            assert fired == [fire_redex(t, p) for p in progressing_redexes(t)]
            assert set(fired) == step_successors(SYS_M, t) - {t}
            assert fr_key(key) == compact_key(fr_map_recursive(t))
            assert fr_map(t) == fr_map_recursive(t)

    @pytest.mark.parametrize("variables", [0, 2])
    def test_pair_step_matches_flat_step(self, variables):
        # the transport walks sides, not elements: the steps of an
        # application "." + a + b are the root redex M b -> b b, then a's
        # steps, then b's
        from tests_util import random_m_term

        rng = random.Random(35 + variables)
        for _ in range(500):
            key, _ = encode_term(random_m_term(rng, rng.randint(1, 6), variables))
            seen, frontier = {key}, [key]
            while frontier:
                u = frontier.pop()
                flat = key_redex_successors(u)
                end = subterm_end(u, 1)
                a, b = u[1:end], u[end:]
                assert flat == (["." + b + b] if a == "M" != b else []) + \
                    ["." + a2 + b for a2 in key_redex_successors(a)] + \
                    ["." + a + b2 for b2 in key_redex_successors(b)]
                frontier += [v for v in flat if v not in seen]
                seen.update(flat)

    @pytest.mark.parametrize("variables", [0, 2])
    def test_split_forest_step_matches_flat_step(self, variables):
        # the white nodes of fa fb are fa's, then fb's; those of w(fb) are
        # the root, which blackens to b(fb fb), then fb's
        from tests_util import random_m_term

        def upset(key, limit=12):
            seen, frontier = [key], [key]
            while frontier and len(seen) < limit:
                new = [y for y in key_successors(frontier.pop(0)) if y not in seen]
                seen += new
                frontier += new
            return seen

        def wrap(color, key):
            return f"{color}({key})" if key else color

        rng = random.Random(37 + variables)
        for _ in range(500):
            key, _ = encode_term(random_m_term(rng, rng.randint(1, 10), variables))
            end = subterm_end(key, 1)
            a, b = key[1:end], key[end:]
            fbs = upset(fr_key(b))
            for fa in upset(fr_key(a)):
                for fb in fbs:
                    assert key_successors(fa + fb) == \
                        [fa2 + fb for fa2 in key_successors(fa)] + \
                        [fa + fb2 for fb2 in key_successors(fb)]
            for fb in fbs:
                assert key_successors(wrap(WHITE, fb)) == [wrap(BLACK, fb + fb)] + \
                    [wrap(WHITE, fb2) for fb2 in key_successors(fb)]

    def test_erase_black(self):
        assert erase_black("") == ""
        assert erase_black("b") == ""
        assert erase_black("w(b)w") == "ww"
        assert erase_black("b(w(b(ww))w(b(ww)))") == "w(ww)w(ww)"

    def test_erasure_of_transported_key_is_fr_degree_le_5(self):
        # walk the transport, keeping every (term key, forest key) pair
        for degree in range(6):
            for t in all_combinators(degree):
                start, leaves = encode_term(t)
                assignment = {start: compact_key(fr_map(t))}
                frontier = [start]
                while frontier:
                    u = frontier.pop()
                    pairs = zip(key_redex_successors(u),
                                key_successors(assignment[u]), strict=True)
                    for v, key in pairs:
                        if v not in assignment:
                            assignment[v] = key
                            frontier.append(v)
                for u, key in assignment.items():
                    assert erase_black(key) == \
                        compact_key(fr_map(decode_term(u, leaves)))


class TestIsomorphism:
    def test_fig_case(self):
        rep = verify_fr_isomorphism(TM("M(M(MM))"))
        assert rep.isomorphic
        assert rep.term_count == rep.forest_count == 6

    def test_singleton(self):
        rep = verify_fr_isomorphism(TM("M"))
        assert rep.isomorphic
        assert rep.term_count == rep.forest_count == 1

    def test_r5_has_1806_elements(self):
        rep = verify_fr_isomorphism(right_comb(5))
        assert rep.isomorphic
        assert rep.term_count == rep.forest_count == 1806

    def test_exhaustive_degree_le_5(self):
        for degree in range(6):
            for t in all_combinators(degree):
                rep = verify_fr_isomorphism(t)
                assert rep.isomorphic, rep.verdict
                assert rep.cover_preserving

    def test_counts_match_explicit_posets_degree_le_4(self):
        from mockingbird.rewrite import explore_component

        for degree in range(5):
            for t in all_combinators(degree):
                rep = verify_fr_isomorphism(t)
                g_t = explore_component(SYS_M, t, "up")
                g_f = forest_upset(fr_map(t))
                assert rep.term_count == len(g_t.nodes)
                assert rep.forest_count == len(g_f.nodes)

    def test_md_bridge_counts(self):
        from mockingbird.sequences import seq_by_recurrence

        sizes = seq_by_recurrence("sizes", 7).values
        for d in range(1, 6):
            rep = verify_fr_isomorphism(right_comb(d))
            assert rep.term_count == sizes[d]

    @pytest.mark.parametrize("text", ["x1", "Mx1", "M(x1(M(MM)))", "x1(M(Mx2))"])
    def test_terms_with_variables(self, text):
        t = parse_term(text, {"M"})
        rep = verify_fr_isomorphism(t)
        assert rep.isomorphic, rep.verdict
        assert rep.term_count == rep.forest_count == \
            len(explore_component(SYS_M, t, "up").nodes)

    @settings(deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 10), st.integers(0, 2))
    def test_upset_counts_of_fr_equal_term_walk(self, rng, degree, variables):
        # the bridge: up(t) and up(fr t) have as many elements and covers
        t = random_m_term(rng, degree, variables)
        g = explore_component(SYS_M, t, "up", budget=2_000)
        assume(g.is_complete)
        poset_analysis(g, check_lattice=False)
        assert upset_counts(fr_key(encode_term(t)[0])) == \
            (len(g.nodes), sum(map(len, g.covers)))

    def test_forest_count_read_off_fr_of_the_start(self, monkeypatch):
        # forest_count is upset_counts of fr of the start, not a copy of
        # term_count; an inconclusive verdict reports the walk's count
        seen = []

        def stub(key):
            seen.append(key)
            return 7, 0

        monkeypatch.setattr(bridge, "upset_counts", stub)
        for text, key in [("M(M(MM))", "w(w)"), ("M(MM)(M(MM))", "ww"), ("Mx1", "w"),
                          ("x1", "")]:
            rep = verify_fr_isomorphism(parse_term(text, {"M"}))
            assert rep.isomorphic
            assert (rep.term_count, rep.forest_count, seen.pop()) == \
                (len(explore_component(SYS_M, parse_term(text, {"M"}), "up").nodes), 7, key)
        monkeypatch.setattr(bridge, "key_successors", lambda key: key_successors(key)[::-1])
        rep = verify_fr_isomorphism(TM("M(M(M(MM)))"))
        assert not rep.isomorphic and rep.forest_count == rep.term_count and not seen

    def test_builds_no_terms(self, monkeypatch):
        # a count of live terms after the call would miss one built and
        # dropped inside it
        t = right_comb(5)

        def refuse(*args):
            raise AssertionError("the transport built a term")

        monkeypatch.setattr(terms.Application, "__init__", refuse)
        assert verify_fr_isomorphism(t).term_count == 1806

    def test_failed_transport_is_inconclusive(self, monkeypatch):
        # pairing redexes with white nodes in the wrong order breaks the
        # transport; that proves nothing about the posets
        monkeypatch.setattr(bridge, "key_successors",
                            lambda key: key_successors(key)[::-1])
        t = TM("M(M(M(MM)))")
        rep = verify_fr_isomorphism(t)
        assert not rep.isomorphic
        assert rep.method == "fr-transport"
        assert not rep.fr_injective_on_upset
        match = re.fullmatch(
            r"inconclusive\((out-degree mismatch|transport conflict|"
            r"forest collision) at (\S+)\)", rep.verdict)
        assert match, rep.verdict
        culprit = parse_term(match.group(2), {"M"})
        assert terms.render_term(culprit) == match.group(2)
        assert culprit in explore_component(SYS_M, t, "up").nodes

    def test_steps_each_distinct_side_once(self, monkeypatch):
        # the 1,806 elements of up(r5) are M r4' and the pairs of up(r4), so
        # the transport walks the 42 terms of up(r4), with their forests
        # from up(ladder(3)), and the side M, whose forest is empty
        stepped, blackened = [], []

        def step(key):
            stepped.append(key)
            return key_redex_successors(key)

        def blacken(key):
            blackened.append(key)
            return key_successors(key)

        monkeypatch.setattr(bridge, "key_redex_successors", step)
        monkeypatch.setattr(bridge, "key_successors", blacken)
        rep = verify_fr_isomorphism(right_comb(5))
        assert rep.term_count == 1806
        assert len(stepped) == len(set(stepped)) == 43
        assert len(blackened) == len(set(blackened)) == 43

    def test_reports_match_flat_transport(self):
        # every field, or the same ExplorationError, as the transport on
        # whole keys: the combinators of degree <= 6 (all but r6 have at
        # most 20,000 elements) and random terms with variables
        from tests_util import fr_transport_flat, random_m_term

        def reports(t):
            out = []
            for transport in (fr_transport_flat, verify_fr_isomorphism):
                try:
                    out.append(transport(t, 20_000))
                except ExplorationError:
                    out.append(ExplorationError)
            return out

        rng = random.Random(38)
        draws = [random_m_term(rng, rng.randint(0, 12), rng.randint(0, 2))
                 for _ in range(500)]
        combinators = [t for degree in range(7) for t in all_combinators(degree)]
        verdicts = set()
        for t in combinators + draws:
            flat, by_sides = reports(t)
            assert by_sides == flat, t
            verdicts.add(flat if flat is ExplorationError else flat.fr_injective_on_upset)
        assert verdicts == {ExplorationError, True, False}

    def test_reports_match_flat_transport_degree_7(self):
        # the transport workload's range: the combinators of degree 7 whose
        # upsets have at most 2,000 elements, many of them products whose
        # images the injectivity check enumerates
        from tests_util import fr_transport_flat

        checked, verdicts = 0, set()
        for t in all_combinators(7):
            try:
                flat = fr_transport_flat(t, 2_000)
            except ExplorationError:
                continue
            assert verify_fr_isomorphism(t, 2_000) == flat, t
            checked += 1
            verdicts.add(flat.fr_injective_on_upset)
        assert checked > 300 and verdicts == {True, False}

    @pytest.mark.parametrize("text, injective", [
        ("MM", True),  # one side, one image
        ("M(MM)", True),  # wrapped: w and the pair images differ
        ("M(MM)(M(MM))", False),  # the pair images w + "" and "" + w repeat
        ("M(M(MM))", False),  # the wrapped image w(fb) of fb = "" is w + ""
        ("M(M(MM))M", False),  # side a repeats an image
        ("M(M(M(MM)))", False),  # side b repeats an image
    ])
    def test_injectivity_exits(self, text, injective):
        # each exit of the injectivity check, against the transport on
        # whole keys, which erases the black nodes of every forest instead
        from tests_util import fr_transport_flat

        t = TM(text)
        rep = verify_fr_isomorphism(t)
        assert rep == fr_transport_flat(t, 2_000)
        assert rep.fr_injective_on_upset is injective
        assert rep.isomorphic

    def test_injectivity_stops_at_first_repeat(self, monkeypatch):
        # each side of up(r6) has 1,806 elements, and fr repeats an image
        # long before the last of them; the two walks call fr_key once each
        # for their start, so the check itself read more than none
        calls = []

        def count(key):
            calls.append(key)
            return fr_key(key)

        monkeypatch.setattr(bridge, "fr_key", count)
        rep = verify_fr_isomorphism(right_comb(6))
        assert rep.term_count == 3_263_442
        assert not rep.fr_injective_on_upset
        assert 2 < len(calls) <= 25

    def test_r6_counts_by_product(self):
        # acceptance 5b's largest upset: 1,806 + 1,806**2 elements, counted
        # from its side up(r5) walked once, with repeated images
        rep = verify_fr_isomorphism(right_comb(6))
        assert rep.term_count == rep.forest_count == 3_263_442
        assert not rep.fr_injective_on_upset
        assert rep.isomorphic and rep.cover_preserving

    def test_r7_refused_from_side_size(self):
        # 3,263,442 + 3,263,442**2 elements: the side walk of up(r6) stops
        # at the largest side the budget admits
        start = time.perf_counter()
        with pytest.raises(ExplorationError, match="budget"):
            verify_fr_isomorphism(right_comb(7))
        assert time.perf_counter() - start < 2

    def test_budget_boundary(self):
        with pytest.raises(ExplorationError, match="budget"):
            verify_fr_isomorphism(right_comb(5), budget=1805)
        assert verify_fr_isomorphism(right_comb(5), budget=1806).term_count == 1806

    def test_budget_exhaustion(self):
        with pytest.raises(ExplorationError):
            verify_fr_isomorphism(right_comb(5), budget=100)

    def test_deep_left_spine(self):
        # ((MM)M)...M has no progressing redex: its upset is itself
        rep = verify_fr_isomorphism(TM("M" * 3001))
        assert rep.verdict == "isomorphic"
        assert rep.term_count == 1

    def test_deep_right_comb_hits_budget_not_recursion_limit(self):
        # its side r1199 is a step of 1,199 redexes x 2,399 symbols
        with pytest.raises(ExplorationError, match="budget"):
            verify_fr_isomorphism(right_comb(1200), budget=10)

    def test_side_too_large_to_step(self):
        # the side r2999 would build 2,999 copies of a 5,999-symbol key
        start = time.perf_counter()
        with pytest.raises(ExplorationError, match="too large to step"):
            verify_fr_isomorphism(right_comb(3000))
        assert time.perf_counter() - start < 5
