import random
import zlib
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

from mockingbird.bridge import fr_map
from mockingbird.forests import (
    BLACK,
    EMPTY,
    WHITE,
    ForestError,
    IncompatibleForests,
    compact_key,
    forest_upset,
    join,
    key_successors,
    ladder,
    meet,
    parse_forest,
    render_forest,
    upset_counts,
)
from mockingbird.posets import DEFAULT_BUDGET, down_sets, poset_analysis
from mockingbird.sequences import GOLDEN_PREFIXES
from tests_util import (
    black_count,
    bound_reference,
    brute_glb,
    brute_lub,
    forest_height,
    forest_step_successors,
    is_white_only,
    node_count,
    right_comb,
    two_pass_explore,
    white_count,
)

F = parse_forest


class TestParseRender:
    def test_two_trees(self):
        f = F("w(w) w")
        assert f == ((WHITE, ((WHITE, EMPTY),)), (WHITE, EMPTY))

    def test_black_with_children(self):
        assert F("b(w w)") == ((BLACK, ((WHITE, EMPTY), (WHITE, EMPTY))),)

    def test_round_trip(self):
        text = "b(b(w w) w)"
        assert render_forest(F(text)) == text

    def test_compact_key_parses_back(self):
        f = F("b(b(w w) w) w")
        assert F(compact_key(f)) == f
        assert " " not in compact_key(f)

    def test_empty(self):
        assert F("") == EMPTY
        assert render_forest(EMPTY) == ""

    def test_bad_char(self):
        with pytest.raises(ForestError):
            F("w x")

    def test_unbalanced(self):
        with pytest.raises(ForestError):
            F("w(w")
        with pytest.raises(ForestError):
            F("w)")


forests = st.recursive(
    st.just(EMPTY),
    lambda children: st.lists(
        st.tuples(st.sampled_from((WHITE, BLACK)), children), max_size=4,
    ).map(tuple),
    max_leaves=30)


class TestForestText:
    @given(forests)
    def test_round_trips(self, f):
        assert F(compact_key(f)) == f
        assert F(render_forest(f)) == f
        # forest_upset's node 0 is its start, parsed back from the key
        assert forest_upset(f, budget=1).nodes == [f]

    def test_deep_text_parses_without_recursion(self):
        f = F("b(" * 5000 + "w" + ")" * 5000)
        for _ in range(5000):
            ((color, f),) = f
            assert color == BLACK
        assert f == F("w")

    @given(forests)
    def test_metrics_match_structural_recursion(self, f):
        def nodes(g, color=None):
            return sum((color in (None, c)) + nodes(h, color) for c, h in g)

        def height(g):
            return max((1 + height(h) for _, h in g), default=0)

        assert node_count(f) == nodes(f)
        assert black_count(f) == nodes(f, BLACK)
        assert white_count(f) == nodes(f, WHITE)
        assert is_white_only(f) == (nodes(f, BLACK) == 0)
        assert forest_height(f) == height(f)

    def test_deep_forest_without_recursion(self):
        f = fr_map(right_comb(3000))  # the 2,999-node ladder
        key = "w(" * 2998 + "w" + ")" * 2998
        assert render_forest(f) == compact_key(f) == key
        assert node_count(f) == white_count(f) == forest_height(f) == 2999
        assert black_count(f) == 0
        assert is_white_only(f)
        g = forest_upset(f, budget=1)
        assert [compact_key(h) for h in g.nodes] == [key]
        assert not g.is_complete

    @given(st.one_of(st.text(alphabet="wb() x", max_size=40),
                     st.text(max_size=40)))
    def test_malformed_text_raises_forest_error(self, text):
        try:
            f = F(text)
        except ForestError:
            return
        assert F(render_forest(f)) == f


class TestLadderAndMetrics:
    def test_ladder_0(self):
        assert ladder(0) == EMPTY

    def test_ladder_1(self):
        assert ladder(1) == F("w")

    def test_ladder_3(self):
        assert render_forest(ladder(3)) == "w(w(w))"

    def test_height_empty(self):
        assert forest_height(EMPTY) == 0

    def test_height_chain(self):
        assert forest_height(F("w(w)")) == 2

    def test_height_wide(self):
        assert forest_height(F("b(w w) w")) == 2

    def test_height_of_ladders(self):
        for d in range(8):
            assert forest_height(ladder(d)) == d

    def test_counts(self):
        f = F("b(w w) w")
        assert node_count(f) == 4
        assert black_count(f) == 1
        assert white_count(f) == 3
        assert not is_white_only(f)
        assert is_white_only(ladder(4))


class TestStep:
    def test_two_whites_two_steps(self):
        succ = forest_step_successors(F("w(w)"))
        assert succ == {F("b(w w)"), F("w(b)")}

    def test_no_whites_no_steps(self):
        assert forest_step_successors(F("b(b b)")) == set()

    def test_leaf_blackening(self):
        assert forest_step_successors(F("w")) == {F("b")}

    def test_duplication_copies_subtree(self):
        succ = forest_step_successors(F("w(w(w))"))
        assert F("b(w(w) w(w))") in succ

    def test_black_count_strictly_increases(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_white_forest(rng, 5)
            for g in forest_step_successors(f):
                assert black_count(g) == black_count(f) + 1

    def test_key_successors_match_structural_step(self):
        rng = random.Random(17)
        for _ in range(200):
            f = random_forest(rng, 5)
            via_keys = set(key_successors(compact_key(f)))
            via_struct = {compact_key(g) for g in forest_step_successors(f)}
            assert via_keys == via_struct
            assert len(key_successors(compact_key(f))) == white_count(f)


def assert_same_walk(f, budget):
    """forest_upset agrees with the two-pass closure of the tuple step."""
    g = forest_upset(f, budget=budget)
    assert (g.nodes, g.step_edges, g.is_complete) == two_pass_explore(
        f, forest_step_successors, budget, sort_key=compact_key)


class TestUpset:
    @pytest.mark.parametrize("budget", [1, 2, 5, DEFAULT_BUDGET])
    def test_ladders_match_reference_step(self, budget):
        for d in range(5):
            assert_same_walk(ladder(d), budget)

    def test_random_forests_match_reference_step(self):
        rng = random.Random(19)
        for _ in range(100):
            assert_same_walk(random_forest(rng, 5),
                             rng.choice((1, 2, 5, 50, 300)))

    def test_nodes_share_equal_subtrees(self):
        trees = {}
        pending = list(forest_upset(ladder(3)).nodes)
        while pending:
            for t in pending.pop():
                assert trees.setdefault(compact_key((t,)), t) is t
                pending.append(t[1])

    def test_ladder_2(self):
        g = forest_upset(ladder(2))
        poset_analysis(g)
        assert len(g.nodes) == 6
        assert sum(map(len, g.covers)) == 7
        assert g.is_lattice

    def test_fig_interval_has_12_elements(self):
        g = forest_upset(F("w(w) w"))
        assert len(g.nodes) == 12

    def test_ladder_0_singleton(self):
        g = forest_upset(ladder(0))
        assert len(g.nodes) == 1

    def test_no_self_loops(self):
        g = forest_upset(ladder(3))
        assert not g.loops

    def test_not_graded(self):
        # maximal chains of different lengths exist in the 12-element poset
        g = forest_upset(F("w(w) w"))
        poset_analysis(g)
        adj = g.covers
        lengths = set()

        def walk(i, depth):
            if not adj[i]:
                lengths.add(depth)
            for j in adj[i]:
                walk(j, depth + 1)

        walk(0, 0)
        assert len(lengths) > 1


# forests with black nodes and with repeated subtrees: b(g g) is the shape a
# step leaves behind, at any depth
forests_with_repeats = st.recursive(
    st.just(EMPTY),
    lambda children: st.one_of(
        st.lists(st.tuples(st.sampled_from((WHITE, BLACK)), children),
                 max_size=3).map(tuple),
        children.map(lambda g: ((BLACK, g + g),)),
        children.map(lambda g: g + g)),
    max_leaves=12)


class TestUpsetCounts:
    @settings(deadline=None)
    @given(forests_with_repeats)
    def test_counts_equal_the_walk(self, f):
        g = forest_upset(f, budget=2_000)
        assume(g.is_complete)
        poset_analysis(g, check_lattice=False)
        assert upset_counts(compact_key(f)) == (len(g.nodes), sum(map(len, g.covers)))

    def test_golden_prefixes(self):
        # the golden prefixes prepend M(0), so index d + 1 counts
        # up(ladder(d)), and fr of the right comb r_d is ladder(d - 1)
        golden = list(zip(GOLDEN_PREFIXES["sizes"], GOLDEN_PREFIXES["edges"]))
        assert [upset_counts(compact_key(ladder(d))) for d in range(7)] == golden[1:]
        assert [upset_counts(compact_key(fr_map(right_comb(d))))
                for d in range(1, 8)] == golden[1:]


    @pytest.mark.parametrize("key", ["w(", "x", "(((", "w)w"])
    def test_malformed_key_raises(self, key):
        with pytest.raises(ForestError):
            parse_forest(key)
        with pytest.raises(ForestError):
            upset_counts(key)

    @settings(max_examples=1_000)
    @given(st.text(alphabet="wb() x[{", max_size=12))
    def test_raises_where_parse_forest_raises(self, text):
        # "[" and "{" are no tokens, though the reader marks "b(" and "w("
        # with them
        try:
            key = compact_key(parse_forest(text))
        except ForestError:
            with pytest.raises(ForestError):
                upset_counts(text)
        else:
            assert upset_counts(text) == upset_counts(key)


def random_white_forest(rng, budget):
    trees = []
    while budget > 0 and rng.random() < 0.6:
        size = rng.randint(1, budget)
        trees.append((WHITE, random_white_forest(rng, size - 1)))
        budget -= size
    return tuple(trees)


def random_forest(rng, budget):
    """Random reachable forest: a white forest pushed up by random steps."""
    f = random_white_forest(rng, budget)
    for _ in range(rng.randint(0, 3)):
        succ = sorted(forest_step_successors(f), key=compact_key)
        if not succ:
            break
        f = rng.choice(succ)
    return f


class TestMeetJoin:
    def test_meet_examples(self):
        assert meet(F("b(b w)"), F("b(w b)")) == F("b(w w)")
        assert meet(F("w(b)"), F("b(w w)")) == F("w(w)")

    def test_join_examples(self):
        assert join(F("b(b w)"), F("b(w b)")) == F("b(b b)")
        assert join(F("w(b)"), F("b(w w)")) == F("b(b b)")

    def test_idempotence(self):
        for text in ("", "w", "b(w w)", "w(w(b)) b(w w)"):
            f = F(text)
            assert meet(f, f) == f
            assert join(f, f) == f

    @staticmethod
    def _raise_both_ways(pairs, message):
        for op in (meet, join):
            for f1, f2 in pairs:
                for a, b in ((f1, f2), (f2, f1)):
                    with pytest.raises(IncompatibleForests, match=message):
                        op(F(a), F(b))

    def test_length_mismatch(self):
        # at the top level, and one level down inside the mixed case, where
        # w(w w) against b(w w) bounds w w against halves of length 1
        self._raise_both_ways([("w w", "w"), ("w(w w)", "b(w w)"),
                               ("w(w(w w))", "w(b(w w))")], "length mismatch")

    def test_odd_black_arity(self):
        self._raise_both_ways([("w(w)", "b(w w w)"),
                               ("w(w(w))", "w(b(w w w))")], "odd child count")

    def test_deep_ladder(self):
        # one frame per forest level: 500 levels stay under the default
        # recursion limit.  Results are compared by compact_key, because ==
        # on tuples nested this deep itself recurses past that limit.
        f = ladder(500)
        x = F(key_successors(compact_key(f))[-1])  # the innermost blackened
        assert compact_key(meet(f, x)) == compact_key(f)
        assert compact_key(join(f, x)) == compact_key(x)
        assert compact_key(meet(x, x)) == compact_key(x)
        assert compact_key(join(f, f)) == compact_key(f)
        # 900 levels, near the limit that pytest's own frames leave (about
        # 959 levels; 997 in a bare interpreter), with the outermost and the
        # innermost node blackened, in both argument orders
        f = ladder(900)
        keys = key_successors(compact_key(f))
        for key in (keys[0], keys[-1]):
            x = F(key)
            for a, b in ((f, x), (x, f)):
                assert compact_key(meet(a, b)) == compact_key(f)
                assert compact_key(join(a, b)) == key

    def _sample_upsets(self):
        """Ladders to depth 4 plus 50 distinct random white forests whose
        upsets stay small; a six-node chain already has a ~10^13-element
        upset, so candidates are screened with a budgeted exploration."""
        rng = random.Random(99)
        bases = [ladder(d) for d in range(5)]
        seen = {compact_key(b) for b in bases}
        while len(bases) < 55:
            f = random_white_forest(rng, 6)
            k = compact_key(f)
            if k in seen:
                continue
            seen.add(k)
            if forest_upset(f, budget=2000).is_complete:
                bases.append(f)
        return bases

    # the nodes as forest_upset returns them share equal subtrees; each one
    # parsed back on its own shares no tree with the other argument
    VIEWS = pytest.mark.parametrize(
        "view", [lambda f: f, lambda f: F(compact_key(f))], ids=["shared", "apart"])

    @VIEWS
    def test_meet_join_equal_reference(self, view):
        rng = random.Random(2718)
        for base in self._sample_upsets():
            nodes = forest_upset(base).nodes
            for _ in range(300):
                x, y = view(rng.choice(nodes)), view(rng.choice(nodes))
                assert compact_key(meet(x, y)) == \
                    compact_key(bound_reference(x, y, WHITE))
                assert compact_key(join(x, y)) == \
                    compact_key(bound_reference(x, y, BLACK))

    @VIEWS
    def test_bounds_share_their_arguments(self, view):
        # for x <= y the bound is the first argument itself, in meet(x, y)
        # and in join(y, x); so is the bound of a forest with itself
        rng = random.Random(31)
        for base in self._sample_upsets():
            g = forest_upset(base)
            poset_analysis(g, check_lattice=False)
            n = len(g.nodes)
            for a in rng.sample(range(n), min(n, 20)):
                x = view(g.nodes[a])
                assert meet(x, x) is x and join(x, x) is x
                assert meet(x, view(g.nodes[a])) is x
                above = [b for b in range(n) if g.reach[a] >> b & 1]
                for b in rng.sample(above, min(len(above), 20)):
                    y = view(g.nodes[b])
                    assert meet(x, y) is x
                    assert join(y, x) is y

    def test_meet_join_equal_brute_force(self):
        rng = random.Random(4242)
        for base in self._sample_upsets():
            g = forest_upset(base)
            poset_analysis(g, check_lattice=False)
            index = {g.nodes[i]: i for i in range(len(g.nodes))}
            down = down_sets(g)
            n = len(g.nodes)
            if n <= 400:
                pairs = combinations_with_replacement(range(n), 2)
            else:
                pairs = ((rng.randrange(n), rng.randrange(n))
                         for _ in range(20000))
            for a, b in pairs:
                m = index[meet(g.nodes[a], g.nodes[b])]
                j = index[join(g.nodes[a], g.nodes[b])]
                # m is the GLB iff its down-set is exactly the common lower
                # bounds; dually for the LUB and up-sets.
                assert down[m] == down[a] & down[b]
                assert g.reach[j] == g.reach[a] & g.reach[b]
                if n <= 60:  # the quadratic scan is the slow cross-check
                    assert m == brute_glb(g, a, b)
                    assert j == brute_lub(g, a, b)

    def test_lattice_axioms_on_sample(self):
        for base in self._sample_upsets()[:20]:
            g = forest_upset(base)
            nodes = g.nodes
            rng = random.Random(zlib.crc32(compact_key(base).encode()))
            for _ in range(30):
                a, b, c = (rng.choice(nodes) for _ in range(3))
                assert meet(a, join(a, b)) == a
                assert join(a, meet(a, b)) == a
                assert meet(a, b) == meet(b, a)
                assert join(a, b) == join(b, a)
                assert meet(meet(a, b), c) == meet(a, meet(b, c))
                assert join(join(a, b), c) == join(a, join(b, c))

    def test_order_compatibility(self):
        g = forest_upset(ladder(3))
        poset_analysis(g, check_lattice=False)
        n = len(g.nodes)
        for a in range(n):
            for b in range(n):
                if g.reach[a] >> b & 1:
                    assert meet(g.nodes[a], g.nodes[b]) == g.nodes[a]
                    assert join(g.nodes[a], g.nodes[b]) == g.nodes[b]
