from collections import Counter

from hypothesis import given, settings, strategies as st

from mockingbird.posets import (
    ExploredPoset,
    down_sets,
    explore,
    poset_analysis,
    reachability,
)
from tests_util import brute_glb, brute_lub, two_pass_explore


def successor_lists(n, edges):
    return [sorted({j for i, j in edges if i == u != j}) for u in range(n)]


def step_graph(n, edges, labels=None):
    return ExploredPoset(nodes=list(labels or range(n)),
                         succ=successor_lists(n, edges),
                         loops={i for i, j in edges if i == j}, is_complete=True)


def analyzed(n, edges, labels=None):
    return poset_analysis(step_graph(n, edges, labels))


@st.composite
def dags(draw):
    """Random DAGs of at most 9 nodes, with random distinct labels and the
    node indices in random topological order, so the bottom (if any) can
    sit at any index."""
    n = draw(st.integers(1, 9))
    order = draw(st.permutations(range(n)))
    edges = {(order[i], order[j])
             for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    labels = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n,
                           unique=True))
    return n, edges, labels


@st.composite
def digraphs(draw):
    """Random digraphs of at most 9 nodes, cycles and self-loops allowed."""
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.sets(pairs, max_size=3 * n))


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.data())
def test_explore_matches_two_pass_reference(case, data):
    # distinct int labels, so the sorted order of the nodes is arbitrary
    n, edges = case
    labels = data.draw(st.lists(st.integers(), min_size=n, max_size=n,
                                unique=True))
    start = labels[data.draw(st.integers(0, n - 1))]
    budget = data.draw(st.integers(1, n + 1))
    succ = {labels[u]: [labels[v] for (w, v) in edges if w == u]
            for u in range(n)}

    calls = Counter()

    def successors(u):
        calls[u] += 1
        return succ[u]

    g = explore(start, successors, budget=budget)
    assert calls == Counter(g.nodes)
    assert all(s == sorted(set(s) - {i}) for i, s in enumerate(g.succ))
    assert (g.nodes, g.step_edges, g.is_complete) == two_pass_explore(
        start, succ.__getitem__, budget)


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_reachability_is_the_transitive_closure(case):
    n, edges = case
    acyclic, reach = reachability(successor_lists(n, edges))
    closure = []
    for s in range(n):
        seen, stack = {s}, [s]
        while stack:
            u = stack.pop()
            for w, v in edges:
                if w == u and v not in seen:
                    seen.add(v)
                    stack.append(v)
        closure.append(sum(1 << v for v in seen))
    assert reach == closure
    assert acyclic is not any(u != v and reach[v] >> u & 1
                              for u, v in edges)


@settings(max_examples=300, deadline=None)
@given(dags())
def test_is_lattice_is_the_pairwise_definition(case):
    n, edges, labels = case
    g = analyzed(n, edges, labels)
    pairwise = all(brute_lub(g, a, b) is not None and
                   brute_glb(g, a, b) is not None
                   for a in range(n) for b in range(a, n))
    assert g.is_lattice is pairwise


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_down_sets_transpose_reach(case):
    n, edges = case
    g = step_graph(n, edges)
    down = down_sets(g)  # reads only the successor lists
    poset_analysis(g)
    transpose = [sum(1 << i for i in range(n) if g.reach[i] >> j & 1)
                 for j in range(n)]
    assert down == transpose


@settings(max_examples=300, deadline=None)
@given(st.one_of(dags(), digraphs()))
def test_hasse_edges_are_the_covers_of_reach(case):
    n, edges = case[:2]
    g = analyzed(n, edges)

    def below(u, v):
        return u != v and g.reach[u] >> v & 1

    pairs = [(u, v) for u in range(n) for v in range(n) if below(u, v)]
    if any(below(v, u) for u, v in pairs):
        assert not any(g.covers)
        return
    covers = {(u, v) for u, v in pairs
              if not any(below(u, z) and below(z, v) for z in range(n))}
    assert {(u, v) for u, vs in enumerate(g.covers) for v in vs} == covers


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_extremal_sets_are_read_off_reach(case):
    n, edges = case
    g = analyzed(n, edges)

    def below(u, v):
        return u != v and g.reach[u] >> v & 1

    assert g.minimal == {v for v in range(n)
                         if not any(below(u, v) for u in range(n))}
    assert g.maximal == {u for u in range(n)
                         if not any(below(u, v) for v in range(n))}


def test_bowtie_has_bottom_but_not_every_join():
    # 0 < a, b < c, d < 5: a and b have two minimal upper bounds
    a, b, c, d = 1, 2, 3, 4
    g = analyzed(6, {(0, a), (0, b), (a, c), (a, d), (b, c), (b, d),
                     (c, 5), (d, 5)})
    assert g.minimal == {0}
    assert brute_lub(g, a, b) is None
    assert g.is_lattice is False


def test_every_join_but_two_minimal_elements():
    # a, b < c: every pair has a join, but a and b have no meet
    g = analyzed(3, {(0, 2), (1, 2)})
    assert all(brute_lub(g, x, y) is not None
               for x in range(3) for y in range(3))
    assert brute_glb(g, 0, 1) is None
    assert g.is_lattice is False


def test_one_node_is_a_lattice():
    g = analyzed(1, {(0, 0)})
    assert g.is_lattice is True
    assert down_sets(g) == [1]
