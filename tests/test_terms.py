import random

import pytest
from hypothesis import given, settings, strategies as st

from mockingbird.terms import (
    TermError,
    TermParseError,
    app,
    basic,
    parse_term,
    render_term,
    subterms_preorder,
    var,
)
from tests_util import (
    match_pattern,
    parse_term_recursive,
    render_full,
    replace_at,
    term_metrics,
)

M = basic("M")


def T(text, alphabet=frozenset({"M"})):
    return parse_term(text, alphabet)


class TestParse:
    def test_left_associative_example(self):
        t = parse_term("AB(x1x2)A", {"A", "B"})
        a, b = basic("A"), basic("B")
        assert t == app(app(app(a, b), app(var(1), var(2))), a)

    def test_single_leaf(self):
        assert T("M") == M

    def test_right_nesting(self):
        assert T("M(M(MM))") == app(M, app(M, app(M, M)))

    def test_whitespace_and_spacing(self):
        assert T("M (M (M M))") == T("M(M(MM))")

    def test_multi_letter_names_longest_first(self):
        t = parse_term("AB", {"AB"})
        assert t == basic("AB")
        t = parse_term("AB", {"A", "B"})
        assert t == app(basic("A"), basic("B"))

    def test_variable_index_zero_rejected(self):
        with pytest.raises(TermParseError):
            T("x0")

    def test_unknown_combinator(self):
        with pytest.raises(TermParseError):
            T("Q")

    def test_unbalanced_parens(self):
        with pytest.raises(TermParseError):
            T("M(MM")

    def test_trailing_close(self):
        with pytest.raises(TermParseError):
            T("MM)")

    def test_empty(self):
        with pytest.raises(TermParseError):
            T("")

    @pytest.mark.parametrize("text", ["Mx\u00b2", "Mx\u0663", "Mx\uff11\uff12"],
                             ids=["superscript", "arabic-indic", "fullwidth"])
    def test_variable_digits_are_ascii(self, text):
        with pytest.raises(TermParseError) as exc:
            T(text)
        assert str(exc.value) == "expected digits after 'x' (at position 1)"

    def test_error_position_reported(self):
        with pytest.raises(TermParseError) as exc:
            T("M(MM")
        assert exc.value.position == 1

    def test_deep_nesting_without_recursion(self):
        t = T("M(" * 5000 + "M" + ")" * 5000)
        for _ in range(5000):
            assert t.left is M
            t = t.right
        assert t is M


# pieces of text that reach every branch and every error of the parser
FUZZ_PIECES = list("MKSI x0123()") + ["\t", "x1", "x12", "KS", "\u00e9",
                                      "\u00b2", "\u0663"]
FUZZ_ALPHABETS = [{"M"}, {"K", "S"}, {"I"}, {"KS", "K", "S"}, set()]


def parse_outcome(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except TermError as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=24).map("".join),
       st.sampled_from(FUZZ_ALPHABETS))
def test_parse_matches_recursive_reference(text, alphabet):
    assert parse_outcome(parse_term, text, alphabet) == \
        parse_outcome(parse_term_recursive, text, alphabet)


class TestRender:
    def test_concise_left_spine(self):
        assert render_term(app(app(M, M), M)) == "MMM"

    def test_concise_right_child(self):
        assert render_term(app(M, app(M, M))) == "M(MM)"


def random_term(rng, depth, alphabet=("M",), max_var=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return basic(rng.choice(alphabet))
        return var(rng.randint(1, max_var))
    return app(random_term(rng, depth - 1, alphabet, max_var),
               random_term(rng, depth - 1, alphabet, max_var))


class TestRoundTrip:
    def test_roundtrip_10k_random_terms(self):
        rng = random.Random(20230817)
        alphabet = ("M", "A", "BC")
        for _ in range(10_000):
            t = random_term(rng, rng.randint(0, 6), alphabet)
            assert parse_term(render_term(t), alphabet) == t
            assert parse_term(render_full(t), alphabet) == t

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.one_of(st.sampled_from(("M", "A", "BC", "Def")).map(basic),
                  st.integers(1, 120).map(var)),
        lambda sub: st.tuples(sub, sub).map(lambda lr: app(*lr)),
        max_leaves=40))
    def test_roundtrip_multi_digit_variables_and_long_names(self, t):
        alphabet = ("M", "A", "BC", "Def")
        assert parse_term(render_term(t), alphabet) is t
        assert parse_term(render_full(t), alphabet) is t


class TestMetrics:
    def test_leaf(self):
        m = term_metrics(M)
        assert (m.degree, m.height) == (0, 0)

    def test_right_comb(self):
        m = term_metrics(T("M(M(MM))"))
        assert (m.degree, m.height) == (3, 3)

    def test_balanced(self):
        m = term_metrics(T("(MM)(MM)"))
        assert (m.degree, m.height) == (3, 2)

    def test_degree_at_least_height(self):
        rng = random.Random(7)
        for _ in range(500):
            t = random_term(rng, rng.randint(0, 6))
            m = term_metrics(t)
            assert m.degree >= m.height


def has_factor(t, pattern):
    """Whether pattern matches t at some subterm (a factor of t)."""
    return any(match_pattern(pattern, u, {}) for _, u in subterms_preorder(t))


class TestFactor:
    def test_nonlinear_square_match(self):
        assert has_factor(T("(MM)(MM)"), T("(x1x2)(x1x2)", frozenset()))

    def test_no_match(self):
        assert not has_factor(T("(MM)M"), T("M(x1x2)"))

    def test_root_match(self):
        assert has_factor(T("M(MM)"), T("M(x1x2)"))

    def test_nonlinear_rejects_unequal_children(self):
        assert not has_factor(T("(MM)M"), T("(x1x2)(x1x2)", frozenset()))

    def test_match_pattern_binding_rollback(self):
        bindings = {}
        ok = match_pattern(T("(x1x1)x1", frozenset()), T("(MM)(MM)"), bindings)
        assert not ok
        assert bindings == {}


class TestReplace:
    def test_replace_root(self):
        assert replace_at(M, (), T("MM")) == T("MM")

    def test_replace_deep(self):
        assert replace_at(T("M(MM)"), (1, 0), T("MM")) == T("M((MM)M)")

    def test_path_below_leaf(self):
        with pytest.raises(TermError):
            replace_at(M, (0,), M)


class TestValidation:
    def test_variable_index_positive(self):
        with pytest.raises(TermError):
            var(0)

    def test_combinator_name_uppercase(self):
        with pytest.raises(TermError):
            basic("m")
