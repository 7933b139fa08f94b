"""Binary application terms over basic combinators and variables.

Terms are immutable trees with a structural hash cached at construction,
so they can be used as dictionary keys during graph exploration at scale.
Leaf hashes are built from integers, never from str hashing, so every term
hash, and with it the iteration order of every term set, is the same in
every process whatever ``PYTHONHASHSEED`` is.
Application nodes are hash-consed through the :func:`app` factory; equality
is structural with an identity fast path, so interning is an optimization,
never a correctness requirement.

The parser reads any depth in one pass.  Printing recurses over the term,
as an iterative printer measured slower.  Rewriting, substitution and
pattern matching run on prefix keys (rewrite, bridge), not on terms.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence


class TermError(ValueError):
    """Malformed term, unknown combinator, or invalid operation input."""


class TermParseError(TermError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Term:
    __slots__ = ()

    degree = 0
    height = 0

    def __repr__(self) -> str:
        return f"<Term {render_term(self)}>"

    def __str__(self) -> str:
        return render_term(self)


class Variable(Term):
    __slots__ = ("index", "_hash")

    def __init__(self, index: int):
        if index < 1:
            raise TermError(f"variable index must be >= 1, got {index}")
        self.index = index
        self._hash = hash((1, index))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Variable) and other.index == self.index


class Basic(Term):
    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not name or not name[0].isupper():
            raise TermError(f"combinator name must start uppercase, got {name!r}")
        self.name = name
        self._hash = hash((2, int.from_bytes(name.encode(), "big")))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Basic) and other.name == self.name


class Application(Term):
    __slots__ = ("left", "right", "degree", "height", "_hash")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self.degree = left.degree + right.degree + 1
        self.height = max(left.height, right.height) + 1
        self._hash = hash((left._hash, right._hash))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Application) or other._hash != self._hash:
            return False
        return other.left == self.left and other.right == self.right


# Hash-consing caches, kept for the life of the process.
_VAR_CACHE: dict[int, Variable] = {}
_BASIC_CACHE: dict[str, Basic] = {}
_APP_CACHE: dict[tuple[Term, Term], Application] = {}


def var(index: int) -> Variable:
    t = _VAR_CACHE.get(index)
    if t is None:
        t = _VAR_CACHE[index] = Variable(index)
    return t


def basic(name: str) -> Basic:
    t = _BASIC_CACHE.get(name)
    if t is None:
        t = _BASIC_CACHE[name] = Basic(name)
    return t


def app(left: Term, right: Term) -> Application:
    key = (left, right)
    t = _APP_CACHE.get(key)
    if t is None:
        t = _APP_CACHE[key] = Application(left, right)
    return t


# ---------------------------------------------------------------------------
# Parsing and printing
#
# Grammar: term := atom+ (left-associative), atom := NAME | 'x'DIGITS | '(' term ')'.
# Combinator names are matched longest-first against the supplied alphabet, so
# "AB" with alphabet {A, B} reads as two atoms while a multi-letter name in the
# alphabet is a single atom.


def parse_term(text: str, alphabet: Sequence[str] | set[str] | frozenset[str]) -> Term:
    names = sorted(alphabet, key=len, reverse=True)
    for name in names:
        if not name or not name[0].isupper():
            raise TermError(f"invalid combinator name in alphabet: {name!r}")
    levels: list[Optional[Term]] = [None]  # term read so far: whole text, each open "("
    opens: list[int] = []  # positions of the open parentheses
    pos, n = 0, len(text)
    while pos < n:
        c = text[pos]
        start = pos
        pos += 1
        if c == "(":
            levels.append(None)
            opens.append(start)
            continue
        if c == ")":
            if levels[-1] is None:
                raise TermParseError("expected a term", start)
            if not opens:
                raise TermParseError("trailing input", start)
            opens.pop()
            atom = levels.pop()
        elif c.isupper():
            for name in names:
                if text.startswith(name, start):
                    break
            else:
                raise TermParseError(f"unknown combinator starting with {c!r}", start)
            pos = start + len(name)
            atom = basic(name)
        elif c == "x":
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            if pos == start + 1:
                raise TermParseError("expected digits after 'x'", start)
            index = int(text[start + 1:pos])
            if index == 0:
                raise TermParseError("variable index 0 is not allowed", start)
            atom = var(index)
        elif c.isspace():
            continue
        else:
            raise TermParseError(f"unexpected character {c!r}", start)
        left = levels[-1]
        levels[-1] = atom if left is None else app(left, atom)
    if levels[-1] is None:
        raise TermParseError("expected a term", n)
    if opens:
        raise TermParseError("unbalanced parenthesis", opens[-1])
    return levels[0]


def render_term(t: Term) -> str:
    """Print a term, without the parentheses that left associativity
    implies."""
    parts: list[str] = []

    def emit(u: Term, parenthesize: bool) -> None:
        if isinstance(u, Application):
            if parenthesize:
                parts.append("(")
            emit(u.left, False)
            emit(u.right, True)
            if parenthesize:
                parts.append(")")
        else:
            parts.append(u.name if isinstance(u, Basic) else f"x{u.index}")

    emit(t, False)
    return "".join(parts)


def variable_indices(t: Term) -> set[int]:
    return {u.index for _, u in subterms_preorder(t) if isinstance(u, Variable)}


def contains_basic(t: Term) -> bool:
    return any(isinstance(u, Basic) for _, u in subterms_preorder(t))


def subterms_preorder(t: Term) -> Iterator[tuple[int, Term]]:
    """Yield (depth, subterm) pairs in pre-order, in time linear in the
    size of t."""
    stack: list[tuple[int, Term]] = [(0, t)]
    while stack:
        depth, u = stack.pop()
        yield depth, u
        if isinstance(u, Application):
            stack.append((depth + 1, u.right))
            stack.append((depth + 1, u.left))
