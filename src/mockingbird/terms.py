"""Binary application terms over basic combinators and variables.

Terms are immutable trees with a structural hash cached at construction,
so they can be used as dictionary keys during graph exploration at scale.
Leaf hashes are built from integers, never from str hashing, so every term
hash, and with it the iteration order of every term set, is the same in
every process whatever ``PYTHONHASHSEED`` is.
Leaves are interned for the life of the process; applications are not, so
a term is freed once dropped.  A walk shares equal subterms through a table
of its own (decode_term's ``shared``).  Equality is structural and runs over
a stack of pairs, so terms built apart compare at any depth.

The parser and the printer each read any depth in one pass, without
recursion.  Rewriting and substitution run on prefix keys (term_key;
stepped in rewrite, and over {M} in mterms), not on terms.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence


class TermError(ValueError):
    """Malformed term, unknown combinator, or invalid operation input."""


class TermParseError(TermError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Term:
    __slots__ = ()

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
    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self._hash = hash((left._hash, right._hash))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if type(a) is Application:
                pairs += (a.right, b.right), (a.left, b.left)
            elif a != b:
                return False
        return True


# Leaf caches, kept for the life of the process: one entry per name or index.
_VAR_CACHE: dict[int, Variable] = {}
_BASIC_CACHE: dict[str, Basic] = {}


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


app = Application


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
    implies.  The stack holds the right sides still to print, and the
    parentheses around each one that is an application."""
    parts: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        while type(u) is Application:  # down the left spine
            if type(u.right) is Application:
                stack += ")", u.right, "("
            else:
                stack.append(u.right)
            u = u.left
        parts.append(u if type(u) is str else
                     u.name if type(u) is Basic else f"x{u.index}")
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


# ---------------------------------------------------------------------------
# Terms as prefix keys
#
# "." is an application and each leaf one token from a table, so the key
# of an application is "." followed by the keys of its two sides and a
# subterm is a substring.  The tokens of terms over {M} are in mterms.


def term_key(t: Term, tokens: Mapping[Term, str]) -> str:
    """Prefix key of t, with tokens[leaf] for each leaf; a leaf missing
    from the table raises KeyError."""
    out: list[str] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Application):
            out.append(".")
            stack.append(u.right)
            stack.append(u.left)
        else:
            out.append(tokens[u])
    return "".join(out)


def decode_term(key: str, leaves: Mapping[str, Term],
                shared: Optional[dict] = None) -> Term:
    """The term of a prefix key, given the table from token to leaf.
    ``shared`` is the table from the two sides of each application built
    so far to it: calls that share it share subterms."""
    shared = {} if shared is None else shared
    stack: list[Term] = []
    for token in reversed(key):
        if token == ".":
            sides = stack.pop(), stack.pop()
            stack.append(shared.get(sides) or shared.setdefault(sides, app(*sides)))
        else:
            stack.append(leaves[token])
    (t,) = stack
    return t


def subterm_end(key: str, start: int) -> int:
    """Where the subterm of a prefix key that starts at ``start`` ends: where
    its leaves first outnumber its applications."""
    end, need = start, 1
    while need:
        need += 1 if key[end] == "." else -1
        end += 1
    return end


def subterm_ends(key: str) -> list[int]:
    """end[i] is where the subterm of a prefix key that starts at position
    i ends."""
    end = list(range(1, len(key) + 1))
    for i in range(len(key) - 2, -1, -1):
        if key[i] == ".":
            end[i] = end[end[i + 1]]
    return end
