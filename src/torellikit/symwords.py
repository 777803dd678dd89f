"""Symbolic words over the named-generator alphabets.

Generators of the groups in play are modeled as tagged tokens:

* ``("M", (z, zs), (v, vs))`` -- transvection ``M[z^zs, v^vs]``,
* ``("C", (u, 1), (w, ws))`` -- conjugation move ``C[u, w^ws]``,
* ``("Mc", (a, A), (p, P), (q, Q))`` -- commutator transvection
  ``Mc[a^A, p^P, q^Q]`` = ``M[a^A, [p^P, q^Q]]``,
* ``("P", a, b)`` -- swap, ``("I", a)`` -- inversion,

where letters are generator codes of a :class:`~torellikit.words.Basis`.
Inverses are encoded structurally: swaps and inversions are their own
inverses, ``M[z^a, v]^-1 = M[z^a, v^-1]``, ``C[u, w]^-1 = C[u, w^-1]``, and
``Mc[a, p, q]^-1 = Mc[a, q, p]``.  The sign of the first parameter of a
``C`` token is dropped at construction: conjugating ``u`` or ``u^-1`` is
the same automorphism.

A :class:`SymWord` is a freely reduced token sequence.  Products,
inverses and relator insertions of reduced words cancel only where their
pieces meet, so they are built without a second reduction pass: one
``_join`` of the pieces.

The alphabets ``S_A``, ``S_Z``, ``S_Q``, ``S_K``, ``S_C`` (all over the
basis ``x1..xn, y``) are each stated once, by the token loop of
``_generators``.  Each is built once per rank and kept: :func:`alphabet`
and :func:`signed_alphabet` return the kept tuples, and membership
(:func:`is_generator`, :func:`in_alphabet`) is read from their sets.

:func:`interpret` evaluates a token word as an automorphism by one fold
over a list of image letter tuples (``autos._fold``, which also inverts
automorphisms), not by a product of automorphisms: each token rewrites
only the images of the generators it moves, read from its entry in the
token cache, and a generator's inverse block is built when a later token
first needs it and dropped when that image changes.

:func:`parse_word` keeps each token's canonical spelling (the text
:func:`format_token` gives) in ``_PARSED``, at most one entry per token
over the basis; any other spelling goes through :func:`parse_token`.
"""

from __future__ import annotations

from . import autos
from .words import Basis, Frozen, Word, _echo, _index, _set, commutator

ALPHABETS = ("S_A", "S_Z", "S_Q", "S_K", "S_C")


# ---------------------------------------------------------------------------
# tokens


def M(z, zsign, v, vsign=1):
    if zsign not in (1, -1) or vsign not in (1, -1):
        raise ValueError("signs must be +-1")
    if z == v:
        raise ValueError("transvection parameters must be distinct")
    return ("M", (z, zsign), (v, vsign))


def C(u, w, wsign=1):
    if wsign not in (1, -1):
        raise ValueError("signs must be +-1")
    if u == w:
        raise ValueError("conjugation parameters must be distinct")
    return ("C", (u, 1), (w, wsign))


def Mc(a, asign, p, psign, q, qsign):
    if asign not in (1, -1) or psign not in (1, -1) or qsign not in (1, -1):
        raise ValueError("signs must be +-1")
    if len({a, p, q}) != 3:
        raise ValueError("commutator transvection parameters must be distinct")
    return ("Mc", (a, asign), (p, psign), (q, qsign))


def P(a, b):
    if a == b:
        raise ValueError("swap parameters must be distinct")
    return ("P", min(a, b), max(a, b))


def I(a):
    return ("I", a)


def token_inv(tok):
    tag = tok[0]
    if tag in ("P", "I"):
        return tok
    if tag == "M":
        (z, zs), (v, vs) = tok[1], tok[2]
        return ("M", (z, zs), (v, -vs))
    if tag == "C":
        u, (w, ws) = tok[1], tok[2]
        return ("C", u, (w, -ws))
    if tag == "Mc":
        return ("Mc", tok[1], tok[3], tok[2])
    raise ValueError(f"unknown token {tok!r}")


def tokens_inv(tokens) -> tuple:
    """The inverse of a token sequence: reversed, each token inverted."""
    return tuple(token_inv(t) for t in reversed(tokens))


class _Inverses(dict):
    """token -> its inverse; a token not yet met is entered on lookup."""

    def __missing__(self, tok):
        inv = self[tok] = token_inv(tok)
        return inv


# filled as tokens are met; the alphabets are finite
_TOKEN_INV = _Inverses()


def _reduce_tokens(tokens) -> tuple:
    out = []
    inverse = _TOKEN_INV
    for tok in tokens:
        if out and out[-1] == inverse[tok]:
            out.pop()
        else:
            out.append(tok)
    return tuple(out)


def _join(blocks) -> tuple:
    """The reduced tokens of a concatenation of reduced token blocks.

    Blocks cancel only where they meet: while a block's next token is the
    inverse of the top of the output, pop the top, which may reach back
    across several earlier blocks; then extend by the rest of the block.
    A token and its inverse share ``tok[1]``, so that is compared first
    and the inverse is looked up only when it matches."""
    out = []
    inverse = _TOKEN_INV
    for block in blocks:
        k, m = 0, len(block)
        while out and k < m:
            head = block[k]
            top = out[-1]
            if top[1] != head[1] or top != inverse[head]:
                break
            out.pop()
            k += 1
        out.extend(block[k:] if k else block)
    return tuple(out)


# ---------------------------------------------------------------------------
# symbolic words


class SymWord(Frozen):
    """Freely reduced word of generator tokens over a fixed basis."""

    __slots__ = ("basis", "tokens")

    def __init__(self, basis: Basis, tokens: tuple):
        _set(self, "basis", basis)
        _set(self, "tokens", _reduce_tokens(tokens))

    def __len__(self):
        return len(self.tokens)

    def __bool__(self):
        return bool(self.tokens)

    def __mul__(self, other: "SymWord") -> "SymWord":
        if self.basis is not other.basis and self.basis != other.basis:
            raise ValueError("cannot multiply words over different bases")
        return _symword(self.basis, _join((self.tokens, other.tokens)))

    def inv(self) -> "SymWord":
        return _symword(self.basis, tokens_inv(self.tokens))

    def __str__(self):
        return format_word(self.tokens, self.basis)


def _symword(basis: Basis, tokens: tuple) -> SymWord:
    """A word from tokens already freely reduced.  Internal paths build
    through this; ``SymWord(...)`` reduces."""
    w = object.__new__(SymWord)
    _set(w, "basis", basis)
    _set(w, "tokens", tokens)
    return w


# ---------------------------------------------------------------------------
# alphabets (over the basis x1..xn, y; so k = 1)


_STD_BASES: dict = {}


def std_basis(n: int) -> Basis:
    """The basis x1..xn, y; one shared object per rank (Basis is frozen),
    the one :func:`~torellikit.autos.identity` holds for it."""
    basis = _STD_BASES.get(n)
    if basis is None:
        basis = _STD_BASES.setdefault(n, autos.identity(Basis(n, 1)).basis)
    return basis


def alphabet(kind: str, n: int) -> tuple:
    """All generator tokens of the given alphabet at rank n (k = 1)."""
    return _members(kind, n)[0]


def signed_alphabet(kind: str, n: int) -> tuple:
    """Generators plus inverses, deduplicated (swaps and inversions are
    their own inverses)."""
    return _members(kind, n)[1]


def _generators(kind: str, n: int) -> list:
    if n < 2:
        raise ValueError("alphabets need n >= 2")
    b = std_basis(n)
    y = b.y(1)
    xs = [b.x(i) for i in range(1, n + 1)]
    gens = []
    if kind in ("S_A", "S_Q", "S_C"):
        for a in xs:
            for c in xs:
                if a != c:
                    gens.append(M(a, 1, c))
                    gens.append(M(a, -1, c))
        for i, a in enumerate(xs):
            for c in xs[i + 1:]:
                gens.append(P(a, c))
        for a in xs:
            gens.append(I(a))
    if kind in ("S_Z", "S_Q"):
        for a in xs:
            gens.append(M(a, 1, y))
    if kind == "S_C":
        for a in xs:
            gens.append(M(a, 1, y))
            gens.append(M(a, -1, y))
            gens.append(C(y, a))
    if kind == "S_K":
        for a in xs:
            gens.append(C(y, a))
            gens.append(C(a, y))
        for a in xs:
            for c in xs:
                if a == c:
                    continue
                for asign in (1, -1):
                    for eps in (1, -1):
                        for csign in (1, -1):
                            gens.append(Mc(a, asign, y, eps, c, csign))
    if not gens:
        raise ValueError(f"unknown alphabet {kind!r}")
    return gens


# (kind, n) -> (the generators, the generators and their inverses, and the
# same two as sets)
_MEMBERS: dict = {}


def _members(kind: str, n: int) -> tuple:
    members = _MEMBERS.get((kind, n))
    if members is None:
        gens = tuple(_generators(kind, n))
        # the generators, then each inverse that is not one of them
        signed = tuple(dict.fromkeys(gens + tuple(map(token_inv, gens))))
        members = _MEMBERS[(kind, n)] = (
            gens, signed, frozenset(gens), frozenset(signed)
        )
    return members


def is_generator(tok, kind: str, n: int) -> bool:
    """Whether the token is a generator (not an inverse) of the alphabet."""
    return tok in _members(kind, n)[2]


def in_alphabet(tok, kind: str, n: int) -> bool:
    """Whether the token is a generator of the alphabet or an inverse of one."""
    return tok in _members(kind, n)[3]


# ---------------------------------------------------------------------------
# interpretation as automorphisms

# (basis, token) -> (the token's automorphism, its moved images as
# ``autos._atom_moves`` states them for the token's one atom)
_ENDO_CACHE: dict = {}


def token_endo(tok, basis: Basis) -> autos.Endo:
    """The concrete automorphism of F_{n,k} named by a token."""
    key = (basis, tok)
    cached = _ENDO_CACHE.get(key)
    if cached is not None:
        return cached[0]
    tag = tok[0]
    if tag == "M":
        (z, zs), (v, vs) = tok[1], tok[2]
        f = autos.transvection(basis, z, zs, Word(basis, ((v, vs),)))
    elif tag == "C":
        (u, _), (w, ws) = tok[1], tok[2]
        f = autos.conjugation(basis, u, w, ws)
    elif tag == "Mc":
        (a, asign), (p, ps), (q, qs) = tok[1], tok[2], tok[3]
        v = commutator(Word(basis, ((p, ps),)), Word(basis, ((q, qs),)))
        f = autos.transvection(basis, a, asign, v)
    elif tag == "P":
        f = autos.swap(basis, tok[1], tok[2])
    elif tag == "I":
        f = autos.inversion(basis, tok[1])
    else:
        raise ValueError(f"unknown token {tok!r}")
    _ENDO_CACHE[key] = (f, autos._atom_moves(f.factors[0]))
    return f


def interpret(tokens, basis: Basis) -> autos.Endo:
    """Compose the named automorphisms, rightmost token applied first.

    This is the evaluation homomorphism from symbolic words to Aut(F_{n,k});
    in particular ``interpret(u * v) = interpret(u) * interpret(v)``.

    The product is folded on letter tuples by ``autos._fold`` (see the
    module docstring), and one :class:`~torellikit.autos.Endo` is built at
    the end, whose factorization is the tokens' atoms in order.  A
    one-token word gives the token's cached automorphism itself.
    """
    if not tokens:
        return autos.identity(basis)
    if len(tokens) == 1:
        return token_endo(tokens[0], basis)
    moves = []
    factors = []
    for tok in tokens:
        entry = _ENDO_CACHE.get((basis, tok))
        if entry is None:
            token_endo(tok, basis)
            entry = _ENDO_CACHE[(basis, tok)]
        factors += entry[0].factors
        moves.append(entry[1])
    return autos._fold(basis, moves, tuple(factors))


# ---------------------------------------------------------------------------
# relator insertion


def applyrels(start: SymWord, steps) -> SymWord:
    """Insert relator words into a word, reducing after each insertion.

    ``steps`` is a sequence of ``(insert, position)`` pairs; each position
    indexes into the token sequence of the *current* (already reduced) word,
    so ``0 <= position <= len(word)`` at that step.  The three reduced
    pieces cancel only at their two junctions.
    """
    word = start
    for idx, (insert, pos) in enumerate(steps):
        if insert.basis is not word.basis and insert.basis != word.basis:
            raise ValueError(f"step {idx}: insert word over the wrong basis")
        if not 0 <= pos <= len(word.tokens):
            raise ValueError(
                f"step {idx}: position {pos} out of range 0..{len(word.tokens)}"
            )
        tokens = word.tokens
        word = _symword(word.basis,
                        _join((tokens[:pos], insert.tokens, tokens[pos:])))
    return word


# ---------------------------------------------------------------------------
# text notation


def format_token(tok, basis: Basis) -> str:
    tag = tok[0]

    def letter(pair):
        code, sign = pair
        name = basis.gen_name(code)
        return name if sign == 1 else f"{name}^-1"

    if tag == "P":
        return f"P[{tok[1] + 1},{tok[2] + 1}]"
    if tag == "I":
        return f"I[{tok[1] + 1}]"
    if tag == "M":
        return f"M[{letter(tok[1])},{letter(tok[2])}]"
    if tag == "C":
        return f"C[{letter(tok[1])},{letter(tok[2])}]"
    if tag == "Mc":
        return f"Mc[{letter(tok[1])},{letter(tok[2])},{letter(tok[3])}]"
    raise ValueError(f"unknown token {tok!r}")


def format_word(tokens, basis: Basis) -> str:
    if isinstance(tokens, SymWord):
        tokens = tokens.tokens
    if not tokens:
        return "1"
    return " * ".join(format_token(t, basis) for t in tokens)


def _letters(tag: str, parts: list, basis: Basis, text: str) -> list:
    count = 3 if tag == "Mc" else 2
    if len(parts) != count:
        raise ValueError(
            f"{tag} token needs {('two', 'three')[count - 2]} letters: {_echo(text)}"
        )
    return [basis.parse_letter(p) for p in parts]


def parse_token(text: str, basis: Basis):
    text = text.strip()
    invert = False
    if text.endswith("]^-1"):
        invert = True
        text = text[:-3]
    elif text.endswith("]^1"):
        text = text[:-2]
    if not text.endswith("]") or "[" not in text:
        raise ValueError(f"cannot parse token {_echo(text)}")
    tag, body = text[:-1].split("[", 1)
    tag = tag.strip()
    parts = [p.strip() for p in body.split(",")]
    if tag == "P":
        if len(parts) != 2:
            raise ValueError(f"swap token needs two indices: {_echo(text)}")
        tok = P(*(basis.x(_index(p, "swap index")) for p in parts))
    elif tag == "I":
        if len(parts) != 1:
            raise ValueError(f"inversion token needs one index: {_echo(text)}")
        tok = I(basis.x(_index(parts[0], "inversion index")))
    elif tag == "M":
        (z, zs), (v, vs) = _letters(tag, parts, basis, text)
        tok = M(z, zs, v, vs)
    elif tag == "C":
        # the conjugated letter's sign does not change the automorphism
        (u, _), (w, ws) = _letters(tag, parts, basis, text)
        tok = C(u, w, ws)
    elif tag == "Mc":
        (a, asign), (p, ps), (q, qs) = _letters(tag, parts, basis, text)
        tok = Mc(a, asign, p, ps, q, qs)
    else:
        raise ValueError(f"unknown token tag {_echo(tag)}")
    return token_inv(tok) if invert else tok


class _Spellings(dict):
    """token text -> token over one basis; a text not yet met is parsed on
    lookup, and kept only when it is the spelling ``format_token`` gives."""

    __slots__ = ("basis",)

    def __init__(self, basis: Basis):
        self.basis = basis

    def __missing__(self, text):
        tok = parse_token(text, self.basis)
        if format_token(tok, self.basis) == text:
            self[text] = tok
        return tok


# basis -> its _Spellings: at most one entry per token over the basis
# (4,500 at n = 8, k = 1)
_PARSED: dict = {}


def parse_word(text: str, basis: Basis) -> SymWord:
    text = text.strip()
    if text in ("", "1"):
        return SymWord(basis, ())
    spellings = _PARSED.get(basis)
    if spellings is None:
        spellings = _PARSED.setdefault(basis, _Spellings(basis))
    return SymWord(basis, tuple(spellings[part.strip()] for part in text.split("*")))
