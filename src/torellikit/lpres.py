"""The substitution system behind the L-presentation of the Torelli Birman
kernel, and machine-readable catalogs of every relation family in play.

``phi_gen(s, t, n)`` rewrites a kernel generator ``t`` (alphabet ``S_K``)
under a quotient generator ``s`` (alphabet ``S_Q``, with inverses); its
defining property, checked exhaustively by the verification suites, is that
interpretation turns it into conjugation:

    interpret(phi_gen(s, t)) == s_endo * interpret(t) * s_endo^-1

Rule resolution order: a swap or inversion relabels the generator
(``_permute`` by the relabelling that ``_move`` reads off the letter), then
the fixed cases, then the explicit rewrite rows.  The ``phi-conj`` suite
resolves every signed (s, t) pair and checks the identity above on each.

``phi_apply(s, w, n)`` extends the rule of one letter over a token word
and returns the image freely reduced: each token's image is entered
reduced in the letter's table, and one ``symwords._join`` of the images
cancels them only where they meet.
``phi_word`` applies a whole quotient word that way, one letter at a time,
so each letter reads the reduced image of the letters before it.

The side conditions of the ten seed relation families live only in
``krel``: ``rk0_instances`` runs every family over its full parameter
domain and keeps what ``krel`` accepts.  Catalog order is part of the
contract, since certificates locate relators by their position in it.
``orbit_plan`` states the permutation symmetry of the rules through which
the certificate index looks relators up.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

from .symwords import (
    C,
    I,
    M,
    Mc,
    P,
    SymWord,
    _join,
    _reduce_tokens,
    _symword,
    in_alphabet,
    interpret,
    is_generator,
    signed_alphabet,
    std_basis,
    token_inv,
    tokens_inv,
)
from .words import Basis, Frozen, _set

# ---------------------------------------------------------------------------
# the substitution rules


def _permute(tok, perm, flip=None):
    """Relabel a token by a permutation of x1..xn, given as a tuple
    ``perm[code] -> code`` that fixes y, and invert each letter of code
    ``flip``; swaps and inversions stay swaps and inversions, and a C
    token's conjugated letter keeps no sign."""
    tag = tok[0]
    if tag == "P":
        return P(perm[tok[1]], perm[tok[2]])
    if tag == "I":
        return I(perm[tok[1]])
    parts = [(perm[c], -e if c == flip else e) for c, e in tok[1:]]
    if tag == "C":
        parts[0] = (parts[0][0], 1)
    return (tag, *parts)


def _move(s, n: int) -> tuple:
    """The relabelling of x1..xn that the swap or inversion ``s`` makes at
    rank n, as ``_permute`` takes it: ``(perm, flip)``."""
    perm = list(range(n + 1))
    if s[0] == "I":
        return tuple(perm), s[1]
    perm[s[1]], perm[s[2]] = s[2], s[1]
    return tuple(perm), None


def orbit_plan(n: int) -> tuple:
    """The eight representatives M[x1^alpha, x2]^beta, M[x1, y^eps], P[1,2]
    and I[1] of the orbits of S_Q^+-1 under the permutations of x1..xn,
    and for each signed quotient letter ``s`` the permutation (as
    ``_permute`` takes it) that carries ``s`` to its representative: it
    sends the first x-index of ``s`` to x1 and its second, or the lowest
    other one, to x2, and keeps the rest in order.  The rules commute with
    permutations token for token; under sign flips they pick other, equal
    words."""
    basis = std_basis(n)
    x1, x2, y = basis.x(1), basis.x(2), basis.y(1)
    reps = tuple(M(x1, al, x2, be) for al in (1, -1) for be in (1, -1))
    reps += (M(x1, 1, y), M(x1, 1, y, -1), P(x1, x2), I(x1))
    plan = {}
    for s in signed_alphabet("S_Q", n):
        a, b = (s[1][0], s[2][0]) if s[0] == "M" else (s[1], s[-1])
        if b in (a, y):
            b = x2 if a == x1 else x1
        order = [a, b] + [c for c in range(n) if c not in (a, b)] + [y]
        plan[s] = tuple(map(order.index, range(n + 1)))
    return reps, plan


def phi_gen(s, t, n: int) -> tuple:
    """Image of the kernel generator ``t`` under the rule for ``s``.

    ``s`` is a token of S_Q or an inverse of one; ``t`` must be a generator
    (not an inverse) of S_K.  Returns the image as a token tuple.  Not
    cached: ``phi_apply`` keeps every signed image per ``(n, s)``.
    """
    if not is_generator(t, "S_K", n):
        raise ValueError(f"not an S_K generator: {t!r}")
    if not in_alphabet(s, "S_Q", n):
        raise ValueError(f"not an S_Q token: {s!r}")
    if s[0] in ("P", "I"):
        return (_permute(t, *_move(s, n)),)
    y = std_basis(n).y(1)
    (a, alpha), (v, vs) = s[1], s[2]
    if v == y:
        return _phi_m_xy(a, vs, t, y)
    return _phi_m_xx(a, alpha, v, vs, t, y)


def _phi_m_xy(a, eps, t, y):
    """Rules for s = M[x_a, y]^eps."""
    tag = t[0]
    if tag == "C":
        (u, _), (w, _) = t[1], t[2]
        if w == y:
            return (t,)  # C[x_c, y] is fixed for every c
        if w == a:
            return (C(a, y, eps), t)
        return (t, Mc(a, 1, y, -eps, w, -1))
    # t = Mc[f^fs, y^zeta, l^ls]
    (f, fs), _, (l, ls) = t[1], t[2], t[3]
    if (f == a and fs == -1) or (l == a and ls == -1):
        return (t,)
    if f != a and l != a:
        return (t,)
    return (C(a, y, eps), t, C(a, y, -eps))


def _phi_m_xx(a, alpha, b, beta, t, y):
    """Rules for s = M[x_a^alpha, x_b]^beta."""
    tag = t[0]
    if tag == "C":
        (u, _), (w, _) = t[1], t[2]
        if u == y:
            if w == a:
                word = (C(y, a, alpha), C(y, b, beta))
                return word if alpha == 1 else tokens_inv(word)
            return (t,)  # C[y, x_b] and C[y, x_c] are fixed
        if u == a:
            return (C(a, y), Mc(a, alpha, b, -beta, y, 1))
        if u == b:
            return (C(b, y), Mc(a, alpha, b, -beta, y, -1))
        return (t,)  # C[x_c, y] is fixed
    # t = Mc[f^fs, y^eps, l^ls]
    (f, fs), (_, eps), (l, ls) = t[1], t[2], t[3]
    if f == a:
        if fs == -alpha:
            return (t,)
        if l == b:
            if ls == beta:
                return (Mc(a, alpha, b, -beta, y, eps),)
            return (C(y, b, -beta), t, C(y, b, beta))
        return (
            C(y, l, ls),
            Mc(a, alpha, y, eps, b, -beta),
            C(y, l, -ls),
            t,
            Mc(a, alpha, b, -beta, y, eps),
        )
    if f == b and l == a:
        if fs == beta and ls == alpha:
            return (
                Mc(b, -beta, y, -eps, a, alpha),
                C(b, y, eps),
                Mc(a, alpha, y, eps, b, -beta),
                C(a, y, -eps),
            )
        if fs == -beta and ls == alpha:
            return (
                C(y, a, alpha),
                C(y, b, beta),
                C(b, y, -eps),
                Mc(a, alpha, b, -beta, y, eps),
                C(y, b, -beta),
                Mc(b, -beta, a, -alpha, y, eps),
                C(y, a, -alpha),
                C(a, y, eps),
            )
        if fs == beta and ls == -alpha:
            return (
                C(y, b, -beta),
                C(y, a, -alpha),
                C(a, y, eps),
                Mc(a, alpha, b, -beta, y, eps),
                C(b, y, -eps),
                Mc(b, -beta, a, alpha, y, -eps),
                C(y, a, alpha),
                C(y, b, beta),
            )
        return (
            C(y, b, -beta),
            C(y, a, -alpha),
            C(a, y, -eps),
            C(y, a, alpha),
            t,
            C(y, b, beta),
            Mc(a, alpha, y, eps, b, -beta),
            C(b, y, eps),
        )
    if f == b:
        if fs == beta:
            return (
                t,
                Mc(a, alpha, y, eps, b, -beta),
                Mc(a, alpha, l, ls, y, eps),
                C(y, l, ls),
                Mc(a, alpha, b, -beta, y, eps),
                C(y, l, -ls),
            )
        return (t, Mc(a, alpha, y, eps, l, ls))
    if l == a:
        if ls == alpha:
            return (C(y, a, alpha), Mc(f, fs, y, eps, b, beta), C(y, a, -alpha), t)
        return (C(y, b, -beta), t, Mc(f, fs, b, beta, y, eps), C(y, b, beta))
    return (t,)  # Mc[x_c, y, x_b], Mc[x_c, y, x_d] are fixed


class _PhiTable(dict):
    """S_K token or inverse -> its freely reduced image under the rule for
    one quotient letter ``s`` at rank ``n``; a token not yet met is
    entered on lookup, by ``_phi_signed``."""

    __slots__ = ("s", "n")

    def __init__(self, s, n: int):
        self.s, self.n = s, n

    def __missing__(self, tok):
        return _phi_signed(self, self.s, tok, self.n)


# (n, s) -> its _PhiTable
_PHI_SIGNED: dict = {}


def _phi_signed(table, s, tok, n: int) -> tuple:
    """Enter the reduced image of ``tok`` in the table and return it.  An
    inverse gets the inverse of its generator's image, which is entered
    too, so ``phi_gen`` runs once per ``(n, s, t)``."""
    if is_generator(tok, "S_K", n):
        image = table[tok] = _reduce_tokens(phi_gen(s, tok, n))
        return image
    gen = token_inv(tok)
    image = table.get(gen)
    if image is None:
        image = table[gen] = _reduce_tokens(phi_gen(s, gen, n))
    image = table[tok] = tokens_inv(image)
    return image


def phi_apply(s, word, n: int) -> tuple:
    """Extend phi_gen over a word of S_K tokens (an endomorphism of the
    free group on S_K).  The image is freely reduced: each token's image
    is reduced, so images cancel only where they meet."""
    table = _PHI_SIGNED.get((n, s))
    if table is None:
        table = _PHI_SIGNED.setdefault((n, s), _PhiTable(s, n))
    return _join(map(table.__getitem__, word))


def phi_word(u, w, n: int) -> SymWord:
    """Apply the substitution rules of a whole S_Q word, innermost first.

    ``phi_word(u * v, w) == phi_word(u, phi_word(v, w))``: the map
    ``u -> phi(u)`` is a monoid homomorphism into End(F(S_K)).  Each
    ``phi_apply`` returns reduced tokens, so only an empty ``u`` leaves
    ``w`` to be reduced.
    """
    basis = std_basis(n)
    tokens = w.tokens if isinstance(w, SymWord) else tuple(w)
    for s in reversed(u):
        tokens = phi_apply(s, tokens, n)
    return _symword(basis, tokens) if u else SymWord(basis, tokens)


# ---------------------------------------------------------------------------
# seed relations of the L-presentation (the ten kernel relation families)


def _comm(t1, t2):
    return (t1, t2, token_inv(t1), token_inv(t2))


def _eq(lhs, rhs):
    """The relator ``lhs * rhs^-1`` of the equation ``lhs = rhs``."""
    return tuple(lhs) + tokens_inv(rhs)


def krel(index: int, n: int, *, a=None, b=None, c=None, d=None,
         alpha=1, beta=1, gamma=1, delta=1, eps=1) -> SymWord | None:
    """Instance of kernel relation family 1..10, as a relator word.

    Returns None when the supplied parameters violate the family's side
    conditions (the "invalid marker").  Parameters are 1-based x-indices
    ``a, b, c, d`` and signs ``alpha, beta, gamma, delta, eps``.
    """
    if not 1 <= index <= 10:
        raise ValueError(f"relation family index {index} out of range 1..10")
    # the side conditions of all ten families
    if index == 2:
        # x_a^alpha != x_b^beta, a != d, b != c; a == b or c == d allowed
        if a == c or b == d or a == d or b == c or (a == b and alpha == beta):
            return None
    elif a is None or b is None or a == b:
        return None
    elif (index == 3 or index >= 8) and (c is None or c in (a, b)):
        return None
    basis = std_basis(n)
    a, b, c, d = [None if i is None else basis.x(i) for i in (a, b, c, d)]
    y = basis.y(1)
    if index == 1:
        return SymWord(basis, _comm(C(a, y), C(b, y)))
    if index == 2:
        # [Mc[x_a^alpha, y^eps, x_c^gamma], Mc[x_b^beta, y, x_d^delta]]
        t1, t2 = Mc(a, alpha, y, eps, c, gamma), Mc(b, beta, y, 1, d, delta)
        return SymWord(basis, _comm(t1, t2))
    if index == 3:
        return SymWord(basis, _comm(C(a, y), Mc(b, beta, y, eps, c, gamma)))
    t_abe = Mc(a, alpha, y, eps, b, beta)
    if index == 4:
        lhs = (C(y, b, -beta), t_abe, C(y, b, beta))
        rhs = (Mc(a, alpha, b, -beta, y, eps),)
    elif index == 5:
        lhs = (C(b, y, -eps), t_abe, C(b, y, eps))
        rhs = (Mc(a, alpha, b, beta, y, -eps),)
    elif index == 6:
        lhs = (C(a, y, eps), t_abe, C(a, y, -eps))
        rhs = (Mc(a, alpha, b, beta, y, -eps),)
    elif index == 7:
        lhs = (t_abe, Mc(a, -alpha, y, eps, b, beta))
        rhs = (C(y, b, beta), C(a, y, -eps), C(y, b, -beta), C(a, y, eps))
    elif index == 8:
        lhs = (Mc(b, beta, y, -eps, c, gamma), t_abe, Mc(b, beta, c, gamma, y, -eps))
        rhs = (Mc(a, alpha, c, gamma, y, -eps), t_abe, Mc(a, alpha, c, gamma, y, eps))
    elif index == 9:
        lhs = (C(b, y, -eps), C(y, c, gamma), t_abe, C(y, c, -gamma), C(b, y, eps))
        rhs = (
            Mc(a, alpha, b, beta, y, -eps),
            C(y, c, gamma),
            t_abe,
            C(y, c, -gamma),
            Mc(a, alpha, y, eps, c, gamma),
            Mc(a, alpha, b, beta, y, eps),
            Mc(a, alpha, c, gamma, y, eps),
        )
    else:
        lhs = (C(c, y, -eps), C(y, c, gamma), t_abe, C(y, c, -gamma), C(c, y, eps))
        rhs = (
            Mc(a, alpha, y, -eps, b, beta),
            Mc(a, alpha, c, gamma, y, -eps),
            C(y, c, gamma),
            Mc(a, alpha, b, beta, y, -eps),
            C(y, c, -gamma),
            t_abe,
            Mc(a, alpha, y, -eps, c, gamma),
        )
    return SymWord(basis, _eq(lhs, rhs))


# ---------------------------------------------------------------------------
# relation catalogs


class RelationInstance(Frozen):
    """One instance of a relation family, in relator form: the word
    interprets to the identity automorphism."""

    __slots__ = ("family", "params", "word")

    def __init__(self, family: str, params: tuple, word: SymWord):
        _set(self, "family", family)
        _set(self, "params", params)
        _set(self, "word", word)

    def describe(self) -> str:
        par = ",".join(str(p) for p in self.params)
        return f"{self.family}({par}): {self.word}"


def _inst(family, params, basis, tokens) -> RelationInstance:
    return RelationInstance(family, tuple(params), SymWord(basis, tuple(tokens)))


def nielsen_relators(n: int) -> Iterator[RelationInstance]:
    """All instances of the five Nielsen relation families at rank n,
    over the alphabet S_A (tokens are interpreted fixing y)."""
    b = std_basis(n)
    xs = [b.x(i) for i in range(1, n + 1)]
    signs = (1, -1)

    def pairs():
        return ((p, q) for p in xs for q in xs if p != q)

    for p in xs:
        yield _inst("N1.inv2", (p,), b, (I(p), I(p)))
    for p, q in pairs():
        if p < q:
            yield _inst("N1.invcomm", (p, q), b, _comm(I(p), I(q)))
    for p, q in pairs():
        if p < q:
            yield _inst("N1.swap2", (p, q), b, (P(p, q), P(p, q)))
    for p, q in pairs():
        for r, s in pairs():
            if p < q and r < s and p < r and len({p, q, r, s}) == 4:
                yield _inst("N1.swapcomm", (p, q, r, s), b, _comm(P(p, q), P(r, s)))
    for p, q in pairs():
        for r in xs:
            if r in (p, q):
                continue
            yield _inst(
                "N1.swapconj", (p, q, r), b,
                _eq((P(p, q), P(q, r), P(p, q)), (P(p, r),)),
            )
    for p, q in pairs():
        yield _inst("N1.swapinv", (p, q), b, _eq((P(p, q), I(p), P(p, q)), (I(q),)))
    for p, q in pairs():
        if p < q:
            for r in xs:
                if r in (p, q):
                    continue
                yield _inst("N1.swapinvcomm", (p, q, r), b, _comm(P(p, q), I(r)))
    # N2: conjugating transvections by swaps and inversions
    moves = [(P(p, q), "N2.swap", (p, q)) for p, q in pairs() if p < q]
    moves += [(I(p), "N2.inv", (p,)) for p in xs]
    for sigma, family, head in moves:
        move = _move(sigma, n)
        for cgen, dgen in pairs():
            for g in signs:
                tv = M(cgen, g, dgen)
                yield _inst(
                    family, head + (cgen, g, dgen), b,
                    _eq((sigma, tv, sigma), (_permute(tv, *move),)),
                )
    # N3.  The signed-permutation side depends on the relative sign: the
    # composite equals I_b * P when alpha == beta and P * I_b otherwise
    # (checked semantically; a uniform right-hand side fails half the cases).
    for p, q in pairs():
        for al in signs:
            for be in signs:
                lhs = (
                    M(p, -al, q, be),
                    M(q, be, p, al),
                    M(p, al, q, -be),
                )
                rhs = (I(q), P(p, q)) if al == be else (P(p, q), I(q))
                yield _inst("N3", (p, al, q, be), b, _eq(lhs, rhs))
    # N4: disjoint-support commuting transvections
    for p, q in pairs():
        for al in signs:
            for r, s in pairs():
                for g in signs:
                    if (p, al) == (r, g) or p == s or r == q:
                        continue
                    if (p, al, q) > (r, g, s):
                        continue  # commutators are symmetric; emit once
                    yield _inst(
                        "N4", (p, al, q, r, g, s), b,
                        _comm(M(p, al, q), M(r, g, s)),
                    )
    # N5
    for p, q in pairs():
        for r in xs:
            if r in (p, q):
                continue
            for al in signs:
                for be in signs:
                    for g in signs:
                        lhs = (M(q, be, p, al), M(r, g, q, be))
                        rhs = (M(r, g, q, be), M(q, be, p, al), M(r, g, p, al))
                        yield _inst("N5", (p, q, r, al, be, g), b, _eq(lhs, rhs))


def zn_relators(n: int) -> Iterator[RelationInstance]:
    """Commutators of the y-transvections: the relations of Z^n."""
    b = std_basis(n)
    y = b.y(1)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            yield _inst(
                "Z.comm", (i, j), b,
                _comm(M(b.x(i), 1, y), M(b.x(j), 1, y)),
            )


# Each seed family group with its parameter names, in enumeration order.
# One-letter names run over x-indices 1..n, the others over the signs.
_RK0_PARAMS = (
    ((1,), "a b"),
    ((2,), "a c b d alpha gamma eps beta delta"),
    ((3,), "a b c beta eps gamma"),
    ((4, 5, 6, 7), "a b alpha beta eps"),
    ((8, 9, 10), "a b c alpha beta gamma eps"),
)


def rk0_instances(n: int) -> Iterator[RelationInstance]:
    """Every instance of the ten seed relation families at rank n,
    including the permitted non-generic coincidences."""
    for indices, names in _RK0_PARAMS:
        names = names.split()
        domains = [range(1, n + 1) if len(nm) == 1 else (1, -1) for nm in names]
        for index in indices:
            for values in product(*domains):
                params = dict(zip(names, values))
                w = krel(index, n, **params)
                if w is not None:
                    yield RelationInstance(f"R{index}", tuple(sorted(params.items())), w)


def jensen_wahl_relators(n: int) -> Iterator[RelationInstance]:
    """The relation families presenting the y-conjugacy stabilizer of
    Aut(F_{n,1}) on the generators S_A + {M[x^a, y], C[y, x]}."""
    b = std_basis(n)
    y = b.y(1)
    xs = [b.x(i) for i in range(1, n + 1)]
    signs = (1, -1)

    yield from nielsen_relators(n)  # Q1
    # Q2: commuting relations
    for a in xs:
        for al in signs:
            for bb in xs:
                for be in signs:
                    if (a, al) >= (bb, be):
                        continue
                    yield _inst(
                        "Q2.yy", (a, al, bb, be), b,
                        _comm(M(a, al, y), M(bb, be, y)),
                    )
    for a in xs:
        for al in signs:
            for bb in xs:
                if bb == a:
                    continue
                for c in xs:
                    if c == bb:
                        continue
                    for g in signs:
                        if (c, g) == (a, al):
                            continue
                        yield _inst(
                            "Q2.xy", (a, al, bb, c, g), b,
                            _comm(M(a, al, bb), M(c, g, y)),
                        )
                for c in xs:
                    if c == a:
                        continue
                    yield _inst(
                        "Q2.xc", (a, al, bb, c), b,
                        _comm(M(a, al, bb), C(y, c)),
                    )
    # Q3: swap/inversion relabeling of the y-generators
    perms = [(P(p, q), f"P[{p+1},{q+1}]") for p in xs for q in xs if p < q]
    perms += [(I(p), f"I[{p+1}]") for p in xs]
    for sigma, name in perms:
        move = _move(sigma, n)
        for c in xs:
            t = C(y, c)
            yield _inst(
                "Q3.con", (name, c), b,
                _eq((sigma, t, sigma), (_permute(t, *move),)),
            )
            for g in signs:
                t = M(c, g, y)
                yield _inst(
                    "Q3.mul", (name, c, g), b,
                    _eq((sigma, t, sigma), (_permute(t, *move),)),
                )
    # Q4
    for a in xs:
        for al in signs:
            for bb in xs:
                if bb == a:
                    continue
                for be in signs:
                    lhs = (M(a, al, bb, -be), M(bb, be, y), M(a, al, bb, be))
                    rhs = (M(a, al, y), M(bb, be, y))
                    yield _inst("Q4", (a, al, bb, be), b, _eq(lhs, rhs))
    # Q5
    for a in xs:
        for al in signs:
            lhs = (C(y, a, -al), M(a, -al, y), C(y, a, al))
            rhs = (M(a, al, y, -1),)
            yield _inst("Q5", (a, al), b, _eq(lhs, rhs))


# Conjugation table for the kernel generating set: fix s = M[x_a, y_d];
# each row rewrites s t s^-1 and s^-1 t s as words in the generating set.
# Row specs carry how many x- and y-indices they mention so instances are
# enumerated exactly once per injective index assignment.


def _mc(base, p, q):
    return Mc(base, 1, p, 1, q, 1)


def _t1_row_specs():
    def r1(a, b, d):
        t = _mc(a, d, b)
        return t, (C(a, d), t, C(a, d, -1)), (C(a, d, -1), t, C(a, d))

    def r2(a, b, d):
        t = _mc(b, d, a)
        return t, (C(a, d), t, C(a, d, -1)), (C(a, d, -1), t, C(a, d))

    def r3(a, b, d, e):
        t = _mc(a, e, b)
        return t, (C(a, d), t, C(a, d, -1)), (C(a, d, -1), t, C(a, d))

    def r4(a, b, d, e):
        t = _mc(b, e, a)
        return (
            t,
            (C(b, d, -1), t, C(b, d), _mc(b, e, d)),
            (C(b, d), t, _mc(b, d, e), C(b, d, -1)),
        )

    def r5(a, d, e):
        t = _mc(a, d, e)
        return t, (C(a, d), t, C(a, d, -1)), (C(a, d, -1), t, C(a, d))

    def r6(a, d, e, f):
        t = _mc(a, e, f)
        return t, (C(a, d), t, C(a, d, -1)), (C(a, d, -1), t, C(a, d))

    def r7(a, d, e):
        t = C(d, e)
        return (
            t,
            (C(a, d), _mc(a, d, e), C(a, d, -1), t),
            (_mc(a, e, d), t),
        )

    def r8(a, d):
        t = C(d, a)
        return t, (C(a, d), t), (C(a, d, -1), t)

    def r9(a, b, d):
        # the one row whose words are not a plain sandwich; the final
        # exponent of the plus word and the shape of the minus word were
        # pinned by exhaustive search against s t s^-1 and s^-1 t s
        t = C(d, b)
        return (
            t,
            (t, C(a, d), C(d, b, -1), _mc(a, d, b), t, C(a, d, -1)),
            (token_inv(_mc(a, d, b)), t),
        )

    def r10(a, d, e):
        t = C(e, a)
        return t, (t, C(e, d)), (t, C(e, d, -1))

    def r11(a, d, e):
        t = C(a, e)
        return (
            t,
            (t, C(a, d), _mc(a, e, d), C(a, d, -1)),
            (t, _mc(a, d, e)),
        )

    # (name, number of x-indices, number of y-indices, builder)
    return [
        ("Mc[a,d,b]", 2, 1, r1),
        ("Mc[b,d,a]", 2, 1, r2),
        ("Mc[a,e,b]", 2, 2, r3),
        ("Mc[b,e,a]", 2, 2, r4),
        ("Mc[a,d,e]", 1, 2, r5),
        ("Mc[a,e,f]", 1, 3, r6),
        ("C[d,e]", 1, 2, r7),
        ("C[d,a]", 1, 1, r8),
        ("C[d,b]", 2, 1, r9),
        ("C[e,a]", 1, 2, r10),
        ("C[a,e]", 1, 2, r11),
    ]


def table1_instances(n: int, k: int) -> Iterator[RelationInstance]:
    """The conjugation table for the kernel generating set at rank (n, k):
    both columns of every row, for every assignment of distinct indices."""
    if n < 2 or k < 1:
        raise ValueError("the conjugation table needs n >= 2 and k >= 1")
    b = Basis(n, k)
    for name, nx, ny, build in _t1_row_specs():
        if ny > k:
            continue
        for xids in permutations(range(1, n + 1), nx):
            for yids in permutations(range(1, k + 1), ny):
                xcodes = [b.x(i) for i in xids]
                ycodes = [b.y(j) for j in yids]
                t, plus, minus = build(*xcodes, *ycodes)
                s = M(xcodes[0], 1, ycodes[0])
                params = xids + yids
                yield _inst(
                    f"T1.{name}+", params, b, _eq((s, t, token_inv(s)), plus)
                )
                yield _inst(
                    f"T1.{name}-", params, b, _eq((token_inv(s), t, s), minus)
                )


def s1prime_instances(n: int, k: int) -> Iterator[RelationInstance]:
    """The commuting facts behind the normal generation argument:
    y-transvections on distinct x-generators commute."""
    b = Basis(n, k)
    for xa in range(1, n + 1):
        for xb in range(1, n + 1):
            if xa >= xb:
                continue
            for d in range(1, k + 1):
                for e in range(1, k + 1):
                    t1 = M(b.x(xa), 1, b.y(d))
                    t2 = M(b.x(xb), 1, b.y(e))
                    yield _inst("S1'", (xa, d, xb, e), b, _comm(t1, t2))


# kind -> (builder, lowest k).  A catalog with no lowest k never reads k:
# it works over k = 1 and its builder takes n alone.
_CATALOGS = {
    "nielsen": (nielsen_relators, None),
    "jensen_wahl": (jensen_wahl_relators, None),
    "rk0": (rk0_instances, None),
    "zn": (zn_relators, None),
    "table1": (table1_instances, 1),
    "s1prime": (s1prime_instances, 1),
}


# the highest n of every catalog, and the highest k of those that read k;
# the largest catalog, rk0 at n = 8, has 91,448 instances (README)
CATALOG_MAX = 8


def relation_catalog(kind: str, n: int, k: int = 1) -> Iterator[RelationInstance]:
    """Exhaustively enumerate a relation family's instances.  A ``k`` the
    catalog never reads, or an n or k outside its bounds, raises
    ``ValueError``."""
    if kind not in _CATALOGS:
        raise ValueError(f"unknown catalog {kind!r}; have {sorted(_CATALOGS)}")
    if n < 2:
        raise ValueError("catalogs need n >= 2")
    if n > CATALOG_MAX:
        raise ValueError(f"catalogs need n <= {CATALOG_MAX}")
    build, lowest_k = _CATALOGS[kind]
    if lowest_k is None:
        if k != 1:
            raise ValueError(f"{kind} works over k = 1, got {k}")
        return iter(build(n))
    if k < lowest_k:
        raise ValueError(f"{kind} needs k >= {lowest_k}")
    if k > CATALOG_MAX:
        raise ValueError(f"{kind} needs k <= {CATALOG_MAX}")
    return iter(build(n, k))


def verify_instance(inst: RelationInstance) -> bool:
    """Interpret the relator; True when it is the identity automorphism."""
    return interpret(inst.word.tokens, inst.word.basis).is_identity
