"""Twisted bilinear maps and their generator recursions.

The central example: inside the automorphisms of F_{n,1} that preserve the
conjugacy class of y, the subgroup fixing y pointwise (a copy of Aut(F_n),
embedded by ``iota1``) and the subgroup generated by the y-transvections
(a copy of Z^n, embedded by ``iota2``) interact through the twisted
commutator

    lambda_bar(f, z) = iota1(f) iota2(z) iota1(f)^-1 iota2(f . z)^-1,

which lands in the Torelli Birman kernel and satisfies the three twisted
bilinearity axioms TB1-TB3.  ``tlambda1``/``tlambda2`` rebuild the same map
purely symbolically from its generator table, expanding words letter by
letter without simplifying them first; the verification suites check that
the expansion collapses on relators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable

from . import autos
from .semidirect import aut_act_on_Zn
from .symwords import (
    C, M, Mc, SymWord, alphabet, in_alphabet, interpret, signed_alphabet,
    std_basis, token_inv, tokens_inv,
)
from .words import Basis, _inverse_letters, _word
from .lpres import phi_word

DEFAULT_SEED = 0x5EED


# ---------------------------------------------------------------------------
# the two partial splittings


_AUT_BASES: dict = {}


def aut_basis(n: int) -> Basis:
    """The basis x1..xn of F_n; one shared object per rank, as
    :func:`~torellikit.symwords.std_basis` is."""
    basis = _AUT_BASES.get(n)
    if basis is None:
        basis = _AUT_BASES.setdefault(n, Basis(n, 0))
    return basis


def interpret_aut(tokens, n: int) -> autos.Endo:
    """Interpret an S_A word as an automorphism of F_n (no y)."""
    return interpret(tokens, aut_basis(n))


def iota1(f, n: int) -> autos.Endo:
    """Extend an automorphism of F_n to F_{n,1}, fixing y pointwise.

    Accepts a sequence of S_A tokens or an Endo of F_n.  An Endo lifts
    verbatim: the x-codes of F_n and F_{n,1} agree, so its image letters are
    already reduced, shared and in range, and its factor atoms only mention
    x-generators.
    """
    big = std_basis(n)
    if isinstance(f, autos.Endo):
        small = aut_basis(n)
        if f.basis is not small and f.basis != small:
            raise ValueError("not an automorphism of F_n")
        images = [_word(big, w.letters) for w in f.images]
        images.append(autos.identity(big).images[big.y(1)])
        return autos._endo(big, tuple(images), f.factors)
    return interpret(f, big)


# (tuple(z), n) -> iota2(z, n)
_IOTA2: dict = {}


def iota2(z, n: int) -> autos.Endo:
    """The y-transvection product M[x_1,y]^{z_1} ... M[x_n,y]^{z_n}.

    Written in closed form, x_i |-> y^{z_i} x_i and y |-> y: the
    y-transvections commute and move distinct generators.  The
    factorization is that of the product, |z_i| atoms M[x_i, y^{sign z_i}]
    for each i in order, so ``iota2(z, n).inverse() == iota2(-z, n)``.

    Built once per vector and rank and kept, with the inverse once that is
    built (an Endo is immutable): the extension's products meet the same
    few hundred vectors thousands of times.  The zero vector gives the
    shared ``autos.identity(std_basis(n))``.
    """
    if len(z) != n:
        raise ValueError("vector length does not match the rank")
    key = (tuple(z), n)
    out = _IOTA2.get(key)
    if out is None:
        out = _IOTA2[key] = _iota2(key[0], n)
    return out


def _iota2(z: tuple, n: int) -> autos.Endo:
    one = autos.identity(std_basis(n))
    if not any(z):
        return one
    big = one.basis
    images = list(one.images)
    y_plus = images[big.y(1)].letters
    y_minus = _inverse_letters(y_plus)
    factors = []
    for i, zi in enumerate(z):
        if zi:
            y_pow = y_plus if zi > 0 else y_minus
            images[i] = _word(big, y_pow * abs(zi) + images[i].letters)
            factors.extend([("M", i, 1, y_pow)] * abs(zi))
    return autos._endo(big, tuple(images), tuple(factors))


def _neg(z) -> tuple:
    return tuple(-c for c in z)


def zn_vector(tok, n: int) -> tuple:
    """The image of an S_Z^{+-1} token in Z^n."""
    if not in_alphabet(tok, "S_Z", n):
        raise ValueError(f"not an S_Z token: {tok!r}")
    (i, _), (_, eps) = tok[1], tok[2]
    vec = [0] * n
    vec[i] = eps
    return tuple(vec)


def canonical_zword(z, n: int) -> tuple:
    """The canonical S_Z word for a vector: index order, sign as exponent."""
    big = std_basis(n)
    y = big.y(1)
    tokens = []
    for i, zi in enumerate(z):
        tok = M(big.x(i + 1), 1, y, 1 if zi > 0 else -1)
        tokens.extend([tok] * abs(zi))
    return tuple(tokens)


def _act_on_Zn(f, z, n: int) -> tuple:
    """``f . z`` for an automorphism of F_n or an S_A token word.

    A token word acts token by token, rightmost first, through each
    token's cached automorphism, which keeps its matrix; so the word is
    not interpreted and no matrix is inverted again.
    """
    if isinstance(f, autos.Endo):
        return aut_act_on_Zn(f, tuple(z))
    z = tuple(z)
    for tok in reversed(f):
        z = aut_act_on_Zn(interpret_aut((tok,), n), z)
    return z


def _twisted_commutator(lift: autos.Endo, z, moved, n: int) -> autos.Endo:
    """``lift iota2(z) lift^-1 iota2(-moved)``; with ``lift = iota1(f)`` and
    ``moved = f . z`` this is ``lambda_bar(f, z)``."""
    return lift * iota2(z, n) * lift.inverse() * iota2(_neg(moved), n)


def lambda_bar(f, z, n: int) -> autos.Endo:
    """The twisted commutator of the two splittings, evaluated concretely."""
    return _twisted_commutator(iota1(f, n), z, _act_on_Zn(f, z, n), n)


# ---------------------------------------------------------------------------
# the generator table and the two expansion recursions


def lambda_gen(f, z, n: int) -> tuple:
    """Value of the twisted bilinear map on a generator pair, symbolically.

    ``f`` is an S_A token or inverse, ``z`` an S_Z token or inverse.
    Pairs without a table entry map to the empty word.
    """
    if not in_alphabet(f, "S_A", n):
        raise ValueError(f"not an S_A^+-1 token: {f!r}")
    if not in_alphabet(z, "S_Z", n):
        raise ValueError(f"not an S_Z^+-1 token: {z!r}")
    y = std_basis(n).y(1)
    (i, _), (_, eps) = z[1], z[2]
    tag = f[0]
    if tag == "P":
        return ()
    if tag == "I":
        return (C(f[1], y, eps),) if f[1] == i else ()
    (a, alpha), (b, beta) = f[1], f[2]
    if alpha == 1:
        if i == a:
            return (Mc(a, 1, y, -eps, b, -beta),)
        if i == b and beta == 1:
            return (Mc(a, 1, y, eps, b, -1),)
        return ()
    if i == b and beta == 1:
        word = (Mc(a, -1, y, 1, b, -1), C(a, y, -1))
        return word if eps == 1 else tokens_inv(word)
    if i == b and beta == -1:
        return (C(a, y, eps),)
    return ()


def tlambda1(f, w, n: int) -> SymWord:
    """Letter-by-letter expansion over the second argument.

    ``w`` is a raw S_Z^{+-1} token sequence and is deliberately NOT reduced
    first: well-definedness under insertion of relators is a theorem to be
    checked, not an assumption.
    """
    big = std_basis(n)
    w = tuple(w)
    if not w:
        return SymWord(big, ())
    if len(w) == 1:
        return SymWord(big, lambda_gen(f, w[0], n))
    head = SymWord(big, lambda_gen(f, w[0], n))
    f_aut = interpret_aut((f,), n)
    moved = aut_act_on_Zn(f_aut, zn_vector(w[0], n))
    tail = tlambda1(f, w[1:], n)
    shifted = phi_word(canonical_zword(moved, n), tail, n)
    return head * shifted


def tlambda2(w, z, n: int) -> SymWord:
    """Letter-by-letter expansion over the first argument.

    ``w`` is a raw S_A^{+-1} token sequence (again not reduced first) and
    ``z`` an integer vector.  The single-letter case delegates to
    :func:`tlambda1` through the canonical word for ``z``.
    """
    big = std_basis(n)
    w = tuple(w)
    if not w:
        return SymWord(big, ())
    if len(w) == 1:
        return tlambda1(w[0], canonical_zword(z, n), n)
    s, rest = w[0], w[1:]
    moved_tail = phi_word((s,), tlambda2(rest, z, n), n)
    return moved_tail * tlambda2((s,), _act_on_Zn(rest, z, n), n)


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class TwistedBilinearData:
    """A twisted bilinear map together with the three group actions it is
    twisted by, plus samplers so the axioms can be spot-checked."""

    lam: Callable
    act_A_on_B: Callable
    act_A_on_K: Callable
    act_B_on_K: Callable
    mul_A: Callable
    mul_B: Callable
    mul_K: Callable
    inv_K: Callable
    eq_K: Callable
    sample_A: Callable
    sample_B: Callable
    sample_K: Callable
    describe: Callable = field(default=lambda x: str(x))


def tb3_failures(d: TwistedBilinearData, a, b, ks):
    """Yield the index of each k in ``ks`` at which TB3 fails for (a, b):

        lam(a, b) ((a . b) . (a . k)) lam(a, b)^-1 = a . (b . k).
    """
    lam = d.lam(a, b)
    lam_inv = d.inv_K(lam)
    moved = d.act_A_on_B(a, b)
    for idx, k in enumerate(ks):
        lhs = d.mul_K(d.mul_K(lam, d.act_B_on_K(moved, d.act_A_on_K(a, k))), lam_inv)
        rhs = d.act_A_on_K(a, d.act_B_on_K(b, k))
        if not d.eq_K(lhs, rhs):
            yield idx


def tb_check(data: TwistedBilinearData, samples: int = 100,
             seed: int = DEFAULT_SEED) -> list:
    """Evaluate TB1/TB2/TB3 on seeded samples; returns the failure list.

    Each failure is a (axiom, witness-string) pair.  For TB3 over a whole
    generating set of K, run :func:`tb3_failures` directly.
    """
    rng = Random(seed)
    failures = []
    d = data
    for case in range(samples):
        a, b1, b2 = d.sample_A(rng), d.sample_B(rng), d.sample_B(rng)
        lhs = d.lam(a, d.mul_B(b1, b2))
        rhs = d.mul_K(d.lam(a, b1), d.act_B_on_K(d.act_A_on_B(a, b1), d.lam(a, b2)))
        if not d.eq_K(lhs, rhs):
            failures.append(("TB1", f"a={d.describe(a)} b1={b1} b2={b2}"))
    for case in range(samples):
        a1, a2, b = d.sample_A(rng), d.sample_A(rng), d.sample_B(rng)
        lhs = d.lam(d.mul_A(a1, a2), b)
        rhs = d.mul_K(d.act_A_on_K(a1, d.lam(a2, b)), d.lam(a1, d.act_A_on_B(a2, b)))
        if not d.eq_K(lhs, rhs):
            failures.append(("TB2", f"a1={d.describe(a1)} a2={d.describe(a2)} b={b}"))
    for case in range(samples):
        a, b, k = d.sample_A(rng), d.sample_B(rng), d.sample_K(rng)
        for _ in tb3_failures(d, a, b, [k]):
            failures.append(("TB3", f"a={d.describe(a)} b={b} (sampled k)"))
    return failures


def birman_data(n: int) -> TwistedBilinearData:
    """The semantic instance of the axioms at rank n.

    A = words over S_A^{+-1}, B = Z^n, K = automorphisms of F_{n,1}.
    """
    big = std_basis(n)
    sa = signed_alphabet("S_A", n)
    sk = alphabet("S_K", n)

    def sample_A(rng):
        return tuple(rng.choice(sa) for _ in range(rng.randint(0, 6)))

    def sample_B(rng):
        return tuple(rng.randint(-3, 3) for _ in range(n))

    def sample_K(rng):
        word = [rng.choice(sk) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5 and word:
            word[0] = token_inv(word[0])
        return interpret(tuple(word), big)

    def act_A_on_K(a, k):
        A = iota1(a, n)
        return A * k * A.inverse()

    return TwistedBilinearData(
        lam=lambda a, b: lambda_bar(a, b, n),
        act_A_on_B=lambda a, b: _act_on_Zn(a, b, n),
        act_A_on_K=act_A_on_K,
        act_B_on_K=lambda b, k: iota2(b, n) * k * iota2(_neg(b), n),
        mul_A=lambda a1, a2: tuple(a1) + tuple(a2),
        mul_B=lambda b1, b2: tuple(x + y for x, y in zip(b1, b2)),
        mul_K=lambda k1, k2: k1 * k2,
        inv_K=lambda k: k.inverse(),
        eq_K=lambda k1, k2: k1 == k2,
        sample_A=sample_A,
        sample_B=sample_B,
        sample_K=sample_K,
        describe=lambda a: "*".join(str(t) for t in a) or "1",
    )
