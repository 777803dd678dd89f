"""Twisted bilinear maps and their generator recursions.

The central example: inside the automorphisms of F_{n,1} that preserve the
conjugacy class of y, the subgroup fixing y pointwise (a copy of Aut(F_n),
embedded by ``iota1``) and the subgroup generated by the y-transvections
(a copy of Z^n, embedded by ``iota2``) interact through the twisted
commutator

    lambda_bar(f, z) = iota1(f) iota2(z) iota1(f)^-1 iota2(f . z)^-1,

which lands in the Torelli Birman kernel and satisfies the three twisted
bilinearity axioms TB1-TB3.  ``tb_check`` and ``tb3_failures`` state the
axioms directly over ``lambda_bar``: words over S_A^{+-1} act on Z^n
through their matrices and on the kernel by conjugation with ``iota1``,
and Z^n acts on the kernel by conjugation with ``iota2``.  Since both
actions are conjugations, each side of TB3 is one conjugation by a
product of the two lifts and ``lambda_bar``; ``tb3_failures`` builds the
two conjugators once per pair, passes every kernel element at once where
they are equal, as they are for the ``lambda_bar`` defined here, and
otherwise checks each kernel element against them.
``tlambda1``/``tlambda2`` rebuild the same map purely symbolically from its
generator table, expanding words letter by letter without simplifying them
first; the verification suites check that the expansion collapses on
relators.
"""

from __future__ import annotations

from random import Random

from . import autos
from .semidirect import atoms_act_on_Zn, aut_act_on_Zn
from .symwords import (
    C, M, Mc, SymWord, alphabet, in_alphabet, interpret, signed_alphabet,
    std_basis, token_inv, tokens_inv,
)
from .words import Basis, _inverse_letters
from .lpres import phi_word

DEFAULT_SEED = 0x5EED


# ---------------------------------------------------------------------------
# the two partial splittings


_AUT_BASES: dict = {}


def aut_basis(n: int) -> Basis:
    """The basis x1..xn of F_n; one shared object per rank, the one its
    shared identity holds, as :func:`~torellikit.symwords.std_basis` is."""
    basis = _AUT_BASES.get(n)
    if basis is None:
        basis = _AUT_BASES.setdefault(n, autos.identity(Basis(n, 0)).basis)
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
        letters = f.letters + (autos.identity(big).letters[big.y(1)],)
        return autos._endo(big, letters, f.factors)
    return interpret(f, big)


# (tuple(z), n) -> iota2(z, n), emptied when full: the suites at n = 2, 3
# keep at most 614 vectors, the extension at n = 8 meets tens of thousands
_IOTA2: dict = {}
_IOTA2_CAP = 4096


def iota2(z, n: int) -> autos.Endo:
    """The y-transvection product M[x_1,y]^{z_1} ... M[x_n,y]^{z_n}.

    Written in closed form, x_i |-> y^{z_i} x_i and y |-> y: the
    y-transvections commute and move distinct generators.  The
    factorization is that of the product, |z_i| atoms M[x_i, y^{sign z_i}]
    for each i in order, so ``iota2(z, n).inverse() == iota2(-z, n)``.

    Built once per vector and rank and kept, with the inverse once that is
    built (an Endo is immutable): the extension's products meet the same
    few hundred vectors thousands of times; the memo is emptied once it
    holds ``_IOTA2_CAP`` vectors.  The zero vector gives the shared
    ``autos.identity(std_basis(n))``.
    """
    if len(z) != n:
        raise ValueError("vector length does not match the rank")
    key = (tuple(z), n)
    out = _IOTA2.get(key)
    if out is None:
        if len(_IOTA2) >= _IOTA2_CAP:
            _IOTA2.clear()
        out = _IOTA2[key] = _iota2(key[0], n)
    return out


def _iota2(z: tuple, n: int) -> autos.Endo:
    one = autos.identity(std_basis(n))
    if not any(z):
        return one
    big = one.basis
    letters = list(one.letters)
    y_plus = letters[big.y(1)]
    y_minus = _inverse_letters(y_plus)
    factors = []
    for i, zi in enumerate(z):
        if zi:
            y_pow = y_plus if zi > 0 else y_minus
            letters[i] = y_pow * abs(zi) + letters[i]
            factors.extend([("M", i, 1, y_pow)] * abs(zi))
    return autos._endo(big, tuple(letters), tuple(factors))


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
    """``f . z`` for an automorphism of F_n or an S_A token word: both fold
    their atoms on z, so a token word is not interpreted."""
    if isinstance(f, autos.Endo):
        return aut_act_on_Zn(f, z)
    return atoms_act_on_Zn([interpret_aut((tok,), n).factors[0] for tok in f], z)


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
    moved = _act_on_Zn((f,), zn_vector(w[0], n), n)
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
# axiom checking: lambda_bar on A = words over S_A^{+-1}, B = Z^n and
# K = automorphisms of F_{n,1}; A acts on K through iota1, B through iota2


def _act_on_K(a, k: autos.Endo, n: int) -> autos.Endo:
    """``a . k``, conjugation by ``iota1(a)``."""
    lift = iota1(a, n)
    return lift * k * lift.inverse()


def _shift_K(b, k: autos.Endo, n: int) -> autos.Endo:
    """``b . k``, conjugation by ``iota2(b)``."""
    return iota2(b, n) * k * iota2(_neg(b), n)


def _describe(a) -> str:
    return "*".join(str(t) for t in a) or "1"


def tb3_failures(a, b, ks, n: int):
    """Yield the index of each k in ``ks`` at which TB3 fails for (a, b):

        lam(a, b) ((a . b) . (a . k)) lam(a, b)^-1 = a . (b . k),

    with ``lam = lambda_bar``.  Both actions are conjugations, and
    conjugations compose: the left side conjugates k by iota1(a), then by
    iota2(a . b), then by lam(a, b), and the right side by iota2(b), then
    by iota1(a).  So the two sides are ``Y k Y^-1`` and ``Z k Z^-1`` for
    the automorphisms

        Y = lam(a, b) iota2(a . b) iota1(a),    Z = iota1(a) iota2(b),

    which do not depend on k.  Composition is exact, so each k gets the
    verdict of the five conjugations composed one after another.

    Where ``Y == Z`` every k passes, and nothing more is built: with
    ``lam = iota1(a) iota2(b) iota1(a)^-1 iota2(a . b)^-1``, as
    ``lambda_bar`` defines it, Y is Z, so a correct ``lambda_bar`` is
    decided by that one comparison.  Otherwise Y, Z and their inverses are
    built once per (a, b), and each k is checked against them, since a k
    that commutes with ``Y^-1 Z`` still passes.
    """
    lam = lambda_bar(a, b, n)
    lift = iota1(a, n)
    Y = lam * iota2(_act_on_Zn(a, b, n), n) * lift
    Z = lift * iota2(b, n)
    if Y == Z:
        return
    Y_inv = Y.inverse()
    Z_inv = Z.inverse()
    for idx, k in enumerate(ks):
        if Y * k * Y_inv != Z * k * Z_inv:
            yield idx


def tb_check(n: int, samples: int = 100, seed: int = DEFAULT_SEED) -> list:
    """Evaluate TB1/TB2/TB3 for ``lambda_bar`` at rank n on seeded samples;
    returns the failure list.

    Each failure is a (axiom, witness-string) pair.  For TB3 over a whole
    generating set of K, run :func:`tb3_failures` directly.
    """
    rng = Random(seed)
    sa = signed_alphabet("S_A", n)
    sk = alphabet("S_K", n)

    def sample_A():
        return tuple(rng.choice(sa) for _ in range(rng.randint(0, 6)))

    def sample_B():
        return tuple(rng.randint(-3, 3) for _ in range(n))

    def sample_K():
        word = [rng.choice(sk) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5 and word:
            word[0] = token_inv(word[0])
        return interpret(tuple(word), std_basis(n))

    failures = []
    for _ in range(samples):
        a, b1, b2 = sample_A(), sample_B(), sample_B()
        lhs = lambda_bar(a, tuple(x + y for x, y in zip(b1, b2)), n)
        rhs = lambda_bar(a, b1, n) * _shift_K(
            _act_on_Zn(a, b1, n), lambda_bar(a, b2, n), n)
        if lhs != rhs:
            failures.append(("TB1", f"a={_describe(a)} b1={b1} b2={b2}"))
    for _ in range(samples):
        a1, a2, b = sample_A(), sample_A(), sample_B()
        lhs = lambda_bar(a1 + a2, b, n)
        rhs = _act_on_K(a1, lambda_bar(a2, b, n), n) * lambda_bar(
            a1, _act_on_Zn(a2, b, n), n)
        if lhs != rhs:
            failures.append(
                ("TB2", f"a1={_describe(a1)} a2={_describe(a2)} b={b}"))
    for _ in range(samples):
        a, b, k = sample_A(), sample_B(), sample_K()
        for _ in tb3_failures(a, b, [k], n):
            failures.append(("TB3", f"a={_describe(a)} b={b} (sampled k)"))
    return failures
