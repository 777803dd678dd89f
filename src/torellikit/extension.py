"""Nonabelian extensions built from a twisted bilinear map.

Elements are pairs (k, q) with k in the kernel group and q = (z, a) in the
semidirect product Z^n x| Aut(F_n); the multiplication

    (k1, q1)(k2, q2) = (k1 * phi(q1)(k2) * gamma(q1, q2), q1 q2)

is associative exactly because of the two cocycle identities that
``cocycle_check`` verifies.  The concrete model uses automorphisms of
F_{n,1} lying in the Torelli Birman kernel as the kernel group, the
conjugation actions through the two splittings, and the twisted commutator
as the bilinear map; the forward comparison map ``forward`` into
Aut(F_{n,1}) is then a homomorphism, and rebuilding the y-stabilizer's
presentation generator by generator (``phi_inverse_gen``) inverts it.

In that model every hook goes through the lift ``L_q = iota2(z) iota1(a)``
of a quotient element q = (z, a): ``phi(q)`` is conjugation by ``L_q``,
and ``gamma(q1, q2) = L_q1 iota2(z2) L_q1^-1 iota2(-(a1 . z2))``.  A group
computes each lift once per quotient element, and keeps it, with its
inverse, for as long as that element is alive.

``ext_mul`` and ``ext_inv`` do not compose ``phi`` and ``gamma``: the group
gives the kernel part of a product and of an inverse by its own hooks
``mul`` and ``inv``.  In the model, ``k1 phi(q1)(k2) gamma(q1, q2)`` is
``k1 L k2 L^-1 L iota2(z2) L^-1 iota2(-(a1 . z2))`` with ``L = L_q1``, and
the middle ``L^-1 L`` is the identity, so ``mul`` composes

    (k1 L) ((k2 iota2(z2)) (L^-1 iota2(-(a1 . z2)))),

which is ``(k1 L) (k2 L^-1)`` when z2 is zero and ``k1`` when k2 is the
identity too.  Of the 42 bracketings of these six factors, the five that
read the fewest image letters on the ``extension`` suite all have
``k1 L`` as the left operand; they read within 7% of each other, and the
three of them that were timed ran alike.

For the inverse of (k, q), with q^-1 = (z', a^-1) and so ``a . z' = -z``,
the definition ``L^-1 k^-1 gamma(q, q^-1)^-1 L`` is
``L^-1 k^-1 iota2(-z) L iota2(-z') L^-1 L``, and ``iota2(-z) L = iota1(a)``,
so ``inv`` composes ``(L^-1 k^-1) (iota1(a) iota2(-z'))``.  It builds no
gamma, and inverts only ``k`` and the lift, whose inverse the group keeps.
Composition is exact, so each product and inverse has the images the
definition builds; only its factorization is shorter.

``phi_inverse_word`` keeps the image of each signed S_C token per group,
as a group keeps its lifts: the 351 Jensen-Wahl relators at n=3 have
1,476 letters but only 48 distinct signed tokens, and each of those
images, an inverse's included, is then built once.
"""

from __future__ import annotations

from random import Random
from typing import Callable
from weakref import WeakKeyDictionary

from . import autos
from .semidirect import QElement, aut_act_on_Zn, semi_inv, semi_mul
from .symwords import (
    C, alphabet, interpret, is_generator, signed_alphabet, std_basis, token_inv,
)
from .twisted import (
    DEFAULT_SEED, _neg, _twisted_commutator, aut_basis, interpret_aut, iota1, iota2,
)
from .words import Fields, Frozen, _set


class ExtGroup(Fields):
    """Hooks defining the extension: the kernel automorphism ``phi`` per
    quotient element and the kernel-valued 2-cochain ``gamma``, which
    ``cocycle_check`` checks, and the kernel parts of a product and of an
    inverse, which ``ext_mul`` and ``ext_inv`` take: ``mul(k1, q1, k2, q2)``
    is ``k1 phi(q1)(k2) gamma(q1, q2)``, and ``inv(k, q, q_inv)`` is
    ``phi(q)^-1(k^-1 gamma(q, q_inv)^-1)``.  Groups compare by identity, so
    each keys its own generator images in ``phi_inverse_word``."""

    __slots__ = ("n", "phi", "gamma", "mul", "inv", "kernel_identity", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, phi: Callable, gamma: Callable, mul: Callable,
                 inv: Callable, kernel_identity: autos.Endo):
        # phi (q, k) -> k, gamma (q1, q2) -> k, mul (k1, q1, k2, q2) -> k,
        # inv (k, q, q_inv) -> k
        self.n, self.phi, self.gamma = n, phi, gamma
        self.mul, self.inv, self.kernel_identity = mul, inv, kernel_identity

    def identity(self) -> "ExtElement":
        qid = QElement((0,) * self.n, autos.identity(aut_basis(self.n)))
        return ExtElement(self.kernel_identity, qid)


class ExtElement(Frozen):
    __slots__ = ("k", "q")

    def __init__(self, k: autos.Endo, q: QElement):
        _set(self, "k", k)
        _set(self, "q", q)


def ext_mul(group: ExtGroup, g1: ExtElement, g2: ExtElement) -> ExtElement:
    k = group.mul(g1.k, g1.q, g2.k, g2.q)
    return ExtElement(k, semi_mul(g1.q, g2.q))


def ext_inv(group: ExtGroup, g: ExtElement) -> ExtElement:
    """Two-sided inverse: solve (k, q)(k', q') = 1 for (k', q')."""
    q_inv = semi_inv(g.q)
    return ExtElement(group.inv(g.k, g.q, q_inv), q_inv)


def ext_eq(g1: ExtElement, g2: ExtElement) -> bool:
    return g1.k == g2.k and g1.q.z == g2.q.z and g1.q.a == g2.q.a


def is_ext_identity(group: ExtGroup, g: ExtElement) -> bool:
    return ext_eq(g, group.identity())


# ---------------------------------------------------------------------------
# the concrete model over the Torelli Birman kernel


def birman_ext(n: int) -> ExtGroup:
    """The extension data induced by the twisted commutator at rank n."""
    one = autos.identity(std_basis(n))
    # q -> L_q (see the module docstring), for as long as q is alive
    lifts = WeakKeyDictionary()

    def lift(q: QElement) -> autos.Endo:
        L = lifts.get(q)
        if L is None:
            L = lifts[q] = iota2(q.z, n) * iota1(q.a, n)
        return L

    def phi(q: QElement, k: autos.Endo) -> autos.Endo:
        if k is one:
            return k
        L = lift(q)
        return L * k * L.inverse()

    def gamma(q1: QElement, q2: QElement) -> autos.Endo:
        # iota2(z1) lambda_bar(a1, z2) iota2(-z1), with the y-transvection
        # iota2(-(a1 . z2)) moved past iota2(-z1): y-transvections commute
        if not any(q2.z):
            return one
        moved = aut_act_on_Zn(q1.a, q2.z)
        return _twisted_commutator(lift(q1), q2.z, moved, n)

    def mul(k1: autos.Endo, q1: QElement, k2: autos.Endo, q2: QElement) -> autos.Endo:
        # (k1 L)((k2 iota2(z2))(L^-1 iota2(-(a1 . z2)))): see the module docstring
        if not any(q2.z):
            if k2 is one:
                return k1
            L = lift(q1)
            return (k1 * L) * (k2 * L.inverse())
        L = lift(q1)
        moved = aut_act_on_Zn(q1.a, q2.z)
        tail = L.inverse() * iota2(_neg(moved), n)
        return (k1 * L) * ((k2 * iota2(q2.z, n)) * tail)

    def inv(k: autos.Endo, q: QElement, q_inv: QElement) -> autos.Endo:
        # (L^-1 k^-1)(iota1(a) iota2(-z')), q^-1 = (z', a^-1)
        L = lift(q)
        return (L.inverse() * k.inverse()) * (iota1(q.a, n) * iota2(_neg(q_inv.z), n))

    return ExtGroup(
        n=n,
        phi=phi,
        gamma=gamma,
        mul=mul,
        inv=inv,
        kernel_identity=one,
    )


def forward(group: ExtGroup, g: ExtElement) -> autos.Endo:
    """The comparison map into Aut(F_{n,1}): k * iota2(z) * iota1(a)."""
    return g.k * iota2(g.q.z, group.n) * iota1(g.q.a, group.n)


def random_q(n: int, rng: Random) -> QElement:
    sa = signed_alphabet("S_A", n)
    word = tuple(rng.choice(sa) for _ in range(rng.randint(0, 4)))
    z = tuple(rng.randint(-2, 2) for _ in range(n))
    return QElement(z, interpret_aut(word, n))


def random_kernel(n: int, rng: Random) -> autos.Endo:
    big = std_basis(n)
    sk = alphabet("S_K", n)
    word = []
    for _ in range(rng.randint(0, 4)):
        t = rng.choice(sk)
        word.append(t if rng.random() < 0.5 else token_inv(t))
    return interpret(tuple(word), big)


def random_element(group: ExtGroup, rng: Random) -> ExtElement:
    return ExtElement(random_kernel(group.n, rng), random_q(group.n, rng))


def cocycle_check(group: ExtGroup, samples: int = 100, seed: int = DEFAULT_SEED) -> list:
    """Verify the two identities that make ext_mul associative.

    Returns a failure list of (identity-name, witness) pairs; empty means
    every sampled instance holds.
    """
    rng = Random(seed)
    failures = []
    for case in range(samples):
        q1, q2 = random_q(group.n, rng), random_q(group.n, rng)
        k = random_kernel(group.n, rng)
        g12 = group.gamma(q1, q2)
        # phi(q1, phi(q2, k)) == g12 phi(q1 q2, k) g12^-1, multiplied on
        # the right by g12 so that no inverse is built
        lhs = group.phi(q1, group.phi(q2, k)) * g12
        if lhs != g12 * group.phi(semi_mul(q1, q2), k):
            failures.append(("conjugation-identity", f"case {case}"))
    for case in range(samples):
        q1, q2, q3 = (random_q(group.n, rng) for _ in range(3))
        lhs = group.gamma(q1, q2) * group.gamma(semi_mul(q1, q2), q3)
        rhs = group.phi(q1, group.gamma(q2, q3)) * group.gamma(q1, semi_mul(q2, q3))
        if lhs != rhs:
            failures.append(("cocycle-identity", f"case {case}"))
    return failures


# ---------------------------------------------------------------------------
# rebuilding the y-stabilizer generator by generator


def phi_inverse_gen(tok, group: ExtGroup) -> ExtElement:
    """Image of one presentation generator of the y-stabilizer.

    Transvections among the x's, swaps, and inversions land in the
    Aut(F_n) coordinate; M[x_a, y] lands in the Z^n coordinate;
    C[y, x_a] lands in the kernel; M[x_a^-1, y] is the composite
    kernel-conjugation * inverse-y-transvection.  A token that is not a
    generator of S_C raises ``ValueError``.
    """
    n = group.n
    if not is_generator(tok, "S_C", n):
        raise ValueError(f"not a presentation generator: {tok!r}")
    big = std_basis(n)
    y = big.y(1)
    qid = autos.identity(aut_basis(n))
    zero = (0,) * n
    if tok[0] == "C":
        return ExtElement(interpret((tok,), big), QElement(zero, qid))
    if tok[0] != "M" or tok[2][0] != y:
        return ExtElement(group.kernel_identity, QElement(zero, interpret_aut((tok,), n)))
    a, alpha = tok[1]
    e_a = tuple(1 if i == a else 0 for i in range(n))
    y_part = ExtElement(group.kernel_identity, QElement(e_a, qid))
    if alpha == 1:
        return y_part
    con = ExtElement(interpret((C(a, y),), big), QElement(zero, qid))
    return ext_mul(group, con, ext_inv(group, y_part))


# group -> {signed S_C token: its image}, for as long as the group is alive
_GENERATOR_IMAGES = WeakKeyDictionary()


def phi_inverse_word(tokens, group: ExtGroup) -> ExtElement:
    """Extend phi_inverse_gen multiplicatively over a word (inverse tokens
    map to inverses).

    The image of each signed token is built once per group and kept: a
    generator's by ``phi_inverse_gen``, an inverse's by ``ext_inv`` of its
    generator's image.
    """
    images = _GENERATOR_IMAGES.get(group)
    if images is None:
        images = _GENERATOR_IMAGES[group] = {}
    out = group.identity()
    for tok in tokens:
        g = images.get(tok)
        if g is None:
            g = images[tok] = _signed_image(tok, images, group)
        out = ext_mul(group, out, g)
    return out


def _signed_image(tok, images: dict, group: ExtGroup) -> ExtElement:
    if is_generator(tok, "S_C", group.n):
        return phi_inverse_gen(tok, group)
    gen = token_inv(tok)
    g = images.get(gen)
    if g is None:
        g = images[gen] = phi_inverse_gen(gen, group)
    return ext_inv(group, g)
