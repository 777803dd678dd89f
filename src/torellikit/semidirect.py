"""The semidirect product Z^n x| Aut(F_n) with the inverse-transpose action.

The stabilizer of the last basis vector inside GL_{n+1}(Z) decomposes as
pairs (vector, n x n block); the action of Aut(F_n) on Z^n underlying the
product is the natural right action of GL_n(Z) on row vectors converted to
a left action, i.e. ``a . z = (eta(a)^-1)^t z`` where eta is the
abelianization matrix.

An automorphism ``g_1 ... g_m`` acts by ``dual(g_1) ... dual(g_m) z``, with
``dual(g) = eta(g^-1)^t``: coordinate c of ``eta(h)^t z`` is ``z`` summed,
with signs, over the letters of ``h(x_c)``, which ``autos._atom_moves``
gives for an inverted atom.  So the factor atoms fold on z, with no matrix.
"""

from __future__ import annotations

from . import intmat
from .autos import Endo, _atom_inverse, _atom_moves
from .words import Frozen, _set


def gl_act_on_Zn(mat, z) -> tuple:
    """Left action ``(mat^-1)^t z`` of a GL_n(Z) matrix on Z^n."""
    return intmat.matvec(intmat.transpose(intmat.inverse_unimodular(mat)), tuple(z))


def atoms_act_on_Zn(atoms, z) -> tuple:
    """``g_1 ... g_m . z`` for factor atoms, the rightmost acting first."""
    z = list(z)
    for atom in reversed(atoms):
        moved = [(code, sum([z[c] * sign for c, sign in letters]))
                 for code, letters in _atom_moves(_atom_inverse(atom))]
        for code, value in moved:
            z[code] = value
    return tuple(z)


def aut_act_on_Zn(a: Endo, z) -> tuple:
    """Left action ``(eta(a)^-1)^t z`` of an automorphism on an integer
    vector, folded over the factorization ``a`` must carry."""
    if len(z) != a.basis.size:
        raise ValueError("vector length does not match the basis rank")
    if a.factors is None:
        raise ValueError("cannot act on Z^n without a factorization")
    return atoms_act_on_Zn(a.factors, z)


def stab_decompose(mat) -> tuple:
    """Split a stabilizer matrix into its (vector, block) coordinates.

    The input must fix the last basis vector: its last column is
    (0, ..., 0, 1)^t.  Writing the matrix in blocks as ``[[B, 0], [r^t, 1]]``
    the result is ``((B^-1)^t r, B)``; this is a group isomorphism onto
    Z^n x|_r GL_n(Z).
    """
    m = len(mat)
    n = m - 1
    if any(mat[i][n] != (1 if i == n else 0) for i in range(m)):
        raise ValueError("matrix does not stabilize the last basis vector")
    block = tuple(tuple(mat[i][j] for j in range(n)) for i in range(n))
    row = tuple(mat[n][j] for j in range(n))
    return gl_act_on_Zn(block, row), block


def stab_compose(z, block) -> tuple:
    """Inverse of :func:`stab_decompose`: rebuild the stabilizer matrix."""
    n = len(block)
    row = intmat.matvec(intmat.transpose(block), tuple(z))
    mat = [list(block[i]) + [0] for i in range(n)]
    mat.append(list(row) + [1])
    return tuple(tuple(r) for r in mat)


class QElement(Frozen):
    """An element (z, a) of Z^n x|_r Aut(F_n); ``a`` must be factored so it
    can be inverted."""

    __slots__ = ("z", "a", "__weakref__")

    def __init__(self, z: tuple, a: Endo):
        z = tuple(z)
        if len(z) != a.basis.size:
            raise ValueError("vector length does not match the automorphism rank")
        if a.factors is None:
            raise ValueError("the automorphism part must carry a factorization")
        _set(self, "z", z)
        _set(self, "a", a)


def semi_mul(q1: QElement, q2: QElement) -> QElement:
    if len(q1.z) != len(q2.z):
        raise ValueError("rank mismatch")
    moved = aut_act_on_Zn(q1.a, q2.z)
    return QElement(tuple(a + b for a, b in zip(q1.z, moved)), q1.a * q2.a)


def semi_inv(q: QElement) -> QElement:
    a_inv = q.a.inverse()
    moved = aut_act_on_Zn(a_inv, q.z)
    return QElement(tuple(-c for c in moved), a_inv)


def random_unimodular(n: int, rng, bound: int = 5, steps: int = 12) -> tuple:
    """A pseudorandom GL_n(Z) matrix with entries bounded by ``bound``.

    Built as a product of random elementary, swap, and sign matrices;
    factors that would push an entry past the bound are skipped, so the
    walk is deterministic given the generator state.
    """
    mat = [list(row) for row in intmat.identity(n)]
    done = 0
    while done < steps:
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            new_row = [mat[i][t] + c * mat[j][t] for t in range(n)]
            if all(abs(v) <= bound for v in new_row):
                mat[i] = new_row
        elif kind == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            mat[i], mat[j] = mat[j], mat[i]
        else:
            i = rng.randrange(n)
            mat[i] = [-v for v in mat[i]]
        done += 1
    return tuple(tuple(row) for row in mat)


def random_stabilizer(n: int, rng) -> tuple:
    """A pseudorandom (n+1)x(n+1) stabilizer matrix, entries within +-5."""
    block = random_unimodular(n, rng, 5)
    row = tuple(rng.randint(-5, 5) for _ in range(n))
    mat = [list(block[i]) + [0] for i in range(n)]
    mat.append(list(row) + [1])
    return tuple(tuple(r) for r in mat)
