import random

import pytest

from torellikit import intmat
from torellikit.autos import (
    Endo, classify, conjugation, identity, inversion, swap, transvection,
)
from torellikit.semidirect import (
    QElement,
    aut_act_on_Zn,
    gl_act_on_Zn,
    random_stabilizer,
    semi_inv,
    semi_mul,
    stab_compose,
    stab_decompose,
)
from torellikit.symwords import alphabet, signed_alphabet
from torellikit.twisted import interpret_aut, iota1, iota2
from torellikit.words import Basis, Word


def semi_identity(n: int) -> QElement:
    return QElement((0,) * n, identity(Basis(n, 0)))


def is_semi_identity(q: QElement) -> bool:
    return not any(q.z) and q.a.is_identity


def test_stab_decompose_basics():
    assert stab_decompose(intmat.identity(4)) == ((0, 0, 0), intmat.identity(3))
    m = ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    assert stab_decompose(m) == ((1, 0), intmat.identity(2))
    with pytest.raises(ValueError):
        stab_decompose(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="det = 2"):
        stab_decompose(((2, 0, 0), (0, 1, 0), (1, 1, 1)))


def test_stab_decompose_is_homomorphism():
    rng = random.Random(0x5EED)
    for _ in range(100):
        m1 = random_stabilizer(3, rng)
        m2 = random_stabilizer(3, rng)
        z1, b1 = stab_decompose(m1)
        z2, b2 = stab_decompose(m2)
        z12, b12 = stab_decompose(intmat.matmul(m1, m2))
        assert b12 == intmat.matmul(b1, b2)
        assert z12 == tuple(a + b for a, b in zip(z1, gl_act_on_Zn(b1, z2)))
        assert stab_compose(z1, b1) == m1


def test_aut_act_examples():
    b2 = Basis(2, 0)
    assert aut_act_on_Zn(identity(b2), (3, -1)) == (3, -1)
    assert aut_act_on_Zn(swap(b2, 0, 1), (2, 3)) == (3, 2)
    assert aut_act_on_Zn(inversion(b2, 0), (2, 3)) == (-2, 3)
    m = transvection(b2, 0, 1, b2.word("x2"))
    assert aut_act_on_Zn(m, (1, 0)) == (1, 0)
    assert aut_act_on_Zn(m, (0, 1)) == (-1, 1)


def test_aut_act_is_left_action():
    rng = random.Random(1)
    b3 = Basis(3, 0)
    gens = [
        transvection(b3, 0, 1, b3.word("x2")),
        transvection(b3, 1, -1, b3.word("x3")),
        swap(b3, 0, 2),
        inversion(b3, 1),
    ]
    for _ in range(100):
        f = gens[rng.randrange(4)] * gens[rng.randrange(4)]
        g = gens[rng.randrange(4)] * gens[rng.randrange(4)]
        z = tuple(rng.randint(-4, 4) for _ in range(3))
        assert aut_act_on_Zn(f * g, z) == aut_act_on_Zn(f, aut_act_on_Zn(g, z))


def _act_by_matrix(a, z):
    """The reference: ``(eta(a)^-1)^t z`` through the inverted matrix."""
    dual = intmat.transpose(intmat.inverse_unimodular(a.abel_matrix()))
    return intmat.matvec(dual, z)


def test_aut_act_folds_each_atom_kind_as_the_matrix_does():
    rng = random.Random(0xD0A1)
    b = Basis(3, 1)
    atoms = [
        transvection(b, 0, alpha, Word(b, ((v, sign),)))
        for alpha in (1, -1) for v in (1, 3) for sign in (1, -1)
    ]
    atoms += [
        transvection(b, 1, alpha, b.word("x1 y1^-1 x3 x3"))
        for alpha in (1, -1)
    ]
    atoms += [conjugation(b, 0, 3, gamma) for gamma in (1, -1)]
    atoms += [conjugation(b, 3, 2), swap(b, 0, 2), inversion(b, 1)]
    for f in atoms:
        for _ in range(10):
            z = tuple(rng.randint(-4, 4) for _ in range(b.size))
            assert aut_act_on_Zn(f, z) == _act_by_matrix(f, z), (f, z)
            assert aut_act_on_Zn(f.inverse(), z) == _act_by_matrix(f.inverse(), z)


def test_aut_act_on_drawn_words_is_the_matrix_formula():
    rng = random.Random(0xD0A2)
    for n in (2, 3, 4):
        sa = signed_alphabet("S_A", n)
        for _ in range(60):
            w = tuple(rng.choice(sa) for _ in range(rng.randint(0, 8)))
            f = interpret_aut(w, n)
            z = tuple(rng.randint(-5, 5) for _ in range(n))
            assert aut_act_on_Zn(f, z) == _act_by_matrix(f, z), (w, z)


def test_aut_act_needs_a_factorization():
    b2 = Basis(2, 0)
    f = Endo(b2, transvection(b2, 0, 1, b2.word("x2")).images)
    with pytest.raises(ValueError, match="without a factorization"):
        aut_act_on_Zn(f, (1, 0))
    with pytest.raises(ValueError, match="does not match"):
        aut_act_on_Zn(identity(b2), (1, 0, 0))


def test_semi_mul_and_inverse():
    rng = random.Random(2)
    b2 = Basis(2, 0)
    f = transvection(b2, 0, 1, b2.word("x2"))
    e = identity(b2)
    assert semi_mul(QElement((1, 2), e), QElement((3, -1), e)).z == (4, 1)
    assert semi_mul(QElement((0, 0), f), QElement((0, 0), f)).a == f * f
    qs = [QElement(
        tuple(rng.randint(-3, 3) for _ in range(2)),
        (e, f, f * f)[rng.randint(0, 2)] * (e, swap(b2, 0, 1))[rng.randint(0, 1)],
    ) for _ in range(30)]
    for q in qs:
        assert is_semi_identity(semi_mul(q, semi_inv(q)))
        assert is_semi_identity(semi_mul(semi_inv(q), q))
    for _ in range(100):
        q1, q2, q3 = (rng.choice(qs) for _ in range(3))
        lhs = semi_mul(semi_mul(q1, q2), q3)
        rhs = semi_mul(q1, semi_mul(q2, q3))
        assert lhs.z == rhs.z and lhs.a == rhs.a
    assert is_semi_identity(semi_identity(2))


def test_action_compatible_with_birman_sequence():
    # iota1(s) iota2(e_a) iota1(s)^-1 iota2(s . e_a)^-1 lies in the Torelli
    # Birman kernel: pins the inverse-transpose convention semantically.
    n = 2
    for s in alphabet("S_A", n):
        f = interpret_aut((s,), n)
        for a in range(n):
            e_a = tuple(int(i == a) for i in range(n))
            g = (
                iota1(f, n)
                * iota2(e_a, n)
                * iota1(f, n).inverse()
                * iota2(aut_act_on_Zn(f, e_a), n).inverse()
            )
            assert classify(g).in_KIA


def test_random_stabilizer_entries_bounded():
    rng = random.Random(3)
    for _ in range(50):
        m = random_stabilizer(3, rng)
        assert all(abs(x) <= 5 for row in m for x in row)
        assert intmat.det(m) in (1, -1)
