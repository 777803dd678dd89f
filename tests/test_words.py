import random

import pytest

from torellikit.words import (
    _LETTERS,
    Basis,
    Word,
    _reduce,
    commutator,
    is_conjugate,
)


B21 = Basis(2, 1)


def rand_word(basis, rng, max_len=8):
    letters = [
        (rng.randrange(basis.size), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    ]
    return Word(basis, letters)


def test_reduce_cancellation():
    assert B21.word("x1 x1^-1").letters == ()
    assert B21.word("y1 x1 x1^-1 y1^-1").letters == ()
    assert str(B21.word("x1 x2 x2")) == "x1 x2 x2"


def test_reduce_idempotent_on_samples():
    rng = random.Random(7)
    for _ in range(1000):
        w = rand_word(B21, rng)
        assert Word(B21, w.letters).letters == w.letters


def test_mul_inv_basics():
    assert not B21.word("x1") * B21.word("x1^-1")
    assert B21.word("x1 y1").inv() == B21.word("y1^-1 x1^-1")
    assert B21.word("x1 x2") * B21.word("x2^-1 y1") == B21.word("x1 y1")
    assert B21.word("x1") * B21.word("x2") * B21.word("x2^-1") == B21.word("x1")


def test_mul_associative_inv_involution():
    rng = random.Random(11)
    for _ in range(1000):
        u, v, w = (rand_word(B21, rng) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u.inv().inv() == u
        assert not u * u.inv()


def test_basis_mismatch_rejected():
    other = Basis(2, 0)
    with pytest.raises(ValueError):
        B21.word("x1") * other.word("x1")


def test_commutator():
    x1, y1 = B21.word("x1"), B21.word("y1")
    assert not commutator(x1, x1)
    assert not commutator(x1, B21.word(""))
    assert commutator(y1, B21.word("x2")) == B21.word("y1 x2 y1^-1 x2^-1")


def test_cyclic_reduce_and_conjugacy():
    w = B21.word("x1 y1 x1^-1")
    core, conj = w.cyclic_reduce()
    assert conj * core * conj.inv() == w
    assert core == B21.word("y1")
    assert is_conjugate(B21.word("x1 x2"), B21.word("x2 x1"))
    assert not is_conjugate(B21.word("x1"), B21.word("x2"))
    assert is_conjugate(B21.word("y1"), B21.word("x1 y1 x1^-1"))


def test_conjugacy_is_equivalence_and_invariant():
    rng = random.Random(13)
    for _ in range(200):
        u = rand_word(B21, rng, 5)
        v = rand_word(B21, rng, 5)
        t = rand_word(B21, rng, 5)
        assert is_conjugate(u, u)
        assert is_conjugate(u, v) == is_conjugate(v, u)
        assert is_conjugate(u, t * u * t.inv())
        if is_conjugate(u, v) and is_conjugate(v, t):
            assert is_conjugate(u, t)


def test_abelianize():
    assert B21.word("").abelianize() == (0, 0, 0)
    assert B21.word("x1 x2 x1").abelianize() == (2, 1, 0)
    rng = random.Random(17)
    for _ in range(200):
        u, v = rand_word(B21, rng), rand_word(B21, rng)
        assert not any(commutator(u, v).abelianize())
        assert (u * v).abelianize() == tuple(
            a + b for a, b in zip(u.abelianize(), v.abelianize())
        )


def test_parse_errors():
    with pytest.raises(ValueError):
        B21.word("x3")
    with pytest.raises(ValueError):
        B21.word("x1^2")
    with pytest.raises(ValueError):
        Basis(0, 0)


def raw_inverse(letters):
    return tuple((c, -s) for c, s in reversed(letters))


def all_shared(word):
    """Every letter is the one shared tuple for its (code, sign)."""
    return all(letter is _LETTERS[letter] for letter in word.letters)


def test_mul_and_inv_equal_reduce_of_concatenation():
    rng = random.Random(31)
    empty = B21.word("")
    for _ in range(3000):
        u = rand_word(B21, rng)
        # partners that cancel nothing, part of u, all of u, or are empty
        v = rng.choice((
            rand_word(B21, rng),
            u.inv() * rand_word(B21, rng, 3),
            Word(B21, raw_inverse(u.letters[rng.randint(0, len(u)):])),
            u.inv(),
            empty,
        ))
        for left, right in ((u, v), (v, u), (u, empty), (empty, u)):
            prod = left * right
            assert prod.letters == _reduce(left.letters + right.letters)
            assert all_shared(prod)
        inverse = u.inv()
        assert inverse.letters == _reduce(raw_inverse(u.letters))
        assert all_shared(inverse)
        assert (u * inverse).letters == ()


def test_public_constructor_shares_letters():
    rng = random.Random(37)
    for _ in range(200):
        letters = [
            [rng.randrange(B21.size), rng.choice((1, -1))]
            for _ in range(rng.randint(0, 8))
        ]
        w = Word(B21, letters)
        assert w.letters == _reduce(tuple(map(tuple, letters)))
        assert all_shared(w)
    with pytest.raises(ValueError):
        Word(B21, [(0, 2)])
