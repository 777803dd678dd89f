import random

import pytest

from torellikit import twisted
from torellikit.autos import Endo, classify, identity, transvection
from torellikit.lpres import nielsen_relators, zn_relators
from torellikit.symwords import (
    C,
    I,
    M,
    Mc,
    alphabet,
    interpret,
    signed_alphabet,
    std_basis,
    token_inv,
)
from torellikit.twisted import (
    _act_on_Zn,
    aut_basis,
    canonical_zword,
    interpret_aut,
    iota1,
    iota2,
    lambda_bar,
    lambda_gen,
    tb3_failures,
    tb_check,
    tlambda1,
    tlambda2,
    zn_vector,
)
from torellikit.semidirect import aut_act_on_Zn
from torellikit.words import _LETTERS, Word

N = 3
B = std_basis(N)
Y = B.y(1)


def test_lambda_bar_degenerate_and_kernel():
    assert lambda_bar((), (1, 0, 0), N).is_identity
    assert lambda_bar((M(0, 1, 1),), (0,) * N, N).is_identity
    rng = random.Random(2)
    sa = signed_alphabet("S_A", N)
    for _ in range(30):
        w = tuple(rng.choice(sa) for _ in range(rng.randint(0, 5)))
        z = tuple(rng.randint(-2, 2) for _ in range(N))
        assert classify(lambda_bar(w, z, N)).in_KIA


def test_aut_basis_is_shared_and_iota1_lifts_verbatim():
    assert aut_basis(3) is aut_basis(3)
    rng = random.Random(0x11F7)
    for n in (2, 3):
        big = std_basis(n)
        sa = signed_alphabet("S_A", n)
        for _ in range(40):
            w = tuple(rng.choice(sa) for _ in range(rng.randint(0, 6)))
            f = interpret_aut(w, n)
            assert f.basis is aut_basis(n)
            lifted = iota1(f, n)
            assert lifted == interpret(w, big) and lifted.basis is big
            assert lifted.factors == interpret(w, big).factors
            for image in lifted.images:
                assert image.basis is big
                assert all(letter is _LETTERS[letter] for letter in image.letters)
            z = tuple(rng.randint(-3, 3) for _ in range(n))
            # a token word acts token by token, an automorphism at once
            assert _act_on_Zn(w, z, n) == aut_act_on_Zn(f, z)
            assert lambda_bar(w, z, n) == lambda_bar(f, z, n)


def test_shared_bases_hold_the_shared_identity(monkeypatch):
    # an equal basis meets autos.identity before the shared bases are made
    from torellikit import autos, symwords
    from torellikit.words import Basis

    monkeypatch.setattr(autos, "_IDENTITIES", {})
    monkeypatch.setattr(twisted, "_AUT_BASES", {})
    monkeypatch.setattr(symwords, "_STD_BASES", {})
    small, big = identity(Basis(2, 0)), identity(Basis(2, 1))
    assert interpret_aut((), 2) is small and small.basis is aut_basis(2)
    assert identity(std_basis(2)) is big and big.basis is std_basis(2)


def _iota2_by_fold(z, n):
    """The y-transvection product as a fold of powers, the reference for
    the closed form."""
    big = std_basis(n)
    out = identity(big)
    for i, zi in enumerate(z):
        step = transvection(big, big.x(i + 1), 1, big.word("y1"))
        if zi < 0:
            step = step.inverse()
        for _ in range(abs(zi)):
            out = out * step
    return out


def test_iota2_closed_form_matches_the_fold():
    rng = random.Random(0x10A2)
    for n in (2, 3):
        vectors = [(0,) * n, (1,) + (-1,) * (n - 1), (-4,) + (0,) * (n - 2) + (4,)]
        vectors += [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(40)]
        for z in vectors:
            neg = tuple(-c for c in z)
            closed = iota2(z, n)
            fold = _iota2_by_fold(z, n)
            assert closed == fold
            assert closed.factors == fold.factors
            assert closed.inverse() == iota2(neg, n)
            assert (closed * iota2(neg, n)).is_identity
            for image in closed.images:
                assert all(letter is _LETTERS[letter] for letter in image.letters)


def test_iota2_is_built_once_per_vector_and_rank():
    assert iota2([1, -2, 0], 3) is iota2((1, -2, 0), 3)
    iota2((1, 1), 2)
    with pytest.raises(ValueError, match="does not match the rank"):
        iota2((1, 1), 3)
    with pytest.raises(ValueError, match="does not match the rank"):
        iota2([1, 1, 1, 1], 3)
    rng = random.Random(0x10A3)
    for n in (2, 3):
        assert iota2((0,) * n, n) is identity(std_basis(n))
        for _ in range(20):
            z = [rng.randint(-3, 3) for _ in range(n)]
            assert iota2(z, n).inverse() == iota2([-c for c in z], n)


def test_iota2_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(twisted, "_IOTA2", {})
    big = std_basis(2)
    y = big.y(1)
    vectors = [(a, b) for a in range(-33, 33) for b in range(-33, 33)]
    assert len(vectors) > twisted._IOTA2_CAP == 4096
    for z in vectors:
        f = iota2(z, 2)
        assert len(twisted._IOTA2) <= twisted._IOTA2_CAP
        for i, zi in enumerate(z):
            y_pow = [(y, 1 if zi > 0 else -1)] * abs(zi)
            assert f.images[i] == Word(big, y_pow + [(big.x(i + 1), 1)])
        assert f.images[y] == Word(big, [(y, 1)])


def test_lambda_gen_table_rows():
    from torellikit.symwords import P

    e1 = (1, 0, 0)
    # inversion against its own y-transvection
    assert lambda_gen(I(0), M(0, 1, Y), N) == (C(0, Y),)
    assert lambda_gen(I(0), token_inv(M(0, 1, Y)), N) == (C(0, Y, -1),)
    assert interpret(lambda_gen(I(0), M(0, 1, Y), N), B) == lambda_bar((I(0),), e1, N)
    # transvection against the y-transvection at its moving letter
    assert lambda_gen(M(0, 1, 1), M(0, 1, Y), N) == (Mc(0, 1, Y, -1, 1, -1),)
    # default entries are trivial
    assert lambda_gen(P(0, 1), M(2, 1, Y), N) == ()
    assert lambda_gen(I(0), M(1, 1, Y), N) == ()
    # tokens outside S_A^+-1 and S_Z^+-1 are rejected, not misread
    with pytest.raises(ValueError):
        lambda_gen(("P", 0, 8), M(0, 1, Y), N)  # swap code out of range
    with pytest.raises(ValueError):
        zn_vector(M(0, 1, 1), N)  # an S_A transvection, not a y-transvection


def test_lambda_gen_matches_twisted_commutator_exhaustively():
    for f in signed_alphabet("S_A", N):
        for z in signed_alphabet("S_Z", N):
            sym = lambda_gen(f, z, N)
            assert interpret(sym, B) == lambda_bar((f,), zn_vector(z, N), N)


def test_tlambda1_base_cases_and_relators():
    assert not tlambda1(M(0, 1, 1), (), N)
    sz = signed_alphabet("S_Z", N)
    relators = [inst.word.tokens for inst in zn_relators(N)]
    relators += [(s, token_inv(s)) for s in sz]
    for f in signed_alphabet("S_A", N):
        for r in relators:
            value = tlambda1(f, r, N)
            assert interpret(value.tokens, B).is_identity


def test_tlambda1_expansion_identity():
    # the letterwise expansion satisfies the crossed-homomorphism shape
    rng = random.Random(6)
    sz = signed_alphabet("S_Z", N)
    sa = signed_alphabet("S_A", N)
    for _ in range(100):
        f = rng.choice(sa)
        w1 = tuple(rng.choice(sz) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(sz) for _ in range(rng.randint(0, 3)))
        lhs = interpret(tlambda1(f, w1 + w2, N).tokens, B)
        f_aut = interpret_aut((f,), N)
        w1_vec = [0] * N
        for tok in w1:
            w1_vec = [a + b for a, b in zip(w1_vec, zn_vector(tok, N))]
        moved = aut_act_on_Zn(f_aut, tuple(w1_vec))
        conj = iota2(moved, N)
        rhs = interpret(tlambda1(f, w1, N).tokens, B) * (
            conj * interpret(tlambda1(f, w2, N).tokens, B) * conj.inverse()
        )
        assert lhs == rhs


def test_tlambda_well_defined_under_relator_insertion():
    rng = random.Random(16)
    sz = signed_alphabet("S_Z", N)
    sa = signed_alphabet("S_A", N)
    z_relators = [inst.word.tokens for inst in zn_relators(N)]
    z_relators += [(s, token_inv(s)) for s in sz]
    for _ in range(40):
        f = rng.choice(sa)
        w = tuple(rng.choice(sz) for _ in range(rng.randint(0, 4)))
        r = rng.choice(z_relators)
        pos = rng.randint(0, len(w))
        grown = w[:pos] + r + w[pos:]
        assert interpret(tlambda1(f, grown, N).tokens, B) == interpret(
            tlambda1(f, w, N).tokens, B
        )
    a_relators = [inst.word.tokens for inst in nielsen_relators(N)]
    a_relators += [(s, token_inv(s)) for s in sa]
    for _ in range(15):
        w = tuple(rng.choice(sa) for _ in range(rng.randint(0, 3)))
        r = rng.choice(a_relators)
        pos = rng.randint(0, len(w))
        grown = w[:pos] + r + w[pos:]
        z = tuple(rng.randint(-2, 2) for _ in range(N))
        assert interpret(tlambda2(grown, z, N).tokens, B) == interpret(
            tlambda2(w, z, N).tokens, B
        )


def test_tlambda2_nielsen_relators_die():
    units = [tuple(int(i == j) for i in range(N)) for j in range(N)]
    for inst in nielsen_relators(N):
        for e in units:
            assert interpret(tlambda2(inst.word.tokens, e, N).tokens, B).is_identity
    for s in signed_alphabet("S_A", N):
        for e in units:
            word = (s, token_inv(s))
            assert interpret(tlambda2(word, e, N).tokens, B).is_identity


def test_tlambda2_expansion_identity():
    # the two-sided expansion shape over a split first argument
    rng = random.Random(23)
    sa = signed_alphabet("S_A", N)
    for _ in range(60):
        w1 = tuple(rng.choice(sa) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(sa) for _ in range(rng.randint(0, 3)))
        z = tuple(rng.randint(-2, 2) for _ in range(N))
        lhs = interpret(tlambda2(w1 + w2, z, N).tokens, B)
        conj = iota1(interpret_aut(w1, N), N)
        moved_z = aut_act_on_Zn(interpret_aut(w2, N), z)
        rhs = (
            conj * interpret(tlambda2(w2, z, N).tokens, B) * conj.inverse()
        ) * interpret(tlambda2(w1, moved_z, N).tokens, B)
        assert lhs == rhs


def test_tlambda2_matches_twisted_commutator():
    rng = random.Random(0x5EED)
    sa = signed_alphabet("S_A", N)
    for _ in range(100):
        w = tuple(rng.choice(sa) for _ in range(rng.randint(0, 5)))
        z = tuple(rng.randint(-3, 3) for _ in range(N))
        assert interpret(tlambda2(w, z, N).tokens, B) == lambda_bar(w, z, N)


def test_canonical_zword():
    toks = canonical_zword((2, 0, -1), N)
    assert toks == (M(0, 1, Y), M(0, 1, Y), ("M", (2, 1), (Y, -1)))


def _post_compose_on_inversions(monkeypatch, n, hit):
    """Replace ``twisted.lambda_bar`` by itself followed by C[x1,y] on
    every ``a`` that ``hit`` selects."""
    basis = std_basis(n)
    shift = interpret((C(basis.x(1), basis.y(1)),), basis)

    def lam(a, b, rank):
        value = lambda_bar(a, b, rank)
        return value * shift if hit(a) else value

    monkeypatch.setattr(twisted, "lambda_bar", lam)


def test_tb_axioms_hold_and_can_fail(monkeypatch):
    for nn in (2, 3):
        assert tb_check(nn, samples=40) == []
    # corrupting the map wherever a holds an inversion breaks each axiom
    _post_compose_on_inversions(
        monkeypatch, 2, lambda a: any(t[0] == "I" for t in a))
    failures = tb_check(2, samples=40)
    assert {axiom for axiom, _ in failures} == {"TB1", "TB2", "TB3"}


def test_tb3_exhaustive_and_mutation(monkeypatch):
    # TB3 on the S_A x S_Z grid with k over all of S_K; corrupting the map
    # on the inversions must break it there and only there
    n = 2
    basis = std_basis(n)
    ks = [interpret((t,), basis) for t in alphabet("S_K", n)]
    grid = [((f,), zn_vector(z, n)) for f in alphabet("S_A", n) for z in alphabet("S_Z", n)]

    def failing():
        return [(a, b) for a, b in grid if next(tb3_failures(a, b, ks, n), None) is not None]

    assert failing() == []
    _post_compose_on_inversions(
        monkeypatch, n, lambda a: len(a) == 1 and a[0][0] == "I")
    assert failing() == [(a, b) for a, b in grid if a[0][0] == "I"]


def _tb3_five_conjugations(a, b, ks, n):
    """TB3 as its five conjugations, composed one after another:
    lam (a.b).(a.k) lam^-1 against a.(b.k), ``a`` acting by conjugation
    with iota1(a), a vector by conjugation with its iota2.  The reference
    for the two fixed conjugators of ``tb3_failures``."""
    lam = twisted.lambda_bar(a, b, n)
    lift = iota1(a, n)
    moved = _act_on_Zn(a, b, n)
    up, down = iota2(moved, n), iota2(tuple(-c for c in moved), n)
    for idx, k in enumerate(ks):
        a_k = lift * k * lift.inverse()
        lhs = lam * (up * a_k * down) * lam.inverse()
        b_k = iota2(b, n) * k * iota2(tuple(-c for c in b), n)
        if lhs != lift * b_k * lift.inverse():
            yield idx


@pytest.mark.parametrize("n", [2, 3])
def test_tb3_failures_equal_the_five_conjugations(monkeypatch, n):
    basis = std_basis(n)
    ks = [interpret((t,), basis) for t in alphabet("S_K", n)]
    grid = [((f,), zn_vector(z, n)) for f in alphabet("S_A", n)
            for z in alphabet("S_Z", n)]

    def failing(check):
        return [list(check(a, b, ks, n)) for a, b in grid]

    assert failing(tb3_failures) == failing(_tb3_five_conjugations)
    _post_compose_on_inversions(
        monkeypatch, n, lambda a: len(a) == 1 and a[0][0] == "I")
    patched = failing(tb3_failures)
    assert patched == failing(_tb3_five_conjugations)
    assert [bool(idx) for idx in patched] == [a[0][0] == "I" for a, _ in grid]


@pytest.mark.parametrize("n", [2, 3])
def test_tb3_failures_decides_a_correct_lambda_bar_without_inverting(monkeypatch, n):
    # Y = lambda_bar(a, b) iota2(a.b) iota1(a) is Z = iota1(a) iota2(b)
    # for the lambda_bar defined, so neither is inverted; a corrupted map
    # makes them differ, and the per-k check inverts both
    basis = std_basis(n)
    ks = [interpret((t,), basis) for t in alphabet("S_K", n)]
    grid = [((f,), zn_vector(z, n)) for f in alphabet("S_A", n)
            for z in alphabet("S_Z", n)]
    inverted = []
    inverse = Endo.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(Endo, "inverse", counted)

    def inverts_Z():
        out = []
        for a, b in grid:
            inverted.clear()
            list(tb3_failures(a, b, ks, n))
            Z = iota1(a, n) * iota2(b, n)
            out.append(any(f == Z for f in inverted))
        return out

    assert inverts_Z() == [False] * len(grid)
    _post_compose_on_inversions(
        monkeypatch, n, lambda a: len(a) == 1 and a[0][0] == "I")
    assert inverts_Z() == [a[0][0] == "I" for a, _ in grid]
