import copy
import pickle
import random

import pytest

from torellikit import autos, intmat, symwords
from torellikit.autos import (
    _SCAN,
    Endo,
    _elementary,
    _fold,
    _image_letters,
    classify,
    conjugation,
    expected_johnson_rank,
    identity,
    inversion,
    johnson,
    johnson_basis_generators,
    johnson_rank,
    lambda2_projection,
    swap,
    torelli_kernel_generators,
    transvection,
    wedge,
)
from torellikit.symwords import alphabet, interpret, std_basis
from torellikit.twisted import iota1, iota2
from torellikit.words import (
    _INVERSE,
    _LETTERS,
    Basis,
    Word,
    _inverse_letters,
    _reduce,
    commutator,
)


B21 = Basis(2, 1)


def rand_word(basis, rng, max_len=6):
    letters = [
        (rng.randrange(basis.size), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    ]
    return Word(basis, letters)


def test_transvection_sides():
    f = transvection(B21, B21.x(1), 1, B21.word("y1"))
    assert f.image(B21.x(1)) == B21.word("y1 x1")
    g = transvection(B21, B21.x(1), -1, B21.word("y1"))
    assert g.image(B21.x(1)) == B21.word("x1 y1^-1")
    v = commutator(B21.word("y1"), B21.word("x2"))
    h = transvection(B21, B21.x(1), 1, v)
    assert h.image(B21.x(1)) == B21.word("y1 x2 y1^-1 x2^-1 x1")
    with pytest.raises(ValueError):
        transvection(B21, B21.x(1), 1, B21.word("x1 y1"))


def test_conjugation_swap_inversion():
    c = conjugation(B21, B21.y(1), B21.x(1))
    assert c.image(B21.y(1)) == B21.word("x1 y1 x1^-1")
    p = swap(B21, B21.x(1), B21.x(2))
    assert p.apply(B21.word("x1")) == B21.word("x2")
    assert (p * p).is_identity
    i = inversion(B21, B21.x(1))
    assert i.apply(B21.word("x1")) == B21.word("x1^-1")
    assert (i * i).is_identity
    with pytest.raises(ValueError):
        conjugation(B21, B21.x(1), B21.x(1))
    with pytest.raises(ValueError):
        swap(B21, B21.x(1), B21.x(1))


def reference_transvection(basis, z, alpha, v):
    images = basis.generators()
    images[z] = v * images[z] if alpha == 1 else images[z] * v.inv()
    return tuple(images), (("M", z, alpha, v.letters),)


def reference_conjugation(basis, z, zp, gamma):
    images = basis.generators()
    c = Word(basis, ((zp, gamma),))
    images[z] = c * images[z] * c.inv()
    return tuple(images), (("C", z, zp, gamma),)


def reference_swap(basis, a, b):
    images = basis.generators()
    images[a], images[b] = images[b], images[a]
    return tuple(images), (("P", min(a, b), max(a, b)),)


def reference_inversion(basis, a):
    images = basis.generators()
    images[a] = images[a].inv()
    return tuple(images), (("I", a),)


def test_elementary_images_match_the_word_formulas():
    # the constructors, interpret and Endo.inverse all read the images from
    # the factor atoms; here they are rebuilt by word arithmetic instead
    def check(f, reference):
        images, factors = reference
        assert f.images == images and f.factors == factors, f
        for img in f.images:
            assert all(letter is _LETTERS[letter] for letter in img.letters)

    for basis in (Basis(2, 1), Basis(3, 2)):
        rng = random.Random(basis.size)
        codes = range(basis.size)
        xs = [basis.x(i) for i in range(1, basis.n + 1)]
        for z in codes:
            others = [c for c in codes if c != z]
            words = [Word(basis, ((c, s),)) for c in others for s in (1, -1)]
            words += [
                commutator(Word(basis, ((p, 1),)), Word(basis, ((q, -1),)))
                for p in others for q in others if p != q
            ]
            for _ in range(5):
                letters = [(rng.choice(others), rng.choice((1, -1)))
                           for _ in range(rng.randint(2, 8))]
                words.append(Word(basis, letters))
            for alpha in (1, -1):
                for v in words:
                    f = transvection(basis, z, alpha, v)
                    check(f, reference_transvection(basis, z, alpha, v))
                    check(f.inverse(), reference_transvection(basis, z, alpha, v.inv()))
            for zp in others:
                for gamma in (1, -1):
                    f = conjugation(basis, z, zp, gamma)
                    check(f, reference_conjugation(basis, z, zp, gamma))
                    check(f.inverse(), reference_conjugation(basis, z, zp, -gamma))
        for a in xs:
            check(inversion(basis, a), reference_inversion(basis, a))
            check(inversion(basis, a).inverse(), reference_inversion(basis, a))
            for b in xs:
                if a != b:
                    check(swap(basis, a, b), reference_swap(basis, a, b))
                    check(swap(basis, a, b).inverse(), reference_swap(basis, a, b))
        for bad in (-1, basis.size):
            with pytest.raises(ValueError, match="out of range"):
                conjugation(basis, 0, bad)
            with pytest.raises(ValueError, match="out of range"):
                conjugation(basis, bad, 0)
            with pytest.raises(ValueError, match="out of range"):
                transvection(basis, bad, 1, basis.generators()[0])


def test_apply_compose_equals():
    rng = random.Random(3)
    f = transvection(B21, B21.x(1), 1, B21.word("y1"))
    g = conjugation(B21, B21.x(2), B21.y(1))
    for _ in range(100):
        w = rand_word(B21, rng)
        assert identity(B21).apply(w) == w
        assert (f * g).apply(w) == f.apply(g.apply(w))


def test_endos_over_one_basis_compare_without_comparing_bases(monkeypatch):
    f = transvection(B21, B21.x(1), 1, B21.word("y1"))
    g = conjugation(B21, B21.x(2), B21.y(1))
    other = Basis(2, 1)
    one = Endo(other, tuple(other.generators()), ())
    calls = []
    compare = Basis.__eq__

    def counted(self, basis):
        calls.append(basis)
        return compare(self, basis)

    monkeypatch.setattr(Basis, "__eq__", counted)
    assert f == f and f != g and f * g == f * g and f * f != f
    assert calls == []
    # equal bases that are different objects are still compared
    assert one == identity(B21) and calls


def test_inverse_by_factorization():
    p = swap(B21, B21.x(1), B21.x(2))
    assert p.inverse() == p
    m = transvection(B21, B21.x(1), 1, B21.word("y1"))
    assert m.inverse() == transvection(B21, B21.x(1), 1, B21.word("y1^-1"))
    c = conjugation(B21, B21.y(1), B21.x(1))
    assert c.inverse() == conjugation(B21, B21.y(1), B21.x(1), -1)
    f = m * c * p
    assert (f * f.inverse()).is_identity and (f.inverse() * f).is_identity
    bare = identity(B21)
    bare = type(bare)(B21, bare.images, None)
    with pytest.raises(ValueError):
        bare.inverse()


def test_negative_transvection_factors_into_conjugation_and_inverse():
    # M[x1^-1, y1] agrees with C[x1, y1] * M[x1, y1]^-1 (either order: the
    # factors commute)
    m_neg = transvection(B21, B21.x(1), -1, B21.word("y1"))
    c = conjugation(B21, B21.x(1), B21.y(1))
    m = transvection(B21, B21.x(1), 1, B21.word("y1"))
    assert c * m.inverse() == m_neg
    assert m.inverse() * c == m_neg


def test_abel_matrix():
    assert identity(B21).abel_matrix() == intmat.identity(3)
    m = transvection(B21, B21.x(1), 1, B21.word("y1"))
    assert m.abel_matrix() == ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    v = commutator(B21.word("y1"), B21.word("x2"))
    assert transvection(B21, B21.x(1), 1, v).abel_matrix() == intmat.identity(3)


def test_classify():
    from torellikit.autos import Membership

    c = conjugation(B21, B21.y(1), B21.x(1))
    assert classify(c) == Membership(True, True, True, True)
    m = transvection(B21, B21.x(1), 1, B21.word("y1"))
    flags = classify(m)
    assert (flags.in_A, flags.in_IA, flags.in_BKer, flags.in_KIA) == (
        True, False, True, False,
    )
    p = swap(B21, B21.x(1), B21.x(2))
    flags = classify(p)
    assert (flags.in_A, flags.in_IA, flags.in_BKer, flags.in_KIA) == (
        True, False, False, False,
    )


def test_torelli_kernel_generators_land_in_kernel():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            for t in torelli_kernel_generators(Basis(n, k)):
                assert classify(t).in_KIA


def test_lambda2_projection_matches_wedge():
    b = Basis(3, 2)
    rng = random.Random(5)
    assert lambda2_projection(b.word("")) == (0,) * 10
    for _ in range(200):
        u, v = rand_word(b, rng), rand_word(b, rng)
        assert lambda2_projection(commutator(u, v)) == wedge(
            u.abelianize(), v.abelianize()
        )
    with pytest.raises(ValueError):
        lambda2_projection(b.word("x1"))


def test_lambda2_gamma3_invariance():
    b = Basis(3, 2)
    rng = random.Random(9)
    for _ in range(200):
        w = commutator(rand_word(b, rng, 4), rand_word(b, rng, 4))
        deep = commutator(
            commutator(rand_word(b, rng, 3), rand_word(b, rng, 3)),
            rand_word(b, rng, 3),
        )
        assert lambda2_projection(w * deep) == lambda2_projection(w)


def test_johnson_values():
    b = Basis(3, 2)
    m = b.size
    c = conjugation(b, b.x(1), b.x(2))
    rows = johnson(c)
    unit = lambda i: tuple(int(j == i) for j in range(m))
    # tau(C[z, z']) is supported on the z-row with value [z'] ^ [z]
    assert rows[b.x(1)] == wedge(unit(b.x(2)), unit(b.x(1)))
    assert all(not any(rows[i]) for i in range(m) if i != b.x(1))
    v = commutator(b.word("y1"), b.word("x2"))
    t = transvection(b, b.x(1), 1, v)
    rows = johnson(t)
    assert rows[b.x(1)] == wedge(unit(b.y(1)), unit(b.x(2)))
    assert all(not any(rows[i]) for i in range(m) if i != b.x(1))
    assert johnson(identity(b)) == tuple(
        tuple(0 for _ in range(m * (m - 1) // 2)) for _ in range(m)
    )
    with pytest.raises(ValueError):
        johnson(transvection(b, b.x(1), 1, b.word("y1")))


def test_johnson_rank_matches_formula():
    for n, k in ((2, 1), (2, 2), (3, 2), (0, 3)):
        gens = johnson_basis_generators(Basis(n, k))
        expect = expected_johnson_rank(n, k)
        assert len(gens) == expect
        assert johnson_rank(gens) == expect
    assert johnson_rank([conjugation(Basis(2, 1), Basis(2, 1).y(1), 0)]) == 1


def test_johnson_additive_on_torelli():
    b = Basis(2, 2)
    rng = random.Random(21)
    gens = torelli_kernel_generators(b)
    for _ in range(100):
        def rand_elt():
            out = identity(b)
            for _ in range(rng.randint(0, 4)):
                g = rng.choice(gens)
                out = out * (g if rng.random() < 0.5 else g.inverse())
            return out
        f, g = rand_elt(), rand_elt()
        lhs = johnson(f * g)
        rhs = tuple(
            tuple(x + y for x, y in zip(rf, rg))
            for rf, rg in zip(johnson(f), johnson(g))
        )
        assert lhs == rhs


def test_y_transvections_commute_on_distinct_generators():
    b = Basis(3, 2)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            for d in (1, 2):
                u = transvection(b, b.x(i), 1, b.word(f"y{d}"))
                v = transvection(b, b.x(j), 1, b.word(f"y{d}"))
                assert (u * v * u.inverse() * v.inverse()).is_identity


def reference_apply(f, w):
    """f(w) as the reduction of the raw concatenation of image blocks."""
    raw = []
    for code, sign in w.letters:
        img = f.images[code].letters
        raw.extend(img if sign == 1 else [(c, -s) for c, s in reversed(img)])
    return _reduce(raw)


def random_elementary(basis, rng):
    xs = [basis.x(i) for i in range(1, basis.n + 1)]
    kind = rng.choice("MCPI")
    if kind == "M":
        z = rng.randrange(basis.size)
        v = rng.choice([c for c in range(basis.size) if c != z])
        return transvection(basis, z, rng.choice((1, -1)),
                            Word(basis, ((v, rng.choice((1, -1))),)))
    if kind == "C":
        z, zp = rng.sample(range(basis.size), 2)
        return conjugation(basis, z, zp, rng.choice((1, -1)))
    if kind == "P":
        return swap(basis, *rng.sample(xs, 2))
    return inversion(basis, rng.choice(xs))


def random_endo(basis, rng):
    """An automorphism from a few elementary factors, or an arbitrary
    endomorphism (which may send generators to 1)."""
    if rng.random() < 0.3:
        return Endo(basis, [rand_word(basis, rng, 4) for _ in range(basis.size)])
    f = identity(basis)
    for _ in range(rng.randint(0, 4)):
        f = f * random_elementary(basis, rng)
    return f


def test_apply_and_compose_equal_reduce_of_concatenation():
    rng = random.Random(41)
    b = Basis(3, 1)
    for _ in range(500):
        f, g = random_endo(b, rng), random_endo(b, rng)
        w = rand_word(b, rng, 10)
        for word in (w, w.inv(), Word(b, ()), g.images[0] * f.images[0].inv()):
            image = f.apply(word)
            assert image.letters == reference_apply(f, word)
            assert all(letter is _LETTERS[letter] for letter in image.letters)
        fg = f * g
        assert fg.images == tuple(
            Word(b, reference_apply(f, img)) for img in g.images
        )
        for img in fg.images:
            assert all(letter is _LETTERS[letter] for letter in img.letters)
        if f.factors is not None:
            assert (f * f.inverse()).is_identity
            assert (f.inverse() * f).is_identity


def test_compose_reuses_unmoved_images():
    b = Basis(3, 1)
    f = transvection(b, b.x(2), 1, b.word("y1"))
    t = conjugation(b, b.x(1), b.y(1))
    ft = f * t
    assert all(ft.letters[c] is f.letters[c] for c in range(b.size) if c != b.x(1))
    p = f * swap(b, b.x(1), b.x(2))
    assert p.letters[b.x(1)] is f.letters[b.x(2)]
    assert p.letters[b.x(2)] is f.letters[b.x(1)]


def every_construction(n):
    """One automorphism of F_{n,1} (or of F_n, for ``iota1``) from each
    construction path: its name and the automorphism."""
    b = std_basis(n)
    small = Basis(n)
    m = transvection(b, b.x(1), 1, b.word("y1 x2"))
    c = conjugation(b, b.x(2), b.y(1), -1)
    tokens = (symwords.M(0, 1, n), symwords.C(1, 0, -1), symwords.P(0, 1))
    return [
        ("Endo", Endo(b, [m.images[0]] + list(b.generators()[1:]), m.factors)),
        ("identity", identity(b)),
        ("mul", m * c),
        ("inverse", (m * c).inverse()),
        ("interpret", interpret(tokens, b)),
        ("iota1", iota1(conjugation(small, 0, 1) * swap(small, 0, 1), n)),
        ("iota2", iota2((2, -1, 0)[:n], n)),
        ("_elementary", _elementary(b, ("C", b.x(1), b.y(1), 1))),
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_every_construction_path_sets_every_slot(n):
    for name, f in every_construction(n):
        for slot in Endo.__slots__:
            getattr(f, slot)  # raises AttributeError for an unset slot
        assert len(f.letters) == f.basis.size, name
        assert type(f.letters) is tuple, name
        for img in f.letters:
            assert type(img) is tuple, name
            assert all(letter is _LETTERS[letter] for letter in img), name


@pytest.mark.parametrize("n", [2, 3])
def test_images_are_built_once_from_the_letters(n):
    for name, f in every_construction(n):
        assert f.images is f.images, name
        assert tuple(w.letters for w in f.images) == f.letters, name
        assert all(w.basis is f.basis for w in f.images), name
        assert f.image(0) is f.images[0], name


def test_validated_and_composed_automorphisms_with_equal_images_are_equal():
    rng = random.Random(29)
    b = Basis(3, 1)
    for _ in range(50):
        f = random_endo(b, rng) * random_elementary(b, rng)
        twin = Endo(b, [Word(b, img) for img in f.letters], f.factors)
        assert twin == f and f == twin and hash(twin) == hash(f)
        assert twin.letters == f.letters
        assert {f: 1}[twin] == 1


def test_a_product_with_its_inverse_is_the_identity():
    rng = random.Random(31)
    b = Basis(3, 1)
    one = Endo(Basis(3, 1), tuple(Basis(3, 1).generators()), ())
    assert one.is_identity and one is not identity(b)
    for _ in range(100):
        f = identity(b)
        for _ in range(rng.randint(1, 6)):
            f = f * random_elementary(b, rng)
        assert (f * f.inverse()).is_identity and (f.inverse() * f).is_identity
        assert f.is_identity == (f.letters == one.letters)
    assert not swap(b, b.x(1), b.x(2)).is_identity
    assert not inversion(b, b.x(1)).is_identity


def test_pickled_and_copied_automorphisms_keep_shared_letters():
    b = std_basis(2)
    f = transvection(b, b.x(1), -1, b.word("y1 x2")) * iota2((3, -2), 2)
    for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert back == f and back.factors == f.factors
        for img in back.letters:
            assert all(letter is _LETTERS[letter] for letter in img)
        assert (back * f.inverse()).is_identity and (f * back.inverse()).is_identity


def test_interpret_compose_and_compare_build_no_word(monkeypatch):
    # the automorphisms' data are their image letter tuples: Words are built
    # only when ``images`` is read, and equality compares tuples in C
    b = std_basis(3)
    tokens = alphabet("S_K", 3)[:4] + alphabet("S_A", 3)[:3]
    for tok in tokens:
        interpret((tok,), b)  # the token cache builds its transvection words
    built, compared = [], []
    make, equal, init = autos._word, Word.__eq__, Word.__init__

    def counted_word(basis, letters):
        built.append(letters)
        return make(basis, letters)

    def counted_init(self, basis, letters=()):
        built.append(letters)
        init(self, basis, letters)

    def counted_eq(self, other):
        compared.append(other)
        return equal(self, other)

    monkeypatch.setattr(autos, "_word", counted_word)
    monkeypatch.setattr(Word, "__init__", counted_init)
    monkeypatch.setattr(Word, "__eq__", counted_eq)
    f = interpret(tokens, b)
    g = interpret(tokens[::-1], b)
    fg = f * g
    assert fg == f * g and fg != g * f and f == interpret(tokens, b)
    assert (fg * fg.inverse()).is_identity
    assert built == [] and compared == []


def test_apply_on_repeated_inverse_letters_equals_reduce_of_concatenation():
    # one inverse block per generator is built and reused within a call;
    # words that come back to the same inverse letter read it again
    rng = random.Random(53)
    b = Basis(3, 1)
    for _ in range(300):
        f = random_endo(b, rng)
        pair = rng.sample(range(b.size), 2)
        letters = [(rng.choice(pair), rng.choice((-1, -1, 1)))
                   for _ in range(rng.randint(1, 14))]
        w = Word(b, letters)
        for word in (w, w.inv(), w * w):
            assert f.apply(word).letters == reference_apply(f, word)
        g = Endo(b, [w, w.inv()] + list(identity(b).images[2:]))
        assert (f * g).images == tuple(
            Word(b, reference_apply(f, img)) for img in g.images
        )


def reduced_letters(rng, codes, length, avoid=()):
    """Random reduced shared letters over ``codes``; the first is none of
    ``avoid``."""
    out = []
    while len(out) < length:
        letter = _reduce(((rng.choice(codes), rng.choice((1, -1))),))[0]
        if out and letter is _INVERSE[out[-1]] or not out and letter in avoid:
            continue
        out.append(letter)
    return tuple(out)


def planted_blocks(rng, codes, case):
    """Reduced blocks ``(left, right)`` and the number ``c`` of letters that
    cancel where they meet, for a named planted length: a number, all of
    ``right`` but one, all of ``right``, or all of a shorter ``left``.
    ``right`` is always longer than the one-scan threshold."""
    top = 300
    if case == "block-1":
        m = rng.randint(_SCAN + 1, top)
        n, c = rng.randint(m, top), m - 1
    elif case == "block":
        m = rng.randint(_SCAN + 1, top - 1)
        n, c = rng.randint(m + 1, top), m
    elif case == "beyond-out":
        n = rng.randint(_SCAN + 1, top - 1)
        m, c = rng.randint(n + 1, top), n
    else:
        c = case
        m = rng.randint(max(_SCAN + 1, c), top)
        n = rng.randint(max(_SCAN + 1, c + 1), top)
    left = reduced_letters(rng, codes, n)
    avoid = []
    if c:
        avoid.append(left[n - c])  # keeps right reduced
    if c < n:
        avoid.append(_INVERSE[left[n - c - 1]])  # stops the cancellation at c
    right = _inverse_letters(left[n - c:]) + reduced_letters(rng, codes, m - c, avoid)
    return left, right, c


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_long_junctions_equal_reduce_of_concatenation(signs):
    # x1 and x2 are sent to words in x4, y1 of up to 300 letters, longer
    # than the one-scan threshold, whose blocks meet in x1^sa x2^sb with a
    # planted cancellation; x3 is fixed and never cancels, so a prefix
    # x2^-1 x3 fills the inverse block of x2 first
    sa, sb = signs
    rng = random.Random(71 + 2 * sa + sb)
    b = Basis(4, 1)
    a, c2, sep = b.x(1), b.x(2), b.x(3)
    codes = (b.x(4), b.y(1))
    for _ in range(6):
        for case in (0, 1, 15, 16, 17, _SCAN - 1, _SCAN, _SCAN + 1,
                     "block-1", "block", "beyond-out"):
            left, right, c = planted_blocks(rng, codes, case)
            imgs = [w.letters for w in identity(b).images]
            imgs[a] = left if sa == 1 else _inverse_letters(left)
            imgs[c2] = right if sb == 1 else _inverse_letters(right)
            f = Endo(b, [Word(b, img) for img in imgs])
            plain = ((a, sa), (c2, sb))
            prefixed = ((c2, -1), (sep, 1)) + plain
            expect = reference_apply(f, Word(b, plain))
            assert len(expect) == len(left) + len(right) - 2 * c
            for letters in (plain, prefixed):
                w = Word(b, letters)
                ref = reference_apply(f, w)
                empty = [None] * b.size
                filled = [_inverse_letters(img) for img in imgs]
                g = Endo(b, [w if code == sep else img
                             for code, img in enumerate(identity(b).images)])
                fold = _fold(b, (((a, imgs[a]),), ((c2, imgs[c2]),),
                                 ((sep, letters),)), None)
                for image in (_image_letters(imgs, empty, letters),
                              _image_letters(imgs, filled, letters),
                              f.apply(w).letters,
                              (f * g).images[sep].letters,
                              fold.images[sep].letters):
                    assert image == ref
                    assert all(letter is _LETTERS[letter] for letter in image)


def inverse_by_products(f):
    """The inverse as the identity times each inverted atom, rightmost
    factor first, each built with the public constructors."""
    b = f.basis
    out = identity(b)
    for atom in reversed(f.factors):
        tag = atom[0]
        if tag == "M":
            _, z, alpha, v = atom
            g = transvection(b, z, alpha, Word(b, v).inv())
        elif tag == "C":
            _, z, zp, gamma = atom
            g = conjugation(b, z, zp, -gamma)
        elif tag == "P":
            g = swap(b, atom[1], atom[2])
        else:
            g = inversion(b, atom[1])
        out = out * g
    return out


def random_factor(basis, rng):
    """An automorphism of F_{n,1} named by atoms of every kind: M with a
    one-letter, commutator or y-power word, C, P, I, or a y-transvection
    product iota2(z) with |z_i| <= 4."""
    xs = [basis.x(i) for i in range(1, basis.n + 1)]
    y = basis.y(1)
    kind = rng.choice(("M1", "Mc", "My", "C", "P", "I", "iota2"))
    if kind == "M1":
        z = rng.randrange(basis.size)
        v = rng.choice([c for c in range(basis.size) if c != z])
        v = Word(basis, ((v, rng.choice((1, -1))),))
    elif kind == "Mc":
        z = rng.randrange(basis.size)
        p, q = rng.sample([c for c in range(basis.size) if c != z], 2)
        v = commutator(Word(basis, ((p, rng.choice((1, -1))),)),
                       Word(basis, ((q, rng.choice((1, -1))),)))
    elif kind == "My":
        z = rng.choice(xs)
        v = Word(basis, ((y, rng.choice((1, -1))),) * rng.randint(1, 3))
    elif kind == "C":
        z, zp = rng.sample(range(basis.size), 2)
        return conjugation(basis, z, zp, rng.choice((1, -1)))
    elif kind == "P":
        return swap(basis, *rng.sample(xs, 2))
    elif kind == "I":
        return inversion(basis, rng.choice(xs))
    else:
        return iota2(tuple(rng.randint(-4, 4) for _ in xs), basis.n)
    return transvection(basis, z, rng.choice((1, -1)), v)


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_fold_matches_the_product_of_inverted_atoms(n):
    rng = random.Random(61 + n)
    b = std_basis(n)
    for _ in range(150):
        f = identity(b)
        for _ in range(rng.randint(1, 8)):
            f = f * random_factor(b, rng)
        inv = f.inverse()
        ref = inverse_by_products(f)
        assert inv.images == ref.images
        assert inv.factors == ref.factors
        for img in inv.images:
            assert all(letter is _LETTERS[letter] for letter in img.letters)
        for atom in inv.factors:
            if atom[0] == "M":
                assert all(letter is _LETTERS[letter] for letter in atom[3])
        assert f.inverse() is inv and inv.inverse() is f
        assert (f * inv).is_identity and (inv * f).is_identity


def test_product_with_the_shared_identity_is_the_other_factor():
    b = Basis(3, 1)
    one = identity(b)
    # the same identity, not the shared object: composes in full
    plain_one = Endo(b, tuple(b.generators()), ())
    rng = random.Random(47)
    factored = transvection(b, b.x(1), 1, b.word("y1 x2")) * conjugation(b, b.x(3), b.y(1))
    unfactored = Endo(b, [rand_word(b, rng, 5) for _ in range(b.size)])
    assert unfactored.factors is None
    for f in (factored, unfactored, one):
        for prod, full in ((f * one, f * plain_one), (one * f, plain_one * f)):
            assert prod is f
            assert prod == full and prod.factors == full.factors
    assert one.inverse() is one
    assert factored * plain_one is not factored
    with pytest.raises(ValueError):
        factored * identity(Basis(2, 1))
