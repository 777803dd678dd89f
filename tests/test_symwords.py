import random
from itertools import combinations, permutations

import pytest

from torellikit import symwords
from torellikit.autos import Endo, classify
from torellikit.symwords import (
    _ENDO_CACHE,
    _join,
    _reduce_tokens,
    ALPHABETS,
    C,
    I,
    M,
    Mc,
    P,
    SymWord,
    alphabet,
    applyrels,
    format_token,
    format_word,
    in_alphabet,
    interpret,
    parse_token,
    parse_word,
    signed_alphabet,
    std_basis,
    token_endo,
    token_inv,
    tokens_inv,
)
from torellikit.words import _LETTERS, Basis, Word


N = 3
B = std_basis(N)
Y = B.y(1)


def test_alphabet_counts():
    assert len(alphabet("S_K", 2)) == 2 * 2 + 8 * 2
    assert len(alphabet("S_Z", 3)) == 3
    assert len(alphabet("S_A", 2)) == 4 + 1 + 2
    assert len(alphabet("S_Q", 2)) == 7 + 2
    with pytest.raises(ValueError):
        alphabet("S_K", 1)


def _alphabet_lists(kind, n):
    """The generators and the signed alphabet as lists, built by the loop
    that built them on every call before the alphabets were kept."""
    b = std_basis(n)
    y = b.y(1)
    xs = [b.x(i) for i in range(1, n + 1)]
    gens = []
    if kind in ("S_A", "S_Q", "S_C"):
        for a in xs:
            for c in xs:
                if a != c:
                    gens += [M(a, 1, c), M(a, -1, c)]
        gens += [P(a, c) for i, a in enumerate(xs) for c in xs[i + 1:]]
        gens += [I(a) for a in xs]
    if kind in ("S_Z", "S_Q"):
        gens += [M(a, 1, y) for a in xs]
    if kind == "S_C":
        for a in xs:
            gens += [M(a, 1, y), M(a, -1, y), C(y, a)]
    if kind == "S_K":
        for a in xs:
            gens += [C(y, a), C(a, y)]
        gens += [Mc(a, asign, y, eps, c, csign)
                 for a in xs for c in xs if a != c
                 for asign in (1, -1) for eps in (1, -1) for csign in (1, -1)]
    signed = list(gens)
    for g in gens:
        if token_inv(g) not in signed:
            signed.append(token_inv(g))
    return gens, signed


def test_alphabets_are_kept_tuples_in_the_old_order():
    for n in (2, 3):
        for kind in ALPHABETS:
            gens, signed = alphabet(kind, n), signed_alphabet(kind, n)
            assert isinstance(gens, tuple) and isinstance(signed, tuple)
            assert alphabet(kind, n) is gens and signed_alphabet(kind, n) is signed
            assert (list(gens), list(signed)) == _alphabet_lists(kind, n)
    for build in (alphabet, signed_alphabet):
        with pytest.raises(ValueError, match=r"^alphabets need n >= 2$"):
            build("S_K", 1)
        with pytest.raises(ValueError, match=r"^unknown alphabet 'S_X'$"):
            build("S_X", 2)


def test_std_basis_is_shared_per_rank():
    assert std_basis(3) is std_basis(3)
    assert std_basis(2) is not std_basis(3)
    assert std_basis(3) == Basis(3, 1)


def test_inverse_conventions():
    assert token_inv(P(0, 1)) == P(0, 1)
    assert token_inv(I(0)) == I(0)
    assert token_inv(M(0, 1, Y)) == ("M", (0, 1), (Y, -1))
    assert token_inv(C(Y, 0)) == ("C", (Y, 1), (0, -1))
    assert token_inv(Mc(0, 1, Y, 1, 1, 1)) == ("Mc", (0, 1), (1, 1), (Y, 1))


def test_word_reduction_uses_conventions():
    w = SymWord(B, (C(Y, 0), C(Y, 0, -1)))
    assert not w
    assert SymWord(B, (Mc(0, 1, Y, 1, 1, 1),)).inv().tokens == (
        ("Mc", (0, 1), (1, 1), (Y, 1)),
    )
    assert SymWord(B, (P(0, 1),)).inv().tokens == (P(0, 1),)
    u = SymWord(B, (C(0, Y),))
    v = SymWord(B, (C(0, Y, -1),))
    assert not u * v


def test_c_tokens_drop_first_sign():
    # conjugating a generator or its inverse is the same automorphism
    assert parse_token("C[x1^-1,y1]", B) == C(0, Y)
    assert parse_token("C[y1^-1,x2]", B) == C(Y, 1)
    assert interpret((C(Y, 0),), B) == interpret((parse_token("C[y^-1,x1]", B),), B)


def test_parse_and_format_round_trip():
    texts = [
        "M[x1,y1]",
        "M[x1^-1,x2]",
        "C[y1,x1]",
        "Mc[x1,y1,x2]",
        "Mc[x2^-1,y1^-1,x3^-1]",
        "P[1,2]",
        "I[1]",
    ]
    for text in texts:
        tok = parse_token(text, B)
        assert format_token(tok, B) == text
    word = parse_word("M[x1,y1] * C[y1,x2]^-1 * P[1,2]", B)
    assert parse_word(format_word(word, B), B).tokens == word.tokens
    assert parse_word("1", B).tokens == ()
    with pytest.raises(ValueError):
        parse_token("Q[1]", B)


def every_token(n):
    """Every token over the basis x1..xn, y, as the constructors build them."""
    codes = range(n + 1)
    signs = (1, -1)
    return (
        [M(z, zs, v, vs) for z, v in permutations(codes, 2)
         for zs in signs for vs in signs]
        + [C(u, w, ws) for u, w in permutations(codes, 2) for ws in signs]
        + [Mc(a, as_, p, ps, q, qs) for a, p, q in permutations(codes, 3)
           for as_ in signs for ps in signs for qs in signs]
        + [P(a, c) for a, c in combinations(range(n), 2)]
        + [I(a) for a in range(n)]
    )


def test_every_canonical_spelling_parses_as_parse_token_cold_and_warm(monkeypatch):
    assert len(every_token(8)) == 4500
    monkeypatch.setattr(symwords, "_PARSED", {})
    for n in (2, 3, 4):
        basis = std_basis(n)
        tokens = every_token(n)
        texts = [format_token(tok, basis) for tok in tokens]
        for _ in ("cold", "warm"):
            for tok, text in zip(tokens, texts):
                assert parse_token(text, basis) == tok
                assert parse_word(text, basis) == SymWord(basis, (tok,))
        assert symwords._PARSED[basis] == dict(zip(texts, tokens))
        whole = " * ".join(texts)
        assert parse_word(whole, basis) == SymWord(basis, tuple(tokens))


def test_other_spellings_give_todays_tokens_and_are_not_kept(monkeypatch):
    monkeypatch.setattr(symwords, "_PARSED", {})
    for text, tok in (
        ("C[x1^-1,y]", C(0, Y)),
        ("M[x1,y]", M(0, 1, Y)),
        (" Mc[ x1 , y1 , x2 ]", Mc(0, 1, Y, 1, 1, 1)),
        ("M[x1,x2]^1", M(0, 1, 1)),
        ("C[x1,y1]^-1", C(0, Y, -1)),
    ):
        for _ in range(2):
            assert parse_token(text, B) == tok
            assert parse_word(text, B).tokens == (tok,)
            assert parse_word(f"{text} * {text}", B).tokens == (tok, tok)
    assert symwords._PARSED == {B: {}}
    for tok in (C(0, Y), M(0, 1, Y), C(0, Y, -1)):
        parse_word(format_token(tok, B), B)
    assert symwords._PARSED == {B: {"C[x1,y1]": C(0, Y), "M[x1,y1]": M(0, 1, Y),
                                    "C[x1,y1^-1]": C(0, Y, -1)}}


def test_a_text_that_raises_is_not_kept_and_raises_again(monkeypatch):
    monkeypatch.setattr(symwords, "_PARSED", {})
    for text in ("M[x1,x1]", "C[x1,y1", "Q[1]", "P[+1,2]", "I[4]", "M[x1^01,y1]"):
        with pytest.raises(ValueError) as reference:
            parse_token(text, B)
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                parse_word(f"C[y1,x1] * {text}", B)
            assert str(exc.value) == str(reference.value), text
    assert symwords._PARSED == {B: {"C[y1,x1]": C(Y, 0)}}


def test_the_memo_keeps_at_most_one_spelling_per_token(monkeypatch):
    monkeypatch.setattr(symwords, "_PARSED", {})
    rng = random.Random(31)
    for n in (2, 3):
        basis = std_basis(n)
        tokens = every_token(n)
        for tok in tokens:
            text = format_token(tok, basis)
            padded = text.replace(",", " , ")
            spelled = text.replace("y1", "y") + ("^1" if rng.random() < 0.5 else "")
            inverse = format_token(token_inv(tok), basis) + "^-1"
            parse_word(" * ".join((padded, spelled, inverse, text)), basis)
        assert len(symwords._PARSED[basis]) == len(tokens)


def test_each_rank_parses_its_own_tokens(monkeypatch):
    # y1 is code 2 at n = 2 and code 3 at n = 3
    monkeypatch.setattr(symwords, "_PARSED", {})
    assert parse_word("C[x1,y1]", std_basis(2)).tokens == (C(0, 2),)
    assert parse_word("C[x1,y1]", std_basis(3)).tokens == (C(0, 3),)
    assert parse_word("C[x1,y1]", std_basis(2)).tokens == (C(0, 2),)


def test_alphabet_membership():
    assert in_alphabet(M(0, 1, 1), "S_A", N)
    assert in_alphabet(token_inv(M(0, 1, 1)), "S_A", N)
    assert not in_alphabet(M(0, 1, Y), "S_A", N)
    assert in_alphabet(M(0, 1, Y), "S_Q", N)
    assert in_alphabet(Mc(0, -1, Y, -1, 2, -1), "S_K", N)
    assert in_alphabet(token_inv(Mc(0, 1, Y, 1, 2, 1)), "S_K", N)
    assert not in_alphabet(C(0, 1), "S_K", N)


def test_interpret_examples():
    assert interpret((), B).is_identity
    f = interpret((Mc(0, 1, Y, 1, 1, 1),), B)
    assert f.image(0) == B.word("y1 x2 y1^-1 x2^-1 x1")
    rng = random.Random(5)
    toks = signed_alphabet("S_K", N)
    for _ in range(100):
        w = SymWord(B, tuple(rng.choice(toks) for _ in range(rng.randint(0, 5))))
        assert interpret((w * w.inv()).tokens, B).is_identity
        v = SymWord(B, tuple(rng.choice(toks) for _ in range(rng.randint(0, 5))))
        assert interpret((w * v).tokens, B) == (
            interpret(w.tokens, B) * interpret(v.tokens, B)
        )


def full_compose(f, g):
    """f * g with every image rebuilt from the raw concatenation of blocks,
    and the factorizations concatenated."""
    images = []
    for img in g.images:
        raw = []
        for code, sign in img.letters:
            block = f.images[code].letters
            raw.extend(block if sign == 1 else [(c, -s) for c, s in reversed(block)])
        images.append(Word(f.basis, raw))
    factors = None
    if f.factors is not None and g.factors is not None:
        factors = f.factors + g.factors
    return Endo(f.basis, images, factors)


def test_interpret_matches_a_left_fold_of_full_compositions():
    # every signed alphabet at two ranks, and words mixing all of them:
    # swaps, inversions, transvections and conjugation moves, in words that
    # reuse a changed generator's inverse right after it changed
    for n in (3, 4):
        b = std_basis(n)
        alphabets = [signed_alphabet(kind, n) for kind in ALPHABETS]
        alphabets.append(sorted(set().union(*alphabets)))
        for index, toks in enumerate(alphabets):
            rng = random.Random(43 + 10 * n + index)
            for _ in range(40):
                tokens = tuple(rng.choice(toks) for _ in range(rng.randint(0, 12)))
                expect = Endo(b, b.generators(), ())
                for tok in tokens:
                    expect = full_compose(expect, token_endo(tok, b))
                f = interpret(tokens, b)
                assert f == expect, format_word(tokens, b)
                assert f.factors == expect.factors
                for img in f.images:
                    assert all(letter is _LETTERS[letter] for letter in img.letters)
                assert (f.inverse() * f).is_identity


def test_token_endo_caches_the_images_it_moves():
    # the cached moved images are read from the token's atom; they must be
    # exactly the images of its automorphism that differ from the identity
    for n in (2, 3):
        b = std_basis(n)
        for kind in ALPHABETS:
            for tok in signed_alphabet(kind, n):
                f = token_endo(tok, b)
                moved = tuple((code, w.letters) for code, w in enumerate(f.images)
                              if w.letters != ((code, 1),))
                cached, cached_moved = _ENDO_CACHE[(b, tok)]
                assert cached is f and cached_moved == moved, format_token(tok, b)


def test_a_token_cached_from_an_equal_basis_is_over_the_shared_one(monkeypatch):
    # the cache compares bases by equality, so the automorphism it keeps
    # for the first basis it met is the one every equal basis is handed;
    # an empty cache makes this process meet Basis(2, 1) first
    monkeypatch.setattr(symwords, "_ENDO_CACHE", {})
    sb = std_basis(2)
    tok = M(0, 1, 1)
    interpret((tok,), Basis(2, 1))
    f = interpret((tok,), sb)
    assert f.basis is sb
    assert all(w.basis is sb for w in f.images)


def test_interpret_carries_factorization():
    f = interpret((C(Y, 0), Mc(0, 1, Y, 1, 1, 1)), B)
    assert f.factors is not None
    assert (f * f.inverse()).is_identity


def test_kernel_alphabet_lands_in_kernel():
    for t in alphabet("S_K", N):
        assert classify(interpret((t,), B)).in_KIA
    for s in alphabet("S_Z", N):
        assert classify(interpret((s,), B)).in_BKer
    # the y-transvections commute pairwise
    zs = [interpret((s,), B) for s in alphabet("S_Z", N)]
    for u in zs:
        for v in zs:
            assert u * v == v * u


def test_applyrels():
    w = parse_word("C[y1,x1] * C[x2,y1]", B)
    assert applyrels(w, []).tokens == w.tokens
    r = parse_word("C[y1,x2] * C[y1,x2]^-1", B)
    assert applyrels(SymWord(B, ()), [(parse_word("C[y1,x1]", B), 0)]).tokens == (
        C(Y, 0),
    )
    assert applyrels(w, [(r, 1)]).tokens == w.tokens  # trivial insertion
    grown = applyrels(w, [(parse_word("C[x3,y1]", B), 2)])
    assert grown.tokens == w.tokens + (C(2, Y),)
    with pytest.raises(ValueError):
        applyrels(w, [(r, 9)])


def test_products_and_insertions_cancel_only_at_their_junctions():
    rng = random.Random(17)
    for n in (2, 3, 4):
        basis = std_basis(n)
        toks = signed_alphabet("S_K", n) + signed_alphabet("S_Q", n)

        def word():
            tokens = tuple(rng.choice(toks) for _ in range(rng.randint(0, 6)))
            return SymWord(basis, tokens)

        for trial in range(150):
            a, b = word(), word()
            if trial % 3 == 0:  # b starts with the inverse of a's tail
                tail = a.tokens[rng.randint(0, len(a)):]
                b = SymWord(basis, tokens_inv(tail) + b.tokens)
            pos = rng.randint(0, len(a))
            for got, raw in (
                (a * b, a.tokens + b.tokens),
                (a * a.inv(), ()),
                (a.inv(), tokens_inv(a.tokens)),
                (applyrels(a, [(b, pos)]), a.tokens[:pos] + b.tokens + a.tokens[pos:]),
            ):
                assert got.tokens == _reduce_tokens(raw)
                assert all(y != token_inv(x) for x, y in zip(got.tokens, got.tokens[1:]))


def test_join_is_the_reduced_concatenation():
    rng = random.Random(23)
    for n in (2, 3):
        kernel = signed_alphabet("S_K", n)
        a, b, c, d = kernel[:4]
        # the fifth block reaches back across the three before it
        assert _join([(a,), (b,), (c,), (d,), tokens_inv((b, c, d)), (b,)]) == (a, b)
        assert _join([(a, b), tokens_inv((a, b)), (), (c,)]) == (c,)

        def block():
            return _reduce_tokens([rng.choice(kernel) for _ in range(rng.randint(0, 4))])

        deep = 0
        for trial in range(150):
            blocks = [block() for _ in range(rng.randint(0, 5))]
            if trial % 4 == 0 and blocks:  # a block cancelling the one before in full
                blocks.append(tokens_inv(blocks[-1]))
            # a block that cancels the last tokens of the product so far,
            # all of them at times, and goes on
            joined = _reduce_tokens([t for piece in blocks for t in piece])
            cut = rng.randint(0, len(joined))
            blocks.append(_reduce_tokens(tokens_inv(joined[cut:]) + block()))
            plain = _reduce_tokens([t for piece in blocks for t in piece])
            assert _join(blocks) == plain
            assert _join(iter(blocks)) == plain
            deep += len(joined) - cut > max(map(len, blocks[:-1]), default=0)
        assert deep >= 10, deep


def test_applyrels_relator_insertion_preserves_interpretation():
    from torellikit.lpres import krel

    rng = random.Random(9)
    toks = signed_alphabet("S_K", N)
    relators = [krel(1, N, a=1, b=2), krel(4, N, a=1, b=2), krel(7, N, a=2, b=3)]
    for _ in range(50):
        w = SymWord(B, tuple(rng.choice(toks) for _ in range(rng.randint(0, 4))))
        r = rng.choice(relators)
        pos = rng.randint(0, len(w.tokens))
        grown = applyrels(w, [(r, pos)])
        assert interpret(grown.tokens, B) == interpret(w.tokens, B)
