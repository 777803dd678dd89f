import textwrap
from array import array
from functools import lru_cache
from random import Random

import pytest

from torellikit import certificates, symwords
from torellikit.certificates import (
    MAX_DEPTH, MAX_RANK, check_certificate, parse_certificate, replay_certificate,
)
from torellikit.lpres import _permute, krel, orbit_plan, phi_word, rk0_instances
from torellikit.symwords import (
    M,
    SymWord,
    format_word,
    parse_word,
    signed_alphabet,
    std_basis,
)


def cert(body):
    return textwrap.dedent(body).strip() + "\n"


def test_empty_step_list():
    report = check_certificate(cert("""
        certificate v1; n=2
        start: C[y1,x1]
        expect: C[y1,x1]
    """))
    assert report.ok, report.summary()
    assert report.checked_steps == 0


def test_insert_seed_relation_into_empty_word():
    n = 2
    r = krel(1, n, a=1, b=2)
    text = cert(f"""
        certificate v1; n={n}
        start: 1
        insert @0: {r}
        expect: {r}
    """)
    report = check_certificate(text)
    assert report.ok, report.summary()
    assert report.checked_steps == 1


def test_inverse_pair_insertion_is_trivial():
    report = check_certificate(cert("""
        certificate v1; n=2
        start: C[x1,y1]
        insert @1: C[y1,x2] * C[y1,x2]^-1
        expect: C[x1,y1]
    """))
    assert report.ok, report.summary()


def test_depth_one_substitution_image_is_accepted():
    n = 2
    basis = std_basis(n)
    image = phi_word((M(basis.x(1), 1, basis.x(2)),), krel(1, n, a=1, b=2), n)
    text = cert(f"""
        certificate v1; n={n}
        start: 1
        insert @0: {format_word(image, basis)}
        expect: {format_word(image, basis)}
    """)
    assert check_certificate(text, depth=1).ok
    bad = check_certificate(text, depth=0)
    assert not bad.ok
    assert any("non-relator" in e for e in bad.errors)


def test_depth_outside_the_bound_is_refused_before_any_work(monkeypatch):
    def no_build(n, level):
        raise AssertionError("a relator level was built")

    monkeypatch.setattr(certificates, "_level", no_build)
    r = krel(1, 2, a=1, b=2)
    text = f"certificate v1; n=2\nstart: 1\ninsert @0: {r}\nexpect: {r}\n"
    parsed = parse_certificate(text)
    for depth in (-1, MAX_DEPTH + 1):
        message = f"depth {depth} out of range 0..{MAX_DEPTH}"
        for source in (text, "not a certificate"):
            with pytest.raises(ValueError, match=message):
                check_certificate(source, depth=depth)
        with pytest.raises(ValueError, match=message):
            replay_certificate(parsed, depth=depth)
    # depth 2 needs rank <= 4: rank 5 is refused before any build, and
    # rank 4 reaches the (monkeypatched) build
    for n, error, message in ((5, ValueError, "depth 2 needs rank <= 4, got 5"),
                              (4, AssertionError, "a relator level was built")):
        text = f"certificate v1; n={n}\nstart: 1\ninsert @0: {r}\nexpect: {r}\n"
        with pytest.raises(error, match=message):
            check_certificate(text, depth=2)
        with pytest.raises(error, match=message):
            replay_certificate(parse_certificate(text), depth=2)


def test_non_relator_insertion_rejected():
    report = check_certificate(cert("""
        certificate v1; n=2
        start: 1
        insert @0: C[y1,x1]
        expect: C[y1,x1]
    """))
    assert not report.ok
    assert any("non-relator insertion" in e for e in report.errors)


def test_reduction_mismatch_reported():
    n = 2
    r = krel(1, n, a=1, b=2)
    report = check_certificate(cert(f"""
        certificate v1; n={n}
        start: 1
        insert @0: {r}
        expect: 1
    """))
    assert not report.ok
    assert any("reduction mismatch" in e for e in report.errors)
    # ... and the semantic cross-check agrees here (both sides trivial), so
    # exactly one error is reported
    assert len(report.errors) == 1


def test_semantic_cross_check():
    report = check_certificate(cert("""
        certificate v1; n=2
        start: C[y1,x1]
        expect: C[y1,x2]
    """))
    assert not report.ok
    assert any("semantic mismatch" in e for e in report.errors)


def test_position_out_of_range():
    n = 2
    r = krel(1, n, a=1, b=2)
    report = check_certificate(cert(f"""
        certificate v1; n={n}
        start: 1
        insert @5: {r}
        expect: 1
    """))
    assert not report.ok
    assert any("out of range" in e for e in report.errors)


def test_parse_errors():
    for text, message in (
        ("nonsense", "line 1"),
        ("certificate v1; n=9000x", "cannot parse rank"),
        # only [0-9]+ is a rank or a position, never what int() would take
        ("certificate v1; n=\u0663\nstart: 1\nexpect: 1", "cannot parse rank"),
        ("certificate v1; n=+2\nstart: 1\nexpect: 1", "cannot parse rank"),
        ("certificate v1; n=2\nstart: 1\ninsert @0_1: 1\nexpect: 1",
         "line 3: insert position '0_1' is not an integer"),
        ("certificate v1; n=2\nstart: 1\ninsert @+0: 1\nexpect: 1",
         "line 3: insert position '+0' is not an integer"),
        (f"certificate v1; n={MAX_RANK + 1}\nstart: 1\nexpect: 1",
         "above the limit"),
        ("certificate v1; n=2\nexpect: 1", "missing 'start:'"),
        ("certificate v1; n=2\nstart: 1", "missing 'expect:'"),
        ("certificate v1; n=2\nstart: 1\nwat: 1\nexpect: 1", "unrecognized"),
    ):
        report = check_certificate(text)
        assert not report.ok
        assert any(message in e for e in report.errors), (text, report.errors)


def test_parse_certificate_structure():
    n = 2
    r = krel(4, n, a=1, b=2)
    parsed = parse_certificate(cert(f"""
        certificate v1; n={n}
        # a comment line
        start: C[y1,x1]
        insert @1: {r}
        expect: C[y1,x1]
    """))
    assert parsed.n == 2
    assert len(parsed.steps) == 1
    assert parsed.steps[0][1] == 1


def test_empty_is_the_empty_word_on_every_word_line():
    r = krel(1, 2, a=1, b=2)
    for start, insert, expect in (("empty", "empty", "1"), ("1", "1", "empty"),
                                  (" empty ", "empty", " empty")):
        parsed = parse_certificate(
            f"certificate v1; n=2\nstart:{start}\ninsert @0: {insert}\n"
            f"insert @0: {r}\nexpect:{expect}\n"
        )
        assert parsed.start.tokens == parsed.steps[0][0].tokens == ()
        assert parsed.expect.tokens == ()
    report = check_certificate("certificate v1; n=2\nstart: empty\nexpect: 1\n")
    assert report.ok, report.summary()


def test_a_second_check_parses_no_token_text(monkeypatch):
    """Each canonical token spelling is parsed once per process, so the
    same certificate checked again calls the full token parser no more and
    gets the same report."""
    n = 2
    basis = std_basis(n)
    r = format_word(krel(1, n, a=1, b=2), basis)
    image = format_word(
        phi_word((M(basis.x(1), 1, basis.x(2)),), krel(1, n, a=1, b=2), n), basis)
    texts = [cert(f"""
        certificate v1; n={n}
        start: C[y1,x1]
        insert @1: {r}
        insert @0: {image}
        expect: {format_word(parse_word(f"{image} * C[y1,x1] * {r}", basis), basis)}
    """), cert("""
        certificate v1; n=2
        start: 1
        insert @0: C[y1,x1] * C[x2,y1^-1]
        expect: empty
    """)]
    calls = []
    parse_token = symwords.parse_token

    def counted(text, basis):
        calls.append(text)
        return parse_token(text, basis)

    monkeypatch.setattr(symwords, "_PARSED", {})
    monkeypatch.setattr(symwords, "parse_token", counted)
    first = [check_certificate(text) for text in texts]
    assert [report.ok for report in first] == [True, False]
    assert len(calls) == len(set(calls)) > 0
    calls.clear()
    assert [check_certificate(text) for text in texts] == first
    assert calls == []


# ---------------------------------------------------------------------------
# the relator index against the exhaustive scan it replaced


@lru_cache(maxsize=None)
def _scan_closure(n, depth):
    """Every token sequence the exhaustive scan compares an insertion with:
    each seed instance and its inverse, then level by level the image of
    every relator of the level below under every signed quotient letter,
    and its inverse.  The scan accepted exactly these and the empty word."""
    seeds = [inst.word for inst in rk0_instances(n)]
    letters = signed_alphabet("S_Q", n)
    found = {t for w in seeds for t in (w.tokens, w.inv().tokens)}
    frontier = seeds
    for _ in range(max(depth, 0)):
        frontier = [phi_word((s,), r, n) for r in frontier for s in letters]
        found.update(t for w in frontier for t in (w.tokens, w.inv().tokens))
    return frozenset(found)


def _scan_member(word, n, depth):
    return not word.tokens or word.tokens in _scan_closure(n, depth)


def _oracle_words(n, seed):
    """Seeds, seeded phi-images at levels 1 and 2, random S_K words of 1 to
    6 tokens, each with its inverse, and the empty word."""
    rng = Random(seed)
    basis = std_basis(n)
    seeds = [inst.word for inst in rk0_instances(n)]
    quotient = signed_alphabet("S_Q", n)
    kernel = signed_alphabet("S_K", n)
    words = list(seeds)
    for level in (1, 2):
        for _ in range(12):
            u = tuple(rng.choice(quotient) for _ in range(level))
            words.append(phi_word(u, rng.choice(seeds), n))
    for _ in range(12):
        words.append(SymWord(basis, tuple(
            rng.choice(kernel) for _ in range(rng.randint(1, 6))
        )))
    return [SymWord(basis, ())] + [v for w in words for v in (w, w.inv())]


def test_relator_index_agrees_with_the_exhaustive_scan():
    for n, depths in ((2, (-1, 0, 1, 2)), (3, (-1, 0, 1))):
        words = _oracle_words(n, seed=n)
        for depth in depths:
            verdicts = [
                certificates._relator_closure_member(w, n, depth) for w in words
            ]
            assert verdicts == [_scan_member(w, n, depth) for w in words], (n, depth)
            assert any(verdicts) and not all(verdicts)
            # below depth 1 only the seeds, their inverses and 1 are accepted
            if depth <= 0:
                seeds = _scan_closure(n, 0)
                assert verdicts == [not w.tokens or w.tokens in seeds for w in words]


def test_every_closure_relator_is_accepted():
    n = 2
    words = [inst.word for inst in rk0_instances(n)]
    words += [phi_word((s,), w, n) for w in words for s in signed_alphabet("S_Q", n)]
    words += [w.inv() for w in words]
    assert len(words) == 3136
    assert all(certificates._relator_closure_member(w, n, 1) for w in words)


def test_every_position_regenerates_its_stored_hash():
    n = 2
    seeds = [inst.word.tokens for inst in rk0_instances(n)]
    q = len(signed_alphabet("S_Q", n))
    reps, _ = orbit_plan(n)
    assert len(reps) == 8
    assert certificates._level(n, 0) == frozenset(seeds)
    for level in (1, 2):
        hashes, ordered = certificates._level(n, level)
        assert len(hashes) == len(seeds) * q ** (level - 1) * len(reps)
        assert list(ordered) == sorted(hashes)
        for i, h in enumerate(hashes):
            r, j = divmod(i, len(reps))
            below = certificates._relator_at(n, level - 1, r)
            assert hash(phi_word((reps[j],), below, n).tokens) == h, (level, i)


def test_a_hash_match_alone_never_accepts(monkeypatch):
    n = 2
    word = parse_word("C[y1,x1]", std_basis(n))
    assert not certificates._relator_closure_member(word, n, 2)
    _, moves = certificates._plan(n)
    planted_hashes = [hash(tuple(map(table.get, w.tokens)))
                      for table, _ in moves for w in (word, word.inv())]
    for level in (1, 2):
        planted = certificates._level(n, level)[0][:]
        for k, h in enumerate(planted_hashes):
            planted[len(planted) // 2 + k] = h
        monkeypatch.setitem(certificates._INDEX, (n, level),
                            (planted, array("q", sorted(planted))))
        assert not certificates._relator_closure_member(word, n, 2)
        assert not certificates._relator_closure_member(word.inv(), n, 2)


def test_a_wrong_inverse_permutation_never_accepts(monkeypatch):
    """With every inverse permutation off by the swap of x2 and x3, a hit
    regenerates, but the chain phi_s(pi^-1 v) gives the swapped word."""
    n = 3
    basis = std_basis(n)
    swap = (0, 2, 1, 3)
    seeds = certificates._level(n, 0)
    for inst in rk0_instances(n):
        word = phi_word((M(basis.x(1), 1, basis.x(2)),), inst.word, n)
        swapped = tuple(_permute(t, swap) for t in word.tokens)
        if (swapped != word.tokens and word.tokens not in seeds
                and word.inv().tokens not in seeds):
            break
    else:
        pytest.fail("no level-1 relator is moved by the swap")
    assert certificates._relator_closure_member(word, n, 1)
    reps, moves = certificates._plan(n)
    wrong = tuple((table, tuple(swap[c] for c in inverse))
                  for table, inverse in moves)
    monkeypatch.setitem(certificates._PLANS, n, (reps, wrong))
    assert not certificates._relator_closure_member(word, n, 1)


def test_the_index_is_built_once_per_rank_and_level(monkeypatch):
    names = ("phi_apply", "phi_word", "_join", "rk0_instances", "orbit_plan")
    calls = dict.fromkeys(names + ("blocks",), 0)

    def counted(name):
        original = getattr(certificates, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "_join":
                args = (list(args[0]),)
                calls["blocks"] += len(args[0])
            return original(*args, **kwargs)
        return wrapper

    for table in ("_RANKS", "_PLANS", "_INDEX"):
        monkeypatch.setattr(certificates, table, {})
    for name in names:
        monkeypatch.setattr(certificates, name, counted(name))
    reject = cert("""
        certificate v1; n=2
        start: 1
        insert @0: C[y1,x1]
        expect: C[y1,x1]
    """)
    # at n = 2: 98 seeds of 424 tokens in all, 40 signed S_K tokens, 15
    # signed quotient letters and 8 representatives.  Level 1 reads each
    # seed through the table of each representative; level 2 through the
    # table of each representative after each letter, 120 tables.
    tokens = sum(len(inst.word.tokens) for inst in rk0_instances(2))
    assert tokens == 424
    for depth, work in (
        (1, {"phi_apply": 8 * 40, "phi_word": 40, "_join": 98 * 8,
             "blocks": 8 * 424, "rk0_instances": 1, "orbit_plan": 1}),
        (2, {"phi_apply": 120 * 40, "phi_word": 15 * 40, "_join": 98 * 120,
             "blocks": 120 * 424, "rk0_instances": 0, "orbit_plan": 0}),
    ):
        calls.update(dict.fromkeys(calls, 0))
        assert not check_certificate(reject, depth=depth).ok
        assert calls == work, depth
        calls.update(dict.fromkeys(calls, 0))
        assert not check_certificate(reject, depth=depth).ok
        assert calls == dict.fromkeys(calls, 0), depth
