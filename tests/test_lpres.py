import hashlib
import random
from itertools import combinations

import pytest

from torellikit import autos, lpres, symwords
from torellikit.certificates import MAX_RANK
from torellikit.lpres import (
    krel,
    nielsen_relators,
    orbit_plan,
    phi_apply,
    phi_gen,
    phi_word,
    relation_catalog,
    rk0_instances,
    verify_instance,
)
from torellikit.symwords import (
    _reduce_tokens,
    C,
    M,
    Mc,
    P,
    SymWord,
    alphabet,
    format_word,
    interpret,
    is_generator,
    signed_alphabet,
    std_basis,
    token_inv,
    tokens_inv,
)
from torellikit.words import Word

N = 3
B = std_basis(N)
Y = B.y(1)


def test_phi_gen_examples():
    # swap relabeling
    assert phi_gen(P(0, 1), C(0, Y), N) == (C(1, Y),)
    # first table block: the new commutator transvection appears
    assert phi_gen(M(0, 1, Y), C(Y, 1), N) == (C(Y, 1), Mc(0, 1, Y, -1, 1, -1))
    assert phi_gen(token_inv(M(0, 1, Y)), C(Y, 1), N) == (
        C(Y, 1), Mc(0, 1, Y, 1, 1, -1),
    )
    # fixed case
    assert phi_gen(M(0, 1, Y), C(1, Y), N) == (C(1, Y),)
    with pytest.raises(ValueError):
        phi_gen(M(0, 1, Y), token_inv(C(Y, 1)), N)  # inverses are not generators
    with pytest.raises(ValueError):
        phi_gen(M(0, -1, Y), C(1, Y), N)  # M[x1^-1, y] is not in S_Q^+-1


def test_phi_gen_images_are_pinned_token_for_token():
    """Certificates locate relators by these exact tokens, so every image
    of an S_K generator under a signed S_Q letter is pinned, not only its
    automorphism."""
    digest = hashlib.sha256()
    for n in range(2, 6):
        basis = std_basis(n)
        for s in signed_alphabet("S_Q", n):
            for t in alphabet("S_K", n):
                digest.update(format_word(phi_gen(s, t, n), basis).encode() + b"\n")
    assert digest.hexdigest() == (
        "9956c5e692e4b9189d33ac9c6a78aa42043715f4830d1c684c86da7275a61ec2"
    )


def test_phi_is_semantic_conjugation():
    for s in signed_alphabet("S_Q", N):
        s_endo = interpret((s,), B)
        s_inv = s_endo.inverse()
        for t in alphabet("S_K", N):
            lhs = interpret(phi_gen(s, t, N), B)
            assert lhs == s_endo * interpret((t,), B) * s_inv


def test_phi_word_monoid_homomorphism():
    rng = random.Random(4)
    sq = signed_alphabet("S_Q", N)
    sk = signed_alphabet("S_K", N)
    for _ in range(50):
        u = tuple(rng.choice(sq) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(sq) for _ in range(rng.randint(0, 3)))
        w = SymWord(B, tuple(rng.choice(sk) for _ in range(rng.randint(0, 3))))
        assert phi_word(u + v, w, N).tokens == phi_word(
            u, phi_word(v, w, N), N
        ).tokens


def _raw_phi(u, tokens, n):
    """phi of a whole S_Q word by concatenating phi_gen images, innermost
    letter first, reduced once at the end."""
    for s in reversed(u):
        raw = []
        for tok in tokens:
            if is_generator(tok, "S_K", n):
                raw.extend(phi_gen(s, tok, n))
            else:
                raw.extend(tokens_inv(phi_gen(s, token_inv(tok), n)))
        tokens = raw
    return _reduce_tokens(tokens)


def _is_reduced(tokens):
    return all(b != token_inv(a) for a, b in zip(tokens, tokens[1:]))


def test_phi_images_cancel_only_where_they_meet():
    rng = random.Random(13)
    for n in (2, 3, 4):
        sq = signed_alphabet("S_Q", n)
        sk = signed_alphabet("S_K", n)
        for trial in range(120):
            w = [rng.choice(sk) for _ in range(rng.randint(0, 8))]
            for _ in range(rng.randint(0, 3)):  # planted inverse pairs
                t = rng.choice(sk)
                i = rng.randint(0, len(w))
                w[i:i] = [t, token_inv(t)]
            w = tuple(w)
            if trial % 4 == 0:
                w = w + tokens_inv(w)  # cancels in full
            u = tuple(rng.choice(sq) for _ in range(rng.randint(0, 3)))
            for s in sq[trial % len(sq)::40]:
                out = phi_apply(s, w, n)
                assert out == _raw_phi((s,), w, n) and _is_reduced(out)
            out = phi_word(u, w, n).tokens
            assert out == _raw_phi(u, w, n) and _is_reduced(out), (n, u, w)
            if trial % 4 == 0:
                assert out == ()


def test_krel_examples_and_invalid_marker():
    r1 = krel(1, N, a=1, b=2)
    assert r1.tokens == (C(0, Y), C(1, Y), token_inv(C(0, Y)), token_inv(C(1, Y)))
    assert interpret(r1.tokens, B).is_identity
    r4 = krel(4, N, a=1, b=2, alpha=1, beta=1, eps=1)
    assert interpret(r4.tokens, B).is_identity
    # R2 with x_a^alpha = x_b^beta violates a side condition
    assert krel(2, N, a=1, b=1, c=2, d=3, alpha=1, beta=1) is None
    # but the allowed coincidences are accepted
    assert krel(2, N, a=1, b=1, c=2, d=2, alpha=1, beta=-1) is not None
    with pytest.raises(ValueError):
        krel(11, N, a=1, b=2)


def test_seed_relations_interpret_to_identity():
    for inst in rk0_instances(N):
        assert verify_instance(inst), inst.describe()


def test_relation_catalog_kinds():
    kinds = ("nielsen", "jensen_wahl", "rk0", "zn", "table1", "s1prime")
    for kind in kinds:
        k = 3 if kind in ("table1", "s1prime") else 1
        instances = list(relation_catalog(kind, 3, k))
        assert instances
        for inst in instances:
            assert verify_instance(inst), inst.describe()
    with pytest.raises(ValueError):
        relation_catalog("bogus", 3)
    with pytest.raises(ValueError):
        relation_catalog("rk0", 1)


def test_rk0_count_matches_independent_enumeration():
    # brute-force count over raw parameter tuples and side conditions
    n = 2
    signs = (1, -1)
    count = 0
    count += n * (n - 1)  # R1
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if a == c or b == d or a == d or b == c:
                        continue
                    for alpha in signs:
                        for beta in signs:
                            if a == b and alpha == beta:
                                continue
                            count += 2 * 2 * 2  # gamma, delta, eps
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if a in (b, c) or b == c:
                    continue
                count += 8  # R3: beta, eps, gamma
    count += 4 * n * (n - 1) * 8  # R4-R7
    # R8-R10 need three distinct indices; none at n = 2
    assert sum(1 for _ in rk0_instances(n)) == count


def test_table1_covers_both_columns():
    insts = list(relation_catalog("table1", 3, 3))
    assert any(i.family.endswith("+") for i in insts)
    assert any(i.family.endswith("-") for i in insts)
    families = {i.family.rstrip("+-") for i in insts}
    assert len(families) == 11


def test_nielsen_families_present():
    fams = {inst.family for inst in nielsen_relators(2)}
    assert "N3" in fams and "N1.swap2" in fams and "N5" not in fams
    fams3 = {inst.family for inst in nielsen_relators(3)}
    assert "N5" in fams3 and "N4" in fams3


def test_phi_fixes_relators_semantically():
    rng = random.Random(8)
    instances = list(rk0_instances(N))
    for s in signed_alphabet("S_Q", N):
        for inst in rng.sample(instances, 12):
            image = phi_word((s,), inst.word, N)
            assert interpret(image.tokens, B).is_identity


# ---------------------------------------------------------------------------
# the permutation symmetry behind the certificate index


def _generators_of_s_n(n):
    """The swap (x1 x2) and the cycle (x1 x2 ... xn), as ``_permute`` takes
    them; together they generate every permutation of x1..xn."""
    swap = (1, 0) + tuple(range(2, n + 1))
    cycle = tuple((c + 1) % n for c in range(n)) + (n,)
    return swap, cycle


def _moves(n, perm):
    tokens = signed_alphabet("S_Q", n) + signed_alphabet("S_K", n)
    return {t: lpres._permute(t, perm) for t in tokens}


def _equivariance_failures(n, perm, image_rank=None):
    """The (s, t) of S_Q^+-1 x S_K where relabelling phi_s(t) by the
    permutation differs, token for token, from phi of the relabelled pair.
    With ``image_rank``, ``perm`` maps rank n into that rank, where the
    relabelled pair is taken."""
    move = _moves(n, perm)
    phi = lpres.phi_gen
    target = n if image_rank is None else image_rank
    return [
        (s, t) for s in signed_alphabet("S_Q", n) for t in alphabet("S_K", n)
        if tuple(map(move.get, phi(s, t, n))) != phi(move[s], move[t], target)
    ]


def test_phi_gen_commutes_with_permutations():
    for n in range(2, MAX_RANK + 1):
        for perm in _generators_of_s_n(n):
            assert _equivariance_failures(n, perm) == [], (n, perm)


def _permutation_endo(basis, perm):
    """The automorphism x_c -> x_perm[c], fixing y."""
    return autos.Endo(basis, [Word(basis, ((perm[c], 1),))
                              for c in range(basis.size)])


def test_interpret_commutes_with_permutations():
    """interpret(pi.t) == pi * interpret(t) * pi^-1 for every signed S_K,
    S_Q and S_C token t, pi being the relabelling that ``_permute`` makes."""
    for n in range(2, MAX_RANK + 1):
        basis = std_basis(n)
        tokens = {t for kind in ("S_K", "S_Q", "S_C")
                  for t in signed_alphabet(kind, n)}
        for perm in _generators_of_s_n(n):
            pi = _permutation_endo(basis, perm)
            pi_inv = _permutation_endo(basis, tuple(map(perm.index, range(n + 1))))
            differ = [t for t in tokens
                      if interpret((lpres._permute(t, perm),), basis)
                      != pi * interpret((t,), basis) * pi_inv]
            assert differ == [], (n, perm, differ[:3])


def test_seed_relators_are_closed_under_permutations():
    for n in range(2, 6):
        seeds = {inst.word.tokens for inst in rk0_instances(n)}
        for perm in _generators_of_s_n(n):
            move = _moves(n, perm)
            assert {tuple(map(move.get, w)) for w in seeds} == seeds, (n, perm)


def test_orbit_plan_carries_every_letter_to_a_representative():
    for n in range(2, 6):
        reps, plan = orbit_plan(n)
        assert len(reps) == 8
        assert set(plan) == set(signed_alphabet("S_Q", n))
        assert {lpres._permute(s, perm) for s, perm in plan.items()} == set(reps)
        for perm in plan.values():
            assert sorted(perm) == list(range(n + 1)) and perm[n] == n
        assert len(set(plan.values())) == n * (n - 1)


def test_a_changed_rule_of_one_letter_breaks_equivariance(monkeypatch):
    n = 3
    s0, t0 = M(B.x(2), 1, B.x(1)), C(Y, B.x(1))  # s0 is no representative
    assert s0 not in orbit_plan(n)[0]
    original = lpres.phi_gen

    def changed(s, t, n):
        image = original(s, t, n)
        return image + (t, token_inv(t)) if (s, t) == (s0, t0) else image

    monkeypatch.setattr(lpres, "phi_gen", changed)
    swap, _ = _generators_of_s_n(n)
    assert _equivariance_failures(n, swap)


# ---------------------------------------------------------------------------
# rank stability: the seeds and the rules do not depend on n


def _inclusion(m):
    """x1..xm into x1..x(m+1), y to y, as ``_permute`` takes it."""
    return tuple(range(m)) + (m + 1,)


def _full_support_seeds(m):
    """The rank-m seeds that mention each of x1..xm."""
    return [w for w in (inst.word.tokens for inst in rk0_instances(m))
            if {part[0] for tok in w for part in tok[1:]} - {m} == set(range(m))]


def test_seeds_are_the_embeddings_of_the_seeds_of_rank_at_most_4():
    full = {m: _full_support_seeds(m) for m in (2, 3, 4)}
    assert [len(seeds) for seeds in full.values()] == [98, 624, 768]
    for n in range(2, 6):
        embedded = {
            tuple(lpres._permute(t, xs + (n,)) for t in w)
            for m, seeds in full.items() for xs in combinations(range(n), m)
            for w in seeds
        }
        assert {inst.word.tokens for inst in rk0_instances(n)} == embedded, n


def test_phi_gen_commutes_with_the_inclusion_of_each_rank():
    for m in range(2, MAX_RANK):
        assert _equivariance_failures(m, _inclusion(m), m + 1) == [], m


def test_a_rule_that_reads_n_breaks_rank_stability(monkeypatch):
    original = lpres.phi_gen

    def reads_n(s, t, n):
        image = original(s, t, n)
        y = std_basis(n).y(1)
        if (s, t) == (M(0, 1, y), C(1, y)):
            last = C(n - 1, y)  # C[xn,y]: it names the rank
            return (last,) + image + (token_inv(last),)
        return image

    monkeypatch.setattr(lpres, "phi_gen", reads_n)
    y = std_basis(2).y(1)
    assert _equivariance_failures(2, _inclusion(2), 3) == [(M(0, 1, y), C(1, y))]


def _interpret_inclusion_failures(m):
    """The signed S_K, S_Q and S_C tokens t of rank m whose automorphism,
    carried into rank m + 1 by the inclusion (x_(m+1) fixed), differs from
    the automorphism of the included token."""
    inc = _inclusion(m)
    small, big = std_basis(m), std_basis(m + 1)
    fixed = Word(big, ((m, 1),))
    tokens = {t for kind in ("S_K", "S_Q", "S_C")
              for t in signed_alphabet(kind, m)}
    differ = []
    for t in sorted(tokens):
        images = [fixed] * big.size
        for c, w in enumerate(interpret((t,), small).images):
            images[inc[c]] = Word(big, tuple((inc[d], e) for d, e in w.letters))
        if interpret((lpres._permute(t, inc),), big) != autos.Endo(big, images):
            differ.append(t)
    return differ


def test_interpret_commutes_with_the_inclusion_of_each_rank():
    for m in range(2, MAX_RANK):
        assert _interpret_inclusion_failures(m) == [], m


def test_an_automorphism_that_reads_n_breaks_rank_stability(monkeypatch):
    original = symwords.token_endo

    def reads_n(tok, basis):
        f = original(tok, basis)
        y = basis.y(1)
        if tok == C(1, y):
            return f * original(C(basis.n - 1, y), basis)  # names the rank
        return f

    monkeypatch.setattr(symwords, "token_endo", reads_n)
    assert _interpret_inclusion_failures(2) == [C(1, std_basis(2).y(1))]
