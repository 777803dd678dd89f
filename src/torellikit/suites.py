"""Verification suites: one per computer-checked identity family.

Every suite is a deterministic function of its parameters (rank, sample
count, seed): case inputs come from a seeded generator, so repeated runs
produce identical reports (the wall-time field aside).  Each suite is a
generator of case results, reported in order, and runs in this process:
no suite starts a thread or a process.

The phi-trivial suites (``phi-nielsen``, ``phi-inverse-A``,
``phi-inverse-Z``, ``phi-zn``) check one case per permutation class, the
words whose x-support relabels to one least word, once they have checked
at the suite's rank that relabelling commutes with the rules and with
``interpret`` (``_acts_trivially``).  Their reports are the ones a check
of every case gives.
"""

from __future__ import annotations

import json
import time
from itertools import permutations
from random import Random
from typing import Callable, NamedTuple

from . import autos, extension, intmat, lpres, semidirect, twisted
from .symwords import (
    SymWord,
    alphabet,
    format_token,
    format_word,
    interpret,
    signed_alphabet,
    std_basis,
    token_inv,
)
from .twisted import DEFAULT_SEED
from .words import Basis, Fields, Word, commutator

DEFAULT_SAMPLES = 100


class SuiteReport(Fields):
    __slots__ = ("suite", "params", "cases", "elapsed_ms")

    def __init__(self, suite: str, params: dict, cases: list | None = None,
                 elapsed_ms: float = 0.0):
        self.suite, self.params, self.elapsed_ms = suite, params, elapsed_ms
        self.cases = [] if cases is None else cases

    @property
    def failures(self) -> list:
        return [c for c in self.cases if c["status"] == "fail"]

    @property
    def passed(self) -> bool:
        return bool(self.cases) and not self.failures

    def to_dict(self) -> dict:
        return {"suite": self.suite, "params": self.params, "cases": self.cases,
                "elapsed_ms": round(self.elapsed_ms, 3)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_text(self) -> str:
        lines = [
            "suite %s  params %s  cases %d  failures %d  (%.0f ms)"
            % (self.suite, self.params, len(self.cases), len(self.failures),
               self.elapsed_ms)
        ]
        for c in self.failures:
            lines.append("  FAIL %s: %s" % (c["id"], c.get("witness", "")))
        return "\n".join(lines)


def _case(case_id, ok, witness=None) -> dict:
    out = {"id": case_id, "status": "pass" if ok else "fail"}
    if not ok and witness:
        out["witness"] = witness
    return out


# ---------------------------------------------------------------------------
# shared case kinds


def _instances_hold(instances):
    """Cases: each relation instance interprets to the identity."""
    for inst in instances:
        ok = lpres.verify_instance(inst)
        yield _case(inst.family + str(inst.params), ok,
                    None if ok else inst.describe())


def _psi_fixed_by(word, n, kernel):
    """First S_K generator not fixed (up to interpretation) by phi(word);
    ``kernel`` pairs each S_K generator with its automorphism."""
    basis = std_basis(n)
    for t, t_endo in kernel:
        img = lpres.phi_word(word, SymWord(basis, (t,)), n)
        if interpret(img.tokens, basis) != t_endo:
            return format_token(t, basis)
    return None


def _relabelling_commutes(n, letters) -> bool:
    """Whether relabelling x1..xn (``lpres._permute``) commutes at rank n
    with phi and ``interpret``, so that a word over ``letters`` and its
    relabelling get the same ``_psi_fixed_by`` verdict.  Checked for the
    swap (x1 x2) and the cycle (x1 ... xn), which generate every
    permutation pi: pi maps ``letters`` and S_K onto themselves,
    ``phi_gen`` is token-equivariant on ``letters`` x S_K, and for every
    S_K^+-1 token t, ``interpret(pi.t)`` sends x_pi(c) to pi applied to the
    image of x_c under ``interpret(t)``.  ``phi_gen`` is called directly,
    so the check fills no ``phi_apply`` table, and once per pair in
    ``letters`` x S_K: both relabellings map the product of an orbit of
    ``letters`` and an orbit of S_K onto itself, so the pairs are taken one
    such product at a time, and its images are dropped before the next."""
    basis = std_basis(n)
    kernel = alphabet("S_K", n)
    signed_kernel = signed_alphabet("S_K", n)
    swap = (1, 0) + tuple(range(2, n + 1))
    cycle = tuple((c + 1) % n for c in range(n)) + (n,)
    moves = []  # per permutation: (letter -> relabelled, S_K^+-1 -> relabelled)
    for perm in (swap, cycle):
        letter_move = {s: lpres._permute(s, perm) for s in letters}
        move = {t: lpres._permute(t, perm) for t in signed_kernel}
        if (set(letter_move.values()) != letters
                or {move[t] for t in kernel} != set(kernel)):
            return False
        for t in signed_kernel:
            before = interpret((t,), basis).letters
            after = interpret((move[t],), basis).letters
            for c, image in enumerate(before):
                relabelled = tuple((perm[d], e) for d, e in image)
                if after[perm[c]] != relabelled:
                    return False
        moves.append((letter_move, move))
    kernel_orbits = list(_orbits(kernel, [move for _, move in moves]))
    for letter_orbit in _orbits(letters, [letter_move for letter_move, _ in moves]):
        for kernel_orbit in kernel_orbits:
            # closed under both relabellings: each pair's image is built
            # once and read by both comparisons
            images = {(s, t): lpres.phi_gen(s, t, n)
                      for s in letter_orbit for t in kernel_orbit}
            for (s, t), image in images.items():
                for letter_move, move in moves:
                    # a token outside S_K^+-1 relabels to None and fails
                    if tuple(map(move.get, image)) != images[letter_move[s], move[t]]:
                        return False
    return True


def _orbits(items, maps):
    """The orbits of ``items`` under the group the dicts in ``maps``
    generate; each dict sends ``items`` onto themselves."""
    unseen = set(items)
    while unseen:
        orbit, grown = set(), [unseen.pop()]
        while grown:
            x = grown.pop()
            if x not in orbit:
                orbit.add(x)
                grown.extend(m[x] for m in maps)
        unseen -= orbit
        yield orbit


def _least_relabelling(word, n) -> tuple:
    """The least of the words that relabel the x-support of ``word`` onto
    x1..xm by ``lpres._permute``, m being the size of the support.  Only
    the support and y are read, so any permutation of x1..xn extending a
    relabelling gives the same word."""
    # a swap or inversion names codes; the other tokens, signed letters
    support = sorted({part if type(part) is int else part[0]
                      for tok in word for part in tok[1:]} - {n})
    perms = ({n: n, **dict(zip(support, image))}
             for image in permutations(range(len(support))))
    return min(tuple([lpres._permute(tok, perm) for tok in word])
               for perm in perms)


def _acts_trivially(n, relators):
    """Cases: each ``(case id, word)`` acts trivially through phi.

    When ``_relabelling_commutes`` holds for the words' letters, the words
    with one least relabelling share a verdict, checked once on that word,
    which need not be a case.  A failing class is checked again case by
    case, so each failing case has its own witness; otherwise every case
    is checked."""
    basis = std_basis(n)
    kernel = [(t, interpret((t,), basis)) for t in alphabet("S_K", n)]
    shared = _relabelling_commutes(n, {s for _, word in relators for s in word})
    verdicts = {}  # least relabelling -> whether it acts trivially
    for case_id, word in relators:
        if shared:
            least = _least_relabelling(word, n)
            ok = verdicts.get(least)
            if ok is None:
                ok = verdicts[least] = _psi_fixed_by(least, n, kernel) is None
            if ok:
                yield _case(case_id, True)
                continue
        witness = _psi_fixed_by(word, n, kernel)
        yield _case(case_id, witness is None, witness and f"moves {witness}")


def _named_words(instances) -> list:
    return [(inst.family + str(inst.params), inst.word.tokens)
            for inst in instances]


def _inverse_pairs(kind, n) -> list:
    basis = std_basis(n)
    return [(f"inv-pair {format_token(s, basis)}", (s, token_inv(s)))
            for s in signed_alphabet(kind, n)]


def _holds(kind):
    """A suite whose cases are the instances of catalog ``kind``, each
    interpreting to the identity."""
    def cases(n, k, samples, seed):
        return _instances_hold(lpres.relation_catalog(kind, n, k))
    return cases


def _trivial(source):
    """A suite whose cases are words each acting trivially through phi:
    the instances of a catalog kind, or an alphabet's inverse pairs."""
    def cases(n, k, samples, seed):
        if source in lpres._CATALOGS:
            words = _named_words(lpres.relation_catalog(source, n))
        else:
            words = _inverse_pairs(source, n)
        return _acts_trivially(n, words)
    return cases


# ---------------------------------------------------------------------------
# individual suites


def _suite_phi_conj(n, k, samples, seed):
    basis = std_basis(n)
    kernel = [(t, format_token(t, basis)) for t in alphabet("S_K", n)]
    for s in signed_alphabet("S_Q", n):
        s_endo = interpret((s,), basis)
        s_inv = s_endo.inverse()
        s_name = format_token(s, basis)
        for t, t_name in kernel:
            image = lpres.phi_gen(s, t, n)
            rhs = s_endo * interpret((t,), basis) * s_inv
            ok = interpret(image, basis) == rhs
            yield _case(
                f"{s_name}|{t_name}", ok,
                None if ok else f"phi image {format_word(image, basis)}",
            )


def _zprime_relators(n):
    """Commutators of the y-transvections plus all inverse pairs, as raw
    (unreduced) token sequences."""
    words = [inst.word.tokens for inst in lpres.zn_relators(n)]
    words += [(s, token_inv(s)) for s in signed_alphabet("S_Z", n)]
    return words


def _suite_lambda_zrel(n, k, samples, seed):
    basis = std_basis(n)
    for f in signed_alphabet("S_A", n):
        for r in _zprime_relators(n):
            value = twisted.tlambda1(f, r, n)
            ok = interpret(value.tokens, basis).is_identity
            yield _case(
                f"{format_token(f, basis)}|{format_word(r, basis)}", ok,
                None if ok else f"expansion {value}",
            )


def _suite_tb3(n, k, samples, seed):
    basis = std_basis(n)
    failures = twisted.tb_check(n, samples=samples, seed=seed)
    for axiom in ("TB1", "TB2", "TB3"):
        bad = [w for ax, w in failures if ax == axiom]
        yield _case(f"{axiom}.sampled", not bad, "; ".join(bad))
    kernel = [interpret((t,), basis) for t in alphabet("S_K", n)]
    for f in alphabet("S_A", n):
        for z in alphabet("S_Z", n):
            zvec = twisted.zn_vector(z, n)
            idx = next(twisted.tb3_failures((f,), zvec, kernel, n), None)
            yield _case(
                f"TB3 {format_token(f, basis)}|{format_token(z, basis)}",
                idx is None,
                f"kernel generator #{idx}",
            )


def _suite_lambda_arel(n, k, samples, seed):
    basis = std_basis(n)
    unit_vectors = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    relators = _named_words(lpres.nielsen_relators(n))
    relators += [
        (f"invpair {format_token(s, basis)}", (s, token_inv(s)))
        for s in signed_alphabet("S_A", n)
    ]
    for name, r in relators:
        witness = None
        for e in unit_vectors:
            value = twisted.tlambda2(r, e, n)
            if not interpret(value.tokens, basis).is_identity:
                witness = f"z = {e}: {value}"
                break
        yield _case(name, witness is None, witness)
    rng = Random(seed)
    sa = signed_alphabet("S_A", n)
    for i in range(samples):
        w = tuple(rng.choice(sa) for _ in range(rng.randint(0, 5)))
        z = tuple(rng.randint(-3, 3) for _ in range(n))
        sym = twisted.tlambda2(w, z, n)
        yield _case(
            f"matches-twisted-commutator.{i}",
            interpret(sym.tokens, basis) == twisted.lambda_bar(w, z, n),
            f"w={format_word(w, basis)} z={z}",
        )


def _suite_extension(n, k, samples, seed):
    group = extension.birman_ext(n)
    rng = Random(seed)
    for i in range(samples):
        g1, g2, g3 = (extension.random_element(group, rng) for _ in range(3))
        lhs = extension.ext_mul(group, extension.ext_mul(group, g1, g2), g3)
        rhs = extension.ext_mul(group, g1, extension.ext_mul(group, g2, g3))
        yield _case(f"assoc.{i}", extension.ext_eq(lhs, rhs))
    for i in range(samples):
        g = extension.random_element(group, rng)
        gi = extension.ext_inv(group, g)
        ok = extension.is_ext_identity(
            group, extension.ext_mul(group, g, gi)
        ) and extension.is_ext_identity(group, extension.ext_mul(group, gi, g))
        yield _case(f"two-sided-inverse.{i}", ok)
    failures = extension.cocycle_check(group, samples=samples, seed=seed)
    for name in ("conjugation-identity", "cocycle-identity"):
        wit = "; ".join(w for nm, w in failures if nm == name)
        yield _case(name, all(nm != name for nm, _ in failures), wit)
    for i in range(samples):
        q, kk = extension.random_q(n, rng), extension.random_kernel(n, rng)
        gq = extension.ExtElement(group.kernel_identity, q)
        gk = extension.ExtElement(kk, group.identity().q)
        conj = extension.ext_mul(
            group, extension.ext_mul(group, gq, gk), extension.ext_inv(group, gq)
        )
        ok = not any(conj.q.z) and conj.q.a.is_identity
        yield _case(f"kernel-normal.{i}", ok)


def _suite_jw_delta(n, k, samples, seed):
    basis = std_basis(n)
    group = extension.birman_ext(n)
    for c in alphabet("S_C", n):
        img = extension.forward(group, extension.phi_inverse_gen(c, group))
        yield _case(
            f"generator {format_token(c, basis)}",
            img == interpret((c,), basis),
        )
    for inst in lpres.jensen_wahl_relators(n):
        g = extension.phi_inverse_word(inst.word.tokens, group)
        ok = extension.is_ext_identity(group, g)
        yield _case(inst.family + str(inst.params), ok,
                    None if ok else inst.describe())


def _johnson_row_only(rows, z, expect_row) -> bool:
    """The Johnson rows are ``expect_row`` at generator ``z``, zero elsewhere."""
    return all(
        rows[c] == (expect_row if c == z else (0,) * len(expect_row))
        for c in range(len(rows))
    )


def _suite_johnson(n, k, samples, seed):
    basis = Basis(n, k)
    # displayed values on conjugation moves and commutator transvections
    for z in range(basis.size):
        for zp in range(basis.size):
            if z == zp:
                continue
            rows = autos.johnson(autos.conjugation(basis, z, zp))
            expect_row = autos.wedge(_unit(basis.size, zp), _unit(basis.size, z))
            yield _case(
                f"tau-conj {basis.gen_name(z)},{basis.gen_name(zp)}",
                _johnson_row_only(rows, z, expect_row),
                f"rows {rows}",
            )
    for z in range(basis.size):
        for zp in range(basis.size):
            for zpp in range(basis.size):
                if len({z, zp, zpp}) != 3:
                    continue
                v = commutator(Word(basis, ((zp, 1),)), Word(basis, ((zpp, 1),)))
                rows = autos.johnson(autos.transvection(basis, z, 1, v))
                expect_row = autos.wedge(
                    _unit(basis.size, zp), _unit(basis.size, zpp)
                )
                yield _case(
                    "tau-commtv %s,[%s,%s]" % (
                        basis.gen_name(z), basis.gen_name(zp),
                        basis.gen_name(zpp),
                    ),
                    _johnson_row_only(rows, z, expect_row),
                    f"rows {rows}",
                )
    for nn, kk in ((2, 1), (2, 2), (n, k)):
        gens = autos.johnson_basis_generators(Basis(nn, kk))
        rank = autos.johnson_rank(gens)
        expect = autos.expected_johnson_rank(nn, kk)
        yield _case(
            f"rank({nn},{kk})",
            rank == expect and rank == len(gens),
            f"rank {rank}, formula {expect}, generators {len(gens)}",
        )
    rng = Random(seed)
    gens = autos.torelli_kernel_generators(basis)

    def rand_word():
        out = autos.identity(basis)
        for _ in range(rng.randint(0, 4)):
            g = rng.choice(gens)
            out = out * (g if rng.random() < 0.5 else g.inverse())
        return out

    for i in range(samples):
        f, g = rand_word(), rand_word()
        lhs = autos.johnson(f * g)
        rhs = tuple(
            tuple(x + y for x, y in zip(rf, rg))
            for rf, rg in zip(autos.johnson(f), autos.johnson(g))
        )
        yield _case(f"additive.{i}", lhs == rhs)


def _unit(m, i):
    return tuple(int(j == i) for j in range(m))


def _suite_stab_psi(n, k, samples, seed):
    rng = Random(seed)
    for i in range(samples):
        m1 = semidirect.random_stabilizer(n, rng)
        m2 = semidirect.random_stabilizer(n, rng)
        z1, b1 = semidirect.stab_decompose(m1)
        z2, b2 = semidirect.stab_decompose(m2)
        z12, b12 = semidirect.stab_decompose(intmat.matmul(m1, m2))
        moved = semidirect.gl_act_on_Zn(b1, z2)
        ok = (
            b12 == intmat.matmul(b1, b2)
            and z12 == tuple(a + b for a, b in zip(z1, moved))
            and semidirect.stab_compose(z1, b1) == m1
        )
        yield _case(f"pair.{i}", ok)


def _suite_magnus_oracle(n, k, samples, seed):
    basis = Basis(n, k)
    rng = Random(seed)

    def rand_word(max_len=8):
        letters = [
            (rng.randrange(basis.size), rng.choice((1, -1)))
            for _ in range(rng.randint(1, max_len))
        ]
        return Word(basis, letters)

    for i in range(samples):
        u, v = rand_word(), rand_word()
        lhs = autos.lambda2_projection(commutator(u, v))
        rhs = autos.wedge(u.abelianize(), v.abelianize())
        yield _case(f"commutator-wedge.{i}", lhs == rhs, f"u={u} v={v}")
    for i in range(samples):
        w = commutator(rand_word(4), rand_word(4)) * commutator(
            rand_word(4), rand_word(4)
        )
        deep = commutator(commutator(rand_word(3), rand_word(3)), rand_word(3))
        ok = autos.lambda2_projection(w * deep) == autos.lambda2_projection(w)
        yield _case(f"triple-commutator-invariance.{i}", ok)


class _Suite(NamedTuple):
    cases: Callable  # (n, k, samples, seed) -> case dicts
    defaults: dict   # names a default k only if the suite reads k
    lowest: dict     # lower bounds on the parameters, checked before it starts
    highest: dict    # upper bounds on n and the k it reads, checked likewise


# Every suite has a lowest n: the alphabets, the seed relations and the
# conjugation table start at n = 2, and the other suites would check F_{0,k}
# vacuously.  Each suite that reads k has a lowest k as well: 1 for
# ``table1`` and ``johnson``, 0 for ``magnus-oracle``, which also works over
# F_{n,0} = F_n.  A suite with no default k works over F_{n,1}.  Every suite
# also needs 1 <= samples <= MAX_SAMPLES (checked in run_suite): a suite
# that draws samples would pass vacuously, and the others would report a
# count they never read.  The highest n and k bound the cost: each suite at
# its highest n, k and samples together ran in under 9 s (README).
MAX_SAMPLES = 1000
_SUITES = {
    "table1": _Suite(_holds("table1"), dict(n=3, k=3), dict(n=2, k=1),
                     dict(n=8, k=8)),
    "phi-conj": _Suite(_suite_phi_conj, dict(n=4), dict(n=2), dict(n=8)),
    "phi-inverse-A": _Suite(_trivial("S_A"), dict(n=4), dict(n=2), dict(n=8)),
    "phi-nielsen": _Suite(_trivial("nielsen"), dict(n=4), dict(n=2), dict(n=8)),
    "phi-inverse-Z": _Suite(_trivial("S_Z"), dict(n=4), dict(n=2), dict(n=8)),
    "phi-zn": _Suite(_trivial("zn"), dict(n=4), dict(n=2), dict(n=8)),
    "lambda-zrel": _Suite(_suite_lambda_zrel, dict(n=3), dict(n=2), dict(n=8)),
    "tb3": _Suite(_suite_tb3, dict(n=3), dict(n=2), dict(n=8)),
    "lambda-arel": _Suite(_suite_lambda_arel, dict(n=3), dict(n=2), dict(n=6)),
    "gamma-rel": _Suite(_holds("rk0"), dict(n=4), dict(n=2), dict(n=8)),
    "extension": _Suite(_suite_extension, dict(n=2), dict(n=2), dict(n=8)),
    "jw-delta": _Suite(_suite_jw_delta, dict(n=3), dict(n=2), dict(n=8)),
    "johnson": _Suite(_suite_johnson, dict(n=3, k=2), dict(n=1, k=1),
                      dict(n=8, k=8)),
    "stab-psi": _Suite(_suite_stab_psi, dict(n=3), dict(n=1), dict(n=8)),
    "magnus-oracle": _Suite(_suite_magnus_oracle, dict(n=3, k=2),
                            dict(n=1, k=0), dict(n=8, k=8)),
}


def suite_names() -> list:
    return sorted(_SUITES)


def run_suite(name: str, n: int | None = None, k: int | None = None,
              samples: int | None = None, seed: int | None = None) -> SuiteReport:
    """Run one named suite; parameters default per suite."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; have {suite_names()}")
    suite = _SUITES[name]
    n = suite.defaults["n"] if n is None else n
    if "k" not in suite.defaults and k not in (None, 1):
        # a k the suite never reads would still be written into its report
        raise ValueError(f"{name} works over k = 1, got {k}")
    k = suite.defaults.get("k", 1) if k is None else k
    samples = DEFAULT_SAMPLES if samples is None else samples
    seed = DEFAULT_SEED if seed is None else seed
    params = {"n": n, "k": k, "samples": samples, "seed": seed}
    for key, low in dict(suite.lowest, samples=1).items():
        if params[key] < low:
            raise ValueError(f"{name} needs {key} >= {low}")
    for key, high in dict(suite.highest, samples=MAX_SAMPLES).items():
        if params[key] > high:
            raise ValueError(f"{name} needs {key} <= {high}")
    started = time.monotonic()
    report = SuiteReport(name, params, list(suite.cases(n, k, samples, seed)))
    report.elapsed_ms = (time.monotonic() - started) * 1000.0
    if not report.cases:
        raise ValueError(f"suite {name} produced no cases for {params}")
    return report
