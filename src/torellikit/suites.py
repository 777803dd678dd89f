"""Verification suites: one per computer-checked identity family.

Every suite is a deterministic function of its parameters (rank, sample
count, seed): case inputs come from a seeded generator, so repeated runs
produce identical reports (the wall-time field aside).  Each suite is a
generator of case results, reported in order.  ``phi-nielsen`` checks
its relators on forked worker processes, one per available CPU
(``_pool_map``), when it has at least ``_POOL_MIN_JOBS`` of them; its
report, and so its digest, is the same as when run serially.  The other
suites run their cases serially, in this process: their jobs are too few
or too cheap for the pool to win.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
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
from .words import Basis, Word, commutator

DEFAULT_SAMPLES = 100


@dataclass
class SuiteReport:
    suite: str
    params: dict
    cases: list = field(default_factory=list)
    elapsed_ms: float = 0.0

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
# worker processes

# chunks handed to each worker process: relator costs vary, so one chunk a
# worker would leave one of them idle at the end
_CHUNKS_PER_WORKER = 8

# fewer jobs than this run in the process: on two cores the pool costs
# about 40 ms to start, and phi-nielsen lost with its 28 relators at n=2
# (22 -> 63 ms) and won with 192 at n=3 (0.59 -> 0.36 s)
_POOL_MIN_JOBS = 100


def _pool_width(jobs: int) -> int:
    """Worker processes for ``jobs`` jobs: one per CPU this process may run
    on, never more than jobs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def _pool_map(fn, jobs: list) -> list:
    """``list(map(fn, jobs))``, computed on forked worker processes.

    ``fn`` is a module-level function and ``jobs`` pickle.  Workers are
    forked, so they see the parent's state, caches and patches included.
    The same ``map`` runs in this process when there are fewer than
    ``_POOL_MIN_JOBS`` jobs, when one worker would do, when the platform
    cannot fork, when another thread runs (a fork copies only the calling
    thread, so a lock held by another would stay held in the workers), in
    a daemonic process (which may not start children), or when the pool
    cannot start.
    """
    width = _pool_width(len(jobs)) if len(jobs) >= _POOL_MIN_JOBS else 1
    if width > 1:
        import multiprocessing  # about 20 ms: only where a pool may start
        import threading

        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1
                and not multiprocessing.current_process().daemon):
            try:
                pool = multiprocessing.get_context("fork").Pool(width)
            except OSError:
                pass
            else:
                chunk = -(-len(jobs) // (width * _CHUNKS_PER_WORKER))
                with pool:
                    return pool.map(fn, jobs, chunk)
    return list(map(fn, jobs))


# ---------------------------------------------------------------------------
# shared case kinds


def _instances_hold(instances):
    """Cases: each relation instance interprets to the identity."""
    for inst in instances:
        yield _case(
            inst.family + str(inst.params),
            lpres.verify_instance(inst),
            inst.describe(),
        )


def _psi_fixed_by(word, n, kernel):
    """First S_K generator not fixed (up to interpretation) by phi(word);
    ``kernel`` pairs each S_K generator with its automorphism."""
    basis = std_basis(n)
    for t, t_endo in kernel:
        img = lpres.phi_word(word, SymWord(basis, (t,)), n)
        if interpret(img.tokens, basis) != t_endo:
            return format_token(t, basis)
    return None


# n -> [(t, interpret((t,))) for each S_K generator t]
_KERNELS: dict = {}


def _kernel(n) -> list:
    kernel = _KERNELS.get(n)
    if kernel is None:
        basis = std_basis(n)
        kernel = _KERNELS[n] = [(t, interpret((t,), basis))
                                for t in alphabet("S_K", n)]
    return kernel


def _moved_generator(job):
    """The witness of one ``(n, word)`` job, or None."""
    n, word = job
    return _psi_fixed_by(word, n, _kernel(n))


def _acts_trivially(n, relators, pooled=False):
    """Cases: each ``(case id, word)`` acts trivially through phi.  Pooled
    words are checked by ``_pool_map``; the kernel list is built first, so
    forked workers inherit it."""
    _kernel(n)
    jobs = [(n, word) for _, word in relators]
    witnesses = (_pool_map if pooled else map)(_moved_generator, jobs)
    for (case_id, _), witness in zip(relators, witnesses):
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


def _trivial(source, pooled=False):
    """A suite whose cases are words each acting trivially through phi:
    the instances of a catalog kind, or an alphabet's inverse pairs.
    Only a ``pooled`` suite checks its words on worker processes.  The
    inverse pairs and ``zn`` lost on the pool at every rank tried (n = 2
    to 7): their words are few and short, and much of their cost fills
    caches that later words reuse (``phi-inverse-A`` at n = 7 takes 1.26 s
    cold and 0.62 s warm), which each worker would fill again."""
    def cases(n, k, samples, seed):
        if source in lpres._CATALOGS:
            words = _named_words(lpres.relation_catalog(source, n))
        else:
            words = _inverse_pairs(source, n)
        return _acts_trivially(n, words, pooled)
    return cases


# ---------------------------------------------------------------------------
# individual suites


def _suite_phi_conj(n, k, samples, seed):
    basis = std_basis(n)
    for s in signed_alphabet("S_Q", n):
        s_endo = interpret((s,), basis)
        s_inv = s_endo.inverse()
        for t in alphabet("S_K", n):
            image = lpres.phi_gen(s, t, n)
            rhs = s_endo * interpret((t,), basis) * s_inv
            yield _case(
                f"{format_token(s, basis)}|{format_token(t, basis)}",
                interpret(image, basis) == rhs,
                f"phi image {format_word(image, basis)}",
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
            yield _case(
                f"{format_token(f, basis)}|{format_word(r, basis)}",
                interpret(value.tokens, basis).is_identity,
                f"expansion {value}",
            )


def _suite_tb3(n, k, samples, seed):
    basis = std_basis(n)
    data = twisted.birman_data(n)
    failures = twisted.tb_check(data, samples=samples, seed=seed)
    for axiom in ("TB1", "TB2", "TB3"):
        bad = [w for ax, w in failures if ax == axiom]
        yield _case(f"{axiom}.sampled", not bad, "; ".join(bad))
    kernel = [interpret((t,), basis) for t in alphabet("S_K", n)]
    for f in alphabet("S_A", n):
        for z in alphabet("S_Z", n):
            zvec = twisted.zn_vector(z, n)
            idx = next(twisted.tb3_failures(data, (f,), zvec, kernel), None)
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
        yield _case(
            inst.family + str(inst.params),
            extension.is_ext_identity(group, g),
            inst.describe(),
        )


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


# Every suite has a lowest n: the alphabets, the seed relations and the
# conjugation table start at n = 2, and the other suites would check F_{0,k}
# vacuously.  A suite with no default k works over F_{n,1}.  Every suite
# also needs samples >= 1 (checked in run_suite): a suite that draws samples
# would pass vacuously, and the others would report a count they never read.
_SUITES = {
    "table1": _Suite(_holds("table1"), dict(n=3, k=3), dict(n=2, k=1)),
    "phi-conj": _Suite(_suite_phi_conj, dict(n=4), dict(n=2)),
    "phi-inverse-A": _Suite(_trivial("S_A"), dict(n=4), dict(n=2)),
    "phi-nielsen": _Suite(_trivial("nielsen", pooled=True), dict(n=4), dict(n=2)),
    "phi-inverse-Z": _Suite(_trivial("S_Z"), dict(n=4), dict(n=2)),
    "phi-zn": _Suite(_trivial("zn"), dict(n=4), dict(n=2)),
    "lambda-zrel": _Suite(_suite_lambda_zrel, dict(n=3), dict(n=2)),
    "tb3": _Suite(_suite_tb3, dict(n=3), dict(n=2)),
    "lambda-arel": _Suite(_suite_lambda_arel, dict(n=3), dict(n=2)),
    "gamma-rel": _Suite(_holds("rk0"), dict(n=4), dict(n=2)),
    "extension": _Suite(_suite_extension, dict(n=2), dict(n=2)),
    "jw-delta": _Suite(_suite_jw_delta, dict(n=3), dict(n=2)),
    "johnson": _Suite(_suite_johnson, dict(n=3, k=2), dict(n=1, k=1)),
    "stab-psi": _Suite(_suite_stab_psi, dict(n=3), dict(n=1)),
    "magnus-oracle": _Suite(_suite_magnus_oracle, dict(n=3, k=2), dict(n=1)),
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
    for key, low in suite.lowest.items():
        if params[key] < low:
            raise ValueError(f"{name} needs {key} >= {low}")
    if samples < 1:
        raise ValueError(f"{name} needs samples >= 1")
    started = time.monotonic()
    report = SuiteReport(name, params, list(suite.cases(n, k, samples, seed)))
    report.elapsed_ms = (time.monotonic() - started) * 1000.0
    if not report.cases:
        raise ValueError(f"suite {name} produced no cases for {params}")
    return report
