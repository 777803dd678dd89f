"""Acceptance suite: every computer-checked identity family, re-verified.

Each test drives one criterion end to end at its stated parameters and
prints a single pass/fail line; every check is exact (integer or word
equality), tolerance zero.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import hashlib
import json

from torellikit.suites import run_suite
from torellikit.autos import (
    expected_johnson_rank,
    johnson_basis_generators,
    johnson_rank,
)
from torellikit.words import Basis


# SHA-256 of the report JSON minus elapsed_ms, for the criteria that run
# the twisted commutator, the extension and the y-stabilizer rebuild: any
# change to a case id, its order, its verdict or its witness shows here
REPORT_DIGESTS = {
    "5a": "e4f9c01e4c4ca2640088146760febe56c30e7c3709556e93911961ba398bf97a",
    "5b": "3803e57005a0aaaf8e26e6b136e6e56c5f1535669b22768f8fc9c38175397dee",
    "6b": "fd4bea3c7ee75a6e7bef1b76c0c44559ed0e545dadb599e22ab1f26de2c28c94",
    "7a": "0a5bf9d91c7efed241181fa0fece893e2c38a1ad3aec088e66f3938e296a9cbe",
    "7b": "aedce5a75f6f897aeab2ebd02e502d14e753594f6b9a7077482db0d5704218fc",
    "8": "b98e571990898ab5d6818f348eb1b0a033ab2aa10d22cd170f3407a7bc5fc66d",
}


def _digest(report):
    data = report.to_dict()
    data.pop("elapsed_ms", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _report(criterion, report):
    ok = report.passed
    print(
        "%s criterion %s: %s (%d cases, %d failures, %.0f ms)"
        % ("PASS" if ok else "FAIL", criterion, report.suite,
           len(report.cases), len(report.failures), report.elapsed_ms)
    )
    for c in report.failures[:10]:
        print("    witness %s: %s" % (c["id"], c.get("witness", "")))
    assert ok, f"criterion {criterion} failed in suite {report.suite}"
    if criterion in REPORT_DIGESTS:
        assert _digest(report) == REPORT_DIGESTS[criterion], criterion


def test_criterion_01_conjugation_table():
    # every row of the kernel conjugation table, all index assignments at
    # (n, k) = (3, 3), both columns, exact equality of automorphisms
    _report("1", run_suite("table1", n=3, k=3))


def test_criterion_02_substitution_is_conjugation():
    # the central semantic identity: for ALL s in S_Q^{+-1}, t in S_K at
    # n = 4, the substitution image interprets to s t s^-1
    _report("2", run_suite("phi-conj", n=4))


def test_criterion_03_substitution_respects_relations():
    # Nielsen relators act trivially through the substitution system, and
    # s s^-1 acts trivially for every signed generator
    _report("3a", run_suite("phi-nielsen", n=4))
    _report("3b", run_suite("phi-inverse-A", n=4))


def test_criterion_04_seed_relations_hold():
    # every seed relation instance at n = 4 (including the permitted
    # non-generic coincidences) is the identity automorphism of F_5
    _report("4", run_suite("gamma-rel", n=4))


def test_criterion_05_twisted_bilinear_axioms():
    # TB1/TB2/TB3 on seeded samples at n = 2 and 3; TB3 exhaustively over
    # generator pairs with k running over the kernel generating set at n = 3
    _report("5a", run_suite("tb3", n=2, samples=100))
    _report("5b", run_suite("tb3", n=3, samples=100))


def test_criterion_06_generator_recursions_well_defined():
    # the letterwise expansions kill relators fed to them unreduced, and
    # agree with the twisted commutator on samples
    _report("6a", run_suite("lambda-zrel", n=3))
    _report("6b", run_suite("lambda-arel", n=3, samples=100))


def test_criterion_07_extension_group():
    # associativity, two-sided inverses, both cocycle identities, and
    # kernel normality in the extension, at n = 2 and n = 3
    _report("7a", run_suite("extension", n=2, samples=100))
    _report("7b", run_suite("extension", n=3, samples=100))


def test_criterion_08_presentation_rebuilds():
    # every relation of the y-stabilizer presentation dies in the extension
    # and the comparison map fixes every generator
    _report("8", run_suite("jw-delta", n=3))


def test_criterion_09_johnson_homomorphism():
    # displayed values on the generating set at (3, 2); the abelianization
    # rank formula at (2,1), (2,2), (3,2) computed at run time; additivity
    rep = run_suite("johnson", n=3, k=2, samples=100)
    for n, k in ((2, 1), (2, 2), (3, 2)):
        gens = johnson_basis_generators(Basis(n, k))
        assert johnson_rank(gens) == expected_johnson_rank(n, k) == len(gens)
    _report("9", rep)


def test_criterion_10_stabilizer_decomposition():
    # the stabilizer splitting is a homomorphism on 100 random pairs with
    # entries in [-5, 5], and block reassembly round-trips
    _report("10", run_suite("stab-psi", n=3, samples=100))


def test_criterion_11_magnus_oracle():
    # the pair-count projection agrees with the wedge of abelianizations on
    # 200 random commutators and is invariant under triple commutators
    _report("11", run_suite("magnus-oracle", n=3, k=2, samples=200))


def test_criterion_12_determinism():
    pairs = []
    for name, kwargs in (
        ("stab-psi", dict(n=3, samples=25, seed=0x5EED)),
        ("johnson", dict(n=2, k=1, samples=10, seed=0x5EED)),
        ("magnus-oracle", dict(n=2, k=1, samples=10, seed=3)),
    ):
        a = run_suite(name, **kwargs).to_dict()
        b = run_suite(name, **kwargs).to_dict()
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        same = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        pairs.append(same)
        print(f"{'PASS' if same else 'FAIL'} criterion 12: {name} reports identical")
    assert all(pairs)
