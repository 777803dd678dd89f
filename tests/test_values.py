"""The package's value classes: fields, equality, hashing, repr, frozenness,
pickling, copying and weak references, and the modules a start imports."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from weakref import WeakKeyDictionary

import pytest

import torellikit
from torellikit import autos, extension as ext
from torellikit.certificates import CertReport, Certificate, parse_certificate
from torellikit.lpres import RelationInstance
from torellikit.semidirect import QElement, semi_inv, semi_mul
from torellikit.suites import SuiteReport
from torellikit.symwords import C, SymWord, std_basis
from torellikit.words import Basis, Word

SRC = Path(torellikit.__file__).resolve().parent.parent
CERT = "certificate v1; n=2\nstart: C[y1,x1]\nexpect: C[y1,x1]\n"


def _samples():
    """Two equal, separately built instances of each value class but
    ``ExtGroup``, and one that differs from them."""
    b = std_basis(2)
    word = SymWord(b, (C(0, 2), C(1, 2, -1)))
    group = ext.birman_ext(2)

    def q(seed):
        return ext.random_q(2, random.Random(seed))

    def g(seed):
        return ext.random_element(group, random.Random(seed))

    return [
        (Basis(2, 1), Basis(2, 1), Basis(2)),
        (autos.Membership(True, False, True, False),
         autos.Membership(True, False, True, False),
         autos.Membership(True, True, True, True)),
        (RelationInstance("R1", (("a", 1),), word),
         RelationInstance("R1", (("a", 1),), SymWord(b, word.tokens)),
         RelationInstance("R1", (("a", 2),), word)),
        (q(1), q(1), q(2)),
        (word, SymWord(b, word.tokens + (C(0, 2), C(0, 2, -1))), word.inv()),
        (g(1), g(1), g(2)),
        (SuiteReport("tb3", {"n": 2}), SuiteReport("tb3", {"n": 2}, []),
         SuiteReport("tb3", {"n": 2}, elapsed_ms=1.0)),
        (parse_certificate(CERT), parse_certificate(CERT),
         parse_certificate(CERT.replace("n=2", "n=3"))),
        (CertReport("a", True), CertReport("a", True, [], 0),
         CertReport("a", False)),
    ]


FROZEN = (Basis, autos.Membership, RelationInstance, QElement, SymWord,
          ext.ExtElement)


def test_equality_and_hash_are_by_fields_within_the_class():
    samples = _samples()
    for one, same, other in samples:
        assert one is not same and one == same and not one != same
        assert one != other
        if type(one) in FROZEN:
            assert hash(one) == hash(same)
        else:
            with pytest.raises(TypeError):
                hash(one)
    # no instance equals one of another class, or the tuple of its fields
    firsts = [one for one, _, _ in samples]
    for i, a in enumerate(firsts):
        assert all(a != b for b in firsts[:i] + firsts[i + 1:])
        assert a != tuple(getattr(a, f) for f in type(a)._fields)
    assert Basis(2, 1).__eq__((2, 1)) is NotImplemented


def test_groups_compare_and_hash_by_identity():
    group = ext.birman_ext(2)
    twin = ext.ExtGroup(group.n, group.phi, group.gamma, group.mul, group.inv,
                        group.kernel_identity)
    assert group == group and group != twin
    assert hash(group) == object.__hash__(group)


def test_pinned_reprs():
    b = std_basis(2)
    assert repr(Basis(2, 1)) == "Basis(n=2, k=1)"
    assert repr(SymWord(b, (C(0, 2), C(1, 2, -1)))) == (
        "SymWord(basis=Basis(n=2, k=1), tokens=(('C', (0, 1), (2, 1)), "
        "('C', (1, 1), (2, -1))))")
    f = autos.transvection(Basis(2), 0, 1, Basis(2).word("x2"))
    assert repr(QElement([1, -2], f)) == "QElement(z=(1, -2), a=Endo(x1 -> x2 x1))"
    with pytest.raises(ValueError, match=r"5 out of range for Basis\(n=2, k=1\)$"):
        Word(Basis(2, 1), [(5, 1)])


def test_constructors_keep_their_checks_and_defaults():
    b = std_basis(2)
    with pytest.raises(ValueError, match="n, k >= 0"):
        Basis(0)
    assert SymWord(b, (C(0, 2), C(0, 2, -1))).tokens == ()
    with pytest.raises(ValueError, match="does not match the automorphism rank"):
        QElement((0,), autos.identity(Basis(2)))
    with pytest.raises(ValueError, match="carry a factorization"):
        QElement((0, 0), autos.Endo(Basis(2), Basis(2).generators()))
    one, two = SuiteReport("s", {}), SuiteReport("s", {})
    one.cases.append({"id": "a"})
    one.elapsed_ms = 2.0
    assert two.cases == [] and two.elapsed_ms == 0.0
    report = CertReport("p", True)
    report.errors.append("e")
    report.ok, report.checked_steps = False, 1
    assert CertReport("p", True).errors == []
    assert Certificate(2, SymWord(b, ()), [], SymWord(b, ())).expect_line == 0


def test_frozen_fields_refuse_assignment_and_deletion():
    for one, _, _ in _samples():
        if type(one) not in FROZEN:
            continue
        for name in type(one)._fields:
            with pytest.raises(AttributeError):
                setattr(one, name, None)
            with pytest.raises(AttributeError):
                delattr(one, name)
        with pytest.raises(AttributeError):
            one.extra = 1


def test_pickle_and_deepcopy_round_trips():
    for one, _, _ in _samples():
        for back in (pickle.loads(pickle.dumps(one)), copy.deepcopy(one)):
            assert type(back) is type(one) and back == one
    group = ext.birman_ext(2)
    twin = copy.deepcopy(group)
    g = ext.random_element(group, random.Random(5))
    assert ext.ext_eq(ext.ext_mul(twin, g, ext.ext_inv(twin, g)), group.identity())


def test_unpickled_words_and_automorphisms_compute_as_the_originals():
    rng = random.Random(0x91C)
    for _ in range(20):
        q = ext.random_q(2, rng)
        back = pickle.loads(pickle.dumps(q))
        for e in (semi_mul(back, semi_inv(back)), semi_mul(q, semi_inv(back))):
            assert not any(e.z) and e.a.is_identity
    w = Basis(2).word("x1 x2^-1")
    assert not (pickle.loads(pickle.dumps(w)) * w.inv())


def test_quotient_elements_and_groups_key_weak_dictionaries():
    table = WeakKeyDictionary()
    q = ext.random_q(2, random.Random(3))
    group = ext.birman_ext(2)
    table[q], table[group] = "q", "group"
    assert table[q] == "q" and table[group] == "group"
    del q, group
    gc.collect()
    assert len(table) == 0


def test_a_start_imports_no_class_generating_machinery():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import torellikit, torellikit.certificates, torellikit.suites\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    added = set(out.split())
    assert "torellikit.suites" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}, sorted(added)
