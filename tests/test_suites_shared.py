"""The phi-trivial suites check one case per permutation class and share its
verdict; their reports are the ones a check of every case gives, also when
a rule or an elementary automorphism is changed, and when the symmetry
guard fails."""

import pytest

from torellikit import autos, lpres, suites, symwords
from torellikit.symwords import (
    M,
    alphabet,
    format_token,
    interpret,
    signed_alphabet,
    std_basis,
    token_inv,
)

# suite -> the catalog or alphabet its words come from
PHI_TRIVIAL = {"phi-nielsen": "nielsen", "phi-inverse-A": "S_A",
               "phi-inverse-Z": "S_Z", "phi-zn": "zn"}


def _words(name, n) -> list:
    source = PHI_TRIVIAL[name]
    if source in ("nielsen", "zn"):
        return [(inst.family + str(inst.params), inst.word.tokens)
                for inst in lpres.relation_catalog(source, n)]
    basis = std_basis(n)
    return [(f"inv-pair {format_token(s, basis)}", (s, token_inv(s)))
            for s in signed_alphabet(source, n)]


def _exhaustive(name, n) -> list:
    """The suite's cases, each checked on its own word."""
    basis = std_basis(n)
    kernel = [(t, interpret((t,), basis)) for t in alphabet("S_K", n)]
    cases = []
    for case_id, word in _words(name, n):
        witness = suites._psi_fixed_by(word, n, kernel)
        case = {"id": case_id, "status": "pass" if witness is None else "fail"}
        if witness is not None:
            case["witness"] = f"moves {witness}"
        cases.append(case)
    return cases


def _fresh_caches(monkeypatch):
    """Empty the caches that hold phi images and automorphisms, so that a
    patched rule or atom is read; the originals come back after the test."""
    monkeypatch.setattr(lpres, "_PHI_SIGNED", {})
    monkeypatch.setattr(symwords, "_ENDO_CACHE", {})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(PHI_TRIVIAL))
def test_shared_verdicts_equal_a_check_of_every_case(name, n):
    assert suites.run_suite(name, n=n).cases == _exhaustive(name, n)


def test_a_changed_rule_of_a_non_representative_letter(monkeypatch):
    n = 3
    basis = std_basis(n)
    s0 = M(basis.x(2), 1, basis.x(1))  # relabels to M[x1,x2]
    t0 = alphabet("S_K", n)[0]
    phi_gen = lpres.phi_gen

    def changed(s, t, n):
        image = phi_gen(s, t, n)
        return image + (t,) if (s, t, n) == (s0, t0, 3) else image

    monkeypatch.setattr(lpres, "phi_gen", changed)
    _fresh_caches(monkeypatch)
    for name in ("phi-nielsen", "phi-inverse-A"):
        letters = {s for _, word in _words(name, n) for s in word}
        assert not suites._relabelling_commutes(n, letters)
        report = suites.run_suite(name, n=n)
        assert report.failures and report.cases == _exhaustive(name, n)
        assert all(f["witness"].startswith("moves ") for f in report.failures)
    # shared on the representatives alone, the failures would not all show
    monkeypatch.setattr(suites, "_relabelling_commutes", lambda n, letters: True)
    assert suites.run_suite("phi-nielsen", n=n).cases != _exhaustive("phi-nielsen", n)


def test_a_changed_elementary_automorphism(monkeypatch):
    atom_moves = autos._atom_moves

    def changed(atom):
        # a conjugation of x2 conjugates by the inverse letter
        moves = atom_moves(atom)
        if atom[0] == "C" and atom[1] == 1:
            ((code, (conj, x2, conj_inv)),) = moves
            return ((code, (conj_inv, x2, conj)),)
        return moves

    monkeypatch.setattr(autos, "_atom_moves", changed)
    _fresh_caches(monkeypatch)
    for name in sorted(PHI_TRIVIAL):
        for n in (2, 3):
            report = suites.run_suite(name, n=n)
            assert report.failures and report.cases == _exhaustive(name, n), (name, n)


def _record_checks(monkeypatch) -> list:
    """Record the word of each ``_psi_fixed_by`` check."""
    checked = []
    psi_fixed_by = suites._psi_fixed_by

    def recorded(word, n, kernel):
        checked.append(word)
        return psi_fixed_by(word, n, kernel)

    monkeypatch.setattr(suites, "_psi_fixed_by", recorded)
    return checked


@pytest.mark.parametrize("name", sorted(PHI_TRIVIAL))
def test_a_failing_guard_checks_every_case(monkeypatch, name):
    monkeypatch.setattr(suites, "_relabelling_commutes", lambda n, letters: False)
    checked = _record_checks(monkeypatch)
    report = suites.run_suite(name, n=3)
    monkeypatch.undo()
    assert checked == [word for _, word in _words(name, 3)]
    # the shared report is checked against every case above
    assert report.cases == suites.run_suite(name, n=3).cases


def test_phi_nielsen_checks_one_word_per_class(monkeypatch):
    checked = _record_checks(monkeypatch)
    for n in (4, 5):
        checked.clear()
        assert len(suites.run_suite("phi-nielsen", n=n).cases) > 600
        assert len(checked) == len(set(checked)) == 42


@pytest.mark.parametrize("name", ["phi-nielsen", "phi-inverse-A"])
def test_the_guard_builds_each_phi_image_once(monkeypatch, name):
    n = 3
    letters = {s for _, word in _words(name, n) for s in word}
    calls = []
    phi_gen = lpres.phi_gen

    def counted(s, t, rank):
        calls.append((s, t, rank))
        return phi_gen(s, t, rank)

    monkeypatch.setattr(lpres, "phi_gen", counted)
    assert suites._relabelling_commutes(n, letters)
    assert sorted(calls) == sorted((s, t, n) for s in letters
                                   for t in alphabet("S_K", n))
