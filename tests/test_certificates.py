import textwrap

from torellikit.certificates import MAX_RANK, check_certificate, parse_certificate
from torellikit.lpres import krel, phi_word
from torellikit.symwords import M, format_word, std_basis


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
