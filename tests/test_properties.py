"""Property tests of the token notation and the certificate parser."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from torellikit.certificates import CertificateError, parse_certificate  # noqa: E402
from torellikit.symwords import (  # noqa: E402
    ALPHABETS,
    format_token,
    parse_token,
    signed_alphabet,
    std_basis,
)

TOKENS = [(n, tok) for n in (2, 3, 4) for kind in ALPHABETS
          for tok in signed_alphabet(kind, n)]

# arbitrary text, or a position and a word around the colon
INSERTS = st.one_of(
    st.text(max_size=40),
    st.builds("{}:{}".format,
              st.one_of(st.integers().map(str), st.text(max_size=8)),
              st.one_of(st.sampled_from([" 1", " C[y1,x1]", " M[x1,y1]^-1"]),
                        st.text(max_size=20))),
)


def test_every_signed_token_round_trips():
    for n, tok in TOKENS:
        basis = std_basis(n)
        assert parse_token(format_token(tok, basis), basis) == tok


@hypothesis.settings(max_examples=200, deadline=1000)
@hypothesis.given(INSERTS)
def test_insert_lines_parse_or_are_refused(text):
    cert = f"certificate v1; n=2\nstart: 1\ninsert @{text}\nexpect: 1\n"
    try:
        parse_certificate(cert)
    except CertificateError as exc:
        assert "invalid literal" not in str(exc)


# whole token text: a tag (one of the five, or junk) around 0-4 parts
PARTS = st.one_of(
    st.sampled_from(["1", "2", "x1", "x2", "y1", "y", "x1^-1", "y1^-1", "x2^1"]),
    st.integers(-3, 5).map(str),
    st.text(max_size=6),
)
TOKEN_TEXTS = st.builds(
    "{}[{}]{}".format,
    st.one_of(st.sampled_from(["P", "I", "M", "C", "Mc"]), st.text(max_size=3)),
    st.lists(PARTS, max_size=4).map(",".join),
    st.sampled_from(["", "^-1", "^1"]),
)


@hypothesis.settings(max_examples=300, deadline=1000)
@hypothesis.given(TOKEN_TEXTS)
def test_token_parse_errors_are_worded_by_the_project(text):
    try:
        parse_token(text, std_basis(3))
    except ValueError as exc:
        assert "invalid literal" not in str(exc), text
        assert "values to unpack" not in str(exc), text


def test_malformed_tokens_have_one_line_messages():
    for text, message in (
        ("P[x1,x2]", "swap index 'x1' is not an integer"),
        ("I[]", "inversion index '' is not an integer"),
        ("I[1.5]", "inversion index '1.5' is not an integer"),
        ("M[x1]", "M token needs two letters: 'M[x1]'"),
        ("M[x1,x2,x3]", "M token needs two letters: 'M[x1,x2,x3]'"),
        ("C[x1,y1,x2]", "C token needs two letters: 'C[x1,y1,x2]'"),
        ("M[x1^a,x2]", "letter exponent must be +-1, got 'x1^a'"),
        # int() refuses more than 4,300 digits in its own words, and the
        # message echoes the first 80 characters of the input
        ("M[x" + "1" * 5000 + ",x2]",
         "letter index '" + "1" * 80 + "'... has more than 18 digits"),
        ("P[1," + "2" * 5000 + "]",
         "swap index '" + "2" * 80 + "'... has more than 18 digits"),
        ("M[x1^" + "1" * 5000 + ",x2]",
         "letter exponent must be +-1, got 'x1^" + "1" * 77 + "'..."),
        ("x" * 5000, "cannot parse token '" + "x" * 80 + "'..."),
    ):
        cert = f"certificate v1; n=3\nstart: {text}\nexpect: 1\n"
        with pytest.raises(CertificateError) as exc:
            parse_certificate(cert)
        assert str(exc.value) == f"line 2: {message}"
