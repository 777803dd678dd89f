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
