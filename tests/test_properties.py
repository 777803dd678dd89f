"""Property tests of the token notation, the certificate parser and the
command line."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from torellikit.certificates import CertificateError, parse_certificate  # noqa: E402
from torellikit.cli import main  # noqa: E402
from torellikit.lpres import CATALOG_MAX, _CATALOGS, _move, _permute, krel  # noqa: E402
from torellikit import symwords  # noqa: E402
from torellikit.symwords import (  # noqa: E402
    ALPHABETS,
    SymWord,
    format_token,
    in_alphabet,
    parse_token,
    parse_word,
    signed_alphabet,
    std_basis,
    token_inv,
)
from torellikit.suites import MAX_SAMPLES, _SUITES, suite_names  # noqa: E402

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


# the signed S_K and S_Q tokens of ranks 2..4, for spelled words
SPELLED = {n: signed_alphabet("S_K", n) + signed_alphabet("S_Q", n)
           for n in (2, 3, 4)}


@st.composite
def spelled_words(draw):
    """A rank, a word of up to six S_K and S_Q tokens, and its text in drawn
    spellings: spaces, ``y`` for ``y1``, ``^1`` on a letter or a token,
    either sign on C's first letter, and a token as its inverse's ``]^-1``."""
    n = draw(st.integers(2, 4))
    basis = std_basis(n)
    tokens = draw(st.lists(st.sampled_from(SPELLED[n]), max_size=6))
    pad = st.sampled_from(["", " ", "  "])
    one = st.sampled_from(["", "^1"])
    parts = []
    for tok in tokens:
        invert = draw(st.booleans())
        tag, *args = token_inv(tok) if invert else tok
        if tag in ("P", "I"):
            letters = [str(code + 1) for code in args]
        else:
            letters = []
            for i, (code, sign) in enumerate(args):
                name = basis.gen_name(code)
                if name == "y1" and draw(st.booleans()):
                    name = "y"
                if tag == "C" and i == 0:
                    sign = draw(st.sampled_from([1, -1]))
                letters.append(name + ("^-1" if sign == -1 else draw(one)))
        body = ",".join(draw(pad) + letter + draw(pad) for letter in letters)
        suffix = "^-1" if invert else draw(one)
        parts.append(f"{draw(pad)}{tag}{draw(pad)}[{body}]{suffix}{draw(pad)}")
    return n, tokens, "*".join(parts) or draw(st.sampled_from(["1", "", " 1 "]))


@hypothesis.settings(max_examples=200, deadline=1000)
@hypothesis.given(spelled_words())
def test_each_spelling_parses_alike_warm_cold_and_token_by_token(drawn):
    n, tokens, text = drawn
    basis = std_basis(n)
    want = SymWord(basis, tuple(tokens))
    assert parse_word(text, basis) == want
    symwords._PARSED.clear()
    assert parse_word(text, basis) == want
    assert parse_word(text, basis) == want
    parts = () if text.strip() in ("", "1") else text.split("*")
    assert SymWord(basis, tuple(parse_token(p, basis) for p in parts)) == want


# every signed S_K, S_Q and S_C token of ranks 2..5, with its alphabet
RELABELLED = {n: [(kind, tok) for kind in ("S_K", "S_Q", "S_C")
                  for tok in signed_alphabet(kind, n)] for n in range(2, 6)}


@st.composite
def relabellings(draw):
    """A rank and a permutation of x1..xn at it, as ``_permute`` takes it."""
    n = draw(st.integers(2, 5))
    return n, tuple(draw(st.permutations(range(n)))) + (n,)


@hypothesis.settings(max_examples=100, deadline=1000)
@hypothesis.given(relabellings())
def test_relabelling_by_the_inverse_gives_each_token_back(drawn):
    """The certificate index maps a hash hit back by the inverse."""
    n, perm = drawn
    inverse = tuple(map(perm.index, range(n + 1)))
    for kind, tok in RELABELLED[n]:
        moved = _permute(tok, perm)
        assert in_alphabet(moved, kind, n) and _permute(moved, inverse) == tok


def test_each_swap_and_inversion_relabels_back_in_two_steps():
    for n, tokens in RELABELLED.items():
        for s in signed_alphabet("S_Q", n):
            if s[0] not in ("P", "I"):
                continue
            move = _move(s, n)
            for kind, tok in tokens:
                moved = _permute(tok, *move)
                assert _permute(moved, *move) == tok, (s, tok)
                # an inversion takes M[x, y] out of S_Q, never a token out of S_K
                assert kind != "S_K" or in_alphabet(moved, kind, n), (s, tok)


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
        # only [0-9]+ is an index and only 1 or -1 an exponent
        ("P[+1,2]", "swap index '+1' is not an integer"),
        ("I[ 1_0 ]", "inversion index '1_0' is not an integer"),
        ("C[x\u0661,y]", "cannot parse letter 'x\u0661'"),
        ("M[x1^+1,x2]", "letter exponent must be +-1, got 'x1^+1'"),
        ("M[x1,x2^01]", "letter exponent must be +-1, got 'x2^01'"),
    ):
        cert = f"certificate v1; n=3\nstart: {text}\nexpect: 1\n"
        with pytest.raises(CertificateError) as exc:
            parse_certificate(cert)
        assert str(exc.value) == f"line 2: {message}"


# ---------------------------------------------------------------------------
# whole certificate files and command lines end in exit 0, 1 or 2, with at
# most one line on stderr.  Each draw is well formed but for at most one
# line or value, so most runs get past the parser.


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# junk in place of a value: an integer only if it is small, or 25 digits
# long, which every rank, sample count and depth refuses before any work
HUGE = "9" * 25
JUNK = st.one_of(st.sampled_from(["", "x", "-1", "0", "3", "1.5", HUGE, "-" + HUGE]),
                 st.text(max_size=8).filter(_not_an_int))
RELATOR = str(krel(1, 2, a=1, b=2))
WORDS = st.one_of(
    st.sampled_from(["1", RELATOR, RELATOR + " * C[y1,x1]"]),
    st.lists(st.sampled_from(["C[y1,x1]", "C[x1,y1]^-1", "C[x2,y1]", "M[x1,y1]",
                              "I[1]", "P[1,2]", "C[y1,x3]"]), max_size=4)
    .map(lambda tokens: " * ".join(tokens) or "1"),
)


@st.composite
def certify_runs(draw):
    """A certificate's text and the certify argv after ``--file``.  A file
    that reaches the relator lookup has rank 2 or 3, and rank 2 at depth 2,
    so no run builds an index larger than the (3, 1) one."""
    depth = draw(st.sampled_from([None, "0", "1", "2", "junk"]))
    depth = draw(JUNK) if depth == "junk" else depth
    rank = 2 if depth == "2" else draw(st.sampled_from([2, 3]))
    lines = [f"certificate v1; n={rank}", "start: " + draw(WORDS)]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(f"insert @{draw(st.integers(0, 4))}: {draw(WORDS)}")
    lines.append("expect: " + draw(WORDS))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.one_of(
            JUNK, st.sampled_from(["certificate v1; n=9", "certificate v2; n=2",
                                   "# a comment", "insert @0 C[y1,x1]"]),
            st.builds("insert @{}: 1".format, JUNK),
            st.builds("{}: 1".format, st.sampled_from(["start", "expect"])),
        ))]
    return "\n".join(lines) + "\n", [] if depth is None else ["--depth", depth]


def _corrupt(draw, argv):
    """``argv`` with at most one value replaced by junk, or one argument
    appended."""
    choice = draw(st.integers(0, 3))
    if choice == 1:
        argv[draw(st.sampled_from(range(2, len(argv), 2)))] = draw(JUNK)
    elif choice == 2:
        argv.append(draw(st.sampled_from(["--threads", "extra", "-h", "--bogus=1"])))
    return argv


@st.composite
def cli_argvs(draw):
    """A ``verify`` or ``catalog`` argv at rank 1 or 2 and at most two
    samples, so each run takes milliseconds; or with one of ``--n``, ``--k``
    and ``--samples`` just above its highest value or 25 digits long, which
    is refused before any work.  Paired with whether the argv must be
    refused that way: it is out of range and nothing else was changed."""
    small = st.sampled_from(["1", "2"])
    if draw(st.booleans()):
        argv = ["catalog", "--dump", draw(st.sampled_from(sorted(_CATALOGS))),
                "--n", draw(small)]
        highest = dict(n=CATALOG_MAX, k=CATALOG_MAX)
    else:
        suite = draw(st.sampled_from(suite_names()))
        argv = ["verify", "--suite", suite,
                "--n", draw(small), "--samples", draw(small)]
        highest = dict(_SUITES[suite].highest, samples=MAX_SAMPLES)
        if draw(st.booleans()):
            argv += ["--seed", draw(st.one_of(st.integers().map(str),
                                              st.integers().map(hex)))]
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["json", "text"]))]
    if draw(st.booleans()):
        argv += ["--k", draw(small)]
    refused = draw(st.booleans())
    if refused:
        at = argv.index(draw(st.sampled_from(
            [flag for flag in ("--n", "--k", "--samples") if flag in argv]))) + 1
        # a k the suite never reads is refused above 1
        high = highest.get(argv[at - 1][2:], 1)
        argv[at] = draw(st.sampled_from([str(high + 1), HUGE, "-" + HUGE]))
    drawn = list(argv)
    return _corrupt(draw, argv), refused and argv == drawn


# one above the highest n of every suite and catalog, sent on every run of
# the command line test before any draw, so that each of those limits is
# pinned whatever the seed
ABOVE_HIGHEST_N = [
    ["verify", "--suite", suite, "--n", str(_SUITES[suite].highest["n"] + 1),
     "--samples", "1"] for suite in suite_names()
] + [["catalog", "--dump", kind, "--n", str(CATALOG_MAX + 1)]
     for kind in sorted(_CATALOGS)]


def _sent_first(argvs):
    """Send each argv, in order, as an explicit example that must be
    refused."""
    def decorate(test):
        for argv in reversed(argvs):
            test = hypothesis.example((argv, True))(test)
        return test
    return decorate


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@hypothesis.settings(max_examples=150, deadline=2000)
@hypothesis.given(certify_runs(), st.integers(0, 9))
def test_certify_ends_in_one_exit_code_and_one_line(tmp_path_factory, run, missing):
    text, depth = run
    path = tmp_path_factory.getbasetemp() / "drawn.cert"
    path.write_text(text, encoding="utf-8")
    argv = ["certify", "--file", str(path) + ".missing" if missing == 0 else str(path)]
    code, err = _run(argv + depth)
    assert code in (0, 1, 2), (depth, text)
    assert err.count("\n") <= 1, (depth, text, err)


@hypothesis.settings(max_examples=150, deadline=2000)
@_sent_first(ABOVE_HIGHEST_N)
@hypothesis.given(cli_argvs())
def test_verify_and_catalog_end_in_one_exit_code_and_one_line(drawn):
    argv, refused = drawn
    code, err = _run(argv)
    assert code in (0, 1, 2), argv
    assert err.count("\n") <= 1, (argv, err)
    if refused:
        assert code == 2, (argv, err)
