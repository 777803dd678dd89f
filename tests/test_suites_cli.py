import hashlib
import json

from pathlib import Path

import pytest

from torellikit.certificates import MAX_DEPTH, MAX_RANK
from torellikit.cli import main
from torellikit.lpres import _CATALOGS, krel
from torellikit.suites import _SUITES, _acts_trivially, run_suite, suite_names
from torellikit.symwords import parse_token, std_basis


def strip_elapsed(report_json):
    data = json.loads(report_json)
    data.pop("elapsed_ms", None)
    return json.dumps(data, sort_keys=True)


def test_suite_names_cover_the_contract():
    assert set(suite_names()) == {
        "table1", "phi-conj", "phi-inverse-A", "phi-nielsen", "phi-inverse-Z",
        "phi-zn", "lambda-zrel", "tb3", "lambda-arel", "gamma-rel",
        "extension", "jw-delta", "johnson", "stab-psi", "magnus-oracle",
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


# SHA-256 of each report at small rank, minus elapsed_ms: any change to a
# case id, its order, its verdict or its witness shows here
SMALL_RANK_DIGESTS = {
    "extension": "5a7d81a63cdb5b551fb7739614b86eba24aaaf180daa73d4e39524f935b1083a",
    "gamma-rel": "721873b943e52e24246c76621e55ef0ad8cb0f8cae2e8ce16ba4fe4d451dde98",
    "johnson": "ae36db136ce4236eb05656e0560eff58bddf4a49f60ff02f7cc4b4d23e72b116",
    "jw-delta": "46b90d90c44179a75c32b38ce0c5ed302c6477f82b6574486cde9770f393b0ce",
    "lambda-arel": "00a22e9f208af253d342e5b6c3c93d7ccc0446f88579819d43859521cdc8e62c",
    "lambda-zrel": "5ab800c15351eb433fc43d737ac6d19e53293d058e72232f94a11d2f9c5b68d3",
    "magnus-oracle": "df4d8d403e1346171ed4743d1a19d39625ff194a4a43cc1a64bb8f1a6c616e8e",
    "phi-conj": "b127398258b22a76172569a1cf405f9db4c63cb93fa0d8e2dbbd798b7a3ab92a",
    "phi-inverse-A": "eb6792e0afae243443678d784459c1ccb392d9cd7ec7a0af5292172634dca9c7",
    "phi-inverse-Z": "172838b57db94ebd29053c0b2c0e7bbadd1d05b118eb2d5c3b776246905049d6",
    "phi-nielsen": "a7bedfd0ed48301d987c85b3617df21f7ae628cdde3c9c239ed6dd20451c0d10",
    "phi-zn": "57ac9620916e93d6b244597a8185fe7db3f7ce75bc69cbae06228e51e5aab1f9",
    "stab-psi": "0d9478bfdb426f201d5606df31a24f9e511a0495b36c34ed56f2fcd95c98377a",
    "table1": "014d4c0a604d26cca437e7eb9a4468f50eedf9fd43c0d76d80bd9f79c9c6109d",
    "tb3": "006b02cd63d29a26d04fe5875c03fac6ca8ed67e81369dfda418d6bb8c016dd6",
}


@pytest.mark.parametrize("name", sorted(suite_names()))
def test_every_suite_passes_at_small_rank(name):
    kwargs = dict(n=2, samples=10, seed=0x5EED)
    if name in ("table1", "johnson", "magnus-oracle"):
        kwargs["k"] = 1
    rep = run_suite(name, **kwargs)
    assert rep.cases
    assert rep.passed, rep.to_text()
    digest = hashlib.sha256(strip_elapsed(rep.to_json()).encode()).hexdigest()
    assert digest == SMALL_RANK_DIGESTS[name]


def test_non_relator_moves_a_kernel_generator():
    s = parse_token("M[x1,x2]", std_basis(2))
    assert list(_acts_trivially(2, [("not-a-relator", (s,))])) == [
        {"id": "not-a-relator", "status": "fail", "witness": "moves C[y1,x1]"}
    ]


def test_reports_are_deterministic():
    a = run_suite("stab-psi", n=2, samples=20, seed=0x5EED)
    b = run_suite("stab-psi", n=2, samples=20, seed=0x5EED)
    assert strip_elapsed(a.to_json()) == strip_elapsed(b.to_json())
    c = run_suite("johnson", n=2, k=1, samples=10, seed=7)
    d = run_suite("johnson", n=2, k=1, samples=10, seed=7)
    assert strip_elapsed(c.to_json()) == strip_elapsed(d.to_json())


def test_report_shape():
    rep = run_suite("magnus-oracle", n=2, k=1, samples=5, seed=1)
    data = json.loads(rep.to_json())
    assert data["suite"] == "magnus-oracle"
    assert data["params"] == {"n": 2, "k": 1, "samples": 5, "seed": 1}
    assert data["cases"] and all(c["status"] == "pass" for c in data["cases"])
    assert "elapsed_ms" in data


def test_cli_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--suite", "magnus-oracle", "--n", "2", "--k", "1",
        "--samples", "5", "--seed", "0x5EED", "--report", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["params"]["seed"] == 0x5EED
    printed = capsys.readouterr().out
    assert json.loads(printed)["suite"] == "magnus-oracle"


def test_cli_seed_spellings(capsys):
    # a dash and a digit begin a value, so a negative hex seed needs no "="
    for spelling, seed in (
        (["--seed", "0x5EED"], 0x5EED),
        (["--seed", "-7"], -7),
        (["--seed", "-0x1"], -1),
        (["--seed=-0x1"], -1),
    ):
        argv = ["verify", "--suite", "stab-psi", "--n", "2", "--samples", "1"]
        assert main(argv + spelling) == 0, spelling
        assert json.loads(capsys.readouterr().out)["params"]["seed"] == seed


def test_cli_verify_text_format(capsys):
    code = main([
        "verify", "--suite", "stab-psi", "--n", "2", "--samples", "5",
        "--format", "text",
    ])
    assert code == 0
    assert "suite stab-psi" in capsys.readouterr().out


def test_cli_catalog(capsys):
    code = main(["catalog", "--dump", "zn", "--n", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3  # commutators of three y-transvections
    assert all(line.startswith("Z.comm") for line in out)


def test_catalog_dump_lines_are_machine_consumable(capsys):
    # the word part of every dumped line parses back and is a relator
    from torellikit.symwords import interpret, parse_word, std_basis

    for kind in ("rk0", "nielsen", "jensen_wahl"):
        assert main(["catalog", "--dump", kind, "--n", "2"]) == 0
        basis = std_basis(2)
        for line in capsys.readouterr().out.strip().splitlines():
            word = parse_word(line.split(": ", 1)[1], basis)
            assert interpret(word.tokens, basis).is_identity


# SHA-256 of each ``catalog --dump`` output: certificates locate relators by
# their position in the rk0 catalog, so instance order is part of the contract
CATALOG_DIGESTS = {
    ("nielsen", 2, 1): "61751269553b2cc130c66d63072f76825dd41d5fec6a4c1d4926259088ce48fd",
    ("nielsen", 3, 1): "7b925aaf41d0ea99e546ed974050a9dd88fe85f490f1837e633089e0fe3f0246",
    ("nielsen", 4, 1): "af017c0eed058bcc906c98bf91d4a0f143fe34a7d983e930cd518ffbab60ab42",
    ("jensen_wahl", 2, 1): "f266c3c459c35f3dd597c8294990aa008db2663f144784aa8f239864e3fb25a9",
    ("jensen_wahl", 3, 1): "97afda8901a2d17a0349cb59efa5e9866a24fb47f97ed4b35ceed04c12cae3a2",
    ("jensen_wahl", 4, 1): "cbf3201e404851e4424c876e5cc148456a81fff835bf19edb890d34eac8cd12a",
    ("rk0", 2, 1): "b323fedc0353aabc8abe7677c619193b6c6da5496d7e42ec030237f1b7f4c619",
    ("rk0", 3, 1): "8fa28547f0d6f8215397c4719fce2b8d44a19330ede907402e255912fe067533",
    ("rk0", 4, 1): "b56f553a117d37e0dadb0f98c2f2f09c448fe95065cda884bc49e9fc01c07191",
    ("zn", 2, 1): "9f56ec45267ff58557386c4be6cc3177d4d17ba3d63ad03558b07dff2a354739",
    ("zn", 3, 1): "309d9792913044a23e3f79b5dc232706debc2417783602e9ae33ea1d618a4c37",
    ("zn", 4, 1): "76c4d2c497f4aaa58fbdb144634b87c138e8ebaf3574d779338ab93d3af7f714",
    ("table1", 2, 3): "89b30fc63cacc38fcd2bb9673c036c8c6d2f81b3a026d4aec20787c94a3bd161",
    ("table1", 3, 3): "4f64d714b1c6a3df5e909e149789aae6e08ed80cfecaefa87766e1f3968d379d",
    ("table1", 4, 3): "22c1f0c7f026d54489f19339cd8dbf5c769c5a1d86dc0282d9d835ba5eee5c52",
    ("s1prime", 2, 3): "88faf00084a2c223a9199b402a15ace47de11b30a0573a40f7b170aef8e5a294",
    ("s1prime", 3, 3): "a8dcdd40605d66c5dcee83671e383d6ee0ff119dad836e83a4d136e5fb5080e6",
    ("s1prime", 4, 3): "cc2536bc6a0d1d33ad1161101d41a0f1c7ba6198eddac0df6938af8589f72b71",
    ("rk0", 5, 1): "6b0e69aa53aef63e1caeae8fb7967b1313aae5c576759bc5b2fccb69c0c39345",
}


def test_catalog_dump_order_is_pinned(capsys):
    digests = {}
    for kind, n, k in CATALOG_DIGESTS:
        assert main(["catalog", "--dump", kind, "--n", str(n), "--k", str(k)]) == 0
        out = capsys.readouterr().out
        digests[kind, n, k] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == CATALOG_DIGESTS


def test_cli_certify(tmp_path, capsys):
    r = krel(1, 2, a=1, b=2)
    good = tmp_path / "good.cert"
    good.write_text(
        f"certificate v1; n=2\nstart: 1\ninsert @0: {r}\nexpect: {r}\n"
    )
    assert main(["certify", "--file", str(good)]) == 0
    assert "PASS" in capsys.readouterr().out
    bad = tmp_path / "bad.cert"
    bad.write_text(
        "certificate v1; n=2\nstart: 1\ninsert @0: C[y1,x1]\nexpect: C[y1,x1]\n"
    )
    assert main(["certify", "--file", str(bad)]) == 1
    assert "non-relator" in capsys.readouterr().out


def test_an_argument_error_is_one_stderr_line(capsys):
    for argv, line in (
        (["verify", "--suite", "nope"],
         "torellikit verify: error: argument --suite: invalid choice: 'nope'"),
        (["verify"], "torellikit verify: error: the following arguments are "
         "required: --suite"),
        (["verify", "--suite", "tb3", "--seed", "zz"],
         "torellikit verify: error: argument --seed: seed 'zz' is not an integer"),
        (["certify", "--file", "x", "--depth", "two"],
         "torellikit certify: error: argument --depth: invalid int value: 'two'"),
        ([], "torellikit: error: the following arguments are required: command"),
        (["verify", "--suite", "stab-psi", "--threads", "2"],
         "torellikit: error: unrecognized arguments: --threads 2"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1, (argv, err)


def test_cli_usage_errors(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.cert"
    not_utf8.write_bytes(b"certificate v1; n=2\nstart: \xff\nexpect: 1\n")
    bad_index = tmp_path / "index.cert"
    bad_index.write_text("certificate v1; n=2\nstart: 1\ninsert @0: I[9]\nexpect: 1\n")
    huge_rank = tmp_path / "rank.cert"
    huge_rank.write_text("certificate v1; n=99999999\nstart: 1\nexpect: 1\n")
    no_colon = tmp_path / "colon.cert"
    no_colon.write_text("certificate v1; n=2\nstart: 1\ninsert @0 C[y1,x1]\nexpect: 1\n")
    bad_pos = tmp_path / "position.cert"
    bad_pos.write_text("certificate v1; n=2\nstart: 1\ninsert @x: C[y1,x1]\nexpect: 1\n")
    two_starts = tmp_path / "starts.cert"
    two_starts.write_text("certificate v1; n=2\nstart: 1\nstart: C[y1,x1]\nexpect: 1\n")
    bad_swap = tmp_path / "swap.cert"
    bad_swap.write_text("certificate v1; n=2\nstart: P[x1,x2]\nexpect: 1\n")
    long_letter = tmp_path / "letter.cert"
    long_letter.write_text(f"certificate v1; n=2\nstart: M[x{'1' * 5000},x2]\nexpect: 1\n")
    long_swap = tmp_path / "long_swap.cert"
    long_swap.write_text(f"certificate v1; n=2\nstart: P[1,{'2' * 5000}]\nexpect: 1\n")
    long_pos = tmp_path / "long_pos.cert"
    long_pos.write_text(f"certificate v1; n=2\nstart: 1\ninsert @{'3' * 5000}: 1\nexpect: 1\n")
    two_expects = tmp_path / "expects.cert"
    two_expects.write_text("certificate v1; n=2\nstart: 1\nexpect: 1\n\nexpect: 1\n")
    arabic_rank = tmp_path / "arabic.cert"
    arabic_rank.write_text("certificate v1; n=\u0663\nstart: 1\nexpect: 1\n",
                           encoding="utf-8")
    signed_letter = tmp_path / "signed.cert"
    signed_letter.write_text("certificate v1; n=2\nstart: C[x1^+1,y1]\nexpect: 1\n")
    rank5 = tmp_path / "rank5.cert"
    rank5.write_text("certificate v1; n=5\nstart: 1\nexpect: 1\n")
    example = str(Path(__file__).resolve().parent.parent / "demos" / "example.cert")
    for argv, message in (
        (["certify", "--file", "/nonexistent/path.cert"], "No such file"),
        (["certify", "--file", str(not_utf8)], f"{not_utf8}: 'utf-8' codec"),
        (["certify", "--file", str(bad_index)],
         f"{bad_index}: line 3: x-index 9 out of range 1..2"),
        (["certify", "--file", str(huge_rank)],
         f"{huge_rank}: line 1: rank 99999999 above the limit {MAX_RANK}"),
        (["certify", "--file", str(no_colon)],
         f"error: {no_colon}: line 3: expected 'insert @<pos>: <symword>'\n"),
        (["certify", "--file", str(bad_pos)],
         f"error: {bad_pos}: line 3: insert position 'x' is not an integer\n"),
        (["certify", "--file", str(two_starts)],
         f"error: {two_starts}: line 3: second 'start:' line (first on line 2)\n"),
        (["certify", "--file", str(bad_swap)],
         f"error: {bad_swap}: line 2: swap index 'x1' is not an integer\n"),
        (["certify", "--file", str(long_letter)],
         f"error: {long_letter}: line 2: letter index '{'1' * 80}'... has more "
         "than 18 digits\n"),
        (["certify", "--file", str(long_swap)],
         f"error: {long_swap}: line 2: swap index '{'2' * 80}'... has more "
         "than 18 digits\n"),
        (["certify", "--file", str(long_pos)],
         f"error: {long_pos}: line 3: insert position '{'3' * 80}'... has more "
         "than 18 digits\n"),
        (["certify", "--file", str(arabic_rank)],
         f"error: {arabic_rank}: line 1: cannot parse rank from header\n"),
        (["certify", "--file", str(signed_letter)],
         f"error: {signed_letter}: line 2: letter exponent must be +-1, got 'x1^+1'\n"),
        (["certify", "--file", str(two_expects)],
         f"error: {two_expects}: line 5: second 'expect:' line (first on line 3)\n"),
        (["certify", "--file", example, "--depth", "-1"],
         f"error: depth -1 out of range 0..{MAX_DEPTH}\n"),
        (["certify", "--file", example, "--depth", str(MAX_DEPTH + 1)],
         f"error: depth {MAX_DEPTH + 1} out of range 0..{MAX_DEPTH}\n"),
        (["certify", "--file", str(rank5), "--depth", "2"],
         "error: depth 2 needs rank <= 4, got 5\n"),
        (["catalog", "--dump", "rk0", "--n", "1"], "n >= 2"),
        (["catalog", "--dump", "rk0", "--n", "2", "--k", "7"],
         "rk0 works over k = 1, got 7"),
        (["catalog", "--dump", "s1prime", "--n", "3", "--k", "0"],
         "s1prime needs k >= 1"),
        (["verify", "--suite", "table1", "--k", "0"], "table1 needs k >= 1"),
        (["verify", "--suite", "johnson", "--n", "2", "--k", "0",
          "--samples", "2"], "johnson needs k >= 1"),
        (["verify", "--suite", "stab-psi", "--n", "0"], "stab-psi needs n >= 1"),
        (["verify", "--suite", "magnus-oracle", "--n", "2", "--k", "-5",
          "--samples", "1"], "magnus-oracle needs k >= 0"),
        (["verify", "--suite", "extension", "--k", "5"],
         "extension works over k = 1, got 5"),
        (["verify", "--suite", "stab-psi", "--report", str(tmp_path / "no" / "x.json")],
         "No such file"),
        (["verify", "--suite", "extension", "--n", "2", "--samples", "-1"],
         "extension needs samples >= 1"),
        (["verify", "--suite", "tb3", "--samples", "-3"], "tb3 needs samples >= 1"),
        (["verify", "--suite", "lambda-arel", "--samples", "0"],
         "lambda-arel needs samples >= 1"),
        (["verify", "--suite", "magnus-oracle", "--samples", "0"],
         "magnus-oracle needs samples >= 1"),
        (["verify", "--suite", "table1", "--samples", "0"],
         "table1 needs samples >= 1"),
        (["verify", "--suite", "gamma-rel", "--n", "2", "--samples", "-5"],
         "gamma-rel needs samples >= 1"),
        (["verify", "--suite", "tb3", "--n", "9"], "tb3 needs n <= 8"),
        (["verify", "--suite", "table1", "--k", "9"], "table1 needs k <= 8"),
        (["verify", "--suite", "stab-psi", "--samples", "1001"],
         "stab-psi needs samples <= 1000"),
        (["catalog", "--dump", "rk0", "--n", "9"], "catalogs need n <= 8"),
        (["catalog", "--dump", "table1", "--n", "3", "--k", "9"],
         "table1 needs k <= 8"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
    # every suite has a lowest rank; below it the suite would fail inside
    # its alphabets or pass vacuously on F_{0,k}
    lowest_n = {"johnson": 1, "magnus-oracle": 1, "stab-psi": 1}
    for suite in suite_names():
        low = lowest_n.get(suite, 2)
        assert main(["verify", "--suite", suite, "--n", str(low - 1)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {suite} needs n >= {low}\n", err
    # every suite has a highest rank and sample count, and the suites that
    # read k a highest k; a 25-digit value is refused before any work
    highest_n = {"lambda-arel": 6}
    huge = "9" * 25
    for suite in suite_names():
        flags = [("n", highest_n.get(suite, 8)), ("samples", 1000)]
        if "k" in _SUITES[suite].defaults:
            flags.append(("k", 8))
        for key, high in flags:
            assert main(["verify", "--suite", suite, f"--{key}", huge]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {suite} needs {key} <= {high}\n", err
    for kind in sorted(_CATALOGS):
        assert main(["catalog", "--dump", kind, "--n", huge]) == 2
        assert capsys.readouterr().err == "error: catalogs need n <= 8\n"
    # a suite with no default k works over k = 1; any other k would be
    # reported without being used
    for suite, row in _SUITES.items():
        if "k" in row.defaults:
            continue
        assert main(["verify", "--suite", suite, "--k", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {suite} works over k = 1, got 0\n", err
