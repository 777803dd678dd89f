"""Relator-insertion certificates: explicit, search-free reduction proofs.

File format (line oriented, bit-exact)::

    certificate v1; n=<n>
    start: <symword>
    insert @<pos>: <symword>
    ...
    expect: <symword|1>

A certificate has exactly one ``start:`` and one ``expect:`` line; a
second of either is a parse error.

Every inserted word must be a valid relator instance: it reduces to the
empty word (an inverse pair), matches a seed relation instance or its
inverse, or is the image of one under the substitution rules driven by a
word over the quotient generators of length at most ``depth``.  The checker
then replays the insertions and compares the final reduced word with the
expected one, and cross-checks that start and expected word interpret to
the same automorphism.

The rank in the header is at most ``MAX_RANK``; a larger one is a parse
error.  The depth is at least 0 and at most ``MAX_DEPTH``; the checker
raises ``ValueError`` on any other before it parses or builds anything.
An insertion that is not an inverse pair is looked up level by level in an
index of the relator closure.  Level 0 holds the seed relation instances
(98, 918, 3852, 25470 and 91448 of them at n = 2, 3, 4, 6 and 8), and
level d the image of every level d - 1 relator under every letter of the
signed quotient alphabet (q = 15, 36, 66, 153 and 276 letters at the same
ranks), so level d holds seeds * q**d relators.  The index keeps one 8-byte
hash per relator and builds a level once per process, on the first
insertion that misses every level below it.  Each hash hit is regenerated
from its position and compared token for token, so the check stays exact.
On a 2-core x86-64 machine with CPython 3.11 the one-time build took
0.19-0.30 s at n = 3, depth 1 (33,966 relators), 10.5 s at n = 3, depth 2
(1.22M relators, 9.8 MB), 1.2-1.35 s at n = 4, depth 1 (258,084 relators,
2.1 MB) and 1.3-1.6 s at n = 8, depth 0 (mostly the seed enumeration);
level 2 alone would hold 16.8M relators (134 MB) at n = 4.  After the
build, rejecting a non-relator, which scans every level, took 2.4-2.8 ms
at n = 3, depth 1, 75-78 ms at n = 3, depth 2, 16-17 ms at n = 4, depth 1
and 6-8 ms at n = 8, depth 0; a seed instance is found in under 0.1 ms at
n = 3.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .lpres import phi_word, rk0_instances
from .symwords import (
    SymWord,
    applyrels,
    interpret,
    parse_word,
    signed_alphabet,
    std_basis,
)


@dataclass
class Certificate:
    n: int
    start: SymWord
    steps: list  # (SymWord, position, line_no)
    expect: SymWord
    expect_line: int = 0


@dataclass
class CertReport:
    path: str
    ok: bool
    errors: list = field(default_factory=list)
    checked_steps: int = 0

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status} {self.path} ({self.checked_steps} insertions)"]
        lines.extend(f"  {e}" for e in self.errors)
        return "\n".join(lines)


class CertificateError(ValueError):
    pass


MAX_RANK = 8
MAX_DEPTH = 2


def parse_certificate(text: str) -> Certificate:
    lines = text.splitlines()
    if not lines:
        raise CertificateError("empty certificate")
    header = lines[0].strip()
    if not header.startswith("certificate v1;"):
        raise CertificateError("line 1: expected 'certificate v1; n=<n>'")
    try:
        n = int(header.split("n=", 1)[1])
    except (IndexError, ValueError):
        raise CertificateError("line 1: cannot parse rank from header") from None
    if n < 2:
        raise CertificateError("line 1: rank must be at least 2")
    if n > MAX_RANK:
        raise CertificateError(f"line 1: rank {n} above the limit {MAX_RANK}")
    basis = std_basis(n)
    start = None
    start_line = 0
    expect = None
    expect_line = 0
    steps = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("start:"):
                if start is not None:
                    raise CertificateError(
                        f"line {lineno}: second 'start:' line (first on line {start_line})"
                    )
                start = parse_word(line[len("start:"):], basis)
                start_line = lineno
            elif line.startswith("insert @"):
                head, colon, word = line[len("insert @"):].partition(":")
                if not colon:
                    raise CertificateError(
                        f"line {lineno}: expected 'insert @<pos>: <symword>'"
                    )
                word = parse_word(word, basis)
                try:
                    pos = int(head)
                except ValueError:
                    raise CertificateError(
                        f"line {lineno}: insert position {head.strip()!r} is not an integer"
                    ) from None
                steps.append((word, pos, lineno))
            elif line.startswith("expect:"):
                if expect is not None:
                    raise CertificateError(
                        f"line {lineno}: second 'expect:' line (first on line {expect_line})"
                    )
                body = line[len("expect:"):].strip()
                if body == "empty":
                    body = "1"
                expect = parse_word(body, basis)
                expect_line = lineno
            else:
                raise CertificateError(f"line {lineno}: unrecognized line")
        except CertificateError:
            raise
        except ValueError as exc:
            raise CertificateError(f"line {lineno}: {exc}") from None
    if start is None:
        raise CertificateError("missing 'start:' line")
    if expect is None:
        raise CertificateError("missing 'expect:' line")
    return Certificate(n, start, steps, expect, expect_line)


# n -> (token tuples of the seed relation instances, in the order of
# rk0_instances; the signed quotient alphabet)
_RANKS: dict = {}
# (n, level) -> hash(tokens) of every relator at that level, in scan order
_INDEX: dict = {}


def _rank(n: int) -> tuple:
    rank = _RANKS.get(n)
    if rank is None:
        seeds = tuple(inst.word.tokens for inst in rk0_instances(n))
        rank = _RANKS[n] = (seeds, tuple(signed_alphabet("S_Q", n)))
    return rank


def _relators(n: int, level: int):
    """The tokens of every relator at a level, in scan order: level 0 holds
    the seeds, and level d the image of each level d - 1 relator under each
    quotient letter in turn.  Streamed depth first; no level is held."""
    seeds, letters = _rank(n)
    if level == 0:
        yield from seeds
        return
    for tokens in _relators(n, level - 1):
        for s in letters:
            yield phi_word((s,), tokens, n).tokens


def _relator_at(n: int, level: int, i: int) -> tuple:
    """The tokens of the relator at position ``i`` of a level: the seed at
    ``i // q**level`` under the quotient word whose letters are the base-q
    digits of ``i``, lowest digit outermost (q letters in the alphabet)."""
    seeds, letters = _rank(n)
    u = []
    for _ in range(level):
        i, digit = divmod(i, len(letters))
        u.append(letters[digit])
    return phi_word(tuple(u), seeds[i], n).tokens


def _level(n: int, level: int) -> array:
    hashes = _INDEX.get((n, level))
    if hashes is None:
        hashes = _INDEX[(n, level)] = array("q", map(hash, _relators(n, level)))
    return hashes


def _relator_closure_member(word: SymWord, n: int, depth: int) -> bool:
    """Whether the word is an allowed insertion: trivial, a seed relation
    instance (or inverse), or a depth-bounded substitution image of one.

    Each level is looked up by hash and built on first use; every hash hit
    is regenerated from its position and compared token for token."""
    if not word.tokens:
        return True
    targets = (word.tokens, word.inv().tokens)
    for level in range(max(depth, 0) + 1):
        hashes = _level(n, level)
        for tokens in targets:
            h = hash(tokens)
            i = -1
            while True:
                try:
                    i = hashes.index(h, i + 1)
                except ValueError:
                    break
                if _relator_at(n, level, i) == tokens:
                    return True
    return False


def _check_depth(depth: int) -> None:
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} out of range 0..{MAX_DEPTH}")


def check_certificate(source: str, path: str = "<certificate>",
                      depth: int = 1) -> CertReport:
    """Parse, validate and replay a certificate; a parse error is reported
    as a failed check.  A depth outside 0..``MAX_DEPTH`` raises
    ``ValueError`` before the parse."""
    _check_depth(depth)
    try:
        cert = parse_certificate(source)
    except CertificateError as exc:
        return CertReport(path=path, ok=False, errors=[f"parse error: {exc}"])
    return replay_certificate(cert, path=path, depth=depth)


def replay_certificate(cert: Certificate, path: str = "<certificate>",
                       depth: int = 1) -> CertReport:
    """Validate and replay a parsed certificate; see the module docstring.
    A depth outside 0..``MAX_DEPTH`` raises ``ValueError``."""
    _check_depth(depth)
    report = CertReport(path=path, ok=True)
    basis = std_basis(cert.n)
    current = cert.start
    for idx, (insert, pos, lineno) in enumerate(cert.steps):
        if not _relator_closure_member(insert, cert.n, depth):
            report.ok = False
            report.errors.append(
                f"line {lineno}: non-relator insertion: {insert}"
            )
            continue
        try:
            current = applyrels(current, [(insert, pos)])
        except ValueError as exc:
            report.ok = False
            report.errors.append(f"line {lineno}: {exc}")
            return report
        report.checked_steps += 1
    if report.ok and current.tokens != cert.expect.tokens:
        report.ok = False
        report.errors.append(
            f"line {cert.expect_line}: reduction mismatch: reached {current}, "
            f"expected {cert.expect}"
        )
    if interpret(cert.start.tokens, basis) != interpret(cert.expect.tokens, basis):
        report.ok = False
        report.errors.append(
            "semantic mismatch: start and expected words give different automorphisms"
        )
    return report


def check_certificate_file(path: str, depth: int = 1) -> CertReport:
    with open(path, "r", encoding="utf-8") as fh:
        return check_certificate(fh.read(), path=path, depth=depth)
