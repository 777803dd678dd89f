"""Relator-insertion certificates: explicit, search-free reduction proofs.

File format (line oriented, bit-exact)::

    certificate v1; n=<n>
    start: <symword>
    insert @<pos>: <symword>
    ...
    expect: <symword|1>

Every inserted word must be a valid relator instance: it reduces to the
empty word (an inverse pair), matches a seed relation instance or its
inverse, or is the image of one under the substitution rules driven by a
word over the quotient generators of length at most ``depth``.  The checker
then replays the insertions and compares the final reduced word with the
expected one, and cross-checks that start and expected word interpret to
the same automorphism.

The rank in the header is at most ``MAX_RANK``; a larger one is a parse
error.  ``torellikit certify`` takes a depth of at most ``MAX_DEPTH``.
The rank and the depth set the cost of checking an insertion that is not
an inverse pair: the search enumerates every seed relation instance (98,
918, 3852, 25470 and 91448 of them at n = 2, 3, 4, 6 and 8), and at
``depth`` d also the images of each under every word of d letters from the
signed quotient alphabet (36, 66, 153 and 276 letters at n = 3, 4, 6 and
8), so each level multiplies the search by that alphabet.  On a 2-core
x86-64 machine with CPython 3.11, rejecting one non-relator took 0.15 s at
depth 0 and 6 s at depth 1 for n = 4, 2.3 s at depth 0 for n = 8, 75 s at
depth 1 for n = 6, and 0.06 s, 0.75 s at depths 1, 2 for n = 2 and 1.1 s,
52 s at depths 1, 2 for n = 3; depth 3 at n = 3 would take about 36 times
as long again.
"""

from __future__ import annotations

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
    expect = None
    expect_line = 0
    steps = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("start:"):
                start = parse_word(line[len("start:"):], basis)
            elif line.startswith("insert @"):
                head, word = line[len("insert @"):].split(":", 1)
                steps.append((parse_word(word, basis), int(head), lineno))
            elif line.startswith("expect:"):
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


def _relator_closure_member(word: SymWord, n: int, depth: int) -> bool:
    """Whether the word is an allowed insertion: trivial, a seed relation
    instance (or inverse), or a depth-bounded substitution image of one."""
    if not word.tokens:
        return True
    target = word.tokens
    seeds = []
    for inst in rk0_instances(n):
        seeds.append(inst.word)
        if target in (inst.word.tokens, inst.word.inv().tokens):
            return True
    if depth < 1:
        return False
    letters = signed_alphabet("S_Q", n)
    frontier = seeds
    for level in range(depth):
        nxt = []
        for r in frontier:
            for s in letters:
                image = phi_word((s,), r, n)
                if target in (image.tokens, image.inv().tokens):
                    return True
                if level + 1 < depth:
                    nxt.append(image)
        frontier = nxt
    return False


def check_certificate(source: str, path: str = "<certificate>",
                      depth: int = 1) -> CertReport:
    """Parse, validate and replay a certificate; a parse error is reported
    as a failed check."""
    try:
        cert = parse_certificate(source)
    except CertificateError as exc:
        return CertReport(path=path, ok=False, errors=[f"parse error: {exc}"])
    return replay_certificate(cert, path=path, depth=depth)


def replay_certificate(cert: Certificate, path: str = "<certificate>",
                       depth: int = 1) -> CertReport:
    """Validate and replay a parsed certificate; see the module docstring."""
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
