"""Relator-insertion certificates: explicit, search-free reduction proofs.

File format (line oriented, bit-exact)::

    certificate v1; n=<n>
    start: <symword>
    insert @<pos>: <symword>
    ...
    expect: <symword>

where ``<symword>`` is ``1``, ``empty`` or tokens joined by ``*``, and
``<n>`` and ``<pos>`` are ``[0-9]+``.

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
raises ``ValueError`` on any other before it parses or builds anything,
and on a rank above ``MAX_RANK_AT_DEPTH[depth]`` (depth 2 needs rank at
most 4) before it builds anything.
An insertion that is not an inverse pair is looked up level by level.
Level 0 is the set of seed relation instances (98, 918, 3852, 25470 and
91448 of them at n = 2, 3, 4, 6 and 8), and level d holds the image of
every level d - 1 relator under every letter of the signed quotient
alphabet.  The rules commute with permutations of x1..xn and the seeds are
closed under them (``lpres.orbit_plan``), so level d is indexed through
eight representative letters, not all q of the alphabet (q = 15, 36, 66,
153 and 276 at the same ranks): one 8-byte hash per image of a level d - 1
relator under a representative, in scan order, and a sorted copy for the
miss test.  An insertion is relabelled by each permutation of the plan and
looked up there.  A hash hit is regenerated from its position and compared
token for token, and then the chain is checked: phi_s(v) must give the
insertion, and v must be a relator one level down, so the symmetry only
decides where to look.  A level is built once per process, on the first
insertion that misses every level below it.

A level is built from the seeds, not from the relators one level down.
For each quotient word u of length d - 1 and each representative r, a
composed table gives every S_K token or inverse t the reduced
phi_r(phi_u(t)); each seed is read through it, the images of its tokens
joined with cancellation only where they meet (``symwords._join``), and
the hash is stored at the scan position of phi_r after phi_u(seed).  At
n = 2, level 2 reads the 98 seeds, 4.3 tokens long on average, through
120 tables: 50,880 images, where reading the 1,470 level-1 relators of
9.0 tokens under 8 representatives took 106,368.  On a 2-core x86-64
machine with CPython 3.11, cold in a fresh interpreter, the build took
0.07-0.08 s at n = 3, depth 1 (7,344 hashes, 18 MB peak), 0.19-0.28 s at
n = 4, depth 1 (24 MB), 1.9-2.0 s at n = 3, depth 2 (264,384 hashes,
26 MB), 12.7-12.8 s at n = 4, depth 2 (2,033,856 hashes, 74 MB),
1.7-2.3 s at n = 8, depth 0 (the seed enumeration, 117 MB) and 5.0-5.7 s
at n = 8, depth 1 (731,584 hashes, 153-154 MB).  After the build,
rejecting a non-relator took 0.05-0.4 ms at each of these.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from heapq import merge

from .lpres import _permute, orbit_plan, phi_apply, phi_word, rk0_instances
from .symwords import (
    SymWord,
    _join,
    applyrels,
    interpret,
    parse_word,
    signed_alphabet,
    std_basis,
)
from .words import Fields, _digits, _index


class Certificate(Fields):
    __slots__ = ("n", "start", "steps", "expect", "expect_line")

    def __init__(self, n: int, start: SymWord, steps: list, expect: SymWord,
                 expect_line: int = 0):
        self.n, self.start, self.expect, self.expect_line = n, start, expect, expect_line
        self.steps = steps  # (SymWord, position, line_no)


class CertReport(Fields):
    __slots__ = ("path", "ok", "errors", "checked_steps")

    def __init__(self, path: str, ok: bool, errors: list | None = None,
                 checked_steps: int = 0):
        self.path, self.ok, self.checked_steps = path, ok, checked_steps
        self.errors = [] if errors is None else errors

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status} {self.path} ({self.checked_steps} insertions)"]
        lines.extend(f"  {e}" for e in self.errors)
        return "\n".join(lines)


class CertificateError(ValueError):
    pass


# the highest rank each depth may index, by depth: level 2 above rank 4
# would hold from 9,290,400 hashes (n = 5) to 201,917,184 (n = 8)
MAX_RANK_AT_DEPTH = (8, 8, 4)
MAX_RANK = MAX_RANK_AT_DEPTH[0]
MAX_DEPTH = len(MAX_RANK_AT_DEPTH) - 1


def parse_certificate(text: str) -> Certificate:
    lines = text.splitlines()
    if not lines:
        raise CertificateError("empty certificate")
    header = lines[0].strip()
    if not header.startswith("certificate v1;"):
        raise CertificateError("line 1: expected 'certificate v1; n=<n>'")
    rank = header.partition("n=")[2].strip()
    try:
        if not _digits(rank):
            raise ValueError
        n = int(rank)  # which refuses more than 4,300 digits
    except ValueError:
        raise CertificateError("line 1: cannot parse rank from header") from None
    if n < 2:
        raise CertificateError("line 1: rank must be at least 2")
    if n > MAX_RANK:
        raise CertificateError(f"line 1: rank {n} above the limit {MAX_RANK}")
    basis = std_basis(n)

    def word(body: str) -> SymWord:
        body = body.strip()
        return parse_word("1" if body == "empty" else body, basis)

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
                start = word(line[len("start:"):])
                start_line = lineno
            elif line.startswith("insert @"):
                head, colon, body = line[len("insert @"):].partition(":")
                if not colon:
                    raise CertificateError(
                        f"line {lineno}: expected 'insert @<pos>: <symword>'"
                    )
                insert = word(body)
                pos = _index(head.strip(), "insert position")
                steps.append((insert, pos, lineno))
            elif line.startswith("expect:"):
                if expect is not None:
                    raise CertificateError(
                        f"line {lineno}: second 'expect:' line (first on line {expect_line})"
                    )
                expect = word(line[len("expect:"):])
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
# n -> (the representative letters; for each distinct permutation of the
# orbit plan, its map on S_K^+-1 tokens and its inverse permutation)
_PLANS: dict = {}
# (n, 0) -> the seeds as a frozenset; (n, level) -> the hash of each image
# of a level - 1 relator under a representative letter, in scan order, and
# the same hashes sorted
_INDEX: dict = {}
# the sorted copy is merged from sorted runs of this many hashes, so no
# list of every hash as a Python int is held
_RUN = 1 << 16


def _rank(n: int) -> tuple:
    rank = _RANKS.get(n)
    if rank is None:
        seeds = tuple(inst.word.tokens for inst in rk0_instances(n))
        rank = _RANKS[n] = (seeds, signed_alphabet("S_Q", n))
    return rank


def _plan(n: int) -> tuple:
    plan = _PLANS.get(n)
    if plan is None:
        reps, perms = orbit_plan(n)
        kernel = signed_alphabet("S_K", n)
        plan = _PLANS[n] = (reps, tuple(
            ({t: _permute(t, perm) for t in kernel},
             tuple(sorted(range(n + 1), key=perm.__getitem__)))
            for perm in dict.fromkeys(perms.values())
        ))
    return plan


def _quotient_word(letters: tuple, i: int, length: int) -> tuple:
    """The quotient word of ``length`` letters spelled by the base-q
    digits of ``i`` (q letters in the alphabet), lowest digit first, and
    so outermost."""
    u = []
    for _ in range(length):
        i, digit = divmod(i, len(letters))
        u.append(letters[digit])
    return tuple(u)


def _relator_at(n: int, level: int, i: int) -> tuple:
    """The tokens of the relator at position ``i`` of a level: the seed at
    ``i // q**level`` under the quotient word of the remainder's digits."""
    seeds, letters = _rank(n)
    i, w = divmod(i, len(letters) ** level)
    return phi_word(_quotient_word(letters, w, level), seeds[i], n).tokens


def _hashes(n: int, level: int) -> array:
    """The hash of phi_r(phi_u(R)) for each seed R, each quotient word u
    of length level - 1 and each representative r, at the scan position
    of r after the relator phi_u(R) of the level below.

    For each u in turn, each r gets the composed table that gives every
    S_K token or inverse t the reduced phi_r(phi_u(t)), as a list in the
    order of the signed alphabet, and every seed is read through it by
    the positions of its tokens; only one table is held at a time."""
    seeds, letters = _rank(n)
    reps = _plan(n)[0]
    kernel = signed_alphabet("S_K", n)
    position = {t: i for i, t in enumerate(kernel)}
    seeds = [tuple(map(position.__getitem__, seed)) for seed in seeds]
    words = len(letters) ** (level - 1)
    step = words * len(reps)
    hashes = array("q", bytes(8 * len(seeds) * step))
    for w in range(words):
        u = _quotient_word(letters, w, level - 1)
        inner = [phi_word(u, (t,), n).tokens for t in kernel]
        for j, r in enumerate(reps):
            image = [phi_apply(r, v, n) for v in inner].__getitem__
            hashes[w * len(reps) + j::step] = array(
                "q", [hash(_join(map(image, seed))) for seed in seeds])
    return hashes


def _level(n: int, level: int):
    index = _INDEX.get((n, level))
    if index is None:
        if level == 0:
            index = frozenset(_rank(n)[0])
        else:
            hashes = _hashes(n, level)
            runs = [array("q", sorted(hashes[i:i + _RUN]))
                    for i in range(0, len(hashes), _RUN)]
            index = (hashes, array("q", merge(*runs)))
        _INDEX[(n, level)] = index
    return index


def _at_level(tokens: tuple, n: int, level: int) -> bool:
    """Whether the tokens are a relator of the level: a seed at level 0,
    and at level d the image phi_s(v) of a level d - 1 relator v.

    The tokens are relabelled by each permutation of the orbit plan and
    looked up among the representative images.  A hash hit is regenerated
    and compared token for token, and then the chain itself is checked:
    phi_s(v) must give the tokens, and v must be a relator one level down."""
    index = _level(n, level)
    if level == 0:
        return tokens in index
    hashes, ordered = index
    reps, moves = _plan(n)
    for table, inverse in moves:
        # a token outside S_K^+-1 maps to None: no image of a relator has one
        image = tuple(map(table.get, tokens))
        h = hash(image)
        k = bisect_left(ordered, h)
        if k == len(ordered) or ordered[k] != h:
            continue
        i = -1
        while True:
            try:
                i = hashes.index(h, i + 1)
            except ValueError:
                break
            r, j = divmod(i, len(reps))
            relator = _relator_at(n, level - 1, r)
            if phi_apply(reps[j], relator, n) != image:
                continue
            v = tuple(_permute(t, inverse) for t in relator)
            s = _permute(reps[j], inverse)
            if phi_apply(s, v, n) == tokens and _at_level(v, n, level - 1):
                return True
    return False


def _relator_closure_member(word: SymWord, n: int, depth: int) -> bool:
    """Whether the word is an allowed insertion: trivial, a seed relation
    instance (or inverse), or a depth-bounded substitution image of one.
    Each level is built on first use, when every level below has missed."""
    if not word.tokens:
        return True
    targets = (word.tokens, word.inv().tokens)
    return any(_at_level(tokens, n, level)
               for level in range(max(depth, 0) + 1) for tokens in targets)


def _check_depth(depth: int, n: int | None = None) -> None:
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} out of range 0..{MAX_DEPTH}")
    if n is not None and n > MAX_RANK_AT_DEPTH[depth]:
        raise ValueError(
            f"depth {depth} needs rank <= {MAX_RANK_AT_DEPTH[depth]}, got {n}"
        )


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
    A depth outside 0..``MAX_DEPTH``, or one that needs a lower rank than
    the certificate's, raises ``ValueError``."""
    _check_depth(depth, cert.n)
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
