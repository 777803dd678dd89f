"""Seeded reduction certificates with known verdicts, for the certify workload.

A certificate starts from a random word over the kernel alphabet ``S_K``
and inserts two words, each at a random position of the current word:

* ``seed`` -- a seed relation instance from ``lpres.rk0_instances``, or its
  inverse;
* ``phi`` -- the image of a seed instance under ``phi_word`` of a random
  ``S_Q`` word of length ``depth``, or its inverse, that no shorter word
  reaches;
* ``non-relator`` -- a short ``S_K`` word whose interpretation is not the
  identity, so it is no relator and the checker must reject it.

The ``expect:`` line is the word ``applyrels`` reaches after all the
insertions.  A certificate is expected to pass exactly when it has no
non-relator insertion.  The checker is given only the certificate text.

The checker finds a relator by scanning the seed instances in order, and
their images level by level, so the cost of a verdict grows with the level
and the position of the relator it finds.  A phi-image is therefore drawn
only from those the checker first meets at level ``depth``: most substitution
rules fix most relators, and an image equal to a seed instance would be
found at once.  Every insertion is built on a seed instance from ``BAND``,
the middle fifth of the list, so that the median verdict does not depend
on where in the list a batch's seed instances fell.  Within the band they
are drawn stratified: the j-th of ``count`` certificates of a class takes
its seed instance from the j-th of ``count`` equal slices of it.
"""

from __future__ import annotations

from random import Random

from torellikit.lpres import phi_word, rk0_instances
from torellikit.symwords import (
    SymWord,
    applyrels,
    format_word,
    interpret,
    signed_alphabet,
    std_basis,
)

# insertion kinds of the three certificate classes
CLASSES = {
    "seed": ("seed", "seed"),
    "phi": ("seed", "phi"),
    "reject": ("seed", "non-relator"),
}


# Insertions are built on seed instances from this band of the list, so
# that the search for one costs about the same in every batch.
BAND = (0.4, 0.6)


class _Rank:
    """The alphabets and seed relators of one rank, built once."""

    def __init__(self, n: int):
        self.n = n
        self.basis = std_basis(n)
        self.kernel = signed_alphabet("S_K", n)
        self.quotient = signed_alphabet("S_Q", n)
        self.seeds = [inst.word for inst in rk0_instances(n)]
        self._levels = [self.seeds]
        self._reached = {}

    def reached(self, depth: int) -> set:
        """Token sequences of the relators the checker meets below ``depth``."""
        if depth not in self._reached:
            while len(self._levels) < depth:
                self._levels.append([
                    phi_word((s,), w, self.n)
                    for w in self._levels[-1] for s in self.quotient
                ])
            self._reached[depth] = {
                t for level in self._levels[:depth]
                for w in level for t in (w.tokens, w.inv().tokens)
            }
        return self._reached[depth]

    def insertion(self, kind: str, depth: int, rng: Random, stratum) -> SymWord:
        if kind == "non-relator":
            while True:
                word = SymWord(self.basis, tuple(
                    rng.choice(self.kernel) for _ in range(rng.randint(1, 3))
                ))
                if word and not interpret(word.tokens, self.basis).is_identity:
                    return word
        j, count = stratum
        start, stop = (int(f * len(self.seeds)) for f in BAND)
        lo = start + j * (stop - start) // count
        hi = start + (j + 1) * (stop - start) // count
        word = self.seeds[rng.randrange(lo, hi)]
        if kind == "phi":
            reached = self.reached(depth)
            while True:
                u = tuple(rng.choice(self.quotient) for _ in range(depth))
                image = phi_word(u, word, self.n)
                if image.tokens not in reached:
                    break
                word = self.seeds[rng.randrange(lo, hi)]
            word = image
        elif kind != "seed":
            raise ValueError(f"unknown insertion kind {kind!r}")
        return word.inv() if rng.random() < 0.5 else word


_RANKS: dict = {}


def _rank(n: int) -> _Rank:
    if n not in _RANKS:
        _RANKS[n] = _Rank(n)
    return _RANKS[n]


def make_certificate(n: int, depth: int, cls: str, rng: Random, stratum) -> dict:
    """One certificate of the given class and the verdict it must get.

    ``expect_ok`` is the verdict, ``insertions`` the number of insertions
    and ``rejected_lines`` the line numbers (from 1) of the non-relator
    insertions, which the checker must reject and only those.
    ``stratum = (j, count)`` picks the slice of ``BAND`` to draw from.
    """
    rank = _rank(n)
    start = SymWord(rank.basis, tuple(
        rng.choice(rank.kernel) for _ in range(rng.randint(2, 5))
    ))
    lines = [f"certificate v1; n={n}", f"start: {format_word(start, rank.basis)}"]
    current = start
    rejected_lines = []
    for kind in CLASSES[cls]:
        insert = rank.insertion(kind, depth, rng, stratum)
        pos = rng.randint(0, len(current))
        current = applyrels(current, [(insert, pos)])
        lines.append(f"insert @{pos}: {format_word(insert, rank.basis)}")
        if kind == "non-relator":
            rejected_lines.append(len(lines))
    lines.append(f"expect: {format_word(current, rank.basis)}")
    return {
        "text": "\n".join(lines) + "\n",
        "depth": depth,
        "class": cls,
        "expect_ok": not rejected_lines,
        "insertions": len(CLASSES[cls]),
        "rejected_lines": rejected_lines,
    }


def make_batch(shapes, seed: int) -> list:
    """The certificates of a run seeded with ``seed``.

    ``shapes`` lists ``{"n", "depth", "counts": {class: count}}``; the
    batch holds exactly those counts, shuffled.
    """
    rng = Random(seed)
    batch = [
        make_certificate(shape["n"], shape["depth"], cls, rng, (j, count))
        for shape in shapes
        for cls, count in shape["counts"].items()
        for j in range(count)
    ]
    rng.shuffle(batch)
    return batch
