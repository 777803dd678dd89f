"""Endomorphisms and automorphisms of the free group F_{n,k}.

An :class:`Endo` stores the reduced letter tuple of each basis generator's
image, plus an optional factorization into named elementary automorphisms
(transvections, conjugation moves, swaps, inversions).  The factorization
is what makes inversion possible without any Whitehead-style search: each
named factor inverts by its own rule, and :meth:`Endo.inverse` folds the
inverted atoms in reverse order.

Composition convention: ``f * g`` applies ``g`` first, so
``(f * g)(w) = f(g(w))`` and products act on the left.

Composition builds only what changed: where ``g`` sends a generator to a
generator, ``f * g`` reuses ``f``'s image letters.  So composing with a
transvection, a conjugation move or an inversion builds one new image, and
with a swap none.  Image blocks are joined with cancellation only at each
junction, since every image is already freely reduced.  A product with the
shared identity of the basis (:func:`identity`) builds nothing at all: it
returns the other factor, whose images and factorization are what the
composition would build.  ``*`` tells that object apart by one pointer
compare, since it is its own inverse: its ``_inv`` is itself.

Every image is built by one letter-level kernel, ``_image_letters``, which
reads the generator images as letter tuples.  The inverse block of an
image is built the first time a letter needs it and kept on the
automorphism, so ``f`` inverts ``f(x)`` at most once.  Where
a block of more than ``_SCAN`` (32) letters cancels, the cancelled letters
are counted in one C-level scan: the prefix built so far, read backwards,
against the block's inverse read backwards, which is ``f(x)`` itself for a
letter ``x^-1``, the kept inverse block for ``x`` if it is built, and the
block's letters inverted one by one, only as far as the scan reads, if it
is not.  They are then cut off in one slice.  Exact images in the
extension grow to about 10^5 letters, and a few junctions there cancel
thousands of letters each; a shorter block pops its cancelled letters one
at a time, which costs less than starting the scan.
:meth:`Endo.apply` and :meth:`Endo.__mul__` compose through it, and so does
``_fold``, which multiplies a sequence of automorphisms given only by the
images they move, on one list of image letter tuples.

``_atom_moves`` is the one statement of the elementary images: the images
a factor atom moves, in closed form from the shared letters.
:func:`transvection`, :func:`conjugation`, :func:`swap` and
:func:`inversion` validate their arguments and build from their atom
through it, and ``_fold`` reads it for each token in
:func:`torellikit.symwords.interpret` and for each inverted atom in
:meth:`Endo.inverse`.
"""

from __future__ import annotations

from itertools import compress, count
from operator import is_not

from . import intmat
from .words import (
    _INVERSE, _LETTERS, Basis, Frozen, Word, _inverse_letters, _set, _word, commutator,
    is_conjugate,
)

# Factorization atoms.  Each is a tuple:
#   ("M", z, alpha, v_letters)  transvection M_{z^alpha, v}
#   ("C", z, zp, gamma)         conjugation move z |-> zp^gamma z zp^-gamma
#   ("P", a, b)                 swap of x_a, x_b (codes)
#   ("I", a)                    inversion of x_a (code)


class Endo:
    """Endomorphism of F_{n,k} given by images of the basis generators.

    Its data is ``letters``, one reduced tuple of shared letters per
    generator, which every product, application, comparison and hash
    reads.  The image :class:`~torellikit.words.Word` objects,
    ``images``, are kept from ``Endo(...)`` or built on first access.
    Three more slots are filled on first use and kept, since an Endo is
    immutable: ``_hash``; ``_invs``, each image's inverse block once a
    product or application needs it; and ``_inv``, the inverse
    :meth:`inverse` folds from the factorization.  The inverse's own
    ``_inv`` points back, so ``f.inverse().inverse() is f``.
    The shared identity of each basis is the one Endo whose ``_inv`` is
    itself.
    """

    __slots__ = ("basis", "letters", "factors", "_images", "_invs", "_hash", "_inv")

    def __init__(self, basis: Basis, images, factors=None):
        if len(images) != basis.size:
            raise ValueError("need one image per basis generator")
        for w in images:
            if w.basis is not basis and w.basis != basis:
                raise ValueError("image word over the wrong basis")
        self.basis = basis
        self.letters = tuple([w.letters for w in images])
        self.factors = None if factors is None else tuple(factors)
        self._images = tuple(images)
        self._invs = None
        self._hash = None
        self._inv = None

    def __reduce__(self):
        # rebuilt by Endo(...) from Words, so its letters are the shared ones
        return Endo, (self.basis, self.images, self.factors)

    @property
    def images(self) -> tuple:
        images = self._images
        if images is None:
            basis = self.basis
            images = self._images = tuple([_word(basis, img) for img in self.letters])
        return images

    def image(self, code: int) -> Word:
        return self.images[code]

    def _inverse_blocks(self) -> list:
        invs = self._invs
        if invs is None:
            invs = self._invs = [None] * len(self.letters)
        return invs

    def apply(self, w: Word) -> Word:
        if w.basis is not self.basis and w.basis != self.basis:
            raise ValueError("word over the wrong basis")
        return _word(self.basis,
                     _image_letters(self.letters, self._inverse_blocks(), w.letters))

    def __mul__(self, other: "Endo") -> "Endo":
        """Composition, ``other`` first: ``(f * g)(w) = f(g(w))``."""
        basis = self.basis
        if other.basis is not basis and other.basis != basis:
            raise ValueError("cannot compose over different bases")
        if other._inv is other:
            return self
        if self._inv is self:
            return other
        mine = self.letters
        images = []
        invs = None
        for letters in other.letters:
            if len(letters) == 1 and letters[0][1] == 1:
                # other sends this generator to a generator: f's image as is
                images.append(mine[letters[0][0]])
            else:
                if invs is None:
                    invs = self._inverse_blocks()
                images.append(_image_letters(mine, invs, letters))
        factors = None
        if self.factors is not None and other.factors is not None:
            factors = self.factors + other.factors
        return _endo(basis, tuple(images), factors)

    def __eq__(self, other) -> bool:
        """Equality of endomorphisms = equality of all basis images.

        Sound and complete: an endomorphism is determined by the images of
        the generators.
        """
        return (
            isinstance(other, Endo)
            and (self.basis is other.basis or self.basis == other.basis)
            and self.letters == other.letters
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.basis, self.letters))
        return self._hash

    @property
    def is_identity(self) -> bool:
        return self.letters == identity(self.basis).letters

    def inverse(self) -> "Endo":
        """Invert by folding the inverted atoms in reverse order (see the
        module docstring); built once and kept in ``_inv``."""
        inv = self._inv
        if inv is None:
            if self.factors is None:
                raise ValueError(
                    "cannot invert an endomorphism without a factorization"
                )
            atoms = tuple([_atom_inverse(atom) for atom in reversed(self.factors)])
            inv = _fold(self.basis, map(_atom_moves, atoms), atoms)
            inv._inv = self
            self._inv = inv
        return inv

    def abel_matrix(self) -> tuple:
        """Action on the abelianization; column j = abelianize(image of gen j)."""
        cols = [w.abelianize() for w in self.images]
        m = self.basis.size
        return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))

    def __str__(self) -> str:
        b = self.basis
        parts = [
            f"{b.gen_name(c)} -> {w}" for c, w in enumerate(self.images)
            if w.letters != ((c, 1),)
        ]
        return "Endo(" + ("identity" if not parts else "; ".join(parts)) + ")"

    __repr__ = __str__


def _endo(basis: Basis, letters: tuple, factors) -> Endo:
    """An endomorphism from a tuple of image letter tuples, reduced and
    shared, over ``basis`` and a factor tuple or ``None``.  Internal paths
    build through this; ``Endo(...)`` validates."""
    f = object.__new__(Endo)
    f.basis = basis
    f.letters = letters
    f.factors = factors
    f._images = None
    f._invs = None
    f._hash = None
    f._inv = None
    return f


# A junction where a block of more than this many letters cancels is
# measured in one scan (see ``_image_letters``); a shorter one pops its
# letters.  At 16, phi-nielsen at n=4, whose 57k cancelling junctions with
# 17-32-letter blocks mostly cancel a few letters, ran about 3% slower in
# its benchmark workload; the extension's deep junctions gain as much at
# either.
_SCAN = 32


def _image_letters(imgs, invs, letters) -> tuple:
    """Reduced letters of the image of a reduced word under the
    endomorphism whose generator images have the letter tuples ``imgs``.

    ``invs[code]`` is the inverse block of ``imgs[code]``, or ``None`` until
    some letter first needs it; it is built then and kept, so a caller that
    reuses ``invs`` builds each inverse block once per image.  Each block is
    reduced, so letters cancel only where a block meets the reduced prefix
    built so far: letter by letter for a short block, in one scan for a
    long one (see the module docstring).
    """
    out = []
    pop, extend = out.pop, out.extend
    inverse, scan = _INVERSE, _SCAN
    for code, sign in letters:
        if sign == 1:
            block = imgs[code]
        else:
            block = invs[code]
            if block is None:
                block = invs[code] = _inverse_letters(imgs[code])
        m = len(block)
        if m and out and out[-1] is inverse[block[0]]:
            if m > scan:
                # the first letter where ``out`` read backwards differs
                # from the block's inverse read backwards
                if sign == -1:
                    rev_inv = reversed(imgs[code])
                elif invs[code] is None:
                    rev_inv = map(inverse.__getitem__, block)
                else:
                    rev_inv = reversed(invs[code])
                k = next(compress(count(), map(is_not, reversed(out), rev_inv)),
                         min(len(out), m))
                del out[len(out) - k:]
            else:
                pop()
                k = 1
                while k < m and out and out[-1] is inverse[block[k]]:
                    pop()
                    k += 1
            extend(block[k:])
        else:
            extend(block)
    return tuple(out)


_IDENTITIES: dict = {}


def identity(basis: Basis) -> Endo:
    """The identity of F_{n,k}; one shared object per basis (Endo is
    immutable), and its own inverse."""
    out = _IDENTITIES.get(basis)
    if out is None:
        one = Endo(basis, tuple(basis.generators()), ())
        one._inv = one
        out = _IDENTITIES.setdefault(basis, one)
    return out


def _fold(basis: Basis, moves, factors) -> Endo:
    """The product ``g_1 * g_2 * ...`` of the automorphisms ``g_i`` whose
    moved images are the entries of ``moves``, with factorization
    ``factors``.

    Each entry is a tuple of pairs ``(code, letters)``, one per generator
    that ``g_i`` moves, with its image.  The product is kept as a list of
    image letter tuples, and each entry rewrites only the images it moves.
    A generator's inverse block is built when a letter first needs it and
    dropped when its image changes.
    """
    imgs = list(identity(basis).letters)
    invs = [None] * len(imgs)
    image_letters = _image_letters
    for moved in moves:
        if len(moved) == 1:
            code, letters = moved[0]
            imgs[code] = image_letters(imgs, invs, letters)
            invs[code] = None
        else:
            # a swap: both new images are read from the old ones first
            new = [image_letters(imgs, invs, letters) for _, letters in moved]
            for (code, _), img in zip(moved, new):
                imgs[code] = img
                invs[code] = None
    return _endo(basis, tuple(imgs), factors)


def _atom_inverse(atom):
    tag = atom[0]
    if tag in ("P", "I"):
        return atom
    if tag == "M":
        _, z, alpha, v_letters = atom
        return ("M", z, alpha, _inverse_letters(v_letters))
    if tag == "C":
        _, z, zp, gamma = atom
        return ("C", z, zp, -gamma)
    raise ValueError(f"unknown factor atom {atom!r}")


def _atom_moves(atom) -> tuple:
    """The moved images of a factor atom, as ``_fold`` reads them, in
    closed form from the shared letters: the one statement of the
    elementary images (see the module docstring)."""
    tag = atom[0]
    if tag == "M":
        _, z, alpha, v_letters = atom
        if alpha == 1:
            return ((z, v_letters + (_LETTERS[(z, 1)],)),)
        return ((z, (_LETTERS[(z, 1)],) + _inverse_letters(v_letters)),)
    if tag == "C":
        _, z, zp, gamma = atom
        conj = _LETTERS[(zp, gamma)]
        return ((z, (conj, _LETTERS[(z, 1)], _INVERSE[conj])),)
    if tag == "P":
        _, a, b = atom
        return ((a, (_LETTERS[(b, 1)],)), (b, (_LETTERS[(a, 1)],)))
    return ((atom[1], (_LETTERS[(atom[1], -1)],)),)


def _check_codes(basis: Basis, *codes) -> None:
    for code in codes:
        if not 0 <= code < basis.size:
            raise ValueError(f"generator code {code} out of range for {basis}")


def _elementary(basis: Basis, atom) -> Endo:
    """The automorphism of one factor atom, its images read from
    ``_atom_moves``, over the basis object of the shared identity, not the
    caller's: ``symwords.token_endo`` keeps it for every equal basis."""
    # identity first: it enters the generators' letters that the moves read
    one = identity(basis)
    imgs = list(one.letters)
    for code, letters in _atom_moves(atom):
        imgs[code] = letters
    return _endo(one.basis, tuple(imgs), (atom,))


def transvection(basis: Basis, z: int, alpha: int, v: Word) -> Endo:
    """M_{z^alpha, v}: multiplies z by v on the side selected by alpha.

    ``z |-> v z`` when alpha = +1 and ``z |-> z v^-1`` when alpha = -1, so
    that in both cases ``z^alpha |-> v z^alpha``.  The word ``v`` must not
    mention ``z``.
    """
    if alpha not in (1, -1):
        raise ValueError("alpha must be +-1")
    if v.basis is not basis and v.basis != basis:
        raise ValueError("v over the wrong basis")
    if v.mentions(z):
        raise ValueError(f"transvection word mentions {basis.gen_name(z)}")
    _check_codes(basis, z)
    return _elementary(basis, ("M", z, alpha, v.letters))


def conjugation(basis: Basis, z: int, zp: int, gamma: int = 1) -> Endo:
    """C_{z, zp^gamma}: sends z to zp^gamma z zp^-gamma, fixing the rest."""
    if z == zp:
        raise ValueError("conjugation needs distinct generators")
    if gamma not in (1, -1):
        raise ValueError("gamma must be +-1")
    _check_codes(basis, z, zp)
    return _elementary(basis, ("C", z, zp, gamma))


def swap(basis: Basis, a: int, b: int) -> Endo:
    """Exchange the x-generators with codes a and b."""
    if a == b:
        raise ValueError("swap needs distinct generators")
    if not (basis.is_x(a) and basis.is_x(b)):
        raise ValueError("swap acts on x-generators")
    return _elementary(basis, ("P", min(a, b), max(a, b)))


def inversion(basis: Basis, a: int) -> Endo:
    """Send x_a to its inverse, fixing the other generators."""
    if not basis.is_x(a):
        raise ValueError("inversion acts on x-generators")
    return _elementary(basis, ("I", a))


class Membership(Frozen):
    """Membership flags for the subgroups hanging off the Birman sequence."""

    __slots__ = ("in_A", "in_IA", "in_BKer", "in_KIA")

    def __init__(self, in_A: bool, in_IA: bool, in_BKer: bool, in_KIA: bool):
        _set(self, "in_A", in_A)
        _set(self, "in_IA", in_IA)
        _set(self, "in_BKer", in_BKer)
        _set(self, "in_KIA", in_KIA)


def _delete_y(basis: Basis, w: Word) -> Word:
    return Word(basis, [(c, s) for c, s in w.letters if basis.is_x(c)])


def classify(f: Endo) -> Membership:
    """Decide membership in A_{n,k}, IA_{n,k}, the Birman kernel, and their
    intersection.

    All four predicates are exact: A-membership is conjugacy of cyclic
    words, IA-membership is the abelianization matrix, kernel membership is
    deletion of the y-letters.
    """
    b = f.basis
    in_a = all(
        is_conjugate(f.images[b.y(j)], Word(b, ((b.y(j), 1),)))
        for j in range(1, b.k + 1)
    )
    in_ia = f.abel_matrix() == intmat.identity(b.size)
    in_bker = in_a and all(
        _delete_y(b, f.images[b.x(i)]).letters == ((b.x(i), 1),)
        for i in range(1, b.n + 1)
    )
    return Membership(in_a, in_ia, in_bker, in_bker and in_ia)


# ---------------------------------------------------------------------------
# Johnson homomorphism


def pair_basis(m: int) -> list:
    """Ordered basis of the wedge square: pairs (a, b) with a < b."""
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def wedge(u, v) -> tuple:
    """u ^ v of two integer vectors, in the pair_basis coordinates."""
    m = len(u)
    return tuple(u[a] * v[b] - u[b] * v[a] for a, b in pair_basis(m))


def lambda2_projection(w: Word) -> tuple:
    """Image of a total-exponent-zero word in the wedge square of Z^{n+k}.

    The coefficient of e_a ^ e_b (a < b) is the second Magnus coefficient:
    the signed count of letter pairs i < j with generators (a, b).  This is
    invariant under multiplication by triple commutators, and on commutators
    it satisfies ``lambda2_projection([u, v]) = wedge(ab(u), ab(v))``.
    """
    if any(w.abelianize()):
        raise ValueError("word has nonzero abelianization")
    m = w.basis.size
    # Running exponent sums make the double loop a single pass.  Only the
    # ordered pairs with gen_i < gen_j are counted; the reversed pairs feed
    # the (antisymmetric) lower triangle, which the precondition makes
    # redundant.  Counting both would double every coefficient.
    totals = [0] * m
    coeff = {pair: 0 for pair in pair_basis(m)}
    for code, sign in w.letters:
        for other in range(code):
            if totals[other]:
                coeff[(other, code)] += totals[other] * sign
        totals[code] += sign
    return tuple(coeff[pair] for pair in pair_basis(m))


def johnson(f: Endo) -> tuple:
    """Johnson homomorphism value of a Torelli element.

    Row for generator z is ``lambda2_projection(f(z) z^-1)``; requires
    ``classify(f).in_IA``.
    """
    b = f.basis
    rows = []
    for code in range(b.size):
        gen = Word(b, ((code, 1),))
        diff = f.images[code] * gen.inv()
        if any(diff.abelianize()):
            raise ValueError("endomorphism is not in the Torelli subgroup")
        rows.append(lambda2_projection(diff))
    return tuple(rows)


def johnson_rank(endos) -> int:
    """Integer rank of the stacked, flattened Johnson images."""
    rows = []
    for f in endos:
        rows.append([c for row in johnson(f) for c in row])
    return intmat.rank(rows)


# ---------------------------------------------------------------------------
# Standard generating sets


def _y_conjugations(b: Basis) -> list:
    """Every conjugation move into or out of a y-generator."""
    gens = []
    for j in range(1, b.k + 1):
        y = b.y(j)
        for other in range(b.size):
            if other != y:
                gens += [conjugation(b, y, other), conjugation(b, other, y)]
    return gens


def torelli_kernel_generators(basis: Basis) -> list:
    """The generating set of the Torelli Birman kernel KIA_{n,k}:
    commutator transvections M_{x,[y,z]} plus all conjugation moves into or
    out of the y-generators.
    """
    b = basis
    gens = []
    for i in range(1, b.n + 1):
        x = b.x(i)
        for j in range(1, b.k + 1):
            y = b.y(j)
            for other in range(b.size):
                if other in (x, y):
                    continue
                v = commutator(Word(b, ((y, 1),)), Word(b, ((other, 1),)))
                gens.append(transvection(b, x, 1, v))
    return _dedupe(gens + _y_conjugations(b))


def johnson_basis_generators(basis: Basis) -> list:
    """The rank-counting variant: y-pair commutator transvections are
    restricted to ordered pairs a < b, so the Johnson images are linearly
    independent.
    """
    b = basis
    gens = []
    for i in range(1, b.n + 1):
        x = b.x(i)
        for j in range(1, b.k + 1):
            y = b.y(j)
            for i2 in range(1, b.n + 1):
                if i2 == i:
                    continue
                v = commutator(Word(b, ((y, 1),)), Word(b, ((b.x(i2), 1),)))
                gens.append(transvection(b, x, 1, v))
        for ja in range(1, b.k + 1):
            for jb in range(ja + 1, b.k + 1):
                v = commutator(Word(b, ((b.y(ja), 1),)), Word(b, ((b.y(jb), 1),)))
                gens.append(transvection(b, x, 1, v))
    return _dedupe(gens + _y_conjugations(b))


def expected_johnson_rank(n: int, k: int) -> int:
    """Rank of the abelianization of KIA_{n,k} as a polynomial in n and k."""
    return n * (n - 1) * k + n * (k * (k - 1) // 2) + 2 * n * k + k * (k - 1)


def _dedupe(endos) -> list:
    seen = set()
    out = []
    for f in endos:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out
