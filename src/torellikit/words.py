"""Freely reduced words in a free group with a split basis.

The free group here has two families of generators, written ``x1..xn`` and
``y1..yk``.  Words are immutable: every operation returns a new, freely
reduced word.  Letters are pairs ``(code, sign)`` where ``code`` is an
integer generator code (x-generators first, then y-generators) and ``sign``
is +1 or -1.

Every letter of every word is the one shared tuple for its ``(code,
sign)``, taken from a module-level table, so a letter costs one pointer and
a letter cancels against the next exactly when that one ``is`` its inverse.
The product of two freely reduced words cancels only at their junction
(Sims, *Computation with Finitely Presented Groups*, 1994, ch. 1-2), so
products, inverses and images of reduced words are built without a second
reduction pass.
"""

from __future__ import annotations

from operator import attrgetter


class Fields:
    """Base of the package's value classes, written out by hand: generating
    their methods at import would load ``inspect``, ``ast`` and ``dis`` on
    every start, a large share of the package's start-up.  A subclass
    names its fields in ``__slots__`` (a slot whose name starts with an
    underscore, such as ``__weakref__``, is not a field) and sets them in
    ``__init__``.  Instances compare field by field with their own class
    only, show as ``Name(field=value, ...)``, are unhashable, and pickle
    and copy by calling the class with their fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        if fields:
            cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])


_set = object.__setattr__


class Frozen(Fields):
    """A :class:`Fields` class whose instances refuse assignment and hash
    by their fields; ``__init__`` sets them through ``_set``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


# an index of more digits names no generator of a basis this package can
# build; int() itself refuses more than 4,300 digits, in its own words
_INDEX_DIGITS = 18


def _echo(text: str) -> str:
    """``repr(text)`` for an error message, cut after 80 characters."""
    return repr(text) if len(text) <= 80 else f"{text[:80]!r}..."


def _digits(text: str) -> bool:
    """Whether ``text`` is ``[0-9]+``: no sign, space, ``_`` or non-ASCII
    digit, all of which ``int()`` would take."""
    return text.isascii() and text.isdecimal()


def _index(text: str, what: str) -> int:
    """The integer ``text``; ``what`` names it in an error message."""
    if len(text) > _INDEX_DIGITS:
        raise ValueError(f"{what} {_echo(text)} has more than {_INDEX_DIGITS} digits")
    if not _digits(text):
        raise ValueError(f"{what} {_echo(text)} is not an integer")
    return int(text)


class Basis(Frozen):
    """A free basis with ``n`` x-generators and ``k`` y-generators."""

    __slots__ = ("n", "k", "_hash")

    def __init__(self, n: int, k: int = 0):
        if n < 0 or k < 0 or n + k < 1:
            raise ValueError("basis needs n, k >= 0 and n + k >= 1")
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "_hash", hash((n, k)))

    def __hash__(self):
        # kept: every token the automorphism cache looks up hashes its basis
        return self._hash

    @property
    def size(self) -> int:
        return self.n + self.k

    def x(self, i: int) -> int:
        """Generator code of ``x_i`` (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"x-index {i} out of range 1..{self.n}")
        return i - 1

    def y(self, j: int) -> int:
        """Generator code of ``y_j`` (1-based)."""
        if not 1 <= j <= self.k:
            raise ValueError(f"y-index {j} out of range 1..{self.k}")
        return self.n + j - 1

    def is_x(self, code: int) -> bool:
        return 0 <= code < self.n

    def is_y(self, code: int) -> bool:
        return self.n <= code < self.size

    def gen_name(self, code: int) -> str:
        if self.is_x(code):
            return f"x{code + 1}"
        if self.is_y(code):
            return f"y{code - self.n + 1}"
        raise ValueError(f"generator code {code} out of range for {self}")

    def parse_letter(self, text: str) -> tuple[int, int]:
        """Parse a single signed letter such as ``x2``, ``y1^-1`` or ``y``."""
        name, sign = text, 1
        if "^" in text:
            name, exp = text.split("^", 1)
            if exp not in ("1", "-1"):
                raise ValueError(f"letter exponent must be +-1, got {_echo(text)}")
            sign = int(exp)
        if name == "y" and self.k == 1:
            return self.y(1), sign
        if len(name) < 2 or name[0] not in "xy" or not _digits(name[1:]):
            raise ValueError(f"cannot parse letter {_echo(text)}")
        idx = _index(name[1:], "letter index")
        code = self.x(idx) if name[0] == "x" else self.y(idx)
        return code, sign

    def word(self, text: str = "") -> "Word":
        """Parse whitespace-separated letters: ``"x1 x2^-1 y1"``."""
        letters = [self.parse_letter(part) for part in text.split()]
        return Word(self, letters)

    def generators(self) -> list["Word"]:
        return [Word(self, ((code, 1),)) for code in range(self.size)]


# (code, sign) -> the shared letter tuple, and shared letter -> its inverse
_LETTERS: dict = {}
_INVERSE: dict = {}


def _new_letter(code, sign) -> tuple:
    """Enter both letters of a generator code into the tables."""
    if sign not in (1, -1):
        raise ValueError(f"letter sign must be +-1, got {sign}")
    if code != int(code):
        raise ValueError(f"generator code must be an integer, got {code}")
    code = int(code)
    plus = _LETTERS.setdefault((code, 1), (code, 1))
    minus = _LETTERS.setdefault((code, -1), (code, -1))
    _INVERSE.setdefault(plus, minus)
    _INVERSE.setdefault(minus, plus)
    return plus if sign == 1 else minus


def _reduce(letters) -> tuple:
    out = []
    for code, sign in letters:
        letter = _LETTERS.get((code, sign)) or _new_letter(code, sign)
        if out and out[-1] is _INVERSE[letter]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _inverse_letters(letters: tuple) -> tuple:
    """Letters of the inverse of a reduced word: reversed, each inverted."""
    return tuple(map(_INVERSE.__getitem__, reversed(letters)))


def _join(left: tuple, right: tuple) -> tuple:
    """Reduced letters of the product of two reduced letter tuples."""
    k, m = 0, min(len(left), len(right))
    while k < m and left[-1 - k] is _INVERSE[right[k]]:
        k += 1
    return left[:len(left) - k] + right[k:] if k else left + right


def _word(basis: Basis, letters: tuple) -> "Word":
    """A word from shared letters already freely reduced and in range for
    ``basis``.  Internal paths build through this; ``Word(...)`` validates."""
    w = object.__new__(Word)
    w.basis = basis
    w.letters = letters
    w._hash = None
    return w


class Word:
    """A freely reduced word.  The empty word is the group identity."""

    __slots__ = ("basis", "letters", "_hash")

    def __init__(self, basis: Basis, letters=()):
        self.basis = basis
        size = basis.size
        for code, _ in letters:
            if not 0 <= code < size:
                raise ValueError(f"generator code {code} out of range for {basis}")
        self.letters = _reduce(letters)
        self._hash = None

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and (self.basis is other.basis or self.basis == other.basis)
            and self.letters == other.letters
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.basis, self.letters))
        return self._hash

    def __reduce__(self):
        # rebuilt by Word(...), so its letters are the shared ones again
        return Word, (self.basis, self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.basis is not other.basis and self.basis != other.basis:
            raise ValueError("cannot multiply words over different bases")
        return _word(self.basis, _join(self.letters, other.letters))

    def inv(self) -> "Word":
        return _word(self.basis, _inverse_letters(self.letters))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for code, sign in self.letters:
            name = self.basis.gen_name(code)
            parts.append(name if sign == 1 else f"{name}^-1")
        return " ".join(parts)

    __repr__ = __str__

    def abelianize(self) -> tuple:
        """Exponent-sum vector in the ordered basis x1..xn, y1..yk."""
        vec = [0] * self.basis.size
        for code, sign in self.letters:
            vec[code] += sign
        return tuple(vec)

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return ``(core, conjugator)`` with ``self = conj * core * conj^-1``."""
        letters = list(self.letters)
        prefix = []
        while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
                and letters[0][1] == -letters[-1][1]:
            prefix.append(letters[0])
            letters = letters[1:-1]
        return Word(self.basis, letters), Word(self.basis, prefix)

    def mentions(self, code: int) -> bool:
        return any(c == code for c, _ in self.letters)


def commutator(u: Word, v: Word) -> Word:
    """The commutator ``u v u^-1 v^-1``."""
    return u * v * u.inv() * v.inv()


def is_conjugate(u: Word, v: Word) -> bool:
    """Whether two words are conjugate in the free group.

    Exact: conjugacy classes of free-group elements are cyclic words, so two
    words are conjugate iff their cyclically reduced cores agree up to
    rotation.
    """
    if u.basis != v.basis:
        raise ValueError("cannot compare words over different bases")
    core_u, _ = u.cyclic_reduce()
    core_v, _ = v.cyclic_reduce()
    if len(core_u) != len(core_v):
        return False
    if not core_u:
        return True
    doubled = core_v.letters + core_v.letters
    m = len(core_u.letters)
    return any(doubled[i:i + m] == core_u.letters for i in range(m))
