"""Free-group words and named automorphisms.

The free group here is F_{n,k}, with basis x1..xn, y1..yk.  Words reduce
freely on construction; automorphisms are built from four families of named
generators and remember their factorization, which is what makes exact
inversion possible.
"""

from torellikit import (
    Basis,
    classify,
    commutator,
    conjugation,
    is_conjugate,
    swap,
    transvection,
)

b = Basis(n=2, k=1)

w = b.word("x1 x2^-1 x2 y1")
print("reduced word:            ", w)
print("its inverse:             ", w.inv())
print("abelianization:          ", w.abelianize())
print("conjugate to y1?         ", is_conjugate(b.word("x1 y1 x1^-1"), b.word("y1")))
print()

# A transvection multiplies one generator by a word avoiding it; the side
# depends on the sign of the exponent in M[z^a, v].
m = transvection(b, b.x(1), 1, b.word("y1"))
m_neg = transvection(b, b.x(1), -1, b.word("y1"))
print("M[x1,y1]     sends x1 to ", m.image(b.x(1)))
print("M[x1^-1,y1]  sends x1 to ", m_neg.image(b.x(1)))

c = conjugation(b, b.y(1), b.x(1))
print("C[y1,x1]     sends y1 to ", c.image(b.y(1)))
print()

# Composition applies the right factor first; inversion reverses the
# factorization, inverting each named factor by its own rule.
f = m * c * swap(b, b.x(1), b.x(2))
print("composite:               ", f)
print("f * f^-1 is the identity?", (f * f.inverse()).is_identity)
print()

# Membership in the Birman-sequence subgroups is decided exactly.
for name, g in [
    ("M[x1,y1]             ", m),
    ("C[y1,x1]             ", c),
    ("M[x1,[y1,x2]]        ",
     transvection(b, b.x(1), 1, commutator(b.word("y1"), b.word("x2")))),
    ("P[1,2]               ", swap(b, b.x(1), b.x(2))),
]:
    print(name, classify(g))
