"""Twisted bilinear maps and the extension they generate.

The twisted commutator of the two partial splittings of the y-stabilizer,
its symbolic generator table, and the extension group whose multiplication
twists by it.
"""

import random

from torellikit.extension import (
    birman_ext,
    ext_inv,
    ext_mul,
    forward,
    phi_inverse_gen,
    random_element,
)
from torellikit.lpres import jensen_wahl_relators
from torellikit.extension import is_ext_identity, phi_inverse_word
from torellikit.symwords import format_token, interpret, parse_token, std_basis
from torellikit.twisted import lambda_bar, tb_check, tlambda2

# --- the twisted commutator ------------------------------------------------
n = 2
basis = std_basis(n)
f = (parse_token("I[1]", basis),)
z = (1, 0)
print("lambda(I[1], e1) =", lambda_bar(f, z, n))
print("symbolic value   =", tlambda2(f, z, n))
print()

fails = tb_check(n, samples=50)
print("twisted bilinearity axioms on 50 samples:", "ok" if not fails else fails)
print()

# --- the extension group ---------------------------------------------------
group = birman_ext(n)
rng = random.Random(0x5EED)
g1, g2 = random_element(group, rng), random_element(group, rng)
prod = ext_mul(group, g1, g2)
print("a product in the extension has quotient part", prod.q.z, "over", prod.q.a)
print(
    "the comparison map is multiplicative:",
    forward(group, prod) == forward(group, g1) * forward(group, g2),
)
print(
    "two-sided inverse:",
    is_ext_identity(group, ext_mul(group, prod, ext_inv(group, prod))),
)
print()

# Rebuilding the y-stabilizer presentation inside the extension: every
# generator is fixed through the comparison map and every relation dies.
c = parse_token("M[x1^-1,y1]", basis)
lifted = phi_inverse_gen(c, group)
print(
    "generator %s lifts correctly: %s"
    % (format_token(c, basis), forward(group, lifted) == interpret((c,), basis))
)
relators = list(jensen_wahl_relators(n))
dead = sum(
    1
    for inst in relators
    if is_ext_identity(group, phi_inverse_word(inst.word.tokens, group))
)
print("presentation relations dying in the extension: %d/%d" % (dead, len(relators)))
