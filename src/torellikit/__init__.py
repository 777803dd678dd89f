"""Exact symbolic computation with free-group automorphisms.

The package provides, from the bottom up:

* ``words`` -- freely reduced words in F_{n,k};
* ``autos`` -- named automorphisms, membership predicates, and the Johnson
  homomorphism;
* ``intmat`` / ``semidirect`` -- exact integer linear algebra and the
  semidirect product Z^n x| Aut(F_n) with its inverse-transpose action;
* ``symwords`` -- symbolic generator alphabets with the bespoke inverse
  conventions, and their interpretation as concrete automorphisms;
* ``lpres`` -- the substitution system behind the L-presentation of the
  Torelli Birman kernel, plus machine-readable relation catalogs;
* ``twisted`` -- twisted bilinear maps and their generator recursions;
* ``extension`` -- nonabelian extensions built from a twisted bilinear map;
* ``certificates`` / ``suites`` / ``cli`` -- the relation-verification
  toolchain.
"""

from .words import Basis, Word, commutator, is_conjugate
from .autos import (
    Endo,
    classify,
    conjugation,
    expected_johnson_rank,
    identity,
    inversion,
    johnson,
    johnson_basis_generators,
    johnson_rank,
    lambda2_projection,
    swap,
    torelli_kernel_generators,
    transvection,
    wedge,
)

__all__ = [
    "Basis",
    "Word",
    "Endo",
    "classify",
    "commutator",
    "conjugation",
    "expected_johnson_rank",
    "identity",
    "inversion",
    "is_conjugate",
    "johnson",
    "johnson_basis_generators",
    "johnson_rank",
    "lambda2_projection",
    "swap",
    "torelli_kernel_generators",
    "transvection",
    "wedge",
]

__version__ = "0.1.0"
