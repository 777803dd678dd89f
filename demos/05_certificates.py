"""Reduction certificates: explicit, replayable proofs of word reductions.

A certificate lists a starting word over the kernel alphabet and a sequence
of relator insertions with positions.  The checker validates that each
insertion is a recognized relator instance, replays the insertions with
free reduction, and compares the outcome against the expected word.  An
insertion is recognized by its hash, scanned for in an array that holds
one hash per relator of the closure and is built once per rank and level;
each hash hit is regenerated and compared token for token, so a hash match
alone never accepts.
"""

import os
import tempfile

from torellikit.certificates import check_certificate, check_certificate_file
from torellikit.lpres import krel
from torellikit.symwords import format_word, std_basis

n = 2
b = std_basis(n)
r1 = krel(1, n, a=1, b=2)

good = f"""certificate v1; n={n}
# insert a commuting relation at the front of the empty word
start: 1
insert @0: {format_word(r1, b)}
expect: {format_word(r1, b)}
"""

print(good)
print(check_certificate(good).summary())
print()

bad = f"""certificate v1; n={n}
start: 1
insert @0: C[y1,x1]
expect: C[y1,x1]
"""
print(check_certificate(bad).summary())
print()

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "good.cert")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(good)
    print("from file:", check_certificate_file(path).summary())
print()
print("the command line checks a certificate file the same way:")
print("  torellikit certify --file demos/example.cert")
