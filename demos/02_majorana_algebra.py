"""The Majorana operators behind everything else.

Qubits map to 2n Majorana operators c_1 .. c_2n through the
Jordan-Wigner construction; they are Hermitian, unitary, and pairwise
anticommuting. Every operator expands uniquely over ordered Majorana
monomials, which makes parity and support questions mechanical.
"""

import numpy as np

from matchgates import (
    check_car,
    expand,
    indices_from_mask,
    jw_majorana,
    jw_set,
    named_gate,
    parity_of,
)

n = 3
ops = jw_set(n)
report = check_car(ops)
print(f"{2 * n} Jordan-Wigner operators on {n} qubits")
print(f"anticommutation residual: {report.max_pair_residual:.2e}")
print(f"hermiticity residual:     {report.max_hermiticity:.2e}")
print()

print("c_3 on three qubits (Z-string then X):")
print(np.real_if_close(jw_majorana(3, 3)))
print()


def show_expansion(label, op):
    poly = expand(op)
    pieces = []
    for mask in sorted(poly.terms):
        coeff = poly.terms[mask]
        name = "1" if mask == 0 else "c" + "c".join(str(i) for i in indices_from_mask(mask))
        pieces.append(f"({coeff.real:+.2f}{coeff.imag:+.2f}i) {name}")
    print(f"{label} = " + " + ".join(pieces))


print("gate expansions over Majorana monomials")
show_expansion("SWAP", named_gate("SWAP"))
show_expansion("CZ  ", named_gate("CZ"))
print()

print("SWAP sends single Majoranas to weight-3 monomials, CZ too:")
s = named_gate("SWAP")
c = jw_set(2)
show_expansion("SWAP c1 SWAP", s @ c[0] @ s)
show_expansion("CZ c1 CZ    ", named_gate("CZ") @ c[0] @ named_gate("CZ"))
print("that weight growth is what pushes both gates above the Gaussian level")
print()

print("parity of a few operators:")
for label, op in [("c2", c[1]), ("CZ", named_gate("CZ")), ("c1 + CZ", c[0] + named_gate("CZ"))]:
    print(f"  {label:<8} -> {parity_of(op)}")
