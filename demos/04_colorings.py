"""Dehn and Fox coloring groups, counted two independent ways.

Run as: python3 demos/04_colorings.py
"""

from linkcolor import (
    arc_partition,
    dehn_count_bruteforce,
    dehn_structure,
    fox_count_bruteforce,
    parse_diagram,
    structure_count,
)

TREFOIL = "X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)"
GRANNY = ("X(2,1,12,3); X(4,2,3,5); X(1,4,5,11); "
          "X(7,6,11,8); X(9,7,8,10); X(6,9,10,12)")

for name, code in [("trefoil", TREFOIL), ("granny", GRANNY)]:
    d = parse_diagram(code)
    rep = dehn_structure(d)
    arcs, n_arcs = arc_partition(d)
    print(f"== {name} ==")
    print(f"invariant factors of the adjusted Goeritz matrix: {rep.phi}")
    print(f"Dehn coloring group: {rep.dehn.describe()}")
    print(f"Fox coloring group:  {rep.fox.describe()}  ({n_arcs} arcs)")
    for m in (2, 3, 4, 5):
        structural = structure_count(rep, m, "dehn")
        brute = dehn_count_bruteforce(d, m)
        fox_s = structure_count(rep, m, "fox")
        fox_b = fox_count_bruteforce(d, m)
        print(f"  m={m}: Dehn {structural} (direct {brute}), "
              f"Fox {fox_s} (direct {fox_b}), ratio {structural // fox_s}")
    print()

print("The direct counts never look at the Goeritz matrix: they")
print("solve the crossing relations directly over Z/m. Agreement with")
print("the structural formula m * prod(gcd(phi_j, m)) is the point.")

print()
print("== Trefoil 3-colorings in full ==")
d = parse_diagram(TREFOIL)
print(f"9 = {fox_count_bruteforce(d, 3)} Fox colorings mod 3: "
      "3 constant ones plus 6 rainbow colorings.")
