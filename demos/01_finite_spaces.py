"""Tour of finite topological spaces.

A space lives on the ground set {0,...,n-1}; subsets are int bitmasks and a
topology is the sorted tuple of its open masks.  This demo builds the
classic two-point spaces, pokes at the standard operators, and counts all
labeled topologies on up to four points and their homeomorphism classes.

Run:  python demos/01_finite_spaces.py
"""

from topolab import (
    closure,
    discrete_space,
    enumerate_topologies,
    generate_from_subbase,
    homeomorphism_classes,
    indiscrete_space,
    interior,
    make_space,
    mask_of,
    minimal_open_nbhd,
    points_of,
    product_space,
    shrink_between,
    sierpinski_space,
    space_report,
)
from topolab.errors import NotATopology


def show(mask):
    return "{" + ",".join(map(str, points_of(mask))) + "}"


print("== building spaces ==")
S = sierpinski_space()
print("Sierpinski opens:", [show(o) for o in S.opens])

try:
    make_space(2, [mask_of([]), mask_of([0]), mask_of([1])])
except NotATopology as exc:
    print("rejected family:", exc)

# the smallest topology containing two overlapping opens on three points
G = generate_from_subbase(3, [mask_of([0, 1]), mask_of([1, 2])])
print("generated from {0,1},{1,2}:", [show(o) for o in G.opens])

print()
print("== operators ==")
print("closure of {1} in Sierpinski:", show(closure(S, mask_of([1]))))
print("interior of {0} in Sierpinski:", show(interior(S, mask_of([0]))))
print("minimal open neighbourhoods:", [show(minimal_open_nbhd(S, x)) for x in range(2)])

print()
print("== separation flags ==")
for name, sp in [("discrete", discrete_space(2)), ("sierpinski", S), ("indiscrete", indiscrete_space(2))]:
    rep = space_report(sp)
    print(f"{name:10s} t1={rep.t1} t2={rep.t2} t3={rep.t3} locally_compact={rep.locally_compact}")

print()
print("== shrinking a compact inside an open ==")
D = discrete_space(2)
print("discrete, K={0} inside X:", show(shrink_between(D, mask_of([0]), D.full)))
print("sierpinski, K={1} inside {1}:", shrink_between(S, mask_of([1]), mask_of([1])), "(no open with closed closure fits)")

print()
print("== products ==")
prod, codec = product_space([S, S])
print("Sierpinski x Sierpinski:", len(prod.opens), "opens on", prod.n, "points")
print("point (1,1) encodes to index", codec.encode((1, 1)))

print()
print("== exhaustive enumeration ==")
for n in range(1, 5):
    print(f"labeled topologies on {n} points:", sum(1 for _ in enumerate_topologies(n)))

print()
print("== homeomorphism classes ==")
mirror = make_space(2, [mask_of([]), mask_of([0]), mask_of([0, 1])])  # Sierpinski with the points swapped
same_class = any({S, mirror} <= {sp for _, sp in members} for _, members in homeomorphism_classes(2))
print("Sierpinski and its mirror in one homeomorphism class:", same_class)
for n in range(1, 5):
    print(f"topologies on {n} points up to homeomorphism:", len(homeomorphism_classes(n)))
