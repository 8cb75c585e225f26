"""Hyperspaces: topologies on families of subsets.

Given a space X and a family of non-empty subsets, the hit sets O^- (members
meeting an open O) generate the lower topology, the sets {A : A inside O}
generate the upper topology, and their join is the Vietoris topology.  Each
hyperspace is itself an ordinary finite space over the family's indices, so
every operator from demo 01 applies to it unchanged.

Run:  python demos/02_hyperspaces.py
"""

from topolab import (
    FilterOnCarrier,
    compacts,
    discrete_space,
    hit,
    lower_limits,
    lower_vietoris,
    mask_of,
    miss,
    points_of,
    sierpinski_space,
    subsets_carrier,
    upper_vietoris,
    vietoris,
    vietoris_basic,
)


def show(mask):
    return "{" + ",".join(map(str, points_of(mask))) + "}"


def show_family(family):
    return "{" + ", ".join(show(m) for m in family) + "}"


S = sierpinski_space()
family = compacts(S)  # on a finite space: every non-empty subset
print("carrier family over Sierpinski:", show_family(family))

print()
print("== hit and miss ==")
m = mask_of([1])
print(f"members meeting {show(m)}:", show_family(hit(family, m)))
print(f"members missing {show(m)}:", show_family(miss(family, m)))

print()
print("== the three topologies ==")
for builder in (lower_vietoris, upper_vietoris, vietoris):
    hy = builder(S, family)
    print(f"{hy.variant:8s}: {len(hy.topology.opens)} opens on {hy.topology.n} hyperpoints")

print()
print("== a discrete base space gives a discrete hyperspace ==")
for n in (2, 3):
    d = discrete_space(n)
    hy = vietoris(d, compacts(d))
    print(f"discrete on {n}: {len(hy.topology.opens)} opens = 2^{hy.topology.n}")

print()
print("== basic Vietoris sets ==")
d = discrete_space(2)
basic = vietoris_basic(d, compacts(d), (mask_of([0]), mask_of([1])))
print("members covered by {0},{1} and meeting both:", show_family(basic))

print()
print("== lower convergence is downward closed ==")
carrier = subsets_carrier(2)
phi = FilterOnCarrier(carrier, 0b100)  # kernel mask over the subset indices: the point filter at the full set
limits = lower_limits(S, family, phi)
print("the point filter at X lower-converges to:", show_family(limits))
