"""Set-open topologies on function carriers and the hyperspace embedding.

(A, W) = { f : f(A) inside W } over a family of domain subsets generates the
set-open topology; with the compact subsets as the family it is the
compact-open topology.  These topologies blow up quickly, so the carrier
keeps a minimal-neighbourhood array, like every FiniteSpace, and decides
openness by the neighbourhood test.  Its opens are counted without listing
them, and listed only on demand, behind the size guard.

The star of the show is mu : f -> (A -> f(A)), which embeds the carrier into
a product of Vietoris hyperspaces whenever the family contains the
singletons: open, continuous, and injective, verified here by exhaustion.

Run:  python demos/03_function_spaces.py
"""

from topolab import (
    compact_open,
    compacts,
    continuous_maps,
    discrete_space,
    enumerate_topologies,
    indiscrete_space,
    mask_of,
    mu,
    mu_embedding_report,
    points_of,
    set_open_topology,
    sierpinski_space,
)

S = sierpinski_space()

print("== continuous maps ==")
print("C(S, S):", [f.image for f in continuous_maps(S, S)])
print("C(indiscrete2, discrete2):", [f.image for f in continuous_maps(indiscrete_space(2), discrete_space(2))])

print()
print("== compact-open topology ==")
fs = compact_open(discrete_space(2), discrete_space(2))
print("discrete -> discrete: carrier of", fs.size, "maps,", len(fs.materialize().opens), "opens (discrete)")

big = compact_open(discrete_space(3), discrete_space(3))
print("discrete3 -> discrete3: carrier of", big.size, "maps,", big.materialize().open_count, "opens, counted, not listed")
singleton = 1 << 0
print("is {first map} open?", big.is_open(singleton))

print()
print("== a set-open subbasic set ==")
fns = continuous_maps(S, S)
so = set_open_topology(fns, (mask_of([1]),), S, S)
picked = so.subbasic(mask_of([1]), mask_of([1]))
print("maps sending {1} into {1}:", [fns[i].image for i in range(len(fns)) if picked >> i & 1])

print()
print("== the embedding f -> (A -> f(A)) ==")
family = compacts(S)
for f in fns:
    values = mu(S, S, family, f)
    print(f"mu({f.image}) =", [points_of(family[i]) for i in values])

rep = mu_embedding_report(S, S, fns, family)
print("open / continuous / injective:", (rep.open_onto_image, rep.continuous, rep.injective))

print()
print("== exhaustively over every pair of 3-point topologies ==")
fam3 = tuple(range(1, 8))
count = 0
for dom in enumerate_topologies(3):
    for cod in enumerate_topologies(3):
        r = mu_embedding_report(dom, cod, continuous_maps(dom, cod), fam3)
        assert r.continuous and r.open_onto_image and r.injective
        count += 1
print(f"all {count} pairs: the embedding is open, continuous, and injective")
