"""Choice functions and convergence on the subset carrier.

A choice function picks one element from every non-empty subset.  Pushing a
filter on the subsets through all choice functions yields a set P of
reachable points, and three exhaustive sweeps relate P to lower-Vietoris
convergence:

  * every ultrafilter on the subsets lower-converges to the closure of P;
  * any hyperpoint it lower-converges to sits inside that closure;
  * switching to filters of choice functions does not lose any of it.

Finally, asking every choice function to produce a point filter pins the
filter itself down: exactly the singleton filters survive.  The library
decides that by theorem, with the first failing choice function as its
witness, and lists no choice function for it.

Run:  python demos/05_choice_functions.py
"""

from math import prod

from topolab import (
    FilterOnCarrier,
    classify_property_A,
    check_filterwise_refinement,
    check_locally_compact_bound,
    check_lower_convergence_lemma,
    closure,
    enumerate_topologies,
    enumerate_ultrafilters,
    has_property_A,
    limit_set_P,
    points_of,
    sierpinski_space,
    subsets_carrier,
)

print("== choice functions ==")
for n in (2, 3, 4):
    sizes = [len(points_of(m)) for m in range(1, 1 << n)]
    print(f"choice functions on {n} points: the product of |S| over the {len(sizes)} non-empty subsets S, {prod(sizes)}")

S = sierpinski_space()
carrier = subsets_carrier(2)
phi = FilterOnCarrier(carrier, 0b010)  # kernel mask over the subset indices: the point filter at {1}

print()
print("== the reachable-point set ==")
p = limit_set_P(S, phi)
print("P for the point filter at {1} over Sierpinski:", points_of(p))
print("its closure:", points_of(closure(S, p)))
print("filter lower-converges to the closure:", check_lower_convergence_lemma(S, phi))

print()
print("== exhaustive sweeps on all 29 three-point topologies ==")
carrier3 = subsets_carrier(3)
checks = bounds = refinements = 0
for space in enumerate_topologies(3):
    for uf in enumerate_ultrafilters(carrier3):
        assert check_lower_convergence_lemma(space, uf)
        checks += 1
        for a in range(1, 8):
            assert check_locally_compact_bound(space, uf, a)
            assert check_filterwise_refinement(space, uf, a)
            bounds += 1
            refinements += 1
print(f"convergence: {checks}, closure bounds: {bounds}, filterwise refinements: {refinements} - all hold")

print()
print("== which filters make every choice image a point filter? ==")
rep = has_property_A(2, FilterOnCarrier(carrier, 0b011))
print("kernel {{0},{1}}: holds =", rep.holds, "- witness image:", rep.witness.image)
for n in (2, 3):
    cls = classify_property_A(n)
    print(
        f"n={n}: {cls.property_a_count} of {cls.filter_count} filters qualify; "
        f"exactly the singleton filters: {cls.property_a_equals_singletons}; "
        f"all ultrafilters: {cls.all_property_a_ultrafilters}"
    )
