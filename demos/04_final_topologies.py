"""Final topologies over hyperspace projections.

Each pair (X, A) of a space and a compact subset projects the compact-open
function carrier C(X, Y) onto the compacts of Y via f -> f(A).  The final
topology w.r.t. these projections always contains the Vietoris topology; for
a discrete Y fed from its own discrete square the two agree exactly, which
this demo verifies; the final topology is the transitive closure of the
neighbourhood edges the projections push forward.

The ultrafilter space of a finite discrete set is also checked, from the
ultrafilters the library lists: point filters biject with the points,
closures of point images are clopen, and every clopen set is the closure of
its trace.  Every ultrafilter on a finite set is principal, so these hold by
theorem; no verification suite sweeps them.

Run:  python demos/04_final_topologies.py
"""

from topolab import (
    check_finality_discrete_square,
    check_vietoris_contained,
    compacts,
    discrete_space,
    final_over_projections,
    mask_of,
    sierpinski_space,
    stone_cech_finite_discrete,
)

S = sierpinski_space()

print("== a single source ==")
setup = final_over_projections(S, [(S, mask_of([1]))])
print("final topology over f -> f({1}):", len(setup.computed.opens), "opens on", setup.computed.n, "hyperpoints")
print("contains the Vietoris topology:", check_vietoris_contained(setup).contained)

print()
print("== more sources only shrink the final topology ==")
ks = compacts(S)
one = final_over_projections(S, [(S, ks[0])])
all_sources = final_over_projections(S, [(S, a) for a in ks])
print(f"1 source: {len(one.computed.opens)} opens; {len(ks)} sources: {len(all_sources.computed.opens)} opens")

print()
print("== discrete squares force exact equality ==")
for y_n in (1, 2, 3):
    rep = check_finality_discrete_square(y_n)
    print(
        f"y={y_n}: square on {rep.z_n} points, {rep.source_count} sources, "
        f"final = Vietoris: {rep.equal} ({len(rep.computed.opens)} opens on {rep.computed.n} hyperpoints)"
    )

print()
print("== ultrafilter space of a finite discrete set ==")
for d_n in (2, 3, 4):
    rep = stone_cech_finite_discrete(d_n)
    print(
        f"d={d_n}: {rep.ultrafilter_count} ultrafilters, bijective with points: {rep.w_bijective}, "
        f"clopen closures: {rep.closures_clopen}, clopen base: {rep.base_is_clopen}, "
        f"trace form: {rep.clopen_closure_form}"
    )
