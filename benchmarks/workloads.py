"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload has four parts:

* ``generate(tl, seed)`` makes the inputs (plain data) from the seed;
* ``run_pass(tl, inputs, scratch, speed)`` does the measured work on fresh
  space objects, probing the host's speed between calls, and returns the
  start and end of each item plus the raw results;
* ``verdicts(out)`` turns the raw results into (label, ok) checks, outside
  the timed region;
* ``gate(tl, inputs, out, oracles, rng)`` compares a seeded handful of
  results with brute-force definitions and returns the problems found.

``tl`` is the imported ``topolab`` package; every library call goes through
its public names.  A result that raised is kept as the text of the error,
and every check on it fails.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time

clock = time.perf_counter

CORPUS_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}
NONEMPTY_4 = tuple(range(1, 16))  # the non-empty subsets of 4 points


class PassOutput:
    """One pass's results, and the start and end of each of its items.

    Host-speed probes are taken between the calls, never inside one.
    """

    def __init__(self, speed):
        self.speed = speed
        self.items: list[tuple[float, float]] = []  # (start, end) per item
        self.raw: dict = {}

    def call(self, work, *args):
        """Run one call; returns its result or the text of its error."""
        self.speed.maybe_probe()
        return _guarded(work, *args)

    def item(self, work, *args):
        """Run one item, keeping its start and end; returns as ``call`` does."""
        self.speed.maybe_probe()
        start = clock()
        result = _guarded(work, *args)
        self.items.append((start, clock()))
        return result


def _guarded(work, *args):
    try:
        return work(*args)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _flags(label: str, result, names) -> list[tuple[str, object]]:
    """One check per boolean attribute, or one failed check for an error."""
    if isinstance(result, str):
        return [(label, result)]
    return [(f"{label} {name}", getattr(result, name)) for name in names]


# ------------------------------------------------------------ definitions
# Small brute-force routes used by the gates next to tests/oracles.py.


def _min_nbhd(opens, x: int) -> int:
    m = 15
    for o in opens:
        if o >> x & 1:
            m &= o
    return m


def _relabel(opens, perm) -> tuple[int, ...]:
    out = []
    for o in opens:
        out.append(sum(1 << y for x, y in enumerate(perm) if o >> x & 1))
    return tuple(sorted(out))


def _continuous_images(dom_opens, cod_opens) -> list[tuple[int, ...]]:
    """Image tuples of the maps 4 -> 4 points whose preimages of opens are open."""
    open_set = set(dom_opens)
    return [
        image
        for image in itertools.product(range(4), repeat=4)
        if all(sum(1 << x for x, y in enumerate(image) if w >> y & 1) in open_set for w in cod_opens)
    ]


# ----------------------------------------------------------------- choice


class Choice:
    """Choice-function lemmas on a seeded sample of 4-point spaces.

    Every limit-set call enumerates the 20736 choice functions on 4 points,
    so nearly all the time is in the ``choice`` layer.
    """

    name = "choice"
    spaces_per_pass = 2

    def generate(self, tl, seed: int) -> dict:
        rng = random.Random(seed)
        corpus = list(tl.enumerate_topologies(4))
        indices = sorted(rng.sample(range(len(corpus)), self.spaces_per_pass))
        return {"indices": indices, "spaces": [corpus[i].opens for i in indices]}

    def run_pass(self, tl, inputs: dict, scratch, speed) -> PassOutput:
        def lemmas(space, phi):
            verdicts = [tl.check_lower_convergence_lemma(space, phi)]
            for a in NONEMPTY_4:
                verdicts.append(tl.check_locally_compact_bound(space, phi, a))
                verdicts.append(tl.check_filterwise_refinement(space, phi, a, pair_cap=100))
            return verdicts

        out = PassOutput(speed)
        carrier = tl.subsets_carrier(4)
        spaces = [tl.make_space(4, opens) for opens in inputs["spaces"]]
        checks = [
            out.item(lemmas, space, phi)
            for space in spaces
            for phi in tl.enumerate_ultrafilters(carrier)
        ]
        classes = [out.call(tl.classify_property_A, n) for n in (1, 2, 3)]
        out.raw = {"spaces": spaces, "carrier": carrier, "checks": checks, "classes": classes}
        return out

    def verdicts(self, out: PassOutput) -> list[tuple[str, object]]:
        found = []
        for item, verdicts in enumerate(out.raw["checks"]):
            if isinstance(verdicts, str):
                found.append((f"item {item}", verdicts))
            else:
                found += [(f"item {item} check {i}", v) for i, v in enumerate(verdicts)]
        for n, cls in zip((1, 2, 3), out.raw["classes"]):
            names = ("property_a_equals_singletons", "all_property_a_ultrafilters", "all_property_a_countably_complete")
            found += _flags(f"property-a n={n}", cls, names)
            if not isinstance(cls, str):
                found.append((f"property-a n={n} count", cls.property_a_count == {1: 1, 2: 3, 3: 7}[n]))
                found.append((f"property-a n={n} filters", cls.filter_count == (1 << ((1 << n) - 1)) - 1))
        return found

    def gate(self, tl, inputs: dict, out: PassOutput, oracles, rng: random.Random) -> list[str]:
        problems = []
        topologies = set(oracles.brute_force_topologies(4))
        for i, opens in zip(inputs["indices"], inputs["spaces"]):
            if opens not in topologies:
                problems.append(f"space {i} is not a topology by brute force")
        # For the ultrafilter at subset A, x is reachable when some choice
        # function picks a point of A inside x's minimal neighbourhood.
        ultrafilters = list(tl.enumerate_ultrafilters(out.raw["carrier"]))
        for space in out.raw["spaces"]:
            for phi in rng.sample(ultrafilters, 2):
                (a,) = phi.kernel_elements()
                expected = sum(1 << x for x in range(4) if a & _min_nbhd(space.opens, x))
                got = tl.limit_set_P(space, phi)
                filterwise = tl.filterwise_limit_set(space, phi, 100)
                if got != expected or filterwise != expected:
                    problems.append(
                        f"limit sets of {space.opens} at {a}: P={got} filterwise={filterwise}, "
                        f"definition gives {expected}"
                    )
        return problems


# ------------------------------------------------------------------ pairs

# Homeomorphism classes of 4-point topologies, by canonical open masks.
# Pair costs depend on the classes only (continuous-map counts and Vietoris
# sizes are invariant under relabelling) and are heavy-tailed over them, so
# the class grid and the pair order are fixed and the seed draws the
# labelled member of each class.
PAIR_X_CLASSES = (
    (0, 3, 15),
    (0, 1, 3, 7, 15),
    (0, 1, 3, 7, 11, 15),
    (0, 1, 3, 5, 7, 11, 15),
    (0, 1, 2, 3, 5, 7, 10, 11, 15),
    (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 15),
)
PAIR_Y_CLASSES = (
    (0, 1, 15),
    (0, 1, 7, 15),
    (0, 3, 7, 11, 15),
    (0, 1, 2, 3, 7, 11, 15),
    (0, 1, 2, 3, 5, 7, 13, 15),
    (0, 1, 2, 3, 5, 7, 10, 11, 15),
)
SUITE_TOTALS = {"vietoris-inclusion": 242352, "embedding": 3468}


class Pairs:
    """Function spaces and the hyperspace embedding over (X, Y) pairs.

    Phase 1 runs two CLI suites in-process over all 3-point pairs; phase 2
    runs 36 labelled 4-point pairs from a fixed 6x6 grid of classes, plus
    compact_open(discrete(4), discrete(4)).min_nbhds (256 maps).  Each space
    appears in six pairs, so the space caches are read far more than filled.
    """

    name = "pairs"

    def generate(self, tl, seed: int) -> dict:
        rng = random.Random(seed)
        x_perms = [tuple(rng.sample(range(4), 4)) for _ in PAIR_X_CLASSES]
        y_perms = [tuple(rng.sample(range(4), 4)) for _ in PAIR_Y_CLASSES]
        # A fixed order keeps the pair that first fills each space's caches
        # the same for every seed.
        pairs = list(itertools.product(range(len(PAIR_X_CLASSES)), range(len(PAIR_Y_CLASSES))))
        return {
            "x": [_relabel(c, p) for c, p in zip(PAIR_X_CLASSES, x_perms)],
            "y": [_relabel(c, p) for c, p in zip(PAIR_Y_CLASSES, y_perms)],
            "x_perms": x_perms,
            "y_perms": y_perms,
            "pairs": pairs,
        }

    def run_pass(self, tl, inputs: dict, scratch, speed) -> PassOutput:
        def verify(suite):
            argv = ["verify", "--suite", suite, "--max-n", "3", "--report", str(scratch / f"{suite}.json")]
            with contextlib.redirect_stdout(io.StringIO()):
                return tl.cli.main(argv)

        def pair(x, y):
            maps = tl.continuous_maps(x, y)
            tl.compact_open(x, y).min_nbhds
            tl.vietoris(y, tl.compacts(y))
            return maps, tl.mu_embedding_report(x, y, maps, NONEMPTY_4)

        def discrete_square():
            d4 = tl.discrete_space(4)
            return tl.compact_open(d4, d4).min_nbhds

        out = PassOutput(speed)
        codes = {suite: out.call(verify, suite) for suite in SUITE_TOTALS}
        xs = [tl.make_space(4, opens) for opens in inputs["x"]]
        ys = [tl.make_space(4, opens) for opens in inputs["y"]]
        results = [out.item(pair, xs[i], ys[j]) for i, j in inputs["pairs"]]
        fixed = out.item(discrete_square)
        out.raw = {"codes": codes, "scratch": scratch, "results": results, "fixed": fixed}
        return out

    def verdicts(self, out: PassOutput) -> list[tuple[str, object]]:
        found = []
        for suite, code in out.raw["codes"].items():
            found.append((f"{suite} exit code {code}", code == 0))
            if code in (0, 1):
                totals = json.loads((out.raw["scratch"] / f"{suite}.json").read_text())["totals"]
                ok = totals["checked"] == SUITE_TOTALS[suite] and totals["failed"] == 0
                found.append((f"{suite} totals {totals}", ok))
        for k, result in enumerate(out.raw["results"]):
            report = result if isinstance(result, str) else result[1]
            found += _flags(f"pair {k}", report, ("continuous", "open_onto_image", "injective"))
        fixed = out.raw["fixed"]
        discrete = fixed if isinstance(fixed, str) else fixed == tuple(1 << i for i in range(256))
        found.append(("compact_open(discrete(4), discrete(4)) is discrete on 256 maps", discrete))
        return found

    def gate(self, tl, inputs: dict, out: PassOutput, oracles, rng: random.Random) -> list[str]:
        problems = []
        topologies = set(oracles.brute_force_topologies(4))
        for opens in inputs["x"] + inputs["y"]:
            if opens not in topologies:
                problems.append(f"{opens} is not a topology by brute force")
        for k in rng.sample(range(len(inputs["pairs"])), 4):
            i, j = inputs["pairs"][k]
            result = out.raw["results"][k]
            if isinstance(result, str):
                continue
            got = [f.image for f in result[0]]
            expected = _continuous_images(inputs["x"][i], inputs["y"][j])
            if got != expected:
                problems.append(f"continuous_maps of pair {k}: {len(got)} maps, definition gives {len(expected)}")
        return problems


# ----------------------------------------------------------------- corpus


class Corpus:
    """Cold construction and scanning of the whole 4-point corpus.

    Every space is new, so the ``spaces`` and ``hyperspaces`` caches are
    filled and hardly read; the compactness scans take most of the time.
    """

    name = "corpus"
    products = 24
    finality_sets = 8

    def generate(self, tl, seed: int) -> dict:
        rng = random.Random(seed)
        small = [(n, i) for n in (1, 2, 3) for i in range(CORPUS_COUNTS[n])]
        products = [tuple(rng.sample(small, 2)) for _ in range(self.products)]
        finality = []
        for k in range(self.finality_sets):
            cod_n = 2 if k % 2 == 0 else 3  # 2-point codomains are small enough for the oracle
            sources = []
            for _ in range(rng.randint(1, 3)):
                src = rng.choice(small)
                sources.append((src, rng.randrange(1, 1 << src[0])))
            finality.append(((cod_n, rng.randrange(CORPUS_COUNTS[cod_n])), sources))
        return {"products": products, "finality": finality}

    def run_pass(self, tl, inputs: dict, scratch, speed) -> PassOutput:
        def scan(space):
            report = tl.space_report(space)
            ks = tl.compacts(space)
            for hyperspace in (tl.lower_vietoris, tl.upper_vietoris, tl.vietoris):
                hyperspace(space, ks)
            closures = [tl.closure(space, m) for m in range(16)]
            return report, ks, closures, tl.generate_from_subbase(4, space.opens) == space

        def product(a, b):
            return tl.product_space([a, b])[0]

        out = PassOutput(speed)
        corpus = {n: list(tl.enumerate_topologies(n)) for n in (1, 2, 3, 4)}
        spaces = [out.item(scan, space) for space in corpus[4]]
        products = [
            (an * bn, out.call(product, corpus[an][ai], corpus[bn][bi]))
            for (an, ai), (bn, bi) in inputs["products"]
        ]
        squares = [out.item(tl.check_finality_discrete_square, y_n) for y_n in (1, 2, 3)]
        projections = []
        for (cod_n, cod_i), sources in inputs["finality"]:
            cod = corpus[cod_n][cod_i]
            srcs = [(corpus[n][i], a) for (n, i), a in sources]
            nbhd = out.item(tl.final_over_projections, cod, srcs, "nbhd")
            materialized = None
            if not isinstance(nbhd, str) and all(len(tl.continuous_maps(s, cod)) <= 16 for s, _ in srcs):
                materialized = out.item(tl.final_over_projections, cod, srcs, "materialize")
            projections.append((nbhd, materialized))
        stone = [out.item(tl.stone_cech_finite_discrete, d_n) for d_n in (1, 2, 3, 4)]
        out.raw = {
            "corpus": corpus,
            "spaces": spaces,
            "products": products,
            "squares": squares,
            "projections": projections,
            "stone": stone,
        }
        return out

    def verdicts(self, out: PassOutput) -> list[tuple[str, object]]:
        raw = out.raw
        found = [
            (f"{n}-point topologies: {len(spaces)}", len(spaces) == CORPUS_COUNTS[n])
            for n, spaces in raw["corpus"].items()
        ]
        for i, result in enumerate(raw["spaces"]):
            if isinstance(result, str):
                found.append((f"space {i}", result))
                continue
            report, ks, _, round_trip = result
            found += _flags(f"space {i}", report, ("locally_compact", "nested_neighbourhood"))
            found.append((f"space {i} compacts = non-empty powerset", ks == NONEMPTY_4))
            found.append((f"space {i} subbase round trip", round_trip))
        for k, (size, product) in enumerate(raw["products"]):
            found.append((f"product {k} on {size} points", product if isinstance(product, str) else product.n == size))
        for y_n, square in zip((1, 2, 3), raw["squares"]):
            found += _flags(f"discrete square y={y_n}", square, ("equal", "expected_is_discrete"))
        for k, (nbhd, materialized) in enumerate(raw["projections"]):
            if isinstance(nbhd, str):
                found.append((f"finality set {k} nbhd", nbhd))
            elif materialized is not None:
                same = materialized if isinstance(materialized, str) else nbhd.computed == materialized.computed
                found.append((f"finality set {k} nbhd = materialize", same))
        for d_n, stone in zip((1, 2, 3, 4), raw["stone"]):
            names = ("w_bijective", "closures_clopen", "base_is_clopen", "clopen_closure_form")
            found += _flags(f"stone-cech d={d_n}", stone, names)
        return found

    def gate(self, tl, inputs: dict, out: PassOutput, oracles, rng: random.Random) -> list[str]:
        raw = out.raw
        problems = []
        for n, spaces in raw["corpus"].items():
            if sorted(s.opens for s in spaces) != sorted(oracles.brute_force_topologies(n)):
                problems.append(f"{n}-point corpus differs from the brute-force scan")
        for i in rng.sample(range(CORPUS_COUNTS[4]), 8):
            if isinstance(raw["spaces"][i], str):
                continue
            closeds = [15 ^ o for o in raw["corpus"][4][i].opens]
            for m, got in enumerate(raw["spaces"][i][2]):
                expected = 15
                for c in closeds:
                    if m & ~c == 0:
                        expected &= c
                if got != expected:
                    problems.append(f"closure of {m} in space {i}: {got}, definition gives {expected}")
        for k in rng.sample(range(len(raw["products"])), 4):
            (an, ai), (bn, bi) = inputs["products"][k]
            product = raw["products"][k][1]
            if isinstance(product, str):
                continue
            # The product opens are the unions of open boxes u x v.
            boxes = {
                sum(1 << (p + an * q) for p in range(an) for q in range(bn) if u >> p & 1 and v >> q & 1)
                for u in raw["corpus"][an][ai].opens
                for v in raw["corpus"][bn][bi].opens
            }
            opens = {0}
            for box in boxes:
                opens |= {o | box for o in opens}
            if tuple(sorted(opens)) != product.opens:
                problems.append(f"product {k} differs from the union-of-boxes definition")
        for k, ((cod_n, _), _) in enumerate(inputs["finality"]):
            nbhd = raw["projections"][k][0]
            if cod_n != 2 or isinstance(nbhd, str):
                continue
            index = {m: i for i, m in enumerate(nbhd.family)}
            maps = []
            for src, a in nbhd.sources:
                fsp = tl.compact_open(src, nbhd.cod)
                image = tuple(index[f.image_of(a)] for f in fsp.functions)
                maps.append((fsp.materialize(), tl.FiniteMap(fsp.size, len(nbhd.family), image)))
            if nbhd.computed.opens != oracles.finest_topology_with_continuous(len(nbhd.family), maps):
                problems.append(f"final topology of finality set {k} differs from the brute-force finest")
        return problems
