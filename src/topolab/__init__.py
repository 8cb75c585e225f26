"""topolab: finite-topology computation and exhaustive desk-scale verification.

Everything is exact and combinatorial: subsets are int bitmasks, topologies
are their minimal-neighbourhood arrays, filters are kernel masks, and the
verification suites sweep complete corpora of labeled topologies on up to
five points, one pair per pair of homeomorphism classes where the checked
statement is invariant under relabelling.
"""

from .bitsets import canon_family, complement, mask_of, points_of
from .choice import (
    PropertyAClassification,
    PropertyAReport,
    check_filterwise_refinement,
    check_locally_compact_bound,
    check_lower_convergence_lemma,
    classify_property_A,
    filterwise_limit_set,
    has_property_A,
    limit_set_P,
)
from .errors import (
    ImageNotInFamily,
    NotATopology,
    NotOpen,
    SizeLimitExceeded,
    TopolabError,
)
from .filters import (
    Carrier,
    FilterOnCarrier,
    contains,
    converges,
    enumerate_filters,
    enumerate_ultrafilters,
    is_ultrafilter,
    points_carrier,
    singleton_filter,
    subsets_carrier,
)
from .finality import (
    FinalitySetup,
    check_finality_discrete_square,
    check_vietoris_contained,
    final_over_projections,
    stone_cech_finite_discrete,
)
from .funcspaces import (
    FunctionSpace,
    MuEmbeddingReport,
    compact_open,
    continuous_maps,
    is_continuous,
    mu,
    mu_embedding_report,
    set_open_topology,
)
from .hyperspaces import (
    HyperSpace,
    closeds,
    compacts,
    hit,
    lower_limits,
    lower_vietoris,
    miss,
    upper_vietoris,
    vietoris,
    vietoris_basic,
)
from .maps import FiniteMap, all_maps
from .spaces import (
    FiniteSpace,
    SpaceReport,
    closure,
    discrete_space,
    enumerate_topologies,
    generate_from_subbase,
    homeomorphism_classes,
    indiscrete_space,
    interior,
    is_t1,
    is_t3,
    make_space,
    minimal_open_nbhd,
    product_space,
    shrink_between,
    sierpinski_space,
    space_report,
)

__version__ = "0.1.0"
