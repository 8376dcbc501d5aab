"""hc3: exact hard-core (minimum-distance) packings on the cubic lattice Z^3.

Integer lattice geometry, admissible configurations on tori and windows,
exact maximum-packing search, the catalog of known densest structures,
exact rational Voronoi cells, FCC-embedding enumeration, excitations and
sliding moves.  All arithmetic is exact.
"""

from .admissibility import (
    Configuration,
    ExclusionGraph,
    PeriodTooShortError,
    build_exclusion_graph,
)
from .catalog import (
    LayerFamily,
    LineSelector,
    MeshSelector,
    MeshSpec,
    PlaneSelector,
    build_layered,
    classify_stacking,
    known_mesh,
    known_sublattice,
    layered_quotient,
    mesh_shift,
    scaled_basis,
)
from .embeddings import (
    EmbeddingClass,
    admits_layered,
    embedding_classes,
    enumerate_fcc_embeddings,
    vectors_of_norm,
)
from .lattice import (
    Basis,
    Quotient,
    Site,
    SymmetryOp,
    Window,
    apply_symmetry,
    hnf,
    lattice_contains,
    lattice_index,
    lattice_points,
    quotient,
    shortest_vectors,
    sq_norm,
    symmetry_group,
)
from .perturbations import (
    Excitation,
    ExcitationScan,
    SlidingMove,
    enumerate_excitations,
    find_sliding,
    insertion_conflicts,
    min_insertion_order,
)
from .search import BudgetExhaustedError
from .solver import (
    PackingResult,
    max_packing,
)
from .voronoi import (
    MinCellResult,
    RationalPolytope,
    cell_volume,
    min_cell_search,
    tessellation_check,
    voronoi_cell,
)

__version__ = "0.1.0"
