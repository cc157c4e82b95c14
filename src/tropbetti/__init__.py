"""Exact-arithmetic toolkit for tropical prevarieties.

Builds the polyhedral cell complex of a min-plus polynomial system from
its tie arrangement (tie-pattern faces, cross-checked against the cells
dual to the lower faces of the lifted Newton sum, which are computed
without the arrangement), computes exact Betti numbers, verifies
volume/degree/sparse face bounds, and realizes rational polyhedral
complexes as prevarieties.
"""

from .arrangement import Arrangement, ArrFace, Hyperplane, build_arrangement, enumerate_faces
from .bounds import (
    BoundReport,
    bound_report,
    degree_bound,
    sparse_bound,
    verify_bounds,
)
from .corpus import complex_corpus, random_complex, random_system, system_corpus
from .exactgeom import (
    DimensionMismatch,
    EmptyPolyhedronError,
    HPolyhedron,
    RadVal,
    VPolytope,
    lifted_sum_hull,
    lower_faces,
    newton_volume,
)
from .linalg import InvariantError
from .prevariety import (
    DualFace,
    PrevarietyCell,
    PrevarietyComplex,
    cells_via_arrangement,
    connected_components,
    dual_cell,
    dual_subdivision,
    tropical_faces,
)
from .realize import (
    ComplexDescription,
    complex_prevariety,
    gen_grid_example,
    halfspace_prevariety,
    polyhedron_prevariety,
    union_prevarieties,
)
from .topology import (
    BettiVector,
    SimplicialComplex,
    betti,
    betti_of_complex,
    triangulate,
)
from .tropical import (
    LaurentError,
    LinForm,
    TropPoly,
    TropSystem,
    degree,
    eval_poly,
    trop_mul,
)

__version__ = "0.1.0"
