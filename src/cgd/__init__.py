"""Causal graph dynamics on bounded-degree port graphs.

Pointed graphs modulo isomorphism are held as canonical values; on top of
them live synchronous dynamics with vertex correspondences, desk-scale
reversibility verification, and the decomposition of reversible steps into
circuits of local gates.
"""

from .paths import EPSILON, Path, format_path, parse_path
from .portgraph import (
    Alphabets,
    GraphError,
    GraphFormatError,
    InvalidGraphError,
    PointedRawGraph,
    RawGraph,
    connected_component,
    make_edge,
    parse_graph,
    relabel,
    serialize_graph,
    validate,
)
from .modulo import (
    CanonicalGraph,
    canonicalize,
    canonicalize_with_names,
    disk,
    disk_at,
    is_asymmetric,
    primal_extension,
    shift,
    shift_equivalence_classes,
    shift_with_names,
)
from .dynamics import (
    Dynamics,
    builtin_dynamics,
    check_boundedness,
    check_shift_invariance,
    continuity_probe,
    get_dynamics,
)
from .patches import LocalRule, apply_local_rule, consistent, glue
from .reversibility import (
    GraphFamily,
    InverseTable,
    build_inverse,
    check_bijective_on_family,
    check_class_preservation,
    check_vertex_preserving,
    enumerate_family,
    vertex_preservation_exceptions,
)
from .blocks import (
    BlockKit,
    MarkSpace,
    ReversibleExtension,
    ShiftedDynamics,
    apply_product,
    check_locality,
    find_locality_radius,
    mark,
)
from .dot import export_dot

__version__ = "0.1.0"
