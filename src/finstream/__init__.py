"""finstream: finite topological spaces carrying per-open reachability orders.

A stream is a finite space whose every open set carries a preorder, glued so
that the order on a union of opens is generated by the orders on the members.
The package provides the relation and space substrates, circulations and
their cosheafification, transport along continuous maps, the category of
stream maps with its limits and colimits, canonical models (directed
intervals, circles, squares, boundaries), and a CLI over a canonical JSON
interchange format.
"""

from ._kernels import BACKEND as kernel_backend
from .category import (
    DiagramArrow,
    StreamDiagram,
    StreamMap,
    colimit,
    compose,
    coproduct_stream,
    enumerate_point_maps,
    enumerate_stream_maps,
    final_structure,
    identity_map,
    initial_structure,
    is_stream_map,
    limit,
    product_stream,
    quotient_stream,
    stream_isomorphism,
    substream,
)
from .circulation import (
    AlternatingChain,
    Circulation,
    CirculationCheck,
    CosheafWitness,
    FuncPrecirculation,
    Precirculation,
    Stream,
    StoredPrecirculation,
    alternating_witness,
    chain_witness,
    check_connected_intervals,
    check_monotone,
    circulation_from_generators,
    cosheafify,
    enumerate_circulations,
    is_circulation,
    join_circulations,
    pullback,
    pushforward,
    specialization_circulation,
    stream_from_generators,
    trivial_circulation,
    trivial_stream,
    validate_alternating_witness,
)
from .errors import StreamError
from .models import (
    boundary_square,
    directed_circle,
    directed_interval,
    directed_square,
    empty_stream,
    pathology_fixture,
    point_stream,
    stream_from_atlas,
    stream_from_poset,
)
from .relations import (
    Preorder,
    Relation,
    all_preorders,
    join,
    product,
    transitive_reflexive_closure,
    tuple_point,
)
from .spaces import (
    FiniteSpace,
    all_opens,
    closure_set,
    coproduct_space,
    empty_space,
    interior,
    is_connected,
    is_continuous,
    is_open,
    point_space,
    product_space,
    quotient_space,
    space_from_min_opens,
    specialization_preorder,
    subspace,
)

__version__ = "0.1.0"
