"""openwires: exact compositional semantics for open networks.

Circuits and signal-flow diagrams are composed as (decorated) cospans and
corelations; behaviours come out as Dirichlet forms, Lagrangian relations,
and LTI kernel representations, all over exact rational and
rational-function arithmetic.
"""

from .scalars import (
    Field,
    LaurentPoly,
    Polynomial,
    QQ,
    QS,
    Rational,
    RationalFunction,
    laurent_gcd,
    parse_laurent,
    parse_rational,
    parse_scalar_expression,
)
from .finset import (
    Corelation,
    FinCospan,
    FinFunction,
    compose_corelations,
    compose_cospans,
    corel_generator,
    cospan_to_corelation,
    epi_mono_factor,
    tensor_corelations,
    tensor_cospans,
)
from .linalg import Subspace
from .circuit import (
    LabelledGraph,
    OpenCircuit,
    boundary,
    circuit_generator,
    compose_circuits,
    identity_circuit,
    parallel,
    resistor,
    series,
    tensor_circuits,
)
from .dirichlet import (
    DirichletForm,
    circuits_equivalent,
    eliminate_node,
    extended_power,
    minimize,
    power_functional,
    realizable_extension,
)
from .symplectic import (
    LagrangianRelation,
    SymplecticSpace,
    black_box,
    compose_lagrangian,
    graph_of_dQ,
    identity_relation,
    symplectic_complement,
    symplectify,
    tensor_lagrangian,
    twist,
)
from .lti import (
    BehaviourRep,
    MatCospan,
    PolyMatrix,
    behaviour_eq,
    behaviour_leq,
    behaviour_rep,
    compose_mat_cospans,
    controllable_part,
    is_controllable,
    kernel_basis,
    mat_corelation,
    pullback_span,
    snf,
    span_to_cospan,
    tensor_mat_cospans,
)
from .sfg import (
    Gen,
    Par,
    Seq,
    check_trace,
    count_registers,
    denote_cospan,
    par,
    sample_biinfinite_window,
    seq,
    sfg_denote,
    step,
    term_type,
    tick_relation,
)

__version__ = "0.1.0"
