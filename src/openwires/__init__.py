"""openwires: exact compositional semantics for open networks.

Circuits and signal-flow diagrams are composed as (decorated) cospans and
corelations; behaviours come out as Dirichlet forms, Lagrangian relations,
and LTI kernel representations, all over exact rational and
rational-function arithmetic.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a program that uses
only circuits, or only signal-flow systems, loads only that half.
"""

from importlib import import_module

# the public names, by the module that defines them
_EXPORTS = {
    "scalars": (
        "Field", "LaurentPoly", "Polynomial", "QQ", "QS", "Rational", "RationalFunction",
        "parse_rational", "parse_scalar_expression",
    ),
    "finset": (
        "Corelation", "FinCospan", "FinFunction", "compose_corelations", "compose_cospans",
        "corel_generator", "cospan_to_corelation", "epi_mono_factor", "tensor_corelations",
        "tensor_cospans",
    ),
    "linalg": ("Subspace",),
    "circuit": (
        "LabelledGraph", "OpenCircuit", "boundary", "circuit_generator", "compose_circuits",
        "identity_circuit", "parallel", "resistor", "series", "tensor_circuits",
    ),
    "dirichlet": (
        "DirichletForm", "circuits_equivalent", "eliminate_node", "extended_power", "minimize",
        "power_functional", "realizable_extension",
    ),
    "symplectic": (
        "LagrangianRelation", "SymplecticSpace", "black_box", "compose_lagrangian",
        "graph_of_dQ", "identity_relation", "symplectic_complement", "symplectify",
        "tensor_lagrangian", "twist",
    ),
    "lti": (
        "BehaviourRep", "MatCospan", "PolyMatrix", "behaviour_eq", "behaviour_leq",
        "behaviour_rep", "compose_mat_cospans", "controllable_part", "is_controllable",
        "kernel_basis", "mat_corelation", "pullback_span", "snf", "span_to_cospan",
        "tensor_mat_cospans",
    ),
    "sfg": (
        "Gen", "Par", "Seq", "check_trace", "count_registers", "denote_cospan", "par",
        "sample_biinfinite_window", "seq", "sfg_denote", "step", "term_type", "tick_relation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module and kept.  Any other name,
    a submodule's included, is missing, so ``from openwires import sfg``
    goes on to import the submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
