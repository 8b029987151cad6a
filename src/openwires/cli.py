"""Command-line front end.

Circuits travel as JSON documents::

    {"field": "Q",
     "nodes": ["A", "B"],
     "edges": [{"src": "A", "tgt": "B", "impedance": "2"}],
     "inputs": ["A"],
     "outputs": ["B"]}

Signal-flow terms use a tiny infix language: generators

    add zero copy discard delay x(a)
    co-add co-zero co-copy co-discard co-delay co-x(a)
    id tw

composed with ``;`` (sequential) and ``(+)`` (parallel, binds tighter),
with parentheses for grouping.  Example: ``copy ; (delay (+) id) ; add``.
Terms are read with ``scalars._Scanner``, and error lines quote user
text through ``scalars._quoted``.

Each subcommand is one row of ``_COMMANDS``.  A handler imports the
modules it calls when it runs, so a circuit command loads no signal-flow
code and a signal-flow command no circuit code.  Exit codes: 0 success /
answer true, 1 answer false (equiv, controllable, check-trace, step),
2 usage error or an ``--oracle`` disagreement, 3 parse error.  Every
malformed input exits 3 with one ``error:`` line, JSON nested past the
decoder's depth, a vector value with a decimal exponent above
``MAX_EXPONENT`` and an impedance nested past ``MAX_SCALAR_DEPTH`` included.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import Field, ScalarParseError, _quoted, _Scanner, field_by_name

if TYPE_CHECKING:
    from .circuit import OpenCircuit
    from .lti import BehaviourRep
    from .sfg import Term

USAGE_ERROR = 2
PARSE_ERROR = 3

# The largest decimal exponent of a vector value: Fraction("1e<k>") builds
# 10^k in full, at a cost that grows about forty-fold per digit of k.
MAX_EXPONENT = 1000


class DocumentError(ValueError):
    """A malformed circuit document, with the offending context."""


# -- circuit documents -------------------------------------------------------


def parse_circuit_document(doc: dict, default_field: Field | None = None):
    """Validate a circuit JSON document into (OpenCircuit, node names)."""
    from .circuit import ImpedanceError, LabelledGraph, OpenCircuit
    from .finset import FinCospan, FinFunction

    if not isinstance(doc, dict):
        raise DocumentError("circuit document must be a JSON object")
    field_name = doc.get("field")
    if field_name is None:
        field = default_field or field_by_name("Q")
    else:
        try:
            field = field_by_name(str(field_name))
        except ValueError as err:
            raise DocumentError(str(err)) from None
        if default_field is not None and field != default_field:
            raise DocumentError(
                f"document field {field.name} conflicts with --field {default_field.name}"
            )
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise DocumentError("'nodes' must be a list of names")
    if len(set(nodes)) != len(nodes):
        from collections import Counter

        duplicates = sorted(n for n, count in Counter(nodes).items() if count > 1)
        raise DocumentError(f"duplicate node names: {_quoted(', '.join(duplicates))}")
    index = {name: k for k, name in enumerate(nodes)}

    def node(name, where: str) -> int:
        if isinstance(name, str) and name in index:
            return index[name]
        # any other value, an unhashable one included, names no node; the
        # quote of a nested one is cut short
        import reprlib

        quoted = _quoted(name) if isinstance(name, str) else reprlib.repr(name)
        raise DocumentError(f"{where} references unknown node {quoted}")

    listed = doc.get("edges", [])
    if not isinstance(listed, list):
        raise DocumentError("'edges' must be a list of edges")
    edges = []
    for position, edge in enumerate(listed):
        if not isinstance(edge, dict):
            raise DocumentError(f"edge #{position} must be an object")
        ends = []
        for key in ("src", "tgt"):
            if key not in edge:
                raise DocumentError(f"edge #{position} has no {key!r}")
            ends.append(node(edge[key], f"edge #{position}"))
        text = str(edge.get("impedance", ""))
        try:
            impedance = field.parse(text)
        except (ScalarParseError, ValueError) as err:
            raise DocumentError(f"edge #{position} impedance: {err}") from None
        edges.append((*ends, impedance))

    def leg(key: str) -> FinFunction:
        names = doc.get(key, [])
        if not isinstance(names, list):
            raise DocumentError(f"'{key}' must be a list of node names")
        table = [node(name, f"'{key}'") for name in names]
        return FinFunction(len(table), len(nodes), tuple(table))

    graph = LabelledGraph(len(nodes), tuple(edges))
    cospan = FinCospan(leg("inputs"), leg("outputs"))
    try:
        circuit = OpenCircuit(field, graph, cospan)
    except ImpedanceError as err:
        raise DocumentError(str(err)) from None
    return circuit, nodes


def format_circuit_document(circuit: OpenCircuit, nodes: list[str] | None = None) -> dict:
    """Canonical document: parse . format is the identity on valid input."""
    if nodes is None:
        nodes = [f"v{k}" for k in range(circuit.graph.num_nodes)]
    return {
        "field": circuit.field.name,
        "nodes": list(nodes),
        "edges": [
            {
                "src": nodes[s],
                "tgt": nodes[t],
                "impedance": circuit.field.format(z),
            }
            for s, t, z in circuit.graph.edges
        ],
        "inputs": [nodes[v] for v in circuit.cospan.left.table],
        "outputs": [nodes[v] for v in circuit.cospan.right.table],
    }


def _unreadable(path: str, err: Exception) -> str:
    """The error line for a file that cannot be read: the path quoted
    through ``_quoted``, also where the error text repeats it."""
    return f"cannot read {_quoted(path)}: {str(err).replace(repr(path), _quoted(path))}"


def load_circuit(path: str, default_field: Field | None = None):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as err:
        raise DocumentError(_unreadable(path, err)) from None
    except (ValueError, RecursionError) as err:
        raise DocumentError(f"{_quoted(path)}: invalid JSON: {err}") from None
    try:
        return parse_circuit_document(doc, default_field)
    except DocumentError as err:
        raise DocumentError(f"{_quoted(path)}: {err}") from None


# -- term parsing ------------------------------------------------------------


class TermParseError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        self.pos = pos
        super().__init__(f"{message} at position {pos}")


class _TermParser(_Scanner):
    """term := par (';' par)*;  par := atom ('(+)' atom)*;
    atom := generator | '(' term ')'.

    A generator is one word of letters, digits, '-' and '_'.  Parsed
    without recursion: each '(' pushes the enclosing group's sequence and
    parallel parts so far onto a stack and its ')' pops them, so the
    nesting depth is not bounded by the call stack.
    """

    error_type = TermParseError

    def parse(self) -> Term:
        from .sfg import Gen, Par, Seq

        groups: list[tuple] = []
        sequence = parallel = None
        while True:
            if self.at("(+)"):
                raise self.error("expected a generator or '('")
            if self.take("("):
                groups.append((sequence, parallel))
                sequence = parallel = None
                continue
            term = Gen(*self.generator())
            while True:
                parallel = term if parallel is None else Par(parallel, term)
                if self.take("(+)"):
                    break
                sequence = parallel if sequence is None else Seq(sequence, parallel)
                parallel = None
                if self.take(";"):
                    break
                if not groups:
                    self.skip_ws()
                    if self.pos != len(self.text):
                        raise self.error("unexpected trailing input")
                    return sequence
                if not self.take(")"):
                    raise self.error("expected ')'")
                term = sequence
                sequence, parallel = groups.pop()

    def generator(self) -> tuple:
        """The (name, value) of the generator whose word starts at ``pos``."""
        from .sfg import GENERATOR_TYPES

        start = self.pos
        name = self.span(_in_word)
        scalar = name in ("x", "co-x")
        if scalar and not self.at("(+)") and self.take("("):
            value = self.rational()
            if not self.take(")"):
                raise self.error("expected ')'")
            return name, value
        if name in GENERATOR_TYPES and not scalar:
            return name, None
        self.pos = start
        raise self.error("expected a generator or '('")

    def rational(self) -> Fraction:
        text = ("-" if self.take("-") else "") + self.span(_in_rational)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise self.error("expected a rational number") from None


def _in_word(char: str) -> bool:
    return char.isalnum() or char in "-_"


# Any digit, not only a decimal one: Fraction rejects a superscript, and
# the error is then placed at the end of the run.
def _in_rational(char: str) -> bool:
    return char.isdigit() or char == "/"


def parse_term(text: str) -> Term:
    from .sfg import term_type

    term = _TermParser(text).parse()
    term_type(term)
    return term


def load_term(path: str) -> Term:
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise TermParseError("", 0, _unreadable(path, err)) from None
    return parse_term(text)


# -- reports -----------------------------------------------------------------


def _relation_report(circuit: OpenCircuit, relation, as_json: bool):
    x, y = relation.dom_n, relation.cod_n
    columns = (
        [f"phi_in{k}" for k in range(x)]
        + [f"phi_out{k}" for k in range(y)]
        + [f"i_in{k}" for k in range(x)]
        + [f"i_out{k}" for k in range(y)]
    )
    rows = [
        [circuit.field.format(v) for v in row] for row in relation.space.basis
    ]
    return _table("behaviour basis (rows span the relation):", "basis", columns, rows, as_json)


def _behaviour_report(rep: BehaviourRep, as_json: bool):
    columns = [f"x{k}" for k in range(rep.m)] + [f"y{k}" for k in range(rep.n)]
    rows = [[str(e) for e in row] for row in rep.kernel_matrix.entries]
    title = "kernel representation [A -B] (rows are equations):"
    return _table(title, "kernel", columns, rows, as_json)


def _table(title: str, key: str, columns: list, rows: list, as_json: bool):
    """Formatted rows under their column names, right-aligned to one width,
    or as JSON with the rows under ``key``."""
    if as_json:
        return json.dumps({"columns": columns, key: rows}, indent=2)
    width = max([len(c) for c in columns] + [len(v) for row in rows for v in row] + [1])
    lines = [title, "  " + "  ".join(c.rjust(width) for c in columns)]
    for row in rows:
        lines.append("  " + "  ".join(v.rjust(width) for v in row))
    return "\n".join(lines)


# -- subcommands -------------------------------------------------------------


def _verdict(key: str, value: bool, as_json: bool) -> int:
    """Print a yes/no answer as ``key: true`` or as JSON; exit 0 or 1."""
    print(json.dumps({key: value}) if as_json else f"{key}: {'true' if value else 'false'}")
    return 0 if value else 1


def _internal_error(message: str) -> int:
    """Report an ``--oracle`` cross-check that disagrees with the answer."""
    print(f"internal error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _load_circuits(args, *paths: str) -> list:
    """(OpenCircuit, node names) per path, with ``--field`` as the default."""
    field = field_by_name(args.field) if args.field else None
    return [load_circuit(path, field) for path in paths]


def _cmd_circuit_compose(args) -> int:
    from .circuit import compose_circuits

    (a, _), (b, _) = _load_circuits(args, args.first, args.second)
    composed = compose_circuits(a, b)
    if args.oracle:
        from .symplectic import black_box, compose_lagrangian

        glued = compose_lagrangian(black_box(a, "oracle"), black_box(b, "oracle"))
        if black_box(composed, "oracle").space != glued.space:
            return _internal_error("the composite's black box is not the composed relation")
    doc = format_circuit_document(composed)
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_circuit_blackbox(args) -> int:
    from .symplectic import black_box

    [(circuit, _)] = _load_circuits(args, args.circuit)
    method = "oracle" if args.oracle else "fast"
    relation = black_box(circuit, method)
    print(_relation_report(circuit, relation, args.json))
    return 0


def _cmd_circuit_equiv(args) -> int:
    from .dirichlet import circuits_equivalent

    (a, _), (b, _) = _load_circuits(args, args.first, args.second)
    equivalent = circuits_equivalent(a, b)
    if args.oracle:
        from .symplectic import black_box

        fast = black_box(a, "fast").space == black_box(b, "fast").space
        slow = black_box(a, "oracle").space == black_box(b, "oracle").space
        if fast != equivalent or slow != equivalent:
            return _internal_error("pipelines disagree")
    return _verdict("equivalent", equivalent, args.json)


def _cmd_circuit_power(args) -> int:
    from .circuit import boundary
    from .dirichlet import power_functional

    [(circuit, nodes)] = _load_circuits(args, args.circuit)
    q = power_functional(circuit)
    if args.oracle and not _power_agrees(circuit, q):
        return _internal_error("power functional disagrees with the interior solve")
    names = [nodes[v] for v in boundary(circuit)]
    rows = [[circuit.field.format(v) for v in row] for row in q.coeff]
    if args.json:
        print(json.dumps({"boundary": names, "coefficients": rows}, indent=2))
        return 0
    print("power functional coefficients c_ij (Q = sum c_ij (psi_i - psi_j)^2):")
    width = max([len(n) for n in names] + [len(v) for row in rows for v in row] + [1])
    print("  " + " ".join(n.rjust(width) for n in [""] + names))
    for name, row in zip(names, rows):
        print("  " + " ".join(v.rjust(width) for v in [name] + row))
    return 0


def _power_agrees(circuit: OpenCircuit, q) -> bool:
    """At each boundary unit potential, the extended form's gradient at its
    realizable extension (an interior linear solve, not Kron reduction),
    restricted to the boundary, is the reduced form's gradient."""
    from .circuit import boundary
    from .dirichlet import extended_power, realizable_extension

    p = extended_power(circuit)
    nodes = boundary(circuit)
    zero, one = circuit.field.zero, circuit.field.one
    for k in range(len(nodes)):
        unit = [one if j == k else zero for j in range(len(nodes))]
        gradient = p.gradient(realizable_extension(p, nodes, unit))
        if [gradient[n] for n in nodes] != q.gradient(unit):
            return False
    return True


def _cmd_sfg_denote(args) -> int:
    from .lti import behaviour_eq, behaviour_rep
    from .sfg import denote_cospan, sfg_denote

    term = load_term(args.term)
    rep = behaviour_rep(sfg_denote(term))
    if args.oracle and not behaviour_eq(rep, behaviour_rep(denote_cospan(term))):
        return _internal_error("reduction changed the behaviour")
    print(_behaviour_report(rep, args.json))
    return 0


def _cmd_sfg_equiv(args) -> int:
    from .lti import behaviour_eq, behaviour_rep
    from .sfg import sfg_denote, term_type

    first = load_term(args.first)
    second = load_term(args.second)
    if term_type(first) != term_type(second):
        raise ValueError(f"terms have different types {term_type(first)} vs {term_type(second)}")
    equivalent = behaviour_eq(
        behaviour_rep(sfg_denote(first)), behaviour_rep(sfg_denote(second))
    )
    if args.oracle and behaviour_eq(_raw_behaviour(first), _raw_behaviour(second)) != equivalent:
        return _internal_error("reduced and raw denotations disagree")
    return _verdict("equivalent", equivalent, args.json)


def _cmd_sfg_controllable(args) -> int:
    from .lti import controllability, controllable_part
    from .sfg import sfg_denote

    term = load_term(args.term)
    cospan = sfg_denote(term)
    controllable, _ = controllability(cospan)
    if args.oracle:
        problem = _controllability_problem(cospan, controllable)
        if problem:
            return _internal_error(problem)
    if not controllable:
        r, s = controllable_part(cospan)
    if args.json:
        payload = {"controllable": controllable}
        if not controllable:
            payload["controllable_part"] = {
                "into_domain": [[str(e) for e in row] for row in r.entries],
                "into_codomain": [[str(e) for e in row] for row in s.entries],
            }
        print(json.dumps(payload, indent=2))
        return 0 if controllable else 1
    print(f"controllable: {'true' if controllable else 'false'}")
    if not controllable:
        print("maximal controllable sub-behaviour, as a span e -> domain, e -> codomain:")
        print("into domain:")
        print(str(r))
        print("into codomain:")
        print(str(s))
    return 0 if controllable else 1


def _raw_behaviour(term: Term) -> BehaviourRep:
    """ker [A -B] of the unreduced denotation, with no corelation step."""
    from .lti import BehaviourRep, kernel_representation
    from .sfg import denote_cospan

    raw = denote_cospan(term)
    return BehaviourRep(raw.dom, raw.cod, kernel_representation(raw))


def _controllability_problem(cospan, controllable: bool):
    """What the cross-checks of a controllability verdict find wrong, or None.

    The pullback span must satisfy A R = B S exactly, and the verdict must
    agree with the categorical route: the behaviour is controllable iff
    the pullback span, pushed out again, has the same behaviour.
    """
    from .lti import cospans_equivalent, pullback_span, span_to_cospan

    r, s = pullback_span(cospan)
    if cospan.left.mul(r).entries != cospan.right.mul(s).entries:
        return "pullback span does not satisfy A R = B S"
    if controllable != cospans_equivalent(span_to_cospan(r, s), cospan):
        return "controllability verdict disagrees with the pullback span"
    return None


def _parse_json(text: str, what: str):
    """Decoded JSON; every decoding failure, deep nesting included, is a
    ``DocumentError``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise DocumentError(f"invalid {what}: {err}") from None


def _parse_vector(data, what: str) -> list[Fraction]:
    """Rationals from a decoded JSON list of numbers or strings like "1/2"."""
    if not isinstance(data, list):
        raise DocumentError(f"invalid {what}: expected a JSON list")
    try:
        return [_rational(str(v)) for v in data]
    except ValueError as err:
        raise DocumentError(f"invalid {what}: {err}") from None
    except ZeroDivisionError:
        raise DocumentError(f"invalid {what}: zero denominator") from None


def _rational(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent above MAX_EXPONENT."""
    exponent = text.lower().partition("e")[2].replace("_", "").strip().lstrip("+-")
    if exponent.isdecimal() and int(exponent) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent above the cap of {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ValueError as err:
        # Fraction's message quotes the whole text
        raise ValueError(str(err).replace(repr(text), _quoted(text))) from None


def _vector_option(text: str | None, what: str) -> list[Fraction] | None:
    """The vector an optional JSON option gives, or None when it is absent."""
    return _parse_vector(_parse_json(text, what), what) if text else None


def _cmd_sfg_check_trace(args) -> int:
    from .sfg import check_trace, check_trace_unrolled, term_type

    term = load_term(args.term)
    m, n = term_type(term)
    data = _parse_json(args.window, "window")
    if not isinstance(data, list):
        raise DocumentError("invalid window: expected a JSON list of ticks")
    window = []
    for tick in data:
        if not isinstance(tick, list) or len(tick) != 2:
            raise DocumentError("window ticks must be [left, right] pairs")
        u = _parse_vector(tick[0], "left boundary in window")
        v = _parse_vector(tick[1], "right boundary in window")
        if len(u) != m or len(v) != n:
            raise DocumentError(f"tick dimensions must be ({m}, {n})")
        window.append((u, v))
    init = _vector_option(args.init, "init")
    realizable = check_trace(term, window, init)
    if args.oracle and check_trace_unrolled(term, window, init) != realizable:
        return _internal_error("trace verdict disagrees with the unrolled window")
    return _verdict("realizable", realizable, args.json)


def _cmd_sfg_step(args) -> int:
    from .sfg import INFEASIBLE, NONDETERMINATE, step, step_unmerged

    term = load_term(args.term)
    state = _vector_option(args.state, "state") or []
    u = _vector_option(args.left, "left") or []
    v = _vector_option(args.right, "right") or []
    outcome = step(term, state, (u, v))
    if args.oracle and outcome != step_unmerged(term, state, (u, v)):
        return _internal_error("step outcome disagrees with the tick relation")
    if outcome in (INFEASIBLE, NONDETERMINATE):
        print(json.dumps({"result": outcome}) if args.json else outcome)
        return 1
    if args.json:
        print(json.dumps({"result": "ok", "state": [str(v) for v in outcome]}))
    else:
        print("next state: [" + ", ".join(str(v) for v in outcome) + "]")
    return 0


_DOMAINS = {"circuit": "open circuit commands", "sfg": "signal-flow term commands"}

# (domain, command, help, positional arguments, extra options, handler); an
# extra option is (flag, help, required).  Help lists the rows in this order.
_COMMANDS = [
    ("circuit", "compose", "glue two circuits along the shared boundary",
     ["first", "second"], [], _cmd_circuit_compose),
    ("circuit", "blackbox", "behaviour as a Lagrangian relation",
     ["circuit"], [], _cmd_circuit_blackbox),
    ("circuit", "equiv", "same power functional?", ["first", "second"], [], _cmd_circuit_equiv),
    ("circuit", "power", "power functional on the boundary",
     ["circuit"], [], _cmd_circuit_power),
    ("sfg", "denote", "kernel representation of a term", ["term"], [], _cmd_sfg_denote),
    ("sfg", "equiv", "same behaviour?", ["first", "second"], [], _cmd_sfg_equiv),
    ("sfg", "controllable", "controllability test", ["term"], [], _cmd_sfg_controllable),
    ("sfg", "check-trace", "is a window realizable?", ["term"], [
        ("--window", "JSON [[left, right], ...]", True),
        ("--init", "JSON register assignment at the first tick", False),
    ], _cmd_sfg_check_trace),
    ("sfg", "step", "one clock tick", ["term"], [
        ("--state", "JSON register assignment", False),
        ("--left", "JSON left boundary values", False),
        ("--right", "JSON right boundary values", False),
    ], _cmd_sfg_step),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openwires",
        description="Exact compositional semantics for open circuits and signal-flow diagrams.",
    )
    subparsers = parser.add_subparsers(dest="domain", required=True)
    commands = {}
    for domain, command, help_text, positionals, options, handler in _COMMANDS:
        if domain not in commands:
            domain_parser = subparsers.add_parser(domain, help=_DOMAINS[domain])
            commands[domain] = domain_parser.add_subparsers(dest="command", required=True)
        p = commands[domain].add_parser(command, help=help_text)
        for name in positionals:
            p.add_argument(name)
        for flag, option_help, required in options:
            p.add_argument(flag, required=required, help=option_help)
        if domain == "circuit":
            p.add_argument("--field", choices=["q", "qs"], help="default scalar field")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--oracle",
            action="store_true",
            help="run the slow verification pipeline as a cross-check",
        )
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return USAGE_ERROR if exit_.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DocumentError, TermParseError, ScalarParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return PARSE_ERROR
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
