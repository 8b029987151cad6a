"""The four benchmark workloads: seeded inputs, one query each, checks.

Each workload has

* ``build(seed)``: the seeded corpus, a list of queries (the in-process
  workloads take a ``size`` too, for a short warm-up corpus);
* ``run(query)``: the timed call into the package, returning its answer;
* ``check(query, answer)``: an untimed verdict against an independent
  route, ``None`` when the answer is right, else a one-line reason;
* ``size_of(answer)``: (bits, numbers), the total bit length of every
  numerator and denominator in the answer and how many rationals it holds.

Query kinds follow a fixed schedule over the corpus position, and the
seed draws the contents, so the mix of sizes is the same for every seed.
Calls go through module attributes (``lti.snf``, not a bound name) so the
traced run sees every one of them.

``tail_percentile`` is the highest of p99, p95, p90 and p75 that leaves
at least ten of the corpus's per-query times beyond it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import corpus as gen
from openwires import circuit, cli, dirichlet, lti, scalars, sfg, symplectic

# -- answer size --------------------------------------------------------------


def answer_size(value) -> tuple[int, int]:
    """(bits, numbers) of ``value``: the total bit length of every
    numerator and denominator in it, and how many rationals it holds."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return 0, 0
    if isinstance(value, int):
        return value.bit_length(), 1
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length(), 1
    if isinstance(value, (scalars.LaurentPoly, scalars.Polynomial)):
        parts = value.coeffs
    elif isinstance(value, scalars.RationalFunction):
        parts = (value.num, value.den)
    elif isinstance(value, (list, tuple)):
        parts = value
    elif isinstance(value, dict):
        parts = value.values()
    elif isinstance(value, lti.PolyMatrix):
        parts = value.entries
    elif isinstance(value, lti.SnfResult):
        parts = (value.u, value.d, value.v, value.u_inv, value.v_inv)
    elif isinstance(value, lti.MatCospan):
        parts = (value.left, value.right)
    elif isinstance(value, lti.BehaviourRep):
        parts = (value.kernel_matrix,)
    elif isinstance(value, symplectic.Subspace):
        parts = (value.basis,)
    elif isinstance(value, symplectic.LagrangianRelation):
        parts = (value.space,)
    elif isinstance(value, dirichlet.DirichletForm):
        parts = (value.coeff,)
    else:
        raise TypeError(f"no bit size for {type(value).__name__}")
    sizes = [answer_size(part) for part in parts]
    return sum(b for b, _ in sizes), sum(n for _, n in sizes)


def bit_size(value) -> int:
    """Total bit length of every numerator and denominator in ``value``."""
    return answer_size(value)[0]


def _json_size(value) -> tuple[int, int]:
    """``answer_size`` of the scalars printed in a ``--json`` document."""
    if isinstance(value, dict):
        value = [v for k, v in value.items() if k not in ("columns", "nodes", "boundary")]
    if isinstance(value, list):
        sizes = [_json_size(v) for v in value]
        return sum(b for b, _ in sizes), sum(n for _, n in sizes)
    if isinstance(value, str):
        try:
            return answer_size(scalars.parse_scalar_expression(value))
        except ValueError:
            return 0, 0
    return 0, 0


def _ohm(field, impedance):
    """Ohm's law relation of one component (acceptance criterion 4)."""
    g = field.one / impedance
    one, zero = field.one, field.zero
    return symplectic.Subspace.span(field, 4, [[one, zero, -g, -g], [zero, one, g, g]])


def _invariant_factors_are_units(matrix) -> bool:
    """Controllability of ker [A -B] read off the Smith form directly."""
    res = lti.snf(matrix)
    return all(d.is_unit() for d in res.diagonal[: res.rank])


def has_unit_maximal_minor(matrix) -> bool:
    """Whether a matrix of one or two rows has a maximal minor that is a unit.

    Then the maximal minors generate Q[s, s^-1], every invariant factor is
    a unit, and ker [A -B] is controllable for any split of the columns
    into A and B.
    """
    rows = matrix.entries
    if len(rows) == 1:
        return any(e.is_unit() for e in rows[0])
    top, bottom = rows
    return any(
        (top[i] * bottom[j] - top[j] * bottom[i]).is_unit()
        for i in range(len(top))
        for j in range(i + 1, len(top))
    )


def kernel_residuals(rep, combined_window):
    """Residuals of the kernel difference equations on a window.

    The same evaluation as ``kernel_residuals`` in ``tests/conftest.py``.
    """
    ticks = len(combined_window)
    residuals = []
    for row in rep.kernel_matrix.entries:
        exponents = set()
        for entry in row:
            exponents.update(entry.terms())
        if not exponents:
            continue
        lo, hi = min(exponents), max(exponents)
        for t in range(hi, ticks + lo):
            acc = Fraction(0)
            for j, entry in enumerate(row):
                for e, coefficient in entry.terms().items():
                    acc += coefficient * combined_window[t - e][j]
            residuals.append(acc)
    return residuals


def _padded(term):
    """The same term followed (or preceded) by identity wires."""
    m, n = sfg.term_type(term)
    if n:
        return sfg.Seq(term, sfg.par(*[sfg.Gen("id")] * n))
    if m:
        return sfg.Seq(sfg.par(*[sfg.Gen("id")] * m), term)
    return sfg.Seq(term, term)


# -- circuits -------------------------------------------------------------------


class Circuits:
    """Composable circuit pairs: compose, black-box both ways, compare.

    Of every 20 queries, 14 are criterion-5 pairs over Q (<= 6 nodes,
    <= 8 edges), 4 are pairs over Q(s) with impedances r, r*s, 1/(r*s),
    and 2 are pairs of 7-section series-parallel ladders whose composite
    has 29 nodes and a closed-form impedance.  The ladders are a tenth of
    the corpus and all of one size, so the p95 tail falls among them
    rather than at the edge between two sizes.
    """

    name = "circuits"
    size = 200
    tail_percentile = 95
    in_process = True

    def build(self, seed, size=None):
        rng = random.Random(seed)
        queries = []
        for i in range(self.size if size is None else size):
            slot = i % 20
            if slot < 14:
                x, y, z = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
                a = gen.rand_circuit(rng, x, y, 6, 8)
                queries.append(("q", a, gen.rand_circuit(rng, y, z, 6, 8), None))
            elif slot < 18:
                x, y, z = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
                a = gen.rand_qs_circuit(rng, x, y)
                queries.append(("qs", a, gen.rand_qs_circuit(rng, y, z), None))
            else:
                a, za = gen.ladder(rng, 7)
                b, zb = gen.ladder(rng, 7)
                queries.append(("ladder", a, b, za + zb))
        return queries

    def run(self, query):
        _, a, b, _ = query
        glued = circuit.compose_circuits(a, b)
        lhs = symplectic.black_box(glued)
        rhs = symplectic.compose_lagrangian(symplectic.black_box(a), symplectic.black_box(b))
        return lhs, rhs, lhs.space == rhs.space, lhs.is_lagrangian(), dirichlet.power_functional(glued)

    def check(self, query, answer):
        kind, a, b, impedance = query
        lhs, rhs, equal, lagrangian, power = answer
        if not equal or lhs.space != rhs.space:
            return "black box is not functorial on this pair"
        if not lagrangian:
            return "black box of the composite is not Lagrangian"
        glued = circuit.compose_circuits(a, b)
        if kind == "ladder":
            if lhs.space != _ohm(glued.field, impedance):
                return "ladder black box differs from Ohm's law at the closed-form impedance"
            if power.size != 2 or power.coeff[0][1] != 1 / (2 * impedance):
                return "ladder power functional differs from 1/(2Z)"
            return None
        if symplectic.black_box(glued, "oracle").space != lhs.space:
            return "fast and oracle black boxes disagree"
        return None

    size_of = staticmethod(answer_size)


# -- behaviours -----------------------------------------------------------------


class Behaviours:
    """Smith normal forms, denotations and controllability over Q[s, s^-1].

    Of every 10 queries, 5 are criterion-8 SNF inputs (up to 5 x 5,
    spread 3), 4 denote a random term, compare it with itself padded by
    identity wires and test controllability, and 1 tests a criterion-12
    composite over a controllable interface.
    """

    name = "behaviours"
    size = 900
    tail_percentile = 95
    in_process = True

    def build(self, seed, size=None):
        rng = random.Random(seed)
        queries = []
        for i in range(self.size if size is None else size):
            slot = i % 10
            if slot < 5:
                # the criterion-8 shapes, stratified: each of the 25 in turn
                shape = (i // 10) * 5 + slot
                rows, cols = 1 + shape % 5, 1 + (shape // 5) % 5
                queries.append(("snf", gen.rand_poly_matrix(rng, rows, cols, max_spread=3)))
            elif slot < 9:
                term = gen.rand_term(rng, 12)
                queries.append(("denote", term, _padded(term)))
            else:
                queries.append(("span",) + self._controllable_interface(rng))
        return queries

    @staticmethod
    def _controllable_interface(rng):
        """A criterion-12 sample: spans whose middle cospan is controllable.

        The draw is the criterion-12 one, kept when ``[B2 C1]`` has a unit
        maximal minor.  That is cheaper than ``lti.is_controllable``, so
        the set-up time barely depends on how many draws a seed needs.
        """
        while True:
            d, e = rng.randint(1, 2), rng.randint(1, 2)
            m, n, l = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            b1 = gen.rand_poly_matrix(rng, m, d, 2)
            b2 = gen.rand_poly_matrix(rng, n, d, 2)
            c1 = gen.rand_poly_matrix(rng, n, e, 2)
            c2 = gen.rand_poly_matrix(rng, l, e, 2)
            if has_unit_maximal_minor(b2.hstack(c1)):
                return b1, b2, c1, c2

    def run(self, query):
        kind = query[0]
        if kind == "snf":
            return lti.snf(query[1])
        if kind == "denote":
            cospan = sfg.sfg_denote(query[1])
            rep = lti.behaviour_rep(cospan)
            same = lti.behaviour_eq(rep, lti.behaviour_rep(sfg.sfg_denote(query[2])))
            return rep, same, lti.is_controllable(cospan)
        _, b1, b2, c1, c2 = query
        composite = lti.compose_mat_cospans(lti.span_to_cospan(b1, b2), lti.span_to_cospan(c1, c2))
        return composite, lti.is_controllable(composite)

    def check(self, query, answer):
        kind = query[0]
        if kind == "snf":
            m = query[1]
            res = answer
            if res.u.mul(res.d).mul(res.v).entries != m.entries:
                return "U.D.V != M"
            if res.u.mul(res.u_inv).entries != lti.PolyMatrix.identity(m.rows).entries:
                return "U is not inverted by U^-1"
            if res.v.mul(res.v_inv).entries != lti.PolyMatrix.identity(m.cols).entries:
                return "V is not inverted by V^-1"
            for i, row in enumerate(res.d.entries):
                if any(not e.is_zero() for j, e in enumerate(row) if j != i):
                    return "D is not diagonal"
            diagonal = res.diagonal
            for k in range(res.rank - 1):
                if not diagonal[k].divides(diagonal[k + 1]):
                    return "invariant factors do not form a divisibility chain"
            return None
        if kind == "denote":
            rep, same, controllable = answer
            if not same:
                return "a term and the term padded with identity wires differ"
            if controllable != _invariant_factors_are_units(rep.kernel_matrix):
                return "controllability verdict disagrees with the invariant factors"
            return None
        if not answer[1]:
            return "composite over a controllable interface is not controllable"
        return None

    size_of = staticmethod(answer_size)


# -- traces ---------------------------------------------------------------------

_SMALL_CELLS = (1, 2, 3, 4, 2, 3, 1, 2, 3, 4, 2, 3, 1, 2, 3, 4, 2, 3, 1, 4)
_LARGE_CELLS = (6, 8, 10, 12)


class Traces:
    """Window realizability and window sampling, the operational engine.

    Of every 40 queries, 20 run ``check_trace`` on feedback chains of 1 to
    4 cells and 1 on a chain of 6 to 12 cells (with and without ``init``,
    realizable or with one output perturbed), 12 on the criterion-10
    (s+1)-system, and 7 sample a biinfinite window of a random term.
    With this mix the median falls among the (s+1)-system windows and the
    p90 tail among the 4-cell chains, whose costs do not depend on the
    seed.
    """

    name = "traces"
    size = 160
    tail_percentile = 90
    in_process = True

    def build(self, seed, size=None):
        rng = random.Random(seed)
        splusone = cli.parse_term(gen.SPLUSONE)
        queries = []
        for i in range(self.size if size is None else size):
            slot = i % 40
            turn = slot + i // 40
            if slot < 21:
                cells = _SMALL_CELLS[slot] if slot < 20 else _LARGE_CELLS[(i // 40) % 4]
                queries.append(self._chain_query(rng, cells, with_init=turn % 2 == 0, perturb=turn % 3 == 0))
            elif slot < 33:
                ticks = 6
                y = [Fraction(rng.randint(-3, 3)) for _ in range(ticks)]
                c = Fraction(rng.choice((-2, -1, 1, 2)))
                x = [y[t] + c * (-1) ** t for t in range(ticks)]
                if turn % 2:
                    x[rng.randrange(1, ticks)] += 1
                window = [([u], [v]) for u, v in zip(x, y)]
                queries.append(("splusone", splusone, window, None))
            else:
                term = gen.rand_term(rng, 12)
                init = [Fraction(rng.randint(-3, 3)) for _ in range(sfg.count_registers(term))]
                queries.append(("sample", term, init, rng.getrandbits(32)))
        return queries

    @staticmethod
    def _chain_query(rng, cells, with_init, perturb):
        ticks = cells + 4
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ticks)]
        init = [Fraction(rng.randint(-3, 3)) for _ in range(cells)]
        y = gen.run_chain(init, x)
        if perturb:
            y[rng.randrange(cells, ticks)] += rng.choice((-1, 1))
        window = [([u], [v]) for u, v in zip(x, y)]
        return ("chain", gen.feedback_chain(cells), window, init if with_init else None)

    def run(self, query):
        kind, term = query[0], query[1]
        if kind == "sample":
            return sfg.sample_biinfinite_window(term, 8, random.Random(query[3]), query[2])
        return sfg.check_trace(term, query[2], query[3])

    def check(self, query, answer):
        kind, term = query[0], query[1]
        if kind == "chain":
            window, init = query[2], query[3]
            cells = sfg.count_registers(term)
            x = [u[0] for u, _ in window]
            y = [v[0] for _, v in window]
            if init is not None:
                expected = gen.run_chain(init, x) == y
            else:
                expected = all(
                    y[t] == sum(comb(cells, j) * x[t - j] for j in range(cells + 1))
                    for t in range(cells, len(window))
                )
            return None if answer == expected else f"chain of {cells} cells: got {answer}, expected {expected}"
        if kind == "splusone":
            e = [u[0] - v[0] for u, v in query[2]]
            expected = all(e[t] + e[t - 1] == 0 for t in range(1, len(e)))
            return None if answer == expected else f"(s+1)-system: got {answer}, expected {expected}"
        if answer is None:
            return "no biinfinite window although the zero trace is one"
        window, initial = answer
        m, n = sfg.term_type(term)
        if len(window) != 8 or any(len(u) != m or len(v) != n for u, v in window):
            return "sampled window has the wrong shape"
        if len(initial) != sfg.count_registers(term):
            return "sampled initial state has the wrong length"
        rep = lti.behaviour_rep(sfg.sfg_denote(term))
        combined = [list(u) + list(v) for u, v in window]
        if any(r != 0 for r in kernel_residuals(rep, combined)):
            return "sampled window violates the denoted kernel equations"
        return None

    size_of = staticmethod(answer_size)


# -- cli --------------------------------------------------------------------------

_CLI_COMMANDS = (
    "circuit compose",
    "circuit blackbox",
    "circuit equiv",
    "circuit power",
    "sfg denote",
    "sfg equiv",
    "sfg controllable",
    "sfg check-trace",
    "sfg step",
)


def _circuit_document(c, names):
    field = c.field
    return {
        "field": field.name,
        "nodes": names,
        "edges": [
            {"src": names[s], "tgt": names[t], "impedance": field.format(z)}
            for s, t, z in c.graph.edges
        ],
        "inputs": [names[v] for v in c.cospan.left.table],
        "outputs": [names[v] for v in c.cospan.right.table],
    }


def _window_text(window):
    return json.dumps([[[str(v) for v in u], [str(v) for v in w]] for u, w in window])


def _vector_text(values):
    return json.dumps([str(v) for v in values])


class Cli:
    """One ``python -m openwires.cli ... --json`` child process per query.

    The queries cycle over all nine subcommands on small seeded circuit
    documents and term files; exit code and output are compared with the
    in-process library answer.
    """

    name = "cli"
    size = 45
    tail_percentile = 75
    in_process = False

    def __init__(self, root, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def build(self, seed):
        """Draw the documents and write them into the work directory."""
        rng = random.Random(seed)
        os.makedirs(self.workdir, exist_ok=True)
        queries = []
        for i in range(self.size):
            command = _CLI_COMMANDS[i % len(_CLI_COMMANDS)]
            inputs, args = self._draw(rng, i, command)
            queries.append((command, inputs, command.split() + args + ["--json"]))
        return queries

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def _circuit_file(self, name, c):
        names = [f"n{k}" for k in range(c.graph.num_nodes)]
        return self._write(name, json.dumps(_circuit_document(c, names))), names

    def _draw(self, rng, i, command):
        over_qs = (i // len(_CLI_COMMANDS)) % 2 == 1
        small = gen.rand_qs_circuit if over_qs else gen.rand_circuit
        if command == "circuit compose":
            x, y, z = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            a, b = small(rng, x, y, 5, 6), small(rng, y, z, 5, 6)
            pa, _ = self._circuit_file(f"q{i}a.json", a)
            pb, _ = self._circuit_file(f"q{i}b.json", b)
            return (a, b), [pa, pb]
        if command in ("circuit blackbox", "circuit power"):
            c = small(rng, rng.randint(0, 2), rng.randint(0, 2), 5, 6)
            path, names = self._circuit_file(f"q{i}.json", c)
            return (c, names), [path]
        if command == "circuit equiv":
            field = scalars.QS if over_qs else scalars.QQ
            parts = [
                gen.rand_qs_impedance(rng) if over_qs else gen.rand_positive_fraction(rng)
                for _ in range(rng.randint(2, 4))
            ]
            total = sum(parts[1:], parts[0])
            if rng.random() < 0.5:
                total = total + field.one
            a, b = circuit.series(parts, field), circuit.resistor(total, field)
            pa, _ = self._circuit_file(f"q{i}a.json", a)
            pb, _ = self._circuit_file(f"q{i}b.json", b)
            return (a, b), [pa, pb]
        if command in ("sfg denote", "sfg controllable"):
            term = gen.rand_term(rng, 10)
            return term, [self._write(f"q{i}.sfg", gen.term_text(term))]
        if command == "sfg equiv":
            term = gen.rand_term(rng, 10)
            other = _padded(term) if rng.random() < 0.5 else gen.rand_term(rng, 10)
            if sfg.term_type(other) != sfg.term_type(term):
                other = _padded(term)
            pa = self._write(f"q{i}a.sfg", gen.term_text(term))
            pb = self._write(f"q{i}b.sfg", gen.term_text(other))
            return (term, other), [pa, pb]
        cells = rng.randint(1, 3)
        term = gen.feedback_chain(cells)
        path = self._write(f"q{i}.sfg", gen.term_text(term))
        init = [Fraction(rng.randint(-3, 3)) for _ in range(cells)]
        if command == "sfg check-trace":
            x = [Fraction(rng.randint(-3, 3)) for _ in range(cells + 3)]
            y = gen.run_chain(init, x)
            if rng.random() < 0.5:
                y[-1] += 1
            window = [([u], [v]) for u, v in zip(x, y)]
            return (term, window, init), [path, "--window", _window_text(window), "--init", _vector_text(init)]
        u = Fraction(rng.randint(-3, 3))
        v = gen.run_chain(init, [u])[0] + rng.randint(0, 1)
        return (term, init, u, v), [path, "--state", _vector_text(init), "--left", _vector_text([u]), "--right", _vector_text([v])]

    def run(self, query):
        done = subprocess.run(
            [sys.executable, "-m", "openwires.cli"] + query[2],
            env=self.env,
            cwd=self.workdir,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout

    def run_in_process(self, query):
        """The same command through ``cli.main`` in this process."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(query[2])
        return code, out.getvalue()

    def expected(self, query):
        """(exit code, parsed --json output) from the library in process."""
        command, inputs, _ = query
        if command == "circuit compose":
            a, b = inputs
            composed = circuit.compose_circuits(a, b)
            names = [f"v{k}" for k in range(composed.graph.num_nodes)]
            return 0, _circuit_document(composed, names)
        if command == "circuit blackbox":
            c, _ = inputs
            rel = symplectic.black_box(c)
            x, y = rel.dom_n, rel.cod_n
            columns = (
                [f"phi_in{k}" for k in range(x)]
                + [f"phi_out{k}" for k in range(y)]
                + [f"i_in{k}" for k in range(x)]
                + [f"i_out{k}" for k in range(y)]
            )
            basis = [[c.field.format(v) for v in row] for row in rel.space.basis]
            return 0, {"columns": columns, "basis": basis}
        if command == "circuit equiv":
            same = dirichlet.circuits_equivalent(*inputs)
            return (0 if same else 1), {"equivalent": same}
        if command == "circuit power":
            c, names = inputs
            q = dirichlet.power_functional(c)
            rows = [[c.field.format(v) for v in row] for row in q.coeff]
            return 0, {"boundary": [names[v] for v in circuit.boundary(c)], "coefficients": rows}
        if command == "sfg denote":
            rep = lti.behaviour_rep(sfg.sfg_denote(inputs))
            columns = [f"x{k}" for k in range(rep.m)] + [f"y{k}" for k in range(rep.n)]
            return 0, {"columns": columns, "kernel": [[str(e) for e in row] for row in rep.kernel_matrix.entries]}
        if command == "sfg equiv":
            a, b = (lti.behaviour_rep(sfg.sfg_denote(t)) for t in inputs)
            same = lti.behaviour_eq(a, b)
            return (0 if same else 1), {"equivalent": same}
        if command == "sfg controllable":
            cospan = sfg.sfg_denote(inputs)
            controllable = lti.is_controllable(cospan)
            payload = {"controllable": controllable}
            if not controllable:
                r, s = lti.controllable_part(cospan)
                payload["controllable_part"] = {
                    "into_domain": [[str(e) for e in row] for row in r.entries],
                    "into_codomain": [[str(e) for e in row] for row in s.entries],
                }
            return (0 if controllable else 1), payload
        if command == "sfg check-trace":
            term, window, init = inputs
            realizable = sfg.check_trace(term, window, init)
            return (0 if realizable else 1), {"realizable": realizable}
        term, init, u, v = inputs
        outcome = sfg.step(term, init, ([u], [v]))
        if outcome == sfg.INFEASIBLE or outcome == sfg.NONDETERMINATE:
            return 1, {"result": outcome}
        return 0, {"result": "ok", "state": [str(value) for value in outcome]}

    def check(self, query, answer):
        code, stdout = answer
        want_code, want = self.expected(query)
        if code != want_code:
            return f"{query[0]}: exit code {code}, expected {want_code}"
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{query[0]}: output is not JSON"
        if got != want:
            return f"{query[0]}: output differs from the in-process answer"
        return None

    def size_of(self, answer):
        try:
            return _json_size(json.loads(answer[1]))
        except json.JSONDecodeError:
            return 0, 0


def make(name, root, workdir):
    if name == "cli":
        return Cli(root, workdir)
    return {"circuits": Circuits, "behaviours": Behaviours, "traces": Traces}[name]()

