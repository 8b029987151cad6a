import contextlib
import io
import json
import os
import random
from fractions import Fraction

import pytest
from conftest import format_term, ladder, rand_term
from hypothesis import HealthCheck, example, given, settings, strategies as st

from openwires import circuit, cli, dirichlet, lti, sfg
from openwires.cli import (
    DocumentError,
    TermParseError,
    format_circuit_document,
    main,
    parse_circuit_document,
    parse_term,
)
from openwires.scalars import _quoted
from openwires.sfg import Gen, Par, Seq, term_type

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
# the longest error line a malformed input may print, path included
MAX_ERROR_LINE = 400
# a valid circuit document: two nodes, no edges, one input and one output
_TWO_NODES = {"nodes": ["a", "b"], "edges": [], "inputs": ["a"], "outputs": ["b"]}


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


class TestCircuitDocuments:
    def test_minimal_resistor(self):
        doc = {
            "nodes": ["a", "b"],
            "edges": [{"src": "a", "tgt": "b", "impedance": "1"}],
            "inputs": ["a"],
            "outputs": ["b"],
        }
        circuit, names = parse_circuit_document(doc)
        assert circuit.graph.num_nodes == 2
        assert names == ["a", "b"]

    def test_duplicate_node_rejected(self):
        doc = {"nodes": ["a", "a"], "edges": [], "inputs": [], "outputs": []}
        with pytest.raises(DocumentError):
            parse_circuit_document(doc)

    def test_one_duplicate_among_many_nodes(self, capsys, tmp_path):
        """40,001 nodes, one name twice: the duplicates are counted in one
        pass, where counting each name alone took tens of seconds."""
        doc = tmp_path / "duplicate.json"
        nodes = [f"n{k}" for k in range(40000)] + ["n0"]
        doc.write_text(json.dumps({**_TWO_NODES, "nodes": nodes, "inputs": ["n1"], "outputs": ["n2"]}))
        assert main(["circuit", "power", str(doc)]) == 3
        line = f"error: {_quoted(str(doc))}: duplicate node names: 'n0'\n"
        assert capsys.readouterr().err == line

    def test_unknown_node_rejected(self):
        doc = {
            "nodes": ["a"],
            "edges": [{"src": "a", "tgt": "zz", "impedance": "1"}],
            "inputs": [],
            "outputs": [],
        }
        with pytest.raises(DocumentError):
            parse_circuit_document(doc)

    def test_zero_impedance_rejected(self):
        doc = {
            "nodes": ["a", "b"],
            "edges": [{"src": "a", "tgt": "b", "impedance": "0"}],
            "inputs": [],
            "outputs": [],
        }
        with pytest.raises(DocumentError):
            parse_circuit_document(doc)

    def test_roundtrip_is_canonical(self):
        for name in ("series11.json", "single2.json", "resistor.json", "rlc.json"):
            with open(fixture(name)) as handle:
                doc = json.load(handle)
            circuit, names = parse_circuit_document(doc)
            once = format_circuit_document(circuit, names)
            again_circuit, again_names = parse_circuit_document(once)
            assert format_circuit_document(again_circuit, again_names) == once


class TestTermParsing:
    def test_example(self):
        term = parse_term("copy ; (delay (+) id) ; add")
        assert term_type(term) == (1, 1)

    def test_scalars(self):
        term = parse_term("x(3/4) ; co-x(-2)")
        assert term_type(term) == (1, 1)

    def test_tensor_binds_tighter(self):
        term = parse_term("copy ; delay (+) id ; add")
        assert term_type(term) == (1, 1)

    def test_parse_errors_are_positioned(self):
        with pytest.raises(TermParseError):
            parse_term("copy ; frobnicate")
        with pytest.raises(TermParseError):
            parse_term("add ; (copy")

    def test_type_errors_rejected(self):
        with pytest.raises(Exception):
            parse_term("add ; add")

    def test_grouping_and_associativity(self):
        a, b, c = Gen("id"), Gen("copy"), Gen("add")
        assert cli._TermParser("id ; copy ; add").parse() == Seq(Seq(a, b), c)
        assert cli._TermParser("id (+) copy (+) add").parse() == Par(Par(a, b), c)
        assert cli._TermParser("id ; (copy ; add)").parse() == Seq(a, Seq(b, c))
        assert cli._TermParser("id (+) (copy (+) add)").parse() == Par(a, Par(b, c))
        assert cli._TermParser("id ; copy (+) add ; id").parse() == Seq(Seq(a, Par(b, c)), a)
        assert cli._TermParser("((id ; copy) (+) add) ; x(-3/2)").parse() == Seq(
            Par(Seq(a, b), c), Gen("x", Fraction(-3, 2))
        )

    @pytest.mark.parametrize(
        "text, pos, message",
        [
            ("", 0, "expected a generator or '('"),
            ("(+) id", 0, "expected a generator or '('"),
            ("id ;", 4, "expected a generator or '('"),
            ("(id", 3, "expected ')'"),
            ("((id) ; copy", 12, "expected ')'"),
            ("id )", 3, "unexpected trailing input"),
            ("(id) (id)", 5, "unexpected trailing input"),
            ("x(1", 3, "expected ')'"),
            ("x(q)", 2, "expected a rational number"),
            # a generator is one whole word of letters, digits, '-' and '_',
            # and only x and co-x take a value, in parentheses
            ("idé", 0, "expected a generator or '('"),
            ("id2", 0, "expected a generator or '('"),
            ("xx(1)", 0, "expected a generator or '('"),
            ("x", 0, "expected a generator or '('"),
            ("x (+) id", 0, "expected a generator or '('"),
            ("x(²)", 3, "expected a rational number"),
            ("x()", 2, "expected a rational number"),
            ("x(-)", 3, "expected a rational number"),
            ("co-x(1/0)", 8, "expected a rational number"),
            ("x(1-2)", 3, "expected ')'"),
        ],
    )
    def test_error_positions(self, text, pos, message):
        with pytest.raises(TermParseError) as caught:
            cli._TermParser(text).parse()
        assert caught.value.pos == pos and str(caught.value) == f"{message} at position {pos}"

    def test_whitespace_between_tokens(self):
        assert cli._TermParser("co-x ( -3/4 )").parse() == Gen("co-x", Fraction(-3, 4))
        assert cli._TermParser("id\t;\xa0copy").parse() == Seq(Gen("id"), Gen("copy"))

    def test_print_parse_roundtrip(self):
        source = "copy ; (delay (+) id) ; add ; co-add ; (co-delay (+) id) ; co-copy"
        term = parse_term(source)
        assert parse_term(format_term(term)) == term

    @pytest.mark.parametrize(
        "term, text",
        [
            (Par(Gen("id"), Par(Gen("id"), Gen("id"))), "id (+) (id (+) id)"),
            (Par(Par(Gen("id"), Gen("id")), Gen("id")), "id (+) id (+) id"),
            (Par(Seq(Gen("id"), Gen("id")), Gen("id")), "(id ; id) (+) id"),
            (Par(Gen("id"), Seq(Gen("id"), Gen("id"))), "id (+) (id ; id)"),
            (Seq(Gen("copy"), Par(Gen("id"), Gen("id"))), "copy ; id (+) id"),
            (Seq(Gen("x", Fraction(1, 2)), Gen("co-x", Fraction(-3))), "x(1/2) ; co-x(-3)"),
        ],
    )
    def test_printer_parenthesises_by_precedence(self, term, text):
        assert format_term(term) == text
        assert parse_term(text) == term


class TestCommands:
    def test_equiv_true(self, capsys):
        code = main(["circuit", "equiv", fixture("series11.json"), fixture("single2.json")])
        assert code == 0
        assert "equivalent: true" in capsys.readouterr().out

    def test_equiv_false(self, capsys):
        code = main(["circuit", "equiv", fixture("resistor.json"), fixture("single2.json")])
        assert code == 1
        assert "equivalent: false" in capsys.readouterr().out

    def test_equiv_oracle_crosscheck(self, capsys):
        code = main(
            [
                "circuit",
                "equiv",
                "--oracle",
                fixture("series11.json"),
                fixture("single2.json"),
            ]
        )
        assert code == 0

    def test_blackbox_output_is_stable(self, capsys):
        assert main(["circuit", "blackbox", fixture("resistor.json")]) == 0
        first = capsys.readouterr().out
        assert main(["circuit", "blackbox", fixture("resistor.json")]) == 0
        assert capsys.readouterr().out == first
        assert "-1/3" in first

    def test_blackbox_json(self, capsys):
        assert main(["circuit", "blackbox", "--json", fixture("resistor.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"][0] == "phi_in0"
        assert payload["basis"][0][0] == "1"

    def test_power(self, capsys):
        assert main(["circuit", "power", fixture("series11.json")]) == 0
        out = capsys.readouterr().out
        assert "1/4" in out

    def test_compose_then_equiv(self, capsys, tmp_path):
        assert main(
            ["circuit", "compose", fixture("series11.json"), fixture("resistor.json")]
        ) == 0
        composed = tmp_path / "composed.json"
        composed.write_text(capsys.readouterr().out)
        # 1 + 1 in series with 3 is equivalent to a single 5
        single = tmp_path / "five.json"
        single.write_text(
            json.dumps(
                {
                    "nodes": ["a", "b"],
                    "edges": [{"src": "a", "tgt": "b", "impedance": "5"}],
                    "inputs": ["a"],
                    "outputs": ["b"],
                }
            )
        )
        assert main(["circuit", "equiv", str(composed), str(single)]) == 0

    def test_sfg_controllable(self, capsys):
        code = main(["sfg", "controllable", fixture("splusone.sfg")])
        assert code == 1
        out = capsys.readouterr().out
        assert "controllable: false" in out
        assert "into domain" in out
        assert main(["sfg", "controllable", fixture("wire.sfg")]) == 0

    def test_sfg_denote(self, capsys):
        assert main(["sfg", "denote", "--json", fixture("splusone.sfg")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["x0", "y0"]
        assert payload["kernel"] == [["s+1", "-s-1"]]

    def test_sfg_equiv(self, capsys):
        code = main(["sfg", "equiv", fixture("splusone.sfg"), fixture("wire.sfg")])
        assert code == 1

    def test_sfg_equiv_of_different_types(self, capsys, tmp_path):
        adder = tmp_path / "add.sfg"
        adder.write_text("add\n")
        for extra in ([], ["--json"], ["--oracle"]):
            assert main(["sfg", "equiv", *extra, fixture("wire.sfg"), str(adder)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: terms have different types (1, 1) vs (2, 1)\n"

    def test_check_trace(self, capsys):
        window = json.dumps([[[(-1) ** k], [0]] for k in range(6)])
        assert (
            main(["sfg", "check-trace", fixture("splusone.sfg"), "--window", window])
            == 0
        )
        assert (
            main(["sfg", "check-trace", fixture("wire.sfg"), "--window", "[[[1],[0]]]"])
            == 1
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ["--window", "[[1,2]]"],
            ["--window", "5"],
            ["--window", '[[["1/0"],[0]]]'],
            ["--window", '[[[0],["1/0"]]]'],
            ["--window", "[[[0],[0]]]", "--init", '["1/0", 0]'],
            ["--window", "[[[0],[0]]]", "--init", "3"],
        ],
    )
    def test_check_trace_bad_input(self, capsys, extra):
        code = main(["sfg", "check-trace", fixture("splusone.sfg")] + extra)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--state", '["1/0", 0]'), ("--left", '["1/0"]'), ("--right", '["1/0"]'), ("--left", "1")],
    )
    def test_step_bad_input(self, capsys, flag, value):
        args = {"--state": "[0,1]", "--left": "[1]", "--right": "[0]", flag: value}
        argv = ["sfg", "step", fixture("splusone.sfg")]
        for name, text in args.items():
            argv += [name, text]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_step(self, capsys):
        code = main(
            [
                "sfg",
                "step",
                fixture("splusone.sfg"),
                "--state",
                "[0,1]",
                "--left",
                "[1]",
                "--right",
                "[0]",
            ]
        )
        assert code == 0
        assert "next state: [1, 0]" in capsys.readouterr().out

    def test_degenerate_pivot(self, capsys, tmp_path):
        # s and -s in series through c: eliminating c meets a zero total
        degenerate = tmp_path / "degenerate.json"
        degenerate.write_text(
            json.dumps(
                {
                    "field": "Q(s)",
                    "nodes": ["a", "b", "c"],
                    "edges": [
                        {"src": "a", "tgt": "c", "impedance": "s"},
                        {"src": "c", "tgt": "b", "impedance": "-s"},
                    ],
                    "inputs": ["a"],
                    "outputs": ["b"],
                }
            )
        )
        open_pair = tmp_path / "open.json"
        open_pair.write_text(
            json.dumps(
                {"field": "Q(s)", "nodes": ["a", "b"], "edges": [], "inputs": ["a"], "outputs": ["b"]}
            )
        )
        assert main(["circuit", "blackbox", "--oracle", str(degenerate)]) == 0
        oracle = capsys.readouterr().out
        assert main(["circuit", "blackbox", str(degenerate)]) == 0
        assert capsys.readouterr().out == oracle
        # a short: equal potentials, equal currents
        assert oracle.splitlines()[2].split() == ["1", "1", "0", "0"]
        for argv in (["power", str(degenerate)], ["equiv", str(degenerate), str(open_pair)]):
            assert main(["circuit"] + argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_power_exponent_cap(self, capsys, tmp_path):
        doc = tmp_path / "huge.json"
        doc.write_text(
            json.dumps(
                {
                    "field": "Q(s)",
                    "nodes": ["a", "b"],
                    "edges": [{"src": "a", "tgt": "b", "impedance": "s^99999999"}],
                    "inputs": ["a"],
                    "outputs": ["b"],
                }
            )
        )
        assert main(["circuit", "power", str(doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "size cap" in err

    def test_usage_error(self, capsys):
        assert main(["circuit"]) == 2

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["circuit", "power", str(bad)]) == 3
        bad_term = tmp_path / "bad.sfg"
        bad_term.write_text("frob ; nicate")
        assert main(["sfg", "denote", str(bad_term)]) == 3
        # JSON nested past the decoder's depth, an integer literal past
        # Python's 4300-digit limit, decimal exponents past MAX_EXPONENT and
        # impedances nested past MAX_SCALAR_DEPTH: one error line each, not
        # a RecursionError or a run with no bound
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        nested = "[" * 5000 + "]" * 5000
        step = ["sfg", "step", fixture("delay.sfg"), "--left", "[1]", "--right", "[1]"]
        cases = [
            ["circuit", "power", str(deep)],
            ["sfg", "check-trace", fixture("delay.sfg"), "--window", nested],
            [*step, "--state", nested],
            [*step, "--state", "[" + "7" * 5000 + "]"],
            [*step, "--state", '["1e5000"]'],
            [*step, "--state", '["-1e-5000"]'],
            [*step, "--state", '["1e100000000"]'],
        ]
        impedances = [
            ("qs", "(" * 3000 + "s" + ")" * 3000),
            ("qs", "-" * 3000 + "s"),
            ("q", "1+" * 3000 + "x"),
        ]
        for field, impedance in impedances:
            doc = tmp_path / f"{len(cases)}.json"
            edge = {"src": "a", "tgt": "b", "impedance": impedance}
            doc.write_text(json.dumps({"nodes": ["a", "b"], "edges": [edge], "inputs": ["a"]}))
            cases.append(["circuit", "power", "--field", field, str(doc)])
        # documents of the wrong shape: "edges" that is not a list, node
        # references that are not strings (unhashable ones included) and an
        # unknown field, which is the document's fault, not a usage error
        malformed = [
            {"edges": 5},
            {"edges": None},
            {"edges": [{"src": ["a"], "tgt": "b", "impedance": "1"}]},
            {"edges": [{"src": "a", "tgt": {"b": 1}, "impedance": "1"}]},
            {"inputs": [["a"]]},
            {"field": "R"},
            {"field": 5},
        ]
        for change in malformed:
            doc = tmp_path / f"{len(cases)}.json"
            doc.write_text(json.dumps({**_TWO_NODES, **change}))
            cases += [["circuit", command, str(doc)] for command in ("power", "blackbox")]
        # long user text in a document or a vector value is quoted in part
        for change in [
            {"inputs": ["x" * 5000]},
            {"nodes": ["a", "b", "y" * 3000, "y" * 3000]},
            {"field": "f" * 3000},
        ]:
            doc = tmp_path / f"{len(cases)}.json"
            doc.write_text(json.dumps({**_TWO_NODES, **change}))
            cases.append(["circuit", "power", str(doc)])
        cases.append([*step[:3], "--left", json.dumps(["a" * 3000]), "--right", "[1]"])
        # a long path that names no file is quoted in part, also where the
        # OSError text repeats it
        missing = str(tmp_path / ("m" * 4000))
        cases += [["circuit", "power", missing], ["sfg", "denote", missing]]
        # a term file that is not UTF-8 is a file that cannot be read
        not_utf8 = tmp_path / "not_utf8.sfg"
        not_utf8.write_bytes(b"\xff\xfeid")
        cases.append(["sfg", "denote", str(not_utf8)])
        capsys.readouterr()
        for argv in cases:
            assert main(argv) == 3, argv[:3]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, argv[:3]
            # a long input is quoted in part, so the message stays short
            assert len(err) < MAX_ERROR_LINE, argv[:3]
        # the last case is the term file that is not UTF-8
        assert f"cannot read {_quoted(str(not_utf8))}" in err
        # an edge without "src" says so, also where a node is named "src"
        for nodes in (["a", "b"], ["src", "b"]):
            doc = tmp_path / "no_src.json"
            edge = {"tgt": "b", "impedance": "1"}
            doc.write_text(json.dumps({**_TWO_NODES, "nodes": nodes, "edges": [edge]}))
            assert main(["circuit", "power", str(doc)]) == 3
            assert capsys.readouterr().err == f"error: {_quoted(str(doc))}: edge #0 has no 'src'\n"


ALTERNATING = json.dumps([[[(-1) ** k], [0]] for k in range(6)])
# a window of the two-cell feedback chain from registers (1/4, 0), and the
# same window with its last output moved
FRACTIONAL_CHAIN = '[[["1/2"],["3/4"]],[["1/3"],["19/12"]],[["2/5"],["47/30"]]]'
FRACTIONAL_CHAIN_MOVED = '[[["1/2"],["3/4"]],[["1/3"],["19/12"]],[["2/5"],["3/2"]]]'


class TestSfgOracle:
    """``--oracle`` on ``sfg equiv``, ``sfg controllable``, ``sfg
    check-trace`` and ``sfg step`` cross-checks the answer, and a
    disagreement is an internal error (exit 2)."""

    @pytest.mark.parametrize(
        "first, second, code",
        [("splusone.sfg", "wire.sfg", 1), ("wire.sfg", "wire.sfg", 0), ("splusone.sfg", "splusone.sfg", 0)],
    )
    def test_equiv(self, capsys, first, second, code):
        for extra in ([], ["--json"]):
            assert main(["sfg", "equiv", "--oracle", *extra, fixture(first), fixture(second)]) == code
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name, code", [("splusone.sfg", 1), ("wire.sfg", 0)])
    def test_controllable(self, capsys, name, code):
        for extra in ([], ["--json"]):
            assert main(["sfg", "controllable", "--oracle", *extra, fixture(name)]) == code
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "name, window, init, code",
        [
            ("splusone.sfg", ALTERNATING, None, 0),
            ("splusone.sfg", ALTERNATING, "[0,1]", 0),
            ("splusone.sfg", ALTERNATING, "[0,0]", 1),
            ("wire.sfg", "[[[1],[1]],[[2],[2]]]", None, 0),
            ("wire.sfg", "[[[1],[0]]]", None, 1),
            ("chain2.sfg", FRACTIONAL_CHAIN, '["1/4","0"]', 0),
            ("chain2.sfg", FRACTIONAL_CHAIN, None, 0),
            ("chain2.sfg", FRACTIONAL_CHAIN, '["1/4","1/2"]', 1),
            ("chain2.sfg", FRACTIONAL_CHAIN_MOVED, '["1/4","0"]', 1),
        ],
    )
    def test_check_trace(self, capsys, name, window, init, code):
        argv = ["sfg", "check-trace", fixture(name), "--window", window]
        if init:
            argv += ["--init", init]
        for extra in ([], ["--json"], ["--oracle"], ["--oracle", "--json"]):
            assert main(argv + extra) == code
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "name, state, left, right, code",
        [
            ("splusone.sfg", "[0,1]", "[1]", "[0]", 0),
            ("splusone.sfg", "[0,0]", "[1]", "[0]", 1),
            ("wire.sfg", None, "[1]", "[1]", 0),
            ("wire.sfg", None, "[1]", "[2]", 1),
            ("delay.sfg", '["1/2"]', '["3/4"]', '["1/3"]', 1),
            ("chain2.sfg", '["1/4","0"]', '["1/2"]', '["3/4"]', 0),
        ],
    )
    def test_step(self, capsys, name, state, left, right, code):
        argv = ["sfg", "step", fixture(name), "--left", left, "--right", right]
        if state:
            argv += ["--state", state]
        for extra in ([], ["--json"], ["--oracle"], ["--oracle", "--json"]):
            assert main(argv + extra) == code
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("extra", [[], ["--oracle"]])
    def test_step_prints_a_fractional_state(self, capsys, extra):
        """The oracle reads the successor rows' last entries as the
        state, so they must come back as rows with pivot 1."""
        argv = ["sfg", "step", fixture("delay.sfg"), "--json"]
        argv += ["--state", '["1/2"]', "--left", '["3/4"]', "--right", '["1/2"]']
        assert main(argv + extra) == 0
        assert capsys.readouterr() == ('{"result": "ok", "state": ["3/4"]}\n', "")

    def test_step_nondeterminate(self, capsys, tmp_path):
        path = tmp_path / "dangling.sfg"
        path.write_text("co-discard ; discard")
        for extra in ([], ["--oracle"]):
            assert main(["sfg", "step", str(path), *extra]) == 1
            assert capsys.readouterr().out == "nondeterminate\n"

    def test_random_terms_pass_the_checks(self, capsys, tmp_path):
        rng = random.Random(48)
        for i in range(25):
            term = rand_term(rng, 8)
            path = tmp_path / f"t{i}.sfg"
            path.write_text(format_term(term))
            assert main(["sfg", "controllable", "--oracle", str(path)]) in (0, 1)
            assert main(["sfg", "equiv", "--oracle", str(path), str(path)]) == 0
        assert "internal error" not in capsys.readouterr().err

    def _assert_internal_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and err.count("\n") == 1

    def test_equiv_disagreement(self, capsys, monkeypatch):
        identity = sfg.sfg_denote(parse_term("id"))
        monkeypatch.setattr(sfg, "sfg_denote", lambda term: identity)
        argv = ["sfg", "equiv", fixture("splusone.sfg"), fixture("wire.sfg")]
        assert main(argv) == 0
        capsys.readouterr()
        self._assert_internal_error(capsys, argv + ["--oracle"])

    def test_controllable_verdict_disagreement(self, capsys, monkeypatch):
        monkeypatch.setattr(lti, "controllability", lambda cospan: (True, []))
        self._assert_internal_error(capsys, ["sfg", "controllable", "--oracle", fixture("splusone.sfg")])

    def test_check_trace_disagreement(self, capsys, monkeypatch):
        check_trace = sfg.check_trace
        monkeypatch.setattr(sfg, "check_trace", lambda *args: not check_trace(*args))
        argv = ["sfg", "check-trace", fixture("splusone.sfg"), "--window", ALTERNATING]
        assert main(argv) == 1
        capsys.readouterr()
        self._assert_internal_error(capsys, argv + ["--oracle"])

    @pytest.mark.parametrize(
        "state, forced",
        [
            ("[0,1]", sfg.INFEASIBLE),
            ("[0,1]", ["1", "1"]),
            ("[0,1]", []),
            ("[0,0]", sfg.NONDETERMINATE),
            ("[0,0]", ["1", "0"]),
            ("[0,1]", sfg.NONDETERMINATE),
        ],
    )
    def test_step_disagreement(self, capsys, monkeypatch, state, forced):
        if isinstance(forced, list):
            forced = [Fraction(v) for v in forced]
        monkeypatch.setattr(sfg, "step", lambda *args: forced)
        argv = ["sfg", "step", fixture("splusone.sfg"), "--state", state, "--left", "[1]", "--right", "[0]"]
        assert main(argv) in (0, 1)
        capsys.readouterr()
        self._assert_internal_error(capsys, argv + ["--oracle"])

    def test_step_oracle_reads_no_tick_system(self, capsys, monkeypatch, tmp_path):
        # a faulty reduction that leaves out the inner classes, so that the
        # free wire of co-discard ; discard goes unseen and ``step`` reports
        # the empty next state instead of nondeterminate
        tick_system = sfg._tick_system

        def without_inner(term):
            pivots, reduced, inner, d, m, n = tick_system(term)
            kept = [(col - inner, row[inner:]) for col, row in zip(pivots, reduced) if col >= inner]
            return tuple(col for col, _ in kept), [row for _, row in kept], 0, d, m, n

        monkeypatch.setattr(sfg, "_tick_system", without_inner)
        path = tmp_path / "dangling.sfg"
        path.write_text("co-discard ; discard\n")
        argv = ["sfg", "step", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        self._assert_internal_error(capsys, argv + ["--oracle"])

    def test_controllable_pullback_disagreement(self, capsys, monkeypatch):
        pullback_span = lti.pullback_span

        def wrong_span(cospan):
            r, s = pullback_span(cospan)
            return r, lti.PolyMatrix(s.rows, s.cols, tuple(tuple(e + e for e in row) for row in s.entries))

        monkeypatch.setattr(lti, "pullback_span", wrong_span)
        self._assert_internal_error(capsys, ["sfg", "controllable", "--oracle", fixture("splusone.sfg")])


def test_sfg_controllable_computes_one_pullback_span(capsys, monkeypatch):
    """The verdict reads the invariant factors of [A -B] and the pullback
    span is computed once, for printing: 8 Smith eliminations for the 1x2
    system of splusone.sfg (6 for the denotation, 1 for the verdict, 1 for
    the span).  A controllable term prints no span and computes none."""
    counts = {"elimination": 0, "pullback_span": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(lti, "_eliminate", counted("elimination", lti._eliminate))
    monkeypatch.setattr(lti, "pullback_span", counted("pullback_span", lti.pullback_span))
    for extra in ([], ["--json"]):
        counts.update(elimination=0, pullback_span=0)
        assert main(["sfg", "controllable", *extra, fixture("splusone.sfg")]) == 1
        assert counts == {"elimination": 8, "pullback_span": 1}
    out = capsys.readouterr().out
    assert "maximal controllable sub-behaviour" in out and '"controllable_part"' in out
    for extra in ([], ["--json"]):
        counts.update(elimination=0, pullback_span=0)
        assert main(["sfg", "controllable", *extra, fixture("wire.sfg")]) == 0
        assert counts == {"elimination": 2, "pullback_span": 0}


class TestCircuitOracle:
    """``--oracle`` on ``circuit power`` re-derives each current by the
    interior linear solve, and on ``circuit compose`` composes the oracle
    black boxes; a disagreement is an internal error (exit 2)."""

    @pytest.mark.parametrize("name", ["series11.json", "single2.json", "resistor.json", "rlc.json"])
    def test_power(self, capsys, name):
        for extra in ([], ["--json"], ["--oracle"], ["--oracle", "--json"]):
            assert main(["circuit", "power", *extra, fixture(name)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "first, second",
        [("resistor.json", "resistor.json"), ("series11.json", "single2.json"), ("rlc.json", "rlc.json")],
    )
    def test_compose(self, capsys, first, second):
        outputs = set()
        for extra in ([], ["--json"], ["--oracle"], ["--oracle", "--json"]):
            assert main(["circuit", "compose", *extra, fixture(first), fixture(second)]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def _assert_internal_error(self, capsys, argv):
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1

    def test_power_disagreement(self, capsys, monkeypatch):
        power_functional = dirichlet.power_functional

        def doubled(c):
            q = power_functional(c)
            return q.add(q)

        monkeypatch.setattr(dirichlet, "power_functional", doubled)
        self._assert_internal_error(capsys, ["circuit", "power", fixture("series11.json")])

    def test_compose_disagreement(self, capsys, monkeypatch):
        compose_circuits = circuit.compose_circuits

        def one_more(a, b):
            return compose_circuits(compose_circuits(a, b), b)

        monkeypatch.setattr(circuit, "compose_circuits", one_more)
        self._assert_internal_error(
            capsys, ["circuit", "compose", fixture("resistor.json"), fixture("resistor.json")]
        )


def test_power_of_a_long_ladder(capsys, tmp_path):
    """200 sections: minimum-degree elimination keeps the form sparse;
    in ascending order this took about two minutes."""
    c, impedance = ladder(random.Random(67), 200)
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(format_circuit_document(c)))
    assert main(["circuit", "power", "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["boundary"] == ["v0", "v200"]
    assert payload["coefficients"][0][1] == str(1 / (2 * impedance))


def test_deep_parentheses_parse_without_recursion(capsys, tmp_path):
    """Groups are parsed with an explicit stack; recursion used to fail
    at about 1500 levels."""
    path = tmp_path / "nested.sfg"
    path.write_text("(" * 5000 + "id" + ")" * 5000)
    assert main(["sfg", "denote", str(path)]) == 0
    assert main(["sfg", "check-trace", str(path), "--window", "[[[1],[1]],[[2],[2]]]"]) == 0
    assert main(["sfg", "step", str(path), "--left", "[1]", "--right", "[1]"]) == 0
    assert capsys.readouterr().err == ""
    path.write_text("(" * 5000 + "id" + ")" * 4999)
    assert main(["sfg", "denote", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: expected ')' at position 10001\n"


def test_deep_chains_run_without_recursion(capsys, tmp_path):
    """Terms are typed and wired with an explicit stack, so a chain of
    5000 generators is checked and stepped; recursion used to fail at
    about 1000."""
    path = tmp_path / "deep.sfg"
    path.write_text(" ; ".join(["id"] * 5000))
    assert main(["sfg", "check-trace", str(path), "--window", "[[[1],[1]],[[2],[2]]]"]) == 0
    assert main(["sfg", "step", str(path), "--left", "[1]", "--right", "[1]"]) == 0
    assert capsys.readouterr().err == ""


def test_deep_chains_denote_and_print_without_recursion(capsys, tmp_path):
    """Denotation and the term printer fold the term with an explicit
    stack, so a chain of 5000 generators denotes and prints; recursion
    used to fail at about 1500."""
    text = " ; ".join(["id"] * 5000)
    path = tmp_path / "deep.sfg"
    path.write_text(text)
    assert main(["sfg", "denote", "--json", str(path)]) == 0
    deep = capsys.readouterr()
    assert main(["sfg", "denote", "--json", fixture("wire.sfg")]) == 0
    assert deep == capsys.readouterr()
    assert format_term(parse_term(text)) == text
    wide = " (+) ".join(["id"] * 5000)
    assert format_term(parse_term(wide)) == wide


# -- random command lines ------------------------------------------------------
#
# Each command line has at most one broken part: a file, the window or an
# option, drawn as text that does not parse, or well formed but invalid
# (unknown names, zero or negative impedances, bad numbers, wrong lengths).
# Every other part is drawn valid, so that the parsers of the parts after
# the broken one are reached too, and so is every exit code.

_ATOMS = [name for name in sfg.GENERATOR_TYPES if name not in ("x", "co-x")]
_ATOMS += ["x(1/2)", "co-x(-3)"]
_TOKENS = _ATOMS + ["x", "x(", "x(1/0)", "(", ")", ";", "(+)", "?", "co-", "delay2"]
# valid terms, each of type (1, 1)
_TERMS = ["id", "delay", "co-delay ; x(2)", "x(1/2)", "copy ; (delay (+) id) ; add"]
_TERMS += ["copy ; (delay (+) id) ; add ; co-add ; (co-delay (+) id) ; co-copy"]
_terms = st.sampled_from(_TERMS)
_IMPEDANCES = {"Q": ["1", "1/2", "7/3"], "Q(s)": ["1", "1/2", "3*s", "1/(5*s)", "(s^2+1)/(2*s)"]}
_BAD_IMPEDANCES = ["0", "-1", "2/0", "-s", "s-1", "s^300", "?", "(" * 3000 + "1" + ")" * 3000]
_FIELD_FLAGS = {"Q": "q", "Q(s)": "qs"}
_NAMES = ["a", "b", "c"]
_numbers = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/4"])
_bad_numbers = st.sampled_from(["1/0", "q", "1e3", "1e5000", 0.5, None, [1], True])
# JSON text of junk values, and raw text nested past the decoder's depth,
# which json.dumps cannot build because it recurses itself
_bad_json = st.sampled_from([[], "x", 1, None, {}, [[1]], {"nodes": 1}]).map(json.dumps)
_bad_json |= st.just("[" * 100000 + "]" * 100000)
_junk = _bad_json | st.text(max_size=6)

_bad_terms = st.one_of(
    st.recursive(
        st.sampled_from(_ATOMS),
        lambda inner: st.tuples(inner, st.sampled_from([";", "(+)"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        max_leaves=6,
    ),
    st.lists(st.sampled_from(_TOKENS), max_size=8).map(" ".join),
    st.text(max_size=8),
)


def _values(size: int):
    return st.lists(_numbers, min_size=size, max_size=size)


# a list with a bad number in it, or junk, as often as each other
_bad_lists = st.tuples(st.lists(_numbers, max_size=2), _bad_numbers).map(
    lambda t: json.dumps([*t[0], t[1]])
)
_bad_vectors = st.booleans().flatmap(lambda junk: _junk if junk else _bad_lists)
_windows = st.lists(st.tuples(_values(1), _values(1)), min_size=1, max_size=3).map(json.dumps)
_bad_ticks = st.lists(st.lists(_numbers | _bad_numbers, max_size=2), min_size=2, max_size=2)
_bad_windows = st.lists(_bad_ticks, min_size=1, max_size=3).map(json.dumps) | _junk


@st.composite
def _circuit_documents(draw, field: str, fault: str | None):
    """A valid circuit document over ``field`` and some of ``_NAMES``, or
    one broken in its ``fault``: its "field", a "node" reference, an
    "impedance", its "edges" list or an "unhashable" node reference."""
    nodes = draw(st.lists(st.sampled_from(_NAMES), unique=True, min_size=1, max_size=3))
    ends = st.sampled_from(nodes)
    impedances = st.sampled_from(_IMPEDANCES[field])
    edge = st.fixed_dictionaries({"src": ends, "tgt": ends, "impedance": impedances})
    edges = draw(st.lists(edge, max_size=3))
    doc = {
        "field": field,
        "nodes": nodes,
        "edges": edges,
        "inputs": draw(st.lists(ends, max_size=2)),
        "outputs": draw(st.lists(ends, max_size=2)),
    }
    if fault == "field":
        doc["field"] = draw(st.sampled_from(["R", 1, "Q" if field == "Q(s)" else "Q(s)"]))
    elif fault == "node":
        leg = draw(st.sampled_from(["inputs", "outputs"]))
        doc[leg].append(draw(st.sampled_from(["d", 0, None])))
    elif fault == "impedance":
        bad = draw(st.sampled_from(_BAD_IMPEDANCES))
        position = draw(st.integers(0, len(edges)))
        edges.insert(position, {"src": nodes[0], "tgt": nodes[-1], "impedance": bad})
    elif fault == "edges":
        doc["edges"] = draw(st.sampled_from([5, None, "a", {}]))
    elif fault == "unhashable":
        bad = draw(st.sampled_from([[nodes[0]], {}]))
        edges.append({"src": nodes[0], "tgt": nodes[-1], "impedance": "1"})
        where = draw(st.sampled_from(["src", "tgt", "inputs", "outputs"]))
        if where in ("src", "tgt"):
            edges[-1][where] = bad
        else:
            doc[where].append(bad)
    return doc


@st.composite
def _command_lines(draw):
    """(argv, {file name: contents}) of one random invocation."""
    files = {}

    def document(text, suffix):
        name = f"{len(files)}.{suffix}"
        files[name] = text
        return name

    domain, command = draw(st.sampled_from([tuple(row[:2]) for row in cli._COMMANDS]))
    files_taken = 2 if command in ("equiv", "compose") else 1
    options = {"check-trace": ["--window", "--init"], "step": ["--state", "--left", "--right"]}
    parts = [*range(files_taken), *options.get(command, [])]
    parts += ["--field"] if domain == "circuit" else []
    broken = draw(st.sampled_from([None, *parts]))
    argv = [domain, command]
    if domain == "circuit":
        field = draw(st.sampled_from(sorted(_IMPEDANCES)))
        for k in range(files_taken):
            if k == broken:
                faults = st.sampled_from(["field", "node", "impedance", "edges", "unhashable"])
                doc = faults.flatmap(lambda fault: _circuit_documents(field, fault))
                text = draw(doc.map(json.dumps) | _junk)
            else:
                text = json.dumps(draw(_circuit_documents(field, None)))
            argv.append(document(text, "json"))
        if broken == "--field":
            argv += ["--field", "qs" if field == "Q" else "q"]
        elif draw(st.booleans()):
            argv += ["--field", _FIELD_FLAGS[field]]
    else:
        texts = [draw(_bad_terms if k == broken else _terms) for k in range(files_taken)]
        argv += [document(text, "sfg") for text in texts]
        registers = 1 if broken == 0 else sfg.count_registers(parse_term(texts[0]))
        sizes = {"--init": registers, "--state": registers, "--left": 1, "--right": 1}
        for option in options.get(command, []):
            if option == broken:
                value = draw(_bad_windows if option == "--window" else _bad_vectors)
            elif option == "--window":
                value = draw(_windows)
            elif not draw(st.booleans()):
                continue
            else:
                value = json.dumps(draw(_values(sizes[option])))
            argv += [option, value]
    return argv + draw(st.lists(st.sampled_from(["--json", "--oracle"]), unique=True)), files


_DEEP_IMPEDANCE = {
    "field": "Q(s)",
    "nodes": ["a", "b"],
    "edges": [{"src": "a", "tgt": "b", "impedance": "(" * 3000 + "s" + ")" * 3000}],
    "inputs": ["a"],
    "outputs": ["b"],
}


@given(_command_lines())
@example((["circuit", "power", "0.json"], {"0.json": json.dumps(_DEEP_IMPEDANCE)}))
@example((["circuit", "power", "0.json"], {"0.json": json.dumps({**_TWO_NODES, "edges": 5})}))
@example(
    (["circuit", "blackbox", "0.json"], {"0.json": json.dumps({**_TWO_NODES, "inputs": [["a"]]})})
)
@example(
    (
        ["sfg", "step", "0.sfg", "--state", '["1e5000"]', "--left", "[1]", "--right", "[1]"],
        {"0.sfg": "delay"},
    )
)
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_random_command_lines_exit_with_a_code(tmp_path, case):
    """Random terms, circuit documents and vectors on every subcommand:
    each run returns an exit code from 0 to 3 and raises nothing."""
    argv, files = case
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2, 3)
