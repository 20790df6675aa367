import contextlib
import io
import itertools
import json
import math
import pathlib
import random
import re
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrapcheck import algebra
from wrapcheck.battery import BatteryOptions, run_battery
from wrapcheck.cli import EXIT_EXCLUDED, EXIT_OK, EXIT_USAGE, corpus_paths, main
from wrapcheck.algebra import _monomials_of_degree
from wrapcheck.exterior import MAX_DIMENSION
from wrapcheck.descriptor import (
    MAX_MONOMIALS,
    ParseError,
    _decimal,
    _monomial_count,
    parse_descriptor,
    parse_descriptor_file,
)

import oracles

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "src" / "wrapcheck" / "corpus"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "corpus_verdicts.json"


def corpus_file(name: str) -> str:
    return str(CORPUS / f"{name}.descriptor")


def certified_embedding_keeps_intersection_check(d, report) -> bool:
    """For n = 4 and finite pi1, assert that a found-certified embedding
    never coexists with a failed four-manifold-intersection check; True
    when the report has such an embedding.

    A certified map is injective, because the ring satisfies Poincare
    duality and the fundamental class maps to a nonzero element, and an
    injective map embeds the intersection form in the (3,3) wedge pairing.
    """
    if d.n != 4 or d.pi1.kind != "finite" or report.embedding is None:
        return False
    if report.embedding.status != "found-certified":
        return False
    verdicts = {c.check_id: c.verdict for c in report.checks}
    assert verdicts.get("four-manifold-intersection") != "fail", d.name
    return True


class TestParser:
    def test_t4_descriptor(self):
        d = parse_descriptor_file(corpus_file("t4"))
        assert d.name == "t4" and d.n == 4
        assert [deg for _, deg in d.cohomology.generators] == [1, 1, 1, 1]
        assert d.cohomology.relations == ()
        assert d.pi1.kind == "free-abelian" and d.pi1.rank == 4
        assert d.betti == (3, 3)

    def test_nine_manifold_descriptor(self):
        from wrapcheck.algebra import cup_square_form
        from wrapcheck.quadform import QuadraticForm, discriminant

        d = parse_descriptor_file(corpus_file("nine_disc2"))
        degs = {deg for _, deg in d.cohomology.generators}
        assert degs == {2, 5}
        gram, _ = cup_square_form(d.cohomology, 2)
        form = QuadraticForm(tuple(tuple(r) for r in gram))
        assert discriminant(form) == -2

    def test_odd_cube_is_parse_error(self):
        text = """name: bad
n: 3
[cohomology]
generators: x:1
relation: x^3
fundamental_class: x
[pi1]
type: finite
"""
        with pytest.raises(ParseError) as err:
            parse_descriptor(text)
        assert err.value.line == 5
        assert "exponent" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_descriptor("name: a\nn: 2\nflavor: mint\n")

    def test_malformed_rational(self):
        text = """name: bad
n: 2
[cohomology]
generators: x:1 y:1
relation: 1/0 x y
fundamental_class: x y
[pi1]
type: finite
"""
        with pytest.raises(ParseError, match="rational"):
            parse_descriptor(text)

    def test_unknown_generator(self):
        text = """name: bad
n: 2
[cohomology]
generators: x:1 y:1
fundamental_class: x z
[pi1]
type: finite
"""
        with pytest.raises(ParseError, match="unknown generator"):
            parse_descriptor(text)

    def test_fundamental_class_degree_checked(self):
        text = """name: bad
n: 3
[cohomology]
generators: x:1 y:1
fundamental_class: x y
[pi1]
type: finite
"""
        with pytest.raises(ParseError, match="degree"):
            parse_descriptor(text)

    def test_bracket_indices_validated(self):
        text = """name: bad
n: 3
[cohomology]
generators: x:1 y:1 z:1
fundamental_class: x y z
[pi1]
type: nilpotent
dim: 3
bracket: [2,1] = e3
"""
        with pytest.raises(ParseError, match="bracket"):
            parse_descriptor(text)

    def test_notes_preserved(self):
        d = parse_descriptor_file(corpus_file("genus2"))
        assert "genus 2" in d.notes

    HEADER = "name: a\nn: 2\n[cohomology]\ngenerators: x:1 y:1\nfundamental_class: x y\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (HEADER + "[cohomology]\n[pi1]\ntype: finite\n", "duplicate section"),
            (
                "name: a\nn: 2\n[cohomology]\ngenerators: w:3\nfundamental_class: w\n"
                "[pi1]\ntype: finite\n",
                "overflows the formal dimension",
            ),
            (
                "name: a\nn: 2\n[cohomology]\ngenerators: w:2\nrelation: w^4\n"
                "fundamental_class: w\n[pi1]\ntype: finite\n",
                "overflows the allowed maximum",
            ),
            (HEADER, "missing .pi1."),
            (HEADER + "[pi1]\ntype: quaternionic\n", "unknown pi1 type"),
            (HEADER + "[pi1]\ntype: nilpotent\n", "needs a dim line"),
            (
                HEADER + "[pi1]\ntype: finite\n[betti]\nb_plus: 1\n",
                "needs b_plus and b_minus",
            ),
        ],
    )
    def test_error_paths(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_descriptor(text)

    def test_zero_relation_reported_at_its_line(self):
        text = (
            "name: a\nn: 2\n[cohomology]\ngenerators: x:1 y:1\n"
            "relation: x y - x y\nfundamental_class: x y\n[pi1]\ntype: finite\n"
        )
        with pytest.raises(ParseError) as err:
            parse_descriptor(text)
        assert err.value.line == 5


def random_bracket_rhs(rng: random.Random, ks: list[int]) -> str:
    """A right side the term loop of oracles.bracket_rhs_reference accepts:
    signed terms with optional integer or p/q coefficients on e_k for k in
    ks, with repeats, and now and then a pair e_k - e_k that cancels."""

    def space():
        return rng.choice(["", " ", " ", "  "])

    terms = []
    for t in range(rng.randint(1, 5)):
        sign = rng.choice(["", "+", "-"]) if t == 0 else rng.choice(["+", "-"])
        coeff = rng.choice(
            ["", "", str(rng.randint(0, 12)), f"{rng.randint(0, 12)}/{rng.randint(1, 12)}"]
        )
        terms.append(f"{sign}{space()}{coeff}{space()}e{rng.choice(ks)}")
        if rng.random() < 0.2:
            k = rng.choice(ks)
            terms.append(f"+{space()}e{k}{space()}-{space()}e{k}")
    return space().join(terms)


class TestBracketRightSide:
    """A bracket line's right side is a degree-one polynomial on e1..e_dim."""

    @staticmethod
    def nilmanifold(dim: int, i: int, j: int, rhs: str, b1: int) -> str:
        # a torus ring with the first Betti number the bracket leaves
        ring = " ".join(f"x{k}:1" for k in range(1, b1 + 1))
        top = " ".join(f"x{k}" for k in range(1, b1 + 1))
        return (
            f"name: g\nn: {b1}\n[cohomology]\ngenerators: {ring}\nfundamental_class: {top}\n"
            f"[pi1]\ntype: nilpotent\ndim: {dim}\nbracket: [{i},{j}] = {rhs}\n"
        )

    def test_matches_reference_term_loop(self):
        rng = random.Random(17)
        cancelled = 0
        for _ in range(1200):
            dim = rng.randint(3, 6)
            i, j = sorted(rng.sample(range(1, dim + 1), 2))
            # one bracket [X_i, X_j] = Z with Z off X_i, X_j: Jacobi holds and
            # the algebra is nilpotent, so the line reaches the algebra as written
            rhs = random_bracket_rhs(rng, [k for k in range(1, dim + 1) if k not in (i, j)])
            want = oracles.bracket_rhs_reference(rhs, dim, 1)
            cancelled += not want
            d = parse_descriptor(self.nilmanifold(dim, i, j, rhs, dim - bool(want)))
            assert d.pi1.algebra._brackets == ({(i, j): want} if want else {}), rhs
        assert cancelled > 0

    @pytest.mark.parametrize(
        "rhs, want",
        [("2 * e3", {(1, 2): {3: 2}}), ("e3^1 - 1/2 e3", {(1, 2): {3: Fraction(1, 2)}}), ("0", {})],
    )
    def test_polynomial_forms_accepted(self, rhs, want):
        text = self.nilmanifold(3, 1, 2, rhs, 3 - bool(want))
        assert parse_descriptor(text).pi1.algebra._brackets == want

    @pytest.mark.parametrize(
        "rhs, col, message",
        [
            ("e9", 18, "unknown generator 'e9'"),
            ("x3", 18, "unknown generator 'x3'"),
            ("2", 18, "bracket value is a constant, expected a combination of e1..e3"),
            ("e3 e2", 21, "term degree 2 overflows the allowed maximum 1"),
            ("e3 +", 21, "dangling sign"),
            ("- e3 + 2/0 e2", 25, "malformed rational literal '2/0'"),
            ("", 17, "empty polynomial"),
        ],
    )
    def test_malformed_exit_at_line_and_column(self, tmp_path, capsys, rhs, col, message):
        text = pathlib.Path(corpus_file("heisenberg3")).read_text()
        line = text.splitlines().index("bracket: [1,2] = e3") + 1
        bad = tmp_path / "bad.descriptor"
        bad.write_text(text.replace("bracket: [1,2] = e3", f"bracket: [1,2] = {rhs}".rstrip()))
        assert main(["check", str(bad)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: line {line}, col {col}: {message}\n"
        assert captured.out == ""


class TestLocatedErrors:
    """Polynomial errors count columns from the line start, a mixed-degree
    error points at the offending term, and a repeated [pi1] line is an
    error at its own line; all on edits of heisenberg3."""

    MIXED = "mixed graded degrees in one polynomial"

    @pytest.mark.parametrize(
        "line, edited, at, col, message",
        [
            ("relation: a b", "relation: a b + 1/0 a b", 7, 17, "malformed rational literal '1/0'"),
            ("fundamental_class: a B", "fundamental_class: a B + a c", 14, 28, "unknown generator 'c'"),
            ("relation: a b", "relation: a b + a", 7, 17, f"{MIXED}: [1, 2]"),
            # a - a cancels, so the first term left is a b
            ("relation: a b", "relation: a - a + a b + b", 7, 25, f"{MIXED}: [1, 2]"),
            ("bracket: [1,2] = e3", "bracket: [1,2] = e3 + 2", 19, 23, f"{MIXED}: [0, 1]"),
            ("dim: 3", "dim: 3\ndim: 3", 19, 1, "duplicate key 'dim' in [pi1]"),
            (
                "bracket: [1,2] = e3",
                "bracket: [1,2] = e3\nbracket: [1,2] = 5 e3",
                20,
                10,
                "duplicate bracket [1,2]",
            ),
        ],
    )
    def test_exit_at_line_and_column(self, tmp_path, capsys, line, edited, at, col, message):
        text = pathlib.Path(corpus_file("heisenberg3")).read_text()
        assert text.splitlines().count(line) == 1
        bad = tmp_path / "bad.descriptor"
        bad.write_text(text.replace(line, edited))
        assert main(["check", str(bad)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: line {at}, col {col}: {message}\n"
        assert captured.out == ""

    def test_cancelled_terms_of_another_degree_accepted(self):
        text = pathlib.Path(corpus_file("heisenberg3")).read_text()
        d = parse_descriptor(text.replace("relation: a b", "relation: a - a + a b"))
        assert d.cohomology == parse_descriptor(text).cohomology


class TestTokenErrors:
    """Generator tokens are located at their own column; a repeated or
    non-identifier generator name is an error on the generators line; every
    integer is written in ASCII digits."""

    @pytest.mark.parametrize(
        "ring, line, edited, at, col, message",
        [
            ("t2", "generators: x:1 y:1", "generators: x:1 x:1", 6, 17, "duplicate generator 'x'"),
            (
                "t2", "generators: x:1 y:1", "generators: 1x:1 y:1", 6, 13,
                "generator name '1x' is not an identifier",
            ),
            (
                "t2", "generators: x:1 y:1", "generators: x:1 :1", 6, 17,
                "generator name '' is not an identifier",
            ),
            ("t2", "generators: x:1 y:1", "generators: x:1, y", 6, 18, "generator 'y' must be name:degree"),
            ("t2", "generators: x:1 y:1", "generators: x:1 y:z", 6, 17, "bad degree 'z'"),
            ("t2", "generators: x:1 y:1", "generators: x:1 y:0", 6, 17, "generator degree must be >= 1, got 0"),
            (
                "t2", "generators: x:1 y:1", "generators:  x:1  y:3", 6, 19,
                "generator degree 3 overflows the formal dimension 2",
            ),
            ("t2", "n: 2", "n: 1_0", 3, 4, "n must be an integer, got '1_0'"),
            ("t2", "n: 2", "n: +2", 3, 4, "n must be an integer, got '+2'"),
            ("t2", "n: 2", "n: \u0662", 3, 4, "n must be an integer, got '\u0662'"),
            ("t2", "type: Z^2", "type: Z^\u0662", 10, 7, "unknown pi1 type 'Z^\u0662'"),
            (
                "heisenberg3", "bracket: [1,2] = e3", "bracket: [\u0661,\u0662] = e3", 19, 10,
                "bracket must look like [i,j] = expr",
            ),
            ("heisenberg3", "relation: a b", "relation: \u0662 a b", 7, 11, "unexpected character '\u0662'"),
            ("heisenberg3", "relation: A^2", "relation: A^\u0662", 11, 13, "unexpected character '\u0662'"),
        ],
    )
    def test_exit_at_line_and_column(self, tmp_path, capsys, ring, line, edited, at, col, message):
        text = pathlib.Path(corpus_file(ring)).read_text()
        assert text.splitlines().count(line) == 1
        bad = tmp_path / "bad.descriptor"
        bad.write_text(text.replace(line, edited), encoding="utf-8")
        assert main(["check", str(bad)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: line {at}, col {col}: {message}\n"
        assert captured.out == ""


class TestDescriptorMessages:
    """One edit of BASE per message that parse_descriptor raises, with the
    line and column it reports: a bad value at the value's column, a bad or
    repeated key at the key's column, a missing key at its section header,
    a misplaced line at its first column, and only a missing name, n or
    section at line 1, col 1.  TestTokenErrors pins the generator-token
    messages."""

    BASE = (
        "# one edit of this per case\nname: a\nn: 2\n[cohomology]\ngenerators: x:1 y:1\n"
        "fundamental_class: x y\n[pi1]\ntype: nilpotent\ndim: 3\nbracket: [1,2] = e3\n"
    )
    GENS = "generators: x:1 y:1"
    BRACKET = "bracket: [1,2] = e3"

    def test_base_parses(self):
        assert parse_descriptor(self.BASE).pi1.algebra.dim == 3

    @pytest.mark.parametrize(
        "old, new, line, col, message",
        [
            # the line as a whole
            ("[pi1]", "[pi2]", 7, 1, "unknown section [pi2]"),
            ("[pi1]", "[cohomology]\n[pi1]", 7, 1, "duplicate section [cohomology]"),
            ("n: 2", "n: 2\nname", 4, 1, "expected key: value"),
            (f"{GENS}\nfundamental_class: x y", f"fundamental_class: x y\n{GENS}", 5, 1,
             "generators must come before polynomials"),
            (f"dim: 3\n{BRACKET}", f"{BRACKET}\ndim: 3", 9, 1, "dim must come before bracket lines"),
            # keys
            ("n: 2", "n: 2\n  size: 3", 4, 3, "unknown key 'size'"),
            ("dim: 3", "dim: 3\norder: 3", 10, 1, "unknown key 'order' in [pi1]"),
            ("n: 2", "n: 2\nname: b", 4, 1, "duplicate key 'name'"),
            ("n: 2", "n: 2\n n: 2", 4, 2, "duplicate key 'n'"),
            ("fundamental_class", "generators: x:1\nfundamental_class", 6, 1,
             "duplicate key 'generators' in [cohomology]"),
            ("x y\n", "x y\n fundamental_class: x y\n", 7, 2,
             "duplicate key 'fundamental_class' in [cohomology]"),
            ("dim: 3", "type: nilpotent\ndim: 3", 9, 1, "duplicate key 'type' in [pi1]"),
            ("dim: 3", "dim: 3\ndim: 3", 10, 1, "duplicate key 'dim' in [pi1]"),
            ("e3\n", "e3\n[betti]\nb_plus: 0\nb_plus: 0\n", 13, 1, "duplicate key 'b_plus' in [betti]"),
            ("e3\n", "e3\n[betti]\nb_minus: 0\nb_minus: 0\n", 13, 1, "duplicate key 'b_minus' in [betti]"),
            # a missing top-level key or section: no line holds it
            ("name: a", "", 1, 1, "missing name"),
            ("n: 2", "", 1, 1, "missing n"),
            (f"[cohomology]\n{GENS}\nfundamental_class: x y\n", "", 1, 1, "missing [cohomology] section"),
            (f"[pi1]\ntype: nilpotent\ndim: 3\n{BRACKET}\n", "", 1, 1, "missing [pi1] section"),
            # a missing key in a section: at the section header
            (f"{GENS}\nfundamental_class: x y\n", "", 4, 1, "missing generators line"),
            ("fundamental_class: x y\n", "", 4, 1, "missing fundamental_class"),
            ("type: nilpotent\n", "", 7, 1, "missing pi1 type"),
            (f"dim: 3\n{BRACKET}\n", "", 7, 1, "nilpotent pi1 needs a dim line"),
            ("e3\n", "e3\n[betti]\nb_plus: 0\n", 11, 1, "betti section needs b_plus and b_minus"),
            ("e3\n", "e3\n[betti]\nb_plus: 0\nb_minus: 0\n", 11, 1,
             "[betti] holds 4-manifold data, but n = 2"),
            # values
            ("n: 2", "n: 1_0", 3, 4, "n must be an integer, got '1_0'"),
            ("n: 2", "n: 0", 3, 4, "n must be >= 1"),
            ("fundamental_class: x y", "relation: x y - x y\nfundamental_class: x y", 6, 11, "zero relation"),
            ("fundamental_class: x y", "fundamental_class: x", 6, 20,
             "fundamental class has degree 1, expected 2"),
            ("fundamental_class: x y", "fundamental_class: x y - x y", 6, 20,
             "fundamental class is zero"),
            ("fundamental_class: x y", "fundamental_class: x 2 y", 6, 22,
             "unexpected token '2' in monomial"),
            ("fundamental_class: x y", "fundamental_class: x^ y", 6, 20,
             "expected integer exponent after ^"),
            ("fundamental_class: x y", "fundamental_class: x y + *", 6, 26, "empty term"),
            ("fundamental_class: x y", "relation: y x\nfundamental_class: x y", 7, 20,
             "fundamental class lies in the relation ideal"),
            ("dim: 3", "dim: x", 9, 6, "pi1 dim must be a positive integer"),
            ("dim: 3", "dim: 0", 9, 6, "pi1 dim must be a positive integer"),
            (BRACKET, "bracket: [1 2] = e3", 10, 10, "bracket must look like [i,j] = expr"),
            (BRACKET, "bracket: [2,1] = e3", 10, 10, "bracket indices must satisfy 1 <= i < j <= 3"),
            (BRACKET, f"{BRACKET}\n{BRACKET}", 11, 10, "duplicate bracket [1,2]"),
            (BRACKET, "bracket: [1,2] = 2", 10, 18,
             "bracket value is a constant, expected a combination of e1..e3"),
            # the values e3, e1 give b1 = 1, checked before the Jacobi identity
            # these brackets violate (TestPi1FirstBetti reaches that message)
            (BRACKET, f"{BRACKET}\nbracket: [1,3] = e1", 8, 7,
             "pi1 type nilpotent needs b1 = 1, but the cohomology has b1 = 2"),
            (BRACKET, "bracket: [1,2] = e2", 8, 7,
             "nilpotent pi1: lower central series stabilizes at dimension 1"),
            ("type: nilpotent", "type: solvable", 8, 7, "unknown pi1 type 'solvable'"),
            ("e3\n", "e3\n[betti]\nb_plus: -1\nb_minus: 0\n", 12, 9,
             "b_plus must be a nonnegative integer, got '-1'"),
            ("type: nilpotent", "type: Z^3", 8, 7,
             "pi1 type Z^3 needs b1 = 3, but the cohomology has b1 = 2"),
            # a pi1 that is not nilpotent takes no dim or bracket line: at the first one's key
            ("type: nilpotent\ndim: 3", "type: Z^2\n  dim: 3", 9, 3,
             "dim line under pi1 type Z^2: only a nilpotent pi1 takes dim and bracket lines"),
        ],
    )
    def test_exit_at_line_and_column(self, tmp_path, capsys, old, new, line, col, message):
        assert self.BASE.count(old) == 1
        bad = tmp_path / "bad.descriptor"
        bad.write_text(self.BASE.replace(old, new))
        assert main(["check", str(bad)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: line {line}, col {col}: {message}\n"
        assert captured.out == ""


class TestPi1FirstBetti:
    """A nilpotent pi1's b1, dim minus the rank of the bracket values, is
    compared with the ring's before the Jacobi identity is checked."""

    T2 = "name: t2\nn: 2\n[cohomology]\ngenerators: x:1 y:1\nfundamental_class: x y\n"
    T3 = "name: t3\nn: 3\n[cohomology]\ngenerators: x:1 y:1 z:1\nfundamental_class: x y z\n"

    def _exit(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.descriptor"
        bad.write_text(text)
        code = main(["check", str(bad), "--no-embed"])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_a_large_dim_is_refused_before_the_jacobi_check(self, tmp_path, capsys):
        # the Jacobi check alone takes C(200, 3) triples of brackets
        start = time.perf_counter()
        code, err = self._exit(tmp_path, capsys, self.T3 + "[pi1]\ntype: nilpotent\ndim: 200\n")
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_USAGE
        assert err == (
            "error: line 7, col 7: pi1 type nilpotent needs b1 = 200, but the cohomology has b1 = 3\n"
        )

    def test_a_jacobi_violation_with_the_right_b1_still_exits(self, tmp_path, capsys):
        # filiform4's table with [X1, X4] = X3 added: the values span e3, e4, so b1 = 2
        brackets = ["[1,2] = e3", "[2,3] = e4", "[1,3] = e4", "[1,4] = e3"]
        pi1 = "[pi1]\ntype: nilpotent\ndim: 4\n" + "".join(f"bracket: {b}\n" for b in brackets)
        code, err = self._exit(tmp_path, capsys, self.T2 + pi1)
        assert code == EXIT_USAGE
        assert err == (
            "error: line 7, col 7: nilpotent pi1: structure constants violate the Jacobi identity\n"
        )

    def test_a_stalled_series_with_the_right_b1_still_exits(self, tmp_path, capsys):
        pi1 = "[pi1]\ntype: nilpotent\ndim: 3\nbracket: [1,2] = e1\n"
        code, err = self._exit(tmp_path, capsys, self.T2 + pi1)
        assert code == EXIT_USAGE
        assert err == (
            "error: line 7, col 7: nilpotent pi1: lower central series stabilizes at dimension 1\n"
        )


class TestDigitLimit:
    """An integer with more digits than int() converts is refused at its
    column, naming the limit, in every integer field and in a coefficient;
    it is never an internal error."""

    BASE = TestDescriptorMessages.BASE
    LONG = "1" * 5000

    @pytest.mark.parametrize(
        "old, new, line, col, what",
        [
            ("n: 2", f"n: {LONG}", 3, 4, "n"),
            ("generators: x:1 y:1", f"generators: x:1 y:{LONG}", 5, 17, "generator degree"),
            ("fundamental_class: x y", f"fundamental_class: x y^{LONG}", 6, 24, "exponent"),
            ("fundamental_class: x y", f"fundamental_class: {LONG} x y", 6, 20, "coefficient"),
            ("fundamental_class: x y", f"fundamental_class: {LONG}/2 x y", 6, 20, "coefficient numerator"),
            ("fundamental_class: x y", f"fundamental_class: 1/{LONG} x y", 6, 20, "coefficient denominator"),
            ("dim: 3", f"dim: {LONG}", 9, 6, "dim"),
            ("bracket: [1,2] = e3", f"bracket: [{LONG},2] = e3", 10, 11, "bracket index"),
            ("bracket: [1,2] = e3", f"bracket: [1,{LONG}] = e3", 10, 13, "bracket index"),
            ("type: nilpotent\ndim: 3\nbracket: [1,2] = e3", f"type: Z^{LONG}", 8, 9, "pi1 rank"),
            ("e3\n", f"e3\n[betti]\nb_plus: {LONG}\nb_minus: 0\n", 12, 9, "b_plus"),
            ("e3\n", f"e3\n[betti]\nb_plus: 0\nb_minus: {LONG}\n", 13, 10, "b_minus"),
        ],
        ids=[
            "n", "degree", "exponent", "coefficient", "numerator", "denominator",
            "dim", "bracket_i", "bracket_j", "rank", "b_plus", "b_minus",
        ],
    )
    def test_exit_at_the_field(self, tmp_path, capsys, old, new, line, col, what):
        assert self.BASE.count(old) == 1
        bad = tmp_path / "bad.descriptor"
        bad.write_text(self.BASE.replace(old, new))
        assert main(["check", str(bad)]) == EXIT_USAGE
        captured = capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        assert captured.err == (
            f"error: line {line}, col {col}: {what} has 5000 digits, over the limit of {limit}\n"
        )
        assert captured.out == ""

    NINES = "9" * 4300  # within the limit, though n + 2 is not
    EVEN = "9" * 4299 + "8"  # an even degree of 4300 digits, whose square is allowed
    HEAD = "name: a\nn: {n}\n[cohomology]\ngenerators: {gens}\n"
    TAIL = "[pi1]\ntype: finite\n"

    @pytest.mark.parametrize(
        "n, gens, body, line, col, message",
        [
            (
                NINES, "w:2", "fundamental_class: w\n" + TAIL, 4, 13,
                "generators span more than 32768 monomials of degree 0..a 4301-digit number",
            ),
            (
                "4", "w:2", f"relation: w^{NINES}\nfundamental_class: w^2\n{TAIL}", 5, 11,
                "term degree a 4301-digit number overflows the allowed maximum 8",
            ),
            (
                EVEN, f"w:{EVEN}", "relation: w^3\nfundamental_class: w\n" + TAIL, 5, 11,
                "term degree a 4301-digit number overflows the allowed maximum a 4301-digit number",
            ),
            (
                EVEN, f"w:{EVEN}", "fundamental_class: w^2\n" + TAIL, 5, 20,
                f"fundamental class has degree a 4301-digit number, expected {EVEN}",
            ),
            (
                EVEN, f"w:{EVEN} v:1", "relation: w^2 + v\nfundamental_class: w\n" + TAIL, 5, 17,
                "mixed graded degrees in one polynomial: [1, a 4301-digit number]",
            ),
            (
                "4", "w:2", f"relation: w^3\nfundamental_class: w^2\n{TAIL}[betti]\n"
                f"b_plus: {NINES}\nb_minus: {NINES}\n", 10, 9,
                "[betti] declares b_plus + b_minus = a 4301-digit number, "
                "but the cohomology has b2 = 1",
            ),
        ],
        ids=["monomial_limit", "term_degree", "term_and_maximum", "fundamental", "mixed", "betti"],
    )
    def test_derived_integers_are_named_by_digit_count(
        self, tmp_path, capsys, n, gens, body, line, col, message
    ):
        bad = tmp_path / "bad.descriptor"
        bad.write_text(self.HEAD.format(n=n, gens=gens) + body)
        assert main(["check", str(bad), "--no-embed"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: line {line}, col {col}: {message}\n"
        assert captured.out == ""

    def test_digit_counts_at_powers_of_ten(self):
        limit = sys.get_int_max_str_digits()
        for digits in (limit + 1, limit + 2, 2 * limit):
            for value in (10 ** (digits - 1), 10**digits - 1, -(10 ** (digits - 1))):
                assert _decimal(value) == f"a {digits}-digit number"
        assert _decimal(10**limit - 1) == "9" * limit
        assert _decimal(-5) == "-5"

    def test_the_interpreter_limit_is_the_one_named(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ParseError, match="n has 700 digits, over the limit of 640"):
                parse_descriptor(self.BASE.replace("n: 2", "n: " + "1" * 700))
            assert parse_descriptor(self.BASE.replace("n: 2", "n: " + "0" * 639 + "2")).n == 2
        finally:
            sys.set_int_max_str_digits(old)


def connected_sum(name: str, p: int, q: int, copies: int) -> str:
    """A descriptor of the connected sum of copies of S^p x S^q, written
    with every product that vanishes (a_i b_j for i != j, a_i a_j, b_i b_j,
    even squares), so that the relations force every degree above p + q."""
    gens = [(f"a{i}", p) for i in range(1, copies + 1)] + [(f"b{i}", q) for i in range(1, copies + 1)]
    rels = [f"{g}^2" for g, d in gens if d % 2 == 0]
    rels += [
        f"{g} {h}"
        for (g, _), (h, _) in itertools.combinations(gens, 2)
        if {g[0], h[0]} != {"a", "b"} or g[1:] != h[1:]
    ]
    rels += [f"a{i} b{i} - a1 b1" for i in range(2, copies + 1)]
    return (
        f"name: {name}\nn: {p + q}\n[cohomology]\n"
        f"generators: {' '.join(f'{g}:{d}' for g, d in gens)}\n"
        + "".join(f"relation: {r}\n" for r in rels)
        + "fundamental_class: a1 b1\n[pi1]\ntype: finite\n"
    )


class TestDegreeOneRelation:
    """b1 read off the degree-one ideal of the ring: a T^2 on x, y, z with
    z = x has b1 = 2."""

    BASE = (
        "name: t2_zx\nn: 2\n[cohomology]\ngenerators: x:1 y:1 z:1\nrelation: z - x\n"
        "fundamental_class: x y\n[pi1]\ntype: Z^2\n"
    )

    def test_z2_embeds(self, tmp_path, capsys):
        path = tmp_path / "t2_zx.descriptor"
        path.write_text(self.BASE)
        assert main(["check", str(path), "--format", "structured"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["betti"] == [1, 2, 1]
        assert report["embedding"]["status"] == "found-certified"

    def test_z3_contradicts_the_ring(self, tmp_path, capsys):
        path = tmp_path / "t2_zx.descriptor"
        path.write_text(self.BASE.replace("Z^2", "Z^3"))
        assert main(["check", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: line 8, col 7: pi1 type Z^3 needs b1 = 3, but the cohomology has b1 = 2\n"
        )

    def test_constant_relation_is_refused(self, tmp_path, capsys):
        path = tmp_path / "one.descriptor"
        path.write_text(self.BASE.replace("z - x", "1"))
        assert main(["check", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        # the ring is refused before its pi1 type is read against b1 = 0
        assert captured.err == "error: line 6, col 20: fundamental class lies in the relation ideal\n"
        assert captured.out == ""


class TestTopDegreeRankTwo:
    """A ring whose top degree has rank 2 fails Poincare duality there."""

    TEXT = (
        "name: top2\nn: 2\n[cohomology]\ngenerators: a:2 b:2\nrelation: a^2\nrelation: a b\n"
        "relation: b^2\nfundamental_class: a\n[pi1]\ntype: finite\n"
    )

    def test_poincare_duality_fails_at_the_top(self, tmp_path, capsys):
        path = tmp_path / "top2.descriptor"
        path.write_text(self.TEXT)
        assert main(["check", str(path), "--format", "structured"]) == EXIT_EXCLUDED
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        row = next(c for c in report["checks"] if c["id"] == "poincare-duality")
        assert row["verdict"] == "fail"
        assert row["witness"] == {"failing_degree": 2, "detail": "top degree has rank 2, expected 1"}
        assert report["witnesses"] == ["poincare-duality"]


class TestGradedDimensionBound:
    """A ring whose Betti numbers exceed C(n, k), with no other failing
    check, is excluded by the bound, with or without the search."""

    @pytest.mark.parametrize(
        "p, q, copies, code",
        [(2, 2, 6, EXIT_EXCLUDED), (2, 3, 11, EXIT_EXCLUDED), (2, 3, 10, EXIT_OK)],
        ids=["sum6_s2xs2", "sum11_s2xs3", "sum10_s2xs3"],
    )
    @pytest.mark.parametrize("flags", [["--no-embed"], ["--budget", "50"]])
    def test_exit_and_witness(self, tmp_path, capsys, p, q, copies, code, flags):
        path = tmp_path / "sum.descriptor"
        path.write_text(connected_sum("sum", p, q, copies))
        assert main(["check", str(path), "--format", "structured", *flags]) == code
        captured = capsys.readouterr()
        assert captured.err == ""  # no truncation warning
        report = json.loads(captured.out)
        b2 = 2 * copies if p == q else copies
        assert report["betti"][2] == b2
        assert report["witnesses"] == (["graded-dimension-bound"] if code else [])
        if code:
            row = report["checks"][-1]
            assert row["id"] == "graded-dimension-bound" and row["verdict"] == "fail"
            bound = math.comb(p + q, 2)
            assert row["witness"] == {"degree": 2, "rank": b2, "bound": bound, "target_n": p + q}

    def test_text_report_names_the_bound(self, tmp_path, capsys):
        path = tmp_path / "sum.descriptor"
        path.write_text(connected_sum("sum6", 2, 2, 6))
        assert main(["check", str(path), "--budget", "50"]) == EXIT_EXCLUDED
        out = capsys.readouterr().out
        assert "embedding: not-found (blocked by graded-dimension-bound)" in out
        assert "witnesses: graded-dimension-bound" in out


def sphere_descriptor(n: int) -> str:
    return (
        f"name: s{n}\nn: {n}\n[cohomology]\ngenerators: w:{n}\n"
        + ("relation: w^2\n" if n % 2 == 0 else "")
        + "fundamental_class: w\n[pi1]\ntype: finite\n"
    )


class TestSearchDimensionLimit:
    """A search into Lambda*(Q^n) above MAX_DIMENSION is a usage error
    naming the limit and the flag that avoids it; the other checks run."""

    @pytest.mark.parametrize(
        "argv, flag",
        [(["check"], "--no-embed"), (["embed"], "--n"), (["check", "--budget", "0"], "--no-embed")],
    )
    def test_search_above_the_limit_exits_2(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "s33.descriptor"
        path.write_text(sphere_descriptor(MAX_DIMENSION + 1))
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"up to {MAX_DIMENSION}, got n = {MAX_DIMENSION + 1}" in captured.err
        assert f"pass {flag} " in captured.err

    def test_no_embed_runs_the_other_checks(self, tmp_path, capsys):
        path = tmp_path / "s33.descriptor"
        path.write_text(sphere_descriptor(MAX_DIMENSION + 1))
        assert main(["check", str(path), "--no-embed"]) == EXIT_OK
        assert "verdict: no-obstruction-found" in capsys.readouterr().out

    def test_embed_into_a_smaller_target_runs(self, tmp_path, capsys):
        path = tmp_path / "s33.descriptor"
        path.write_text(sphere_descriptor(MAX_DIMENSION + 1))
        # b_33 = 1 > C(32, 33) = 0: the graded bound blocks the search
        assert main(["embed", str(path), "--n", str(MAX_DIMENSION)]) == EXIT_EXCLUDED
        assert "blocked by: graded-dimension-bound" in capsys.readouterr().out

    def test_the_limit_itself_is_searched(self, tmp_path, capsys):
        path = tmp_path / "s32.descriptor"
        path.write_text(sphere_descriptor(MAX_DIMENSION))
        assert main(["check", str(path), "--budget", "10"]) == EXIT_OK
        assert capsys.readouterr().err == ""


def torus_descriptor(k: int) -> str:
    gens = [f"x{i}" for i in range(1, k + 1)]
    return (
        f"name: t{k}\nn: {k}\n[cohomology]\ngenerators: {' '.join(f'{g}:1' for g in gens)}\n"
        f"fundamental_class: {' '.join(gens)}\n[pi1]\ntype: Z^{k}\n"
    )


def nilpotent_torus_descriptor(k: int) -> str:
    """T^k with its pi1 written as the abelian nilpotent algebra of dim k."""
    return torus_descriptor(k).replace(f"type: Z^{k}\n", f"type: nilpotent\ndim: {k}\n")


def filiform_t2_descriptor(dim: int) -> str:
    """The T^2 ring with the model filiform pi1, [X_1, X_k] = X_{k+1}: its b1 is 2."""
    brackets = "".join(f"bracket: [1,{k}] = e{k + 1}\n" for k in range(2, dim))
    return torus_descriptor(2).replace("type: Z^2\n", f"type: nilpotent\ndim: {dim}\n{brackets}")


class TestLieDimLimit:
    """``lie`` computes the invariant-form complex, 2^dim blades, only up to
    nilcoh.MAX_COMPLEX_DIM; a larger dim is a usage error naming the limit."""

    def _lie(self, tmp_path, capsys, text, *flags):
        path = tmp_path / "pi1.descriptor"
        path.write_text(text)
        start = time.perf_counter()
        code = main(["lie", str(path), *flags])
        return code, time.perf_counter() - start, capsys.readouterr()

    def test_past_the_limit_exits_2_before_the_complex(self, tmp_path, capsys):
        from wrapcheck import nilcoh

        dim = nilcoh.MAX_COMPLEX_DIM + 1
        code, seconds, captured = self._lie(tmp_path, capsys, filiform_t2_descriptor(dim))
        assert code == EXIT_USAGE and seconds < 2.0
        assert captured.out == ""
        assert captured.err == (
            f"error: lie computes the invariant-form complex for dim up to "
            f"{nilcoh.MAX_COMPLEX_DIM}, got dim = {dim}\n"
        )
        # a filiform of dim 33 passes the parser's b1 check too
        code, seconds, captured = self._lie(tmp_path, capsys, filiform_t2_descriptor(33))
        assert code == EXIT_USAGE and seconds < 2.0
        assert captured.err.endswith("got dim = 33\n")

    def test_the_limit_itself_is_computed(self, tmp_path, capsys):
        from wrapcheck import nilcoh

        dim = nilcoh.MAX_COMPLEX_DIM
        code, seconds, captured = self._lie(
            tmp_path, capsys, filiform_t2_descriptor(dim), "--format", "structured"
        )
        assert code == EXIT_EXCLUDED and seconds < 10.0
        report = json.loads(captured.out)
        assert report["dim"] == dim
        assert report["lower_central_series"] == [dim, *range(dim - 2, -1, -1)]
        betti = report["betti"]
        assert betti[:2] == [1, 2] and betti == betti[::-1] and sum(betti) % 2 == 0

    @pytest.mark.parametrize("k", [10, 14])
    def test_nilpotent_torus_has_binomial_betti_numbers(self, tmp_path, capsys, k):
        code, seconds, captured = self._lie(
            tmp_path, capsys, nilpotent_torus_descriptor(k), "--format", "structured"
        )
        assert code == EXIT_OK and seconds < 5.0
        report = json.loads(captured.out)
        assert report["betti"] == [math.comb(k, j) for j in range(k + 1)]
        assert report["verdict_closed_n_manifold"] == "pass"


class TestMonomialBound:
    """A ring with more than MAX_MONOMIALS monomials of degree 0 .. n + the
    largest generator degree is refused at its generators line, before
    anything enumerates them: T^k has 2^k."""

    def test_count_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(100):
            degrees = [rng.randint(1, 5) for _ in range(rng.randint(0, 6))]
            gens = tuple((f"g{i}", d) for i, d in enumerate(degrees))
            top = rng.randint(0, 12)
            want = sum(len(_monomials_of_degree(gens, k)) for k in range(top + 1))
            assert _monomial_count(degrees, top) == want

    @pytest.mark.parametrize("k", [14, 15, 16, 17])
    def test_count_passes_the_limit_with_the_ring(self, k):
        # T^k has 2^k monomials of degree 0..k+1
        assert (_monomial_count([1] * k, k + 1) > MAX_MONOMIALS) == (2**k > MAX_MONOMIALS)

    @pytest.mark.parametrize("k", [14, 15])
    def test_tori_within_the_limit_parse(self, k):
        assert 2**k <= MAX_MONOMIALS
        assert parse_descriptor(torus_descriptor(k)).n == k

    @pytest.mark.parametrize("k", [16, 20])
    def test_larger_tori_exit_at_the_generators_line(self, tmp_path, capsys, k):
        path = tmp_path / "torus.descriptor"
        path.write_text(torus_descriptor(k))
        start = time.perf_counter()
        assert main(["check", str(path)]) == EXIT_USAGE
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: line 4, col 13: generators span more than {MAX_MONOMIALS} monomials "
            f"of degree 0..{k + 1}\n"
        )
        assert captured.out == ""

    def test_a_large_n_is_refused_in_bounded_time_and_memory(self, tmp_path, capsys):
        # the powers of w alone pass the limit: the count stops there instead
        # of listing n + 2 degrees
        path = tmp_path / "large_n.descriptor"
        path.write_text(
            "name: a\nn: 100000000\n[cohomology]\ngenerators: w:2\nfundamental_class: w\n"
            "[pi1]\ntype: finite\n"
        )
        start = time.perf_counter()
        tracemalloc.start()
        try:
            assert main(["check", str(path)]) == EXIT_USAGE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2
        assert peak < 10 * 2**20
        assert capsys.readouterr().err == (
            f"error: line 4, col 13: generators span more than {MAX_MONOMIALS} monomials "
            "of degree 0..100000002\n"
        )


class TestBattery:
    def test_t4_report(self):
        d = parse_descriptor_file(corpus_file("t4"))
        rep = run_battery(d, BatteryOptions(embed_budget=2000))
        assert rep.verdict == "no-obstruction-found"
        wit = rep.embedding.morphism.assignment
        assert str(wit["x1"]) == "1*e{1}"

    def test_heisenberg_witnesses(self):
        d = parse_descriptor_file(corpus_file("heisenberg3"))
        rep = run_battery(d, BatteryOptions(embed_budget=100))
        assert rep.verdict == "excluded-with-witness"
        assert "fundamental-group-abelian" in rep.witnesses
        assert "degree-one-subalgebra" in rep.witnesses

    def test_genus2_chi_witness(self):
        d = parse_descriptor_file(corpus_file("genus2"))
        rep = run_battery(d, BatteryOptions(embed_budget=100))
        assert rep.verdict == "excluded-with-witness"
        assert "euler-characteristic" in rep.witnesses
        chi_check = next(c for c in rep.checks if c.check_id == "euler-characteristic")
        assert chi_check.witness["chi"] == -2

    def test_every_exclusion_names_its_principle(self):
        for path in corpus_paths():
            rep = run_battery(
                parse_descriptor_file(path), BatteryOptions(embed=False)
            )
            for check in rep.checks:
                if check.verdict == "fail":
                    assert check.principle  # a statement of the theorem used
            if rep.verdict == "excluded-with-witness":
                assert rep.witnesses

    def test_certified_embedding_never_meets_failed_intersection_check(self):
        certified = []
        for path in corpus_paths():
            d = parse_descriptor_file(path)
            rep = run_battery(d, BatteryOptions(embed_budget=4000))
            if certified_embedding_keeps_intersection_check(d, rep):
                certified.append(d.name)
        assert len(certified) >= 6  # cp2, s2xs2 and the blow-ups and sums of them

    def test_text_rendering(self):
        d = parse_descriptor_file(corpus_file("s2xs2"))
        rep = run_battery(d, BatteryOptions(embed_budget=2000))
        text = rep.render_text()
        assert "verdict: no-obstruction-found" in text
        assert "embedding: found (certified)" in text


class TestCLI:
    def test_check_exit_codes(self, capsys):
        assert main(["check", corpus_file("t4"), "--budget", "2000"]) == EXIT_OK
        capsys.readouterr()
        assert main(["check", corpus_file("genus2")]) == EXIT_EXCLUDED
        capsys.readouterr()

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.descriptor"
        bad.write_text("name: x\n")
        assert main(["check", str(bad)]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_file_exit(self, capsys):
        assert main(["check", "/nonexistent.descriptor"]) == EXIT_USAGE
        capsys.readouterr()

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name,brackets,message",
        [
            # [X1,X2] = X1 makes the lower central series stall at dimension 1
            ("heisenberg3", ["[1,2] = e1"], "lower central series stabilizes"),
            ("filiform4", ["[1,2] = e3", "[2,3] = e4", "[1,3] = e4", "[1,4] = e3"], "Jacobi"),
        ],
    )
    def test_malformed_nilpotent_pi1_exit(self, tmp_path, capsys, name, brackets, message):
        text = pathlib.Path(corpus_file(name)).read_text()
        head = text[: text.index("bracket:")]
        bad = tmp_path / f"{name}.descriptor"
        bad.write_text(head + "".join(f"bracket: {b}\n" for b in brackets))
        assert main(["check", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        type_line = head.splitlines().index("type: nilpotent") + 1
        assert f"line {type_line}, " in err
        assert message in err

    # S^1 x S^2: one degree-one generator, so b1 = 1
    S1XS2 = (
        "name: s1xs2\nn: 3\n[cohomology]\ngenerators: x:1 v:2\n"
        "relation: v^2\nfundamental_class: x v\n[pi1]\n"
    )

    @pytest.mark.parametrize(
        "ring,pi1,message",
        [
            ("s1xs2", "type: Z^2\n", "pi1 type Z^2 needs b1 = 2, but the cohomology has b1 = 1"),
            ("t2", "type: finite\n", "pi1 type finite needs b1 = 0, but the cohomology has b1 = 2"),
            (
                "t3",
                "type: nilpotent\ndim: 3\nbracket: [1,2] = e3\n",
                "pi1 type nilpotent needs b1 = 2, but the cohomology has b1 = 3",
            ),
        ],
    )
    def test_pi1_inconsistent_with_b1_exit(self, tmp_path, capsys, ring, pi1, message):
        if ring == "s1xs2":
            head = self.S1XS2
        else:
            text = pathlib.Path(corpus_file(ring)).read_text()
            head = text[: text.index("type:")]
        bad = tmp_path / f"{ring}.descriptor"
        bad.write_text(head + pi1)
        assert main(["check", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        type_line = len(head.splitlines()) + 1
        assert f"line {type_line}, " in err
        assert message in err

    # the parser refuses a degenerate ring, so every command exits 2 at the
    # fundamental class's value, lie included (it exited 1 on heisenberg3)
    U_SQUARED = ("s2xs2", "fundamental_class: u v", "fundamental_class: u^2")
    A_B_KILLED = ("heisenberg3", "fundamental_class: a B", "fundamental_class: a B\nrelation: a B")

    @pytest.mark.parametrize(
        "ring, old, new, command",
        [
            (*U_SQUARED, ["check"]),
            (*U_SQUARED, ["embed", "--n", "4"]),
            (*A_B_KILLED, ["check"]),
            (*A_B_KILLED, ["embed", "--n", "3"]),
            (*A_B_KILLED, ["lie"]),
        ],
        ids=["check", "embed", "heisenberg3-check", "heisenberg3-embed", "heisenberg3-lie"],
    )
    def test_degenerate_presentation_exit(self, tmp_path, capsys, ring, old, new, command):
        text = pathlib.Path(corpus_file(ring)).read_text()
        bad = tmp_path / "degenerate.descriptor"
        bad.write_text(text.replace(old, new))
        assert main([command[0], str(bad), *command[1:]]) == EXIT_USAGE
        out, err = capsys.readouterr()
        fc_line = text.splitlines().index(old) + 1
        assert out == ""
        assert err == f"error: line {fc_line}, col 20: fundamental class lies in the relation ideal\n"

    SUM_MISMATCH = "[betti] declares b_plus + b_minus = 4, but the cohomology has b2 = 2"
    SIGNATURE_MISMATCH = (
        "[betti] declares (b_plus, b_minus) = (2, 0), "
        "but the cup form on degree 2 has signature (1, 1)"
    )

    # at, col: the line of the error, counted from the [betti] line, and its column
    @pytest.mark.parametrize(
        "ring,betti,at,col,message,command",
        [
            ("s2xs2", "b_plus: -1\nb_minus: 1\n", 1, 9, "b_plus must be a nonnegative integer", "check"),
            ("s2xs2", "b_plus: 1\nb_minus: 1\nb_plus: 1\n", 3, 1, "duplicate key 'b_plus' in [betti]",
             "check"),
            ("s2xs2", "b_plus: 1\n", 0, 1, "betti section needs b_plus and b_minus", "check"),
            ("t2", "b_plus: 0\nb_minus: 0\n", 0, 1, "[betti] holds 4-manifold data, but n = 2", "check"),
            # S^2 x S^2 has b2 = 2 and a cup form of signature (1, 1); declaring
            # (4, 0) used to exclude it while its report printed a certified
            # embedding.  The parser refuses both, for embed as for check.
            ("s2xs2", "b_plus: 4\nb_minus: 0\n", 1, 9, SUM_MISMATCH, "check"),
            ("s2xs2", "b_plus: 4\nb_minus: 0\n", 1, 9, SUM_MISMATCH, "embed"),
            ("s2xs2", "b_plus: 2\nb_minus: 0\n", 1, 9, SIGNATURE_MISMATCH, "check"),
            ("s2xs2", "b_plus: 2\nb_minus: 0\n", 1, 9, SIGNATURE_MISMATCH, "embed"),
        ],
        ids=[
            "negative",
            "duplicate",
            "missing-key",
            "n-not-4",
            "sum-mismatch",
            "sum-mismatch-embed",
            "signature-mismatch",
            "signature-mismatch-embed",
        ],
    )
    def test_bad_betti_exit(self, tmp_path, capsys, ring, betti, at, col, message, command):
        text = pathlib.Path(corpus_file(ring)).read_text()
        if "[betti]" in text:
            head = text[: text.index("b_plus:")]
        else:
            head = text + "[betti]\n"
        bad = tmp_path / f"{ring}.descriptor"
        bad.write_text(head + betti)
        assert main([command, str(bad)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        line = head.splitlines().index("[betti]") + 1 + at
        assert err.startswith(f"error: line {line}, col {col}: ")
        assert message in err

    # int() rejects each of these, so the parser must name the line instead
    @pytest.mark.parametrize(
        "ring,line,bad_line,message",
        [
            ("heisenberg3", "dim: 3", "dim: ²", "pi1 dim must be a positive integer"),
            ("t2", "generators: x:1 y:1", "generators: x:² y:1", "bad degree '²'"),
            ("t2", "generators: x:1 y:1", "generators: x:--1 y:1", "bad degree '--1'"),
        ],
        ids=["superscript-dim", "superscript-degree", "double-minus-degree"],
    )
    def test_malformed_integer_exit(self, tmp_path, capsys, ring, line, bad_line, message):
        text = pathlib.Path(corpus_file(ring)).read_text()
        bad = tmp_path / f"{ring}.descriptor"
        bad.write_text(text.replace(line, bad_line))
        assert main(["check", str(bad)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: line {text.splitlines().index(line) + 1}, ")
        assert message in err

    # a^2 = -2ab skews S^2 x S^2's cup form to ((-2, 1), (1, 0)); a zero pivot
    # whose partner column cancels it once read its signature as (0, 1)
    @pytest.mark.parametrize(
        "betti", ["\n[betti]\nb_plus: 1\nb_minus: 1\n", ""], ids=["betti", "no-betti"]
    )
    def test_skewed_s2xs2_signature(self, tmp_path, capsys, betti):
        text = pathlib.Path(corpus_file("s2xs2")).read_text()
        text = text[: text.index("[betti]")].replace("u^2", "u^2 + 2 u v") + betti
        skewed = tmp_path / "s2xs2_skew.descriptor"
        skewed.write_text(text)
        assert main(["check", str(skewed), "--budget", "200"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "cup form on degree 2: signature [1, 1], square class -1" in out
        assert err == ""

    def test_lie_computes_the_series_once_per_algebra(self, tmp_path, monkeypatch):
        from wrapcheck import nilcoh

        steps = []
        original = nilcoh._subspace_brackets
        monkeypatch.setattr(
            nilcoh, "_subspace_brackets", lambda g, rows: steps.append(g) or original(g, rows)
        )
        misses = nilcoh.jacobi_check.cache_info().misses
        out = tmp_path / "lie.txt"
        assert main(["lie", corpus_file("filiform4"), "--out", str(out)]) == EXIT_EXCLUDED
        # filiform4's series [4, 2, 1, 0] takes three bracket steps, all on one algebra;
        # the Jacobi identity is checked on it and on the quotient nomizu_kernel builds
        assert len(steps) == 3 and len({id(g) for g in steps}) == 1
        assert nilcoh.jacobi_check.cache_info().misses - misses == 2

    def test_degenerate_cup_form_text_report(self, tmp_path, capsys):
        # without a b = 0, filiform4's ring has a degenerate degree-2 cup form
        text = pathlib.Path(corpus_file("filiform4")).read_text()
        bad = tmp_path / "filiform4.descriptor"
        bad.write_text(text.replace("relation: a b\n", ""))
        assert main(["check", str(bad), "--budget", "200"]) == EXIT_EXCLUDED
        assert "cup form on degree 2: degenerate, rank 3" in capsys.readouterr().out

    S1 = "name: s1\nn: 1\n[cohomology]\ngenerators: x:1\nfundamental_class: x\n"

    def test_circle_descriptor(self, tmp_path, capsys):
        path = tmp_path / "s1.descriptor"
        path.write_text(self.S1 + "[pi1]\ntype: Z\n")
        assert main(["check", str(path)]) == EXIT_OK
        assert "verdict: no-obstruction-found" in capsys.readouterr().out

    def test_truncation_warning_is_one_plain_line(self, tmp_path, capsys):
        # nothing kills s t or t^2: the line shows on every run, the second
        # one in this process included, and no warning filter turns it into
        # an error
        path = tmp_path / "unforced.descriptor"
        path.write_text(
            "name: a\nn: 2\n[cohomology]\ngenerators: s:1 t:2\nfundamental_class: t\n[pi1]\ntype: Z\n"
        )
        line = (
            "warning: relations do not force vanishing above degree 2 (first excess degree 3); "
            "relying on truncation\n"
        )
        for _ in range(2):
            assert main(["check", str(path), "--no-embed"]) == EXIT_EXCLUDED
            assert capsys.readouterr().err == line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(path), "--no-embed"]) == EXIT_EXCLUDED
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("value", ["false", "true"])
    def test_truncation_key_is_unknown(self, tmp_path, capsys, value):
        # everything above degree n is zero; there is no switch for it
        path = tmp_path / "s1.descriptor"
        path.write_text(self.S1 + f"truncate_above_n: {value}\n[pi1]\ntype: Z\n")
        assert main(["check", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: line 6, ")
        assert "unknown key 'truncate_above_n' in [cohomology]" in err

    @pytest.mark.parametrize(
        "ring,code",
        [
            ("t2", EXIT_OK),
            ("cp2_4_0", EXIT_EXCLUDED),
            ("heisenberg3", EXIT_EXCLUDED),
            ("s2xs2", EXIT_OK),
        ],
    )
    def test_check_structured_matches_golden_entry(self, tmp_path, ring, code):
        out = tmp_path / "report.json"
        args = ["check", corpus_file(ring), "--budget", "4000", "--format", "structured"]
        assert main(args + ["--out", str(out)]) == code
        golden = {r["name"]: r for r in json.loads(GOLDEN.read_text())["reports"]}
        assert json.loads(out.read_text()) == golden[ring]

    def test_embed_text_output(self, capsys):
        assert main(["embed", corpus_file("t2")]) == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith("found-certified")

    def test_corpus_text_matches_golden_verdicts(self, capsys):
        assert main(["corpus", "--budget", "4000"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        golden = json.loads(GOLDEN.read_text())["reports"]
        want = [
            [r["name"], r["verdict"], "embedding:", (r["embedding"] or {}).get("status", "-")]
            for r in golden
        ]
        assert [line.split() for line in lines] == want

    def test_surface_subcommand(self, tmp_path):
        out = tmp_path / "surface.txt"
        code = main(
            ["surface", "--family", "power-log", "--epsilon", "0.5", "--out", str(out)]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert "Hyperbolic" in text and "window_start" in text

    def test_surface_profile_file(self, tmp_path):
        import numpy as np

        prof = tmp_path / "prof.txt"
        r = np.geomspace(2.0, 2.0**18, 4000)
        prof.write_text("\n".join(f"{a} {3.0 * a * np.log(a)}" for a in r))
        out = tmp_path / "class.txt"
        assert main(["surface", "--profile", str(prof), "--out", str(out)]) == EXIT_OK
        assert "Parabolic" in out.read_text()

    def test_embed_subcommand(self, tmp_path):
        out = tmp_path / "embed.json"
        code = main(
            [
                "embed",
                corpus_file("cp3"),
                "--n",
                "6",
                "--budget",
                "5000",
                "--format",
                "structured",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["status"] == "found-certified"

    def test_lie_subcommand(self, tmp_path):
        out = tmp_path / "lie.json"
        code = main(
            ["lie", corpus_file("heisenberg3"), "--format", "structured", "--out", str(out)]
        )
        assert code == EXIT_EXCLUDED
        data = json.loads(out.read_text())
        assert data["lower_central_series"] == [3, 1, 0]
        assert data["growth_degree"] == 4

    def test_lie_subcommand_text(self, tmp_path):
        out = tmp_path / "lie.txt"
        assert main(["lie", corpus_file("filiform4"), "--out", str(out)]) == EXIT_EXCLUDED
        text = out.read_text()
        assert "lower central series dims: [4, 2, 1, 0] (class 3)" in text
        assert "growth degree: 7" in text
        assert "degree-2 kernel of the abelianization pullback: 1" in text

    def test_lie_without_nilpotent_block_exit(self, capsys):
        # the error is about the descriptor as a whole, so it names no line
        assert main(["lie", corpus_file("t2")]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: descriptor t2 has no nilpotent structure-constant block\n"
        assert captured.out == ""

    @pytest.mark.parametrize("n", ["33", "40", "-1"])
    def test_embed_n_out_of_range_exit(self, capsys, n):
        assert main(["embed", corpus_file("t2"), "--n", n]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"argument --n: must be in 0..32, got {n}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n, code", [("0", EXIT_EXCLUDED), ("32", EXIT_OK)])
    def test_embed_n_range_ends_accepted(self, capsys, n, code):
        assert main(["embed", corpus_file("t2"), "--n", n, "--budget", "100"]) == code
        assert capsys.readouterr().out.startswith(f"t2 -> exterior algebra on {n} generators")

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["check", corpus_file("t2"), "--budget", "-1"], "--budget"),
            (["check", corpus_file("t2"), "--float-restarts", "-1"], "--float-restarts"),
            (
                [
                    "embed", corpus_file("t2"), "--n", "2",
                    "--budget", "0", "--float-restarts", "1", "--seed", "-1",
                ],
                "--seed",
            ),
            (["corpus", "--budget", "-5"], "--budget"),
            (["map", "--map", "sphere-wrap", "--seed", "-1"], "--seed"),
        ],
    )
    def test_negative_count_exit(self, capsys, args, flag):
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        value = args[args.index(flag) + 1]
        assert f"argument {flag}: must be a non-negative integer, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "family, rmax",
        [
            (["hyperbolic"], "1e400"),
            (["euclidean"], "inf"),
            (["hyperbolic"], "nan"),
            (["power-log", "--epsilon", "0.5"], "-1"),
            (["euclidean"], "0"),
        ],
    )
    def test_surface_bad_rmax_exit(self, capsys, family, rmax):
        assert main(["surface", "--family", *family, "--rmax", rmax]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"argument --rmax: must be finite and positive, got {rmax}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_surface_nonfinite_epsilon_exit(self, capsys, epsilon):
        assert main(["surface", "--family", "power-log", f"--epsilon={epsilon}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"argument --epsilon: must be finite, got {epsilon}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("epsilon", ["-1e-300", "-1e-3", "-2.5E-1", "-.5e0", "-285", "-1e3x"])
    def test_surface_negative_epsilon_spellings_agree(self, capsys, epsilon):
        runs = []
        for args in (["--epsilon", epsilon], [f"--epsilon={epsilon}"]):
            code = main(["surface", "--family", "power-log", *args])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (EXIT_OK if epsilon not in ("-285", "-1e3x") else EXIT_USAGE)

    @pytest.mark.parametrize("epsilon", ["1e308", "400"])
    def test_surface_overflowing_epsilon_exit(self, capsys, epsilon):
        # the circumference at the default rmax 2^18 overflows past eps = 275.6
        assert main(["surface", "--family", "power-log", "--epsilon", epsilon]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --epsilon ")
        assert "is not a finite float" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    BAD_PROFILES = [
        ("0 1\n2 3\n4 5\n", 1, 1, "radii must be positive, got '0 1'"),
        ("2 3\n-5 1\n", 2, 1, "radii must be positive, got '-5 1'"),
        ("2 3\nabc 3\n", 2, 1, "expected numbers, got 'abc 3'"),
        ("2 3\n4 5\n2 7\n", 3, 1, "radius 2 repeats line 1"),
        ("2 3\n4 0\n", 2, 3, "circumference samples must be positive"),
        ("# r L\n2 3\n4 -1\n", 3, 3, "circumference samples must be positive"),
        ("2 3\n", 1, 1, "need at least two 'r L' samples"),
        ("2 3\nnan 4\n", 2, 1, "samples must be finite, got 'nan 4'"),
        ("2 3\n4 inf\n", 2, 3, "samples must be finite, got '4 inf'"),
        ("2 3\n4 5 6\n", 2, 1, "expected 'r L' pairs, got '4 5 6'"),
        # indented lines: the column is the field's, not the stripped line's
        ("2 3\n  4   x\n", 2, 7, "expected numbers, got '4   x'"),
        ("2 3\n\t 7 5 6\n", 2, 3, "expected 'r L' pairs, got '7 5 6'"),
        ("2 3\n  10  -2.5 # L\n", 2, 7, "circumference samples must be positive"),
        ("  2 3\n 2 5\n", 2, 2, "radius 2 repeats line 1"),
    ]

    # the ids are those the rows had before they carried a column
    @pytest.mark.parametrize(
        "text, line, col, message", BAD_PROFILES, ids=[f"{t}-{n}-{m}" for t, n, _, m in BAD_PROFILES]
    )
    def test_surface_bad_profile_exit(self, tmp_path, capsys, text, line, col, message):
        prof = tmp_path / "prof.txt"
        prof.write_text(text)
        assert main(["surface", "--profile", str(prof)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line {line}, col {col}: ") and message in captured.err
        assert captured.out == ""

    def test_surface_profile_order_is_free(self, tmp_path):
        import numpy as np

        r = np.geomspace(2.0, 2.0**12, 200)
        lines = [f"{a} {3.0 * a * np.log(a)}" for a in r]
        reports = []
        for name, order in (("sorted", lines), ("reversed", lines[::-1])):
            prof, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.out"
            prof.write_text("\n".join(order))
            assert main(["surface", "--profile", str(prof), "--out", str(out)]) == EXIT_OK
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    def test_surface_rmax_sets_the_last_window(self, tmp_path):
        out = tmp_path / "surface.txt"
        assert main(["surface", "--family", "euclidean", "--rmax", "64", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "length criterion: Parabolic" in text
        assert text.splitlines()[-1].split("\t")[:2] == ["32", "64"]

    MAP_GRID = ["--radii", "2", "--step", "0.5", "--samples", "100"]

    @pytest.mark.parametrize(
        "args, code, flag",
        [
            # L(rmax) is subnormal, so 1/L overflows; past -300 L is 0
            (["surface", "--family", "power-log", "--epsilon", "-285"], EXIT_USAGE, "--epsilon"),
            (["surface", "--family", "power-log", "--epsilon", "-300"], EXIT_USAGE, "--epsilon"),
            (["surface", "--family", "power-log", "--epsilon", "-280"], EXIT_OK, None),
            # the window (512, 1024) reaches past r = 710, where sinh overflows
            (["surface", "--family", "hyperbolic", "--rmax", "1024"], EXIT_USAGE, "--rmax"),
            (["surface", "--family", "hyperbolic", "--rmax", "1023"], EXIT_OK, None),
            (["surface", "--family", "euclidean", "--rmax", "1e308"], EXIT_USAGE, "--rmax"),
            # the curvature grid starts at rmin + 1 and would run downward
            (["surface", "--family", "power-log", "--epsilon", "0.5", "--rmax", "1"], EXIT_USAGE, "--rmax"),
            (["surface", "--family", "power-log", "--epsilon", "0.5"], EXIT_OK, None),
            (["surface", "--family", "hyperbolic", "--rmax", "0.5"], EXIT_USAGE, "--rmax"),
            # sphere-wrap is a map of the plane
            (["map", "--map", "sphere-wrap", "--n", "3", *MAP_GRID], EXIT_USAGE, "--n"),
            (["map", "--map", "sphere-wrap", "--n", "2", *MAP_GRID], EXIT_OK, None),
        ],
    )
    def test_numeric_domain_exit(self, capsys, args, code, flag):
        assert main(args) == code
        captured = capsys.readouterr()
        if code == EXIT_OK:
            assert captured.err == "" and captured.out
        else:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert f"{flag} {float(args[args.index(flag) + 1]):.15g}" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "embed", "corpus"])
    def test_tolerance_flag_is_unknown(self, capsys, command):
        args = [] if command == "corpus" else [corpus_file("t2")]
        assert main([command, *args, "--tolerance", "1e-9"]) == EXIT_USAGE
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    def test_map_subcommand(self, tmp_path):
        out = tmp_path / "map.tsv"
        code = main(
            ["map", "--map", "identity", "--n", "2", "--radii", "4,8", "--step", "0.1", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "normalized_integral" in out.read_text()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--map", "identity", "--step", "-0.1"], "step must be finite and positive"),
            (["--map", "identity", "--step", "0"], "step must be finite and positive"),
            (["--map", "identity", "--radii", "0,10"], "radii must be finite and positive"),
            (["--map", "identity", "--radii", "10,abc"], "--radii must be comma-separated numbers"),
            (["--map", "join", "--n", "1"], "join construction needs n >= 3"),
            (["--map", "sphere-wrap", "--samples", "-1"], "--samples must be at least 1"),
            # 8^40 points: past what a numpy index addresses
            (
                ["--map", "identity", "--n", "40", "--radii", "4", "--step", "1"],
                "quadrature grid of 8^40 points is too large to index",
            ),
            # one axis of 2e15 and of 3e9 points, built whole before the walk
            (
                ["--map", "identity", "--n", "1", "--radii", "1e15", "--step", "1"],
                "quadrature grid axis of 2000000000000000 points exceeds 10000000",
            ),
            (
                ["--map", "identity", "--n", "2", "--radii", "1.5e9", "--step", "1"],
                "quadrature grid axis of 3000000000 points exceeds 10000000",
            ),
            # the sampler draws every floor sample at once (75 GB here)
            (
                ["--map", "sphere-wrap", "--radii", "4", "--step", "1", "--samples", "10000000000"],
                "--samples must be at least 1 and at most 10000000",
            ),
        ],
    )
    def test_map_bad_input_exit(self, capsys, flags, message):
        assert main(["map", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    def test_map_f0_refused(self, capsys):
        # every ball about the origin leaves f0's strip domain [-1,1] x [0,inf)
        assert main(["map", "--map", "f0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "invalid choice: 'f0'" in captured.err
        assert captured.out == ""

    def test_map_report_keeps_sample_counts(self, tmp_path):
        out = tmp_path / "map.tsv"
        code = main(
            ["map", "--map", "sphere-wrap", "--radii", "2,4", "--step", "0.5",
             "--samples", "1000", "--out", str(out)]
        )
        assert code == EXIT_OK
        text = out.read_text()
        for key in ("# samples\t", "# masked\t", "# lipschitz\t", "# jacobian_floor\t"):
            assert key in text


CORPUS_TEXTS = [p.read_text() for p in corpus_paths()]
# the corpus's own tokens, plus malformed numbers and stray punctuation
VOCABULARY = sorted(
    {tok for text in CORPUS_TEXTS for tok in text.split()}
    | {"0", "-1", "99", "1/0", "^", "^0", ":", "x:0", "e9", "²", "x:²"}
    | {"[", "]", "=", "#", ",", "+", "-", "*"}
)


@st.composite
def mutated_descriptors(draw):
    """A bundled descriptor with one line deleted, or one token inserted or replaced."""
    lines = draw(st.sampled_from(CORPUS_TEXTS)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("delete", "insert", "replace")))
    if op == "delete":
        del lines[i]
    else:
        words = lines[i].split(" ")
        j = draw(st.integers(0, len(words) - (op == "replace")))
        tok = draw(st.sampled_from(VOCABULARY))
        if op == "insert":
            words.insert(j, tok)
        else:
            words[j] = tok
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


class TestFuzzedDescriptors:
    """The parser alone judges a descriptor: check and embed exit 2 exactly
    on the mutants it refuses, and lie on those and on any whose pi1 is not
    nilpotent."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(mutated_descriptors())
    # the two inconsistencies the parser took over from the battery and the CLI
    @example(
        pathlib.Path(corpus_file("heisenberg3"))
        .read_text()
        .replace("fundamental_class: a B\n", "fundamental_class: a B\nrelation: a B\n")
    )
    @example(
        pathlib.Path(corpus_file("s2xs2"))
        .read_text()
        .replace("b_plus: 1\nb_minus: 1", "b_plus: 2\nb_minus: 0")
    )
    def test_check_exits_0_1_or_2(self, text):
        self._judged_by_the_parser_alone(text)

    @staticmethod
    def _judged_by_the_parser_alone(text):
        try:
            d = parse_descriptor(text)
        except ParseError:
            d = None
        codes = {}
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "fuzzed.descriptor"
            path.write_text(text)
            for command, *flags in (
                ["check", "--budget", "200", "--float-restarts", "0"],
                ["embed", "--budget", "200"],
                ["lie"],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes[command] = main([command, str(path), *flags])
                assert codes[command] in (EXIT_OK, EXIT_EXCLUDED, EXIT_USAGE), err.getvalue()
        assert (codes["check"] == EXIT_USAGE) == (d is None), codes
        assert (codes["embed"] == EXIT_USAGE) == (d is None), codes
        assert (codes["lie"] == EXIT_USAGE) == (d is None or d.pi1.kind != "nilpotent"), codes
        if d is not None:
            if d.n == 4 and d.pi1.kind == "finite":
                rep = run_battery(d, BatteryOptions(embed_budget=200))
                certified_embedding_keeps_intersection_check(d, rep)


def corpus_edits():
    """(name, edit, text): each bundled descriptor with one ``relation:``
    line deleted, with its fundamental class added as a relation, and
    with ``b_plus`` raised by one or swapped with ``b_minus``."""
    for path in corpus_paths():
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if line.startswith("relation:"):
                yield path.stem, f"delete line {i + 1}", "".join(lines[:i] + lines[i + 1 :])
            elif line.startswith("fundamental_class:"):
                relation = line.replace("fundamental_class:", "relation:", 1)
                yield path.stem, "relation: fundamental class", "".join(
                    lines[: i + 1] + [relation] + lines[i + 1 :]
                )
        betti = re.search(r"^b_plus: (\d+)\nb_minus: (\d+)$", text, re.M)
        if betti:
            b_plus, b_minus = map(int, betti.groups())
            for edit, pair in (("b_plus + 1", (b_plus + 1, b_minus)), ("swap", (b_minus, b_plus))):
                if pair == (b_plus, b_minus):
                    continue
                replaced = "b_plus: {}\nb_minus: {}".format(*pair)
                yield path.stem, edit, text[: betti.start()] + replaced + text[betti.end() :]


class TestCorpusEditSweep:
    """A fixed sweep aimed at the parser's consistency checks: ``check``
    exits 2 exactly on the edits that ``parse_descriptor`` refuses, and
    never 3."""

    def test_exit_2_exactly_when_the_parser_refuses(self, tmp_path):
        reached = {"degenerate": 0, "betti": 0, "truncation": 0}
        path = tmp_path / "edited.descriptor"
        for name, edit, text in corpus_edits():
            try:
                d = parse_descriptor(text)
                error = None
            except ParseError as exc:
                d, error = None, str(exc)
            truncated = d is not None and bool(algebra.basis_and_dims(d.cohomology).excess_degrees)
            reached["truncation"] += truncated
            reached["degenerate"] += "fundamental class lies in the relation ideal" in (error or "")
            reached["betti"] += "[betti] declares" in (error or "")
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", str(path), "--no-embed"])
            assert code in (EXIT_OK, EXIT_EXCLUDED, EXIT_USAGE), (name, edit, err.getvalue())
            assert (code == EXIT_USAGE) == (error is not None), (name, edit, error, code)
            assert ("relying on truncation" in err.getvalue()) == truncated, (name, edit, err.getvalue())
        assert all(reached.values()), reached


class TestErrorColumns:
    """Replacing one token of a bundled line never moves an error on that
    line to the right of the token."""

    def test_error_on_the_edited_line_is_no_later_than_the_token(self):
        edits = 0
        for path in corpus_paths():
            lines = path.read_text().splitlines(keepends=True)
            for i, line in enumerate(lines):
                for token in re.finditer(r"\S+", line):
                    for replacement in ("?", "0", "x"):
                        edited = line[: token.start()] + replacement + line[token.end() :]
                        text = "".join(lines[:i] + [edited] + lines[i + 1 :])
                        edits += 1
                        try:
                            parse_descriptor(text)
                        except ParseError as exc:
                            if exc.line == i + 1:
                                assert exc.col <= token.start() + 1, (path.name, edited, str(exc))
        assert edits > 2000


# finite floats at the edges of float range and of each surface family: the
# curvature grid's start past r = 2, the hyperbolic window that reaches
# r = 710 where sinh overflows, the power-log epsilons whose circumference
# at rmax turns subnormal or zero, and the default rmax of each family
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-3, 0.5, 1.0, 2.0, 2.000001,
    2.000002, 512.0, 710.0, 1023.0, 1024.0, 2.0**18, 1e6, 1e15, 1e308, 1.7976931348623157e308,
    -1e-3, -1.0, -280.0, -285.0, -300.0, -1e308,
]
FINITE_FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def surface_argv(draw):
    argv = ["surface"]
    family = draw(st.sampled_from((None, "euclidean", "hyperbolic", "power-log")))
    if family is not None:
        argv += ["--family", family]
    for flag in ("--epsilon", "--rmax"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(FINITE_FLOATS)!r}")
    return argv


# the domain dimensions each map takes
MAP_DIMS = {"identity": (1, 2, 3), "join": (3,), "sphere-wrap": (2,), "torus-collapse": (1, 2, 3)}


@st.composite
def map_argv(draw):
    """A map run on at most 16 points per axis in at most 3 dimensions, with
    at most one flag drawn from edge values instead."""
    name = draw(st.sampled_from(sorted(MAP_DIMS)))
    n = draw(st.sampled_from(MAP_DIMS[name]))
    radius = st.sampled_from((0.5, 1.0, 4.0, 50.0))
    radii = sorted(draw(st.lists(radius, min_size=1, max_size=3, unique=True)))
    half_axis = draw(st.sampled_from((4, 4.5, 8)))  # R_max / step
    samples = draw(st.sampled_from((1, 100)))
    edge = draw(st.sampled_from((None, "--n", "--radii", "--step", "--samples")))
    if edge == "--n":
        n = draw(st.sampled_from((None, 0, 1, 2, 3, 40)))
    elif edge == "--radii":
        radii = draw(st.lists(FINITE_FLOATS, min_size=1, max_size=3))
    step = max(radii) / half_axis
    if edge == "--step":
        step = draw(st.sampled_from((0.0, -1.0, 5e-324, max(radii) / 2, 1e308)))
    elif edge == "--samples":
        samples = draw(st.sampled_from((0, -1, 10**8)))
    argv = ["map", "--map", name, f"--radii={','.join(map(repr, radii))}", f"--step={step!r}"]
    return argv + [f"--samples={samples}"] + ([] if n is None else [f"--n={n}"])


class TestFuzzedNumericFlags:
    """surface and map on drawn finite floats exit 0 or 2, and exit 0
    writes nothing to stderr (a warning counts as stderr)."""

    @staticmethod
    def assert_exit_0_or_2(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        assert code in (EXIT_OK, EXIT_USAGE), stderr
        assert code == EXIT_USAGE or stderr == "", stderr

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(surface_argv())
    def test_surface_exits_0_or_2(self, argv):
        self.assert_exit_0_or_2(argv)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(map_argv())
    # a grid reaching |y| > 745, where e^-y underflows on the fold line x = 0
    @example(["map", "--map", "sphere-wrap", "--radii", "800", "--step", "100", "--samples", "1"])
    def test_map_exits_0_or_2(self, argv):
        self.assert_exit_0_or_2(argv)


class TestGoldenCorpus:
    def test_structured_output_is_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["corpus", "--budget", "4000", "--seed", "0", "--format", "structured"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_matches_committed_golden_table(self, tmp_path):
        out = tmp_path / "corpus.json"
        assert (
            main(
                [
                    "corpus",
                    "--budget",
                    "4000",
                    "--seed",
                    "0",
                    "--format",
                    "structured",
                    "--out",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        assert out.read_bytes() == GOLDEN.read_bytes()


class TestCommandGolden:
    """Each argv of ``regen_golden.COMMANDS`` (``lie`` in both formats on
    every corpus descriptor, and cases of every other subcommand) gives
    the committed exit code, stdout and stderr, byte for byte."""

    @pytest.fixture(scope="class")
    def regen(self):
        return oracles.golden_script()

    def test_outcomes_match_committed_table(self, regen):
        want = json.loads(regen.COMMANDS_GOLDEN.read_text(encoding="utf-8"))
        got = regen.command_outcomes()
        assert [row["argv"] for row in got] == [row["argv"] for row in want]
        for g, w in zip(got, want):
            assert g == w, g["argv"]

    def test_table_covers_every_subcommand_and_exit(self, regen):
        want = json.loads(regen.COMMANDS_GOLDEN.read_text(encoding="utf-8"))
        assert {row["argv"][0] for row in want} == {"check", "embed", "lie", "surface", "map", "corpus"}
        assert {row["exit"] for row in want} == {EXIT_OK, EXIT_EXCLUDED, EXIT_USAGE}
        lie = [row["argv"][1:] for row in want if row["argv"][0] == "lie"]
        assert sorted(lie) == sorted(
            [f"@{name}", "--format", fmt] for name in regen.CORPUS for fmt in ("text", "structured")
        )
        assert len(regen.CORPUS) == 19
        assert any("relying on truncation" in row["stderr"] for row in want)
