import contextlib
import io
import json
import pathlib
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrapcheck.battery import BatteryOptions, run_battery
from wrapcheck.cli import EXIT_EXCLUDED, EXIT_OK, EXIT_USAGE, corpus_paths, main
from wrapcheck.descriptor import ParseError, parse_descriptor, parse_descriptor_file

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

    @pytest.mark.parametrize("command", [["check"], ["embed", "--n", "4"]], ids=["check", "embed"])
    def test_degenerate_presentation_exit(self, tmp_path, capsys, command):
        text = pathlib.Path(corpus_file("s2xs2")).read_text()
        bad = tmp_path / "degenerate.descriptor"
        bad.write_text(text.replace("fundamental_class: u v", "fundamental_class: u^2"))
        assert main([command[0], str(bad), *command[1:]]) == EXIT_USAGE
        err = capsys.readouterr().err
        fc_line = text.splitlines().index("fundamental_class: u v") + 1
        assert err.startswith(f"error: line {fc_line}, ")
        assert "fundamental class lies in the relation ideal" in err

    # at: the line of the error, counted from the [betti] line
    @pytest.mark.parametrize(
        "ring,betti,at,message",
        [
            ("s2xs2", "b_plus: -1\nb_minus: 1\n", 1, "b_plus must be a nonnegative integer"),
            ("s2xs2", "b_plus: 1\nb_minus: 1\nb_plus: 1\n", 3, "duplicate b_plus"),
            ("s2xs2", "b_plus: 1\n", 0, "betti section needs b_plus and b_minus"),
            ("t2", "b_plus: 0\nb_minus: 0\n", 0, "[betti] holds 4-manifold data, but n = 2"),
            # S^2 x S^2 has b2 = 2 and a cup form of signature (1, 1); declaring
            # (4, 0) used to exclude it while its report printed a certified embedding
            (
                "s2xs2",
                "b_plus: 4\nb_minus: 0\n",
                0,
                "[betti] declares b_plus + b_minus = 4, but the cohomology has b2 = 2",
            ),
            (
                "s2xs2",
                "b_plus: 2\nb_minus: 0\n",
                0,
                "[betti] declares (b_plus, b_minus) = (2, 0), "
                "but the cup form on degree 2 has signature (1, 1)",
            ),
        ],
        ids=["negative", "duplicate", "missing-key", "n-not-4", "sum-mismatch", "signature-mismatch"],
    )
    def test_bad_betti_exit(self, tmp_path, capsys, ring, betti, at, message):
        text = pathlib.Path(corpus_file(ring)).read_text()
        if "[betti]" in text:
            head = text[: text.index("b_plus:")]
        else:
            head = text + "[betti]\n"
        bad = tmp_path / f"{ring}.descriptor"
        bad.write_text(head + betti)
        assert main(["check", str(bad)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        line = head.splitlines().index("[betti]") + 1 + at
        assert err.startswith(f"error: line {line}, ")
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

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("0 1\n2 3\n4 5\n", 1, "radii must be positive, got '0 1'"),
            ("2 3\n-5 1\n", 2, "radii must be positive, got '-5 1'"),
            ("2 3\nabc 3\n", 2, "expected numbers, got 'abc 3'"),
            ("2 3\n4 5\n2 7\n", 3, "radius 2 repeats line 1"),
            ("2 3\n4 0\n", 2, "circumference samples must be positive"),
            ("# r L\n2 3\n4 -1\n", 3, "circumference samples must be positive"),
            ("2 3\n", 1, "need at least two 'r L' samples"),
            ("2 3\nnan 4\n", 2, "samples must be finite, got 'nan 4'"),
            ("2 3\n4 inf\n", 2, "samples must be finite, got '4 inf'"),
            ("2 3\n4 5 6\n", 2, "expected 'r L' pairs, got '4 5 6'"),
        ],
    )
    def test_surface_bad_profile_exit(self, tmp_path, capsys, text, line, message):
        prof = tmp_path / "prof.txt"
        prof.write_text(text)
        assert main(["surface", "--profile", str(prof)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line {line}, col 1: ") and message in captured.err
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
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(mutated_descriptors())
    def test_check_exits_0_1_or_2(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "fuzzed.descriptor"
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", str(path), "--budget", "200", "--float-restarts", "0"])
        assert code in (EXIT_OK, EXIT_EXCLUDED, EXIT_USAGE), err.getvalue()
        if code != EXIT_USAGE:
            d = parse_descriptor(text)
            if d.n == 4 and d.pi1.kind == "finite":
                rep = run_battery(d, BatteryOptions(embed_budget=200))
                certified_embedding_keeps_intersection_check(d, rep)


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
