import contextlib
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrapcheck.battery import BatteryOptions, run_battery
from wrapcheck.cli import EXIT_EXCLUDED, EXIT_OK, EXIT_USAGE, corpus_paths, main
from wrapcheck.descriptor import ParseError, parse_descriptor, parse_descriptor_file

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
