"""Plain-text manifold descriptors.

A descriptor is line-oriented: top-level ``key: value`` pairs and
``[section]`` blocks.  Sections: ``[cohomology]`` (required),
``[pi1]`` (required), ``[betti]`` (optional, 4-manifold data),
``[notes]`` (free text).  ``#`` starts a comment; blank lines are
ignored.

Polynomials use rational literals ``p/q`` and exponent monomials::

    relation: 2 w^2 - 3/2 x y
    fundamental_class: x1 x2 x3 x4

Anticommutation of odd-degree generators and their vanishing squares
are built in; descriptors must not restate them (an odd generator with
exponent > 1 is a parse error).  Structure constants for a nilpotent
fundamental group are given as bracket lines, whose right side is a
degree-one polynomial on the generators ``e1 .. e<dim>`` (``0`` for a
zero bracket)::

    [pi1]
    type: nilpotent
    dim: 3
    bracket: [1,2] = e3
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import AlgebraPresentation, GradedPolynomial
from .nilcoh import NilLieAlgebra, lower_central_series


class ParseError(ValueError):
    """Bad input, located at a line and column when it comes from a file."""

    def __init__(self, message: str, line: int | None = None, col: int = 1):
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Pi1Data:
    kind: str  # "finite" | "free-abelian" | "nilpotent" | "other"
    rank: int | None = None
    algebra: NilLieAlgebra | None = None


@dataclass(frozen=True)
class ManifoldDescriptor:
    name: str
    n: int
    cohomology: AlgebraPresentation
    pi1: Pi1Data
    betti: tuple[int, int] | None = None  # (b2+, b2-) for 4-manifold mode
    notes: str = ""
    fundamental_class_line: int = 1  # where a degenerate presentation is reported
    betti_line: int = 1  # where [betti] data that disagrees with the ring is reported


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+/\d+|\d+|\^|\+|-|\*|,)")


def _tokenize(text: str, line_no: int, offset: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(
                    f"unexpected character {text[pos:].strip()[0]!r}", line_no, offset + pos + 1
                )
            break
        out.append((m.group(1), offset + m.start(1) + 1))
        pos = m.end()
    return out


def _parse_rational(tok: str, line_no: int, col: int) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/")
            if den == "0" or not num or not den:
                raise ValueError
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed rational literal {tok!r}", line_no, col) from None


def parse_polynomial(
    text: str,
    generators,
    line_no: int,
    offset: int = 0,
    max_degree: int | None = None,
) -> GradedPolynomial:
    """Parse ``[+-] [coeff] gen[^e] gen[^e] ...`` terms joined by + or -."""
    names = {nm: i for i, (nm, _) in enumerate(generators)}
    degrees = [d for _, d in generators]
    tokens = _tokenize(text, line_no, offset)
    if not tokens:
        raise ParseError("empty polynomial", line_no, offset + 1)
    monomials = []
    i = 0
    first = True
    while i < len(tokens):
        sign = Fraction(1)
        tok, col = tokens[i]
        if tok in "+-":
            sign = Fraction(-1) if tok == "-" else Fraction(1)
            i += 1
        elif not first:
            raise ParseError(f"expected + or - before {tok!r}", line_no, col)
        first = False
        if i >= len(tokens):
            raise ParseError("dangling sign", line_no, col)
        coeff = sign
        exps = [0] * len(generators)
        seen_factor = False
        tok, col = tokens[i]
        if re.fullmatch(r"\d+(/\d+)?", tok):
            coeff *= _parse_rational(tok, line_no, col)
            i += 1
            seen_coeff = True
        else:
            seen_coeff = False
        while i < len(tokens):
            tok, col = tokens[i]
            if tok in "+-":
                break
            if tok == "*" or tok == ",":
                i += 1
                continue
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
                raise ParseError(f"unexpected token {tok!r} in monomial", line_no, col)
            if tok not in names:
                raise ParseError(f"unknown generator {tok!r}", line_no, col)
            idx = names[tok]
            e = 1
            if i + 1 < len(tokens) and tokens[i + 1][0] == "^":
                if i + 2 >= len(tokens) or not tokens[i + 2][0].isdigit():
                    raise ParseError("expected integer exponent after ^", line_no, col)
                e = int(tokens[i + 2][0])
                i += 2
            if degrees[idx] % 2 == 1 and exps[idx] + e > 1:
                raise ParseError(
                    f"odd-degree generator {tok!r} with exponent > 1", line_no, col
                )
            exps[idx] += e
            seen_factor = True
            i += 1
        if not (seen_factor or seen_coeff):
            raise ParseError("empty term", line_no, col)
        term_degree = sum(d * e for d, e in zip(degrees, exps))
        if max_degree is not None and term_degree > max_degree:
            raise ParseError(
                f"term degree {term_degree} overflows the allowed maximum {max_degree}",
                line_no,
                col,
            )
        monomials.append((coeff, tuple(exps)))
    try:
        return GradedPolynomial(tuple(generators), tuple(monomials))
    except ValueError as exc:
        raise ParseError(str(exc), line_no, offset + 1) from None


_BRACKET = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.*)")
_SECTION = re.compile(r"\[([a-z0-9_]+)\]\s*$")
_KEYVAL = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(.*)$")

_TOP_KEYS = {"name", "n"}
_COH_KEYS = {"generators", "relation", "fundamental_class"}
_PI1_KEYS = {"type", "dim", "bracket"}
_BETTI_KEYS = {"b_plus", "b_minus"}


def parse_descriptor(text: str) -> ManifoldDescriptor:
    top: dict[str, str] = {}
    # (line, key, value, where the value starts in the line)
    sections: dict[str, list[tuple[int, str, str, int]]] = {}
    section_lines: dict[str, int] = {}
    notes_lines: list[str] = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        msec = _SECTION.match(line.strip())
        if msec:
            current = msec.group(1)
            if current not in ("cohomology", "pi1", "betti", "notes"):
                raise ParseError(f"unknown section [{current}]", line_no)
            if current != "notes" and current in sections:
                raise ParseError(f"duplicate section [{current}]", line_no)
            sections.setdefault(current, [])
            section_lines.setdefault(current, line_no)
            continue
        if current == "notes":
            notes_lines.append(raw.strip())
            continue
        mkv = _KEYVAL.match(line)
        if not mkv:
            raise ParseError("expected key: value", line_no)
        key, value = mkv.group(1), mkv.group(2).strip()
        if current is None:
            if key not in _TOP_KEYS:
                raise ParseError(f"unknown key {key!r}", line_no)
            if key in top:
                raise ParseError(f"duplicate key {key!r}", line_no)
            top[key] = value
        else:
            allowed = {"cohomology": _COH_KEYS, "pi1": _PI1_KEYS, "betti": _BETTI_KEYS}[current]
            if key not in allowed:
                raise ParseError(f"unknown key {key!r} in [{current}]", line_no)
            sections[current].append((line_no, key, value, mkv.start(2)))

    if "name" not in top:
        raise ParseError("missing name", 1)
    if "n" not in top:
        raise ParseError("missing n", 1)
    try:
        n = int(top["n"])
    except ValueError:
        raise ParseError(f"n must be an integer, got {top['n']!r}", 1) from None
    if n < 1:
        raise ParseError("n must be >= 1", 1)

    if "cohomology" not in sections:
        raise ParseError("missing [cohomology] section", 1)
    if "pi1" not in sections:
        raise ParseError("missing [pi1] section", 1)

    # -- cohomology ---------------------------------------------------------
    generators = None
    relations = []
    fundamental = None
    fundamental_line = 1
    gen_line = None
    for line_no, key, value, _ in sections["cohomology"]:
        if key == "generators":
            if generators is not None:
                raise ParseError("duplicate generators line", line_no)
            generators = []
            for part in value.replace(",", " ").split():
                if ":" not in part:
                    raise ParseError(
                        f"generator {part!r} must be name:degree", line_no
                    )
                nm, deg = part.split(":", 1)
                if not re.fullmatch(r"-?[0-9]+", deg):
                    raise ParseError(f"bad degree {deg!r}", line_no)
                deg = int(deg)
                if deg < 1:
                    raise ParseError(f"generator degree must be >= 1, got {deg}", line_no)
                if deg > n:
                    raise ParseError(
                        f"generator degree {deg} overflows the formal dimension {n}", line_no
                    )
                generators.append((nm, deg))
            generators = tuple(generators)
            gen_line = line_no
        else:
            if generators is None:
                raise ParseError("generators must come before polynomials", line_no)
            poly = parse_polynomial(value, generators, line_no, max_degree=2 * n)
            if key == "relation":
                if poly.is_zero:
                    raise ParseError("zero relation", line_no)
                relations.append(poly)
            else:
                if fundamental is not None:
                    raise ParseError("duplicate fundamental_class", line_no)
                fundamental, fundamental_line = poly, line_no
                if poly.degree() != n:
                    raise ParseError(
                        f"fundamental class has degree {poly.degree()}, expected {n}", line_no
                    )
    if generators is None:
        raise ParseError("missing generators line", gen_line or 1)
    if fundamental is None:
        raise ParseError("missing fundamental_class", gen_line or 1)
    try:
        presentation = AlgebraPresentation(generators, tuple(relations), n, fundamental)
    except ValueError as exc:
        raise ParseError(str(exc), gen_line or 1) from None

    # -- pi1 ----------------------------------------------------------------
    kind = None
    kind_line = 1
    dim = None
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for line_no, key, value, value_col in sections["pi1"]:
        if key == "type":
            if kind is not None:
                raise ParseError("duplicate pi1 type", line_no)
            kind, kind_line = value, line_no
        elif key == "dim":
            if not re.fullmatch(r"[0-9]+", value):
                raise ParseError("pi1 dim must be a positive integer", line_no)
            dim = int(value)
        elif key == "bracket":
            m = _BRACKET.match(value)
            if not m:
                raise ParseError("bracket must look like [i,j] = expr", line_no)
            if dim is None:
                raise ParseError("dim must come before bracket lines", line_no)
            i, j = int(m.group(1)), int(m.group(2))
            if not 1 <= i < j <= dim:
                raise ParseError(
                    f"bracket indices must satisfy 1 <= i < j <= {dim}", line_no
                )
            rhs_col = value_col + m.start(3)
            basis = [(f"e{k}", 1) for k in range(1, dim + 1)]
            rhs = parse_polynomial(m.group(3), basis, line_no, offset=rhs_col, max_degree=1)
            if rhs.degree() == 0:
                raise ParseError(
                    f"bracket value is a constant, expected a combination of e1..e{dim}",
                    line_no,
                    rhs_col + 1,
                )
            brackets[(i, j)] = {exps.index(1) + 1: c for c, exps in rhs.monomials}
    if kind is None:
        raise ParseError("missing pi1 type", 1)
    mz = re.fullmatch(r"Z\^(\d+)", kind)
    if kind == "Z":
        pi1 = Pi1Data("free-abelian", rank=1)
    elif mz:
        pi1 = Pi1Data("free-abelian", rank=int(mz.group(1)))
    elif kind == "finite":
        pi1 = Pi1Data("finite")
    elif kind == "other":
        pi1 = Pi1Data("other")
    elif kind == "nilpotent":
        if dim is None:
            raise ParseError("nilpotent pi1 needs a dim line", kind_line)
        algebra = NilLieAlgebra(dim, brackets)
        try:
            series = lower_central_series(algebra)  # checks the Jacobi identity, then nilpotency
        except ValueError as exc:
            raise ParseError(f"nilpotent pi1: {exc}", kind_line) from None
        pi1 = Pi1Data("nilpotent", algebra=algebra)
    else:
        raise ParseError(f"unknown pi1 type {kind!r}", kind_line)

    # -- betti ---------------------------------------------------------------
    # agreement with the cup form is checked where the battery computes it
    betti = None
    betti_line = section_lines.get("betti", 1)
    if "betti" in sections:
        vals = {}
        for line_no, key, value, _ in sections["betti"]:
            if key in vals:
                raise ParseError(f"duplicate {key}", line_no)
            if not re.fullmatch(r"[0-9]+", value):
                raise ParseError(f"{key} must be a nonnegative integer, got {value!r}", line_no)
            vals[key] = int(value)
        if set(vals) != _BETTI_KEYS:
            raise ParseError("betti section needs b_plus and b_minus", betti_line)
        if n != 4:
            raise ParseError(f"[betti] holds 4-manifold data, but n = {n}", betti_line)
        betti = (vals["b_plus"], vals["b_minus"])

    # H^1(M;Q) = Hom(pi1, Q), so the pi1 data fixes b1 (dim g/[g,g] if nilpotent)
    if pi1.kind == "nilpotent":
        expected_b1 = dim - (series[1] if dim else 0)
    else:
        expected_b1 = {"finite": 0, "free-abelian": pi1.rank}.get(pi1.kind)
    b1 = _first_betti(presentation)
    if expected_b1 is not None and b1 != expected_b1:
        raise ParseError(
            f"pi1 type {kind} needs b1 = {expected_b1}, but the cohomology has b1 = {b1}",
            kind_line,
        )

    return ManifoldDescriptor(
        name=top["name"],
        n=n,
        cohomology=presentation,
        pi1=pi1,
        betti=betti,
        notes="\n".join(notes_lines),
        fundamental_class_line=fundamental_line,
        betti_line=betti_line,
    )


def _first_betti(presentation: AlgebraPresentation) -> int:
    """Degree-one generators minus the rank of the degree-one relations.

    Generator degrees are >= 1, so the degree-one part of the relation
    ideal is spanned by the degree-one relations themselves.
    """
    ones = [i for i, (_, d) in enumerate(presentation.generators) if d == 1]
    rows = []
    for rel in presentation.relations:
        if rel.degree() == 1:
            coeffs = {exps.index(1): c for c, exps in rel.monomials}
            rows.append([coeffs.get(i, 0) for i in ones])
    return len(ones) - linalg.rank(rows)


def parse_descriptor_file(path) -> ManifoldDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_descriptor(fh.read())
