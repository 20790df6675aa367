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

import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, quadform
from .algebra import AlgebraPresentation, GradedPolynomial
from .linalg import SparseSubspace
from .nilcoh import NilLieAlgebra, lower_central_series


# The most monomials of degree 0 .. n + the largest generator degree that a
# ring may have: the graded basis and the truncation probe enumerate each of
# them.  T^15 has this many; T^16 has twice as many, and T^20 has 2^20.
MAX_MONOMIALS = 1 << 15


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


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(rf"\s*({_NAME.pattern}|[0-9]+/[0-9]+|[0-9]+|\^|\+|-|\*|,)")


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


def _digits(text: str, what: str, line_no: int, col: int) -> int:
    """int() of ASCII digits after an optional '-', or a ParseError at ``col``
    if there are more digits than int() converts (``sys.get_int_max_str_digits``)."""
    count, limit = len(text.removeprefix("-")), sys.get_int_max_str_digits()
    if limit and count > limit:
        raise ParseError(f"{what} has {count} digits, over the limit of {limit}", line_no, col)
    return int(text)


def _decimal(number: int) -> str:
    """number in decimal, or "a k-digit number" where it has more digits
    than str() converts: a value derived from fields within the limit (a
    sum or product of them) can pass it."""
    try:
        return str(number)
    except ValueError:
        size = abs(number)
        digits = int(math.log10(size)) + 1
        # the logarithm of a power of ten can round either way
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"a {digits}-digit number"


def _parse_rational(tok: str, line_no: int, col: int) -> Fraction:
    """A ``p`` or ``p/q`` literal of ASCII digits, as the tokenizer reads it."""
    num, _, den = tok.partition("/")
    what = "coefficient numerator" if den else "coefficient"
    num = _digits(num, what, line_no, col)
    den = _digits(den, "coefficient denominator", line_no, col) if den else 1
    if den == 0:
        raise ParseError(f"malformed rational literal {tok!r}", line_no, col)
    return Fraction(num, den)


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
    starts = []  # (column after the sign, degree) of each term
    i = 0
    # the monomial loop below stops only at a sign or the end, so every
    # term after the first starts with a sign
    while i < len(tokens):
        sign = Fraction(1)
        tok, col = tokens[i]
        if tok in "+-":
            sign = Fraction(-1) if tok == "-" else Fraction(1)
            i += 1
        if i >= len(tokens):
            raise ParseError("dangling sign", line_no, col)
        coeff = sign
        exps = [0] * len(generators)
        seen_factor = False
        tok, col = tokens[i]
        start = col
        if re.fullmatch(r"[0-9]+(/[0-9]+)?", tok):
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
            if not _NAME.fullmatch(tok):
                raise ParseError(f"unexpected token {tok!r} in monomial", line_no, col)
            if tok not in names:
                raise ParseError(f"unknown generator {tok!r}", line_no, col)
            idx = names[tok]
            e = 1
            if i + 1 < len(tokens) and tokens[i + 1][0] == "^":
                if i + 2 >= len(tokens) or not re.fullmatch(r"[0-9]+", tokens[i + 2][0]):
                    raise ParseError("expected integer exponent after ^", line_no, col)
                e = _digits(tokens[i + 2][0], "exponent", line_no, tokens[i + 2][1])
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
                f"term degree {_decimal(term_degree)} overflows the allowed maximum "
                f"{_decimal(max_degree)}",
                line_no,
                col,
            )
        monomials.append((coeff, tuple(exps)))
        starts.append((start, term_degree))
    try:
        return GradedPolynomial(tuple(generators), tuple(monomials))
    except ValueError:
        # mixed degrees among the terms that do not cancel: point at the
        # first of them whose degree differs from the first one's, and
        # name the degrees as GradedPolynomial does, each through _decimal
        kept = [
            term
            for term, (_, exps) in zip(starts, monomials)
            if sum(c for c, other in monomials if other == exps)
        ]
        col = next(col for col, deg in kept if deg != kept[0][1])
        degrees = ", ".join(_decimal(deg) for deg in sorted({deg for _, deg in kept}))
        message = f"mixed graded degrees in one polynomial: [{degrees}]"
        raise ParseError(message, line_no, col) from None


_BRACKET = re.compile(r"\[\s*([0-9]+)\s*,\s*([0-9]+)\s*\]\s*=\s*(.*)")
_SECTION = re.compile(r"\[([a-z0-9_]+)\]\s*$")
_KEYVAL = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(.*)$")

# the keys of each section, None being the top level; of these only
# relation and bracket lines may repeat
_KEYS = {
    None: {"name", "n"},
    "cohomology": {"generators", "relation", "fundamental_class"},
    "pi1": {"type", "dim", "bracket"},
    "betti": {"b_plus", "b_minus"},
    "notes": set(),
}
_REPEATABLE = {"relation", "bracket"}


def _monomial_count(degrees: list[int], top: int) -> int:
    """The number of monomials of degree 0..top, each odd generator at most
    once: the coefficients up to t^top of the product of 1 + t^d over the
    odd degrees d and of 1 / (1 - t^d) over the even ones.  Past
    MAX_MONOMIALS it stops and returns a larger number.

    Only the degrees with monomials are kept, and each step adds at least
    one monomial, so there are at most MAX_MONOMIALS + 1 steps in all
    however large ``top`` is."""
    counts = {0: 1}
    total = 1
    for d in degrees:
        most = 1 if d % 2 else top  # the highest power of this generator
        for k, c in list(counts.items()):
            for j in range(1, min(most, (top - k) // d) + 1):
                counts[k + j * d] = counts.get(k + j * d, 0) + c
                total += c
                if total > MAX_MONOMIALS:
                    return total
    return total


def _integer(entry, message: str, least: int = 0) -> int:
    """A (line, key, value, col) entry's value in ASCII digits (int() also
    reads '1_0', '+2' and other scripts' digits), at least ``least``; else
    ``message``, formatted with the key and value, at the value's column."""
    line_no, key, value, col = entry
    number = _digits(value, key, line_no, col) if re.fullmatch(r"[0-9]+", value) else None
    if number is None or number < least:
        raise ParseError(message.format(key=key, value=value), line_no, col)
    return number


def parse_descriptor(text: str) -> ManifoldDescriptor:
    """The one constructor of ``ManifoldDescriptor``, and the one judge of its
    consistency: a degenerate fundamental class, or a pi1 type or [betti]
    data that the ring contradicts, is a ParseError at the value's column."""
    # section (None: the top level) -> key -> its (line, key, value, col)
    # entries, col being where the value starts
    sections: dict[str | None, dict[str, list[tuple[int, str, str, int]]]] = {None: {}}
    headers: dict[str, int] = {}  # the line of each section's header
    key_cols: dict[int, int] = {}  # the column of each key: value line's key
    notes_lines: list[str] = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        msec = _SECTION.match(line.strip())
        if msec:
            current = msec.group(1)
            if current not in _KEYS:
                raise ParseError(f"unknown section [{current}]", line_no)
            if current != "notes" and current in sections:
                raise ParseError(f"duplicate section [{current}]", line_no)
            sections.setdefault(current, {})
            headers.setdefault(current, line_no)
            continue
        if current == "notes":
            notes_lines.append(raw.strip())
            continue
        mkv = _KEYVAL.match(line)
        if not mkv:
            raise ParseError("expected key: value", line_no)
        key, key_col = mkv.group(1), mkv.start(1) + 1
        where = "" if current is None else f" in [{current}]"
        if key not in _KEYS[current]:
            raise ParseError(f"unknown key {key!r}{where}", line_no, key_col)
        entries = sections[current].setdefault(key, [])
        if entries and key not in _REPEATABLE:
            raise ParseError(f"duplicate key {key!r}{where}", line_no, key_col)
        entries.append((line_no, key, mkv.group(2), mkv.start(2) + 1))
        key_cols[line_no] = key_col

    for key in ("name", "n"):
        if key not in sections[None]:
            raise ParseError(f"missing {key}", 1)
    n_entry = sections[None]["n"][0]
    n = _integer(n_entry, "n must be an integer, got {value!r}")
    if n < 1:
        raise ParseError("n must be >= 1", n_entry[0], n_entry[3])
    for section in ("cohomology", "pi1"):
        if section not in sections:
            raise ParseError(f"missing [{section}] section", 1)

    # -- cohomology ---------------------------------------------------------
    generators = None
    relations = []
    fundamental = None
    for line_no, key, value, value_col in sorted(itertools.chain(*sections["cohomology"].values())):
        if key == "generators":
            generators = []
            for token in re.finditer(r"[^\s,]+", value):
                part, col = token.group(), value_col + token.start()
                if ":" not in part:
                    raise ParseError(f"generator {part!r} must be name:degree", line_no, col)
                nm, deg = part.split(":", 1)
                if not _NAME.fullmatch(nm):
                    raise ParseError(f"generator name {nm!r} is not an identifier", line_no, col)
                # AlgebraPresentation refuses a repeat too, but without a column
                if any(nm == other for other, _ in generators):
                    raise ParseError(f"duplicate generator {nm!r}", line_no, col)
                if not re.fullmatch(r"-?[0-9]+", deg):
                    raise ParseError(f"bad degree {deg!r}", line_no, col)
                deg = _digits(deg, "generator degree", line_no, col)
                if deg < 1:
                    raise ParseError(f"generator degree must be >= 1, got {deg}", line_no, col)
                if deg > n:
                    raise ParseError(
                        f"generator degree {deg} overflows the formal dimension {n}", line_no, col
                    )
                generators.append((nm, deg))
            generators = tuple(generators)
            degrees = [d for _, d in generators]
            top = n + max(degrees, default=0)
            if _monomial_count(degrees, top) > MAX_MONOMIALS:
                raise ParseError(
                    f"generators span more than {MAX_MONOMIALS} monomials "
                    f"of degree 0..{_decimal(top)}",
                    line_no,
                    value_col,
                )
        else:
            if generators is None:
                raise ParseError("generators must come before polynomials", line_no)
            poly = parse_polynomial(
                value, generators, line_no, offset=value_col - 1, max_degree=2 * n
            )
            if key == "relation":
                if poly.is_zero:
                    raise ParseError("zero relation", line_no, value_col)
                relations.append(poly)
            else:
                fundamental, fundamental_at = poly, (line_no, value_col)
                if poly.is_zero:
                    raise ParseError("fundamental class is zero", line_no, value_col)
                if poly.degree() != n:
                    raise ParseError(
                        f"fundamental class has degree {_decimal(poly.degree())}, expected {n}",
                        line_no,
                        value_col,
                    )
    if generators is None:
        raise ParseError("missing generators line", headers["cohomology"])
    if fundamental is None:
        raise ParseError("missing fundamental_class", headers["cohomology"])
    # every condition AlgebraPresentation checks has been refused above, with a location
    presentation = AlgebraPresentation(generators, tuple(relations), n, fundamental)
    try:
        gb = algebra.basis_and_dims(presentation)  # by module attribute, which a tracer may wrap
    except algebra.DegeneratePresentation as exc:
        raise ParseError(str(exc), *fundamental_at) from None

    # -- pi1 ----------------------------------------------------------------
    kind_entry = None
    dim = None
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in sorted(itertools.chain(*sections["pi1"].values())):
        line_no, key, value, value_col = entry
        if key == "type":
            kind_entry = entry
        elif key == "dim":
            dim = _integer(entry, "pi1 dim must be a positive integer", least=1)
        else:
            m = _BRACKET.match(value)
            if not m:
                raise ParseError("bracket must look like [i,j] = expr", line_no, value_col)
            if dim is None:
                raise ParseError("dim must come before bracket lines", line_no)
            i, j = (_digits(m.group(k), "bracket index", line_no, value_col + m.start(k)) for k in (1, 2))
            if not 1 <= i < j <= dim:
                raise ParseError(
                    f"bracket indices must satisfy 1 <= i < j <= {dim}", line_no, value_col
                )
            if (i, j) in brackets:
                raise ParseError(f"duplicate bracket [{i},{j}]", line_no, value_col)
            rhs_col = value_col + m.start(3)
            basis = [(f"e{k}", 1) for k in range(1, dim + 1)]
            rhs = parse_polynomial(m.group(3), basis, line_no, offset=rhs_col - 1, max_degree=1)
            if rhs.degree() == 0:
                raise ParseError(
                    f"bracket value is a constant, expected a combination of e1..e{dim}",
                    line_no,
                    rhs_col,
                )
            brackets[(i, j)] = {exps.index(1) + 1: c for c, exps in rhs.monomials}
    if kind_entry is None:
        raise ParseError("missing pi1 type", headers["pi1"])
    kind_line, _, kind, kind_col = kind_entry
    free_abelian = re.fullmatch(r"Z(?:\^([0-9]+))?", kind)
    if free_abelian:
        rank = _digits(free_abelian.group(1) or "1", "pi1 rank", kind_line, kind_col + 2)
        pi1 = Pi1Data("free-abelian", rank=rank)
    elif kind in ("finite", "other"):
        pi1 = Pi1Data(kind)
    elif kind == "nilpotent":
        if dim is None:
            raise ParseError("nilpotent pi1 needs a dim line", headers["pi1"])
        pi1 = Pi1Data("nilpotent", algebra=NilLieAlgebra(dim, brackets))
    else:
        raise ParseError(f"unknown pi1 type {kind!r}", kind_line, kind_col)

    # -- betti ---------------------------------------------------------------
    betti = None
    if "betti" in sections:
        betti_line = headers["betti"]
        vals = {
            key: _integer(entry, "{key} must be a nonnegative integer, got {value!r}")
            for key, (entry,) in sections["betti"].items()
        }
        if set(vals) != _KEYS["betti"]:
            raise ParseError("betti section needs b_plus and b_minus", betti_line)
        if n != 4:
            raise ParseError(f"[betti] holds 4-manifold data, but n = {n}", betti_line)
        betti = (vals["b_plus"], vals["b_minus"])

    # H^1(M;Q) = Hom(pi1, Q), so the pi1 data fixes b1: dim g/[g,g] if
    # nilpotent, [g,g] being the span of the bracket values
    if pi1.kind == "nilpotent":
        values = ({k - 1: c for k, c in row.items()} for row in brackets.values())
        expected_b1 = SparseSubspace(dim, values).codim
    else:
        expected_b1 = {"finite": 0, "free-abelian": pi1.rank}.get(pi1.kind)
    b1 = gb.rank(1)
    if expected_b1 is not None and b1 != expected_b1:
        raise ParseError(
            f"pi1 type {kind} needs b1 = {expected_b1}, but the cohomology has b1 = {b1}",
            kind_line,
            kind_col,
        )
    # after the b1 check, whose one echelon span is cheap where the Jacobi
    # check takes about dim^3 / 2 brackets
    if pi1.kind == "nilpotent":
        try:
            lower_central_series(pi1.algebra)  # checks the Jacobi identity, then nilpotency
        except ValueError as exc:
            raise ParseError(f"nilpotent pi1: {exc}", kind_line, kind_col) from None
    # after the b1 check, so that a type the ring contradicts is reported as that
    stray = [entry for key in ("dim", "bracket") for entry in sections["pi1"].get(key, ())]
    if stray and pi1.kind != "nilpotent":
        line_no, key, _, _ = min(stray)
        raise ParseError(
            f"{key} line under pi1 type {kind}: only a nilpotent pi1 takes dim and bracket lines",
            line_no,
            key_cols[line_no],
        )
    if betti is not None:
        # the declared data must be the ring's: b2, and the cup form's signature
        b_plus_line, _, _, b_plus_col = sections["betti"]["b_plus"][0]
        if sum(betti) != gb.rank(2):
            raise ParseError(
                f"[betti] declares b_plus + b_minus = {_decimal(sum(betti))}, "
                f"but the cohomology has b2 = {gb.rank(2)}",
                b_plus_line,
                b_plus_col,
            )
        form = algebra.degree_two_form(presentation)
        if form is not None and form.is_nondegenerate and quadform.signature(form) != betti:
            raise ParseError(
                f"[betti] declares (b_plus, b_minus) = {betti}, "
                f"but the cup form on degree 2 has signature {quadform.signature(form)}",
                b_plus_line,
                b_plus_col,
            )

    return ManifoldDescriptor(
        name=sections[None]["name"][0][2],
        n=n,
        cohomology=presentation,
        pi1=pi1,
        betti=betti,
        notes="\n".join(notes_lines),
    )


def parse_descriptor_file(path) -> ManifoldDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_descriptor(fh.read())
