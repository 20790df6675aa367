"""Command line entry point.

Subcommands: ``check`` (obstruction battery on a descriptor),
``embed`` (embedding search only), ``lie`` (fundamental-group side
computations), ``surface`` (conformal type of a rotationally symmetric
plane), ``map`` (wrapping-map verification report), ``corpus`` (run
the bundled descriptor corpus and emit the verdict table).

Exit codes: 0 = completed with no obstruction found or a
classification produced; 1 = excluded with witness; 2 = usage or parse
error; 3 = internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from importlib import resources

import numpy as np

from . import algebra, geom2d, nilcoh, wrapmaps
from .battery import BatteryOptions, run_battery
from .descriptor import ParseError, parse_descriptor_file
from .embed import search_embedding
from .exterior import MAX_DIMENSION

EXIT_OK = 0
EXIT_EXCLUDED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ambient_dimension(text: str) -> int:
    n = int(text)
    if not 0 <= n <= MAX_DIMENSION:
        raise argparse.ArgumentTypeError(f"must be in 0..{MAX_DIMENSION}, got {n}")
    return n


def _nonnegative(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {k}")
    return k


def _finite_positive(text: str) -> float:
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return x


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _report(args, payload: dict, lines: list[str]):
    """payload as sorted two-space JSON under --format structured, else the lines."""
    if args.format == "structured":
        _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _write("\n".join(lines) + "\n", args.out)


def _battery_options(args, embed: bool) -> BatteryOptions:
    return BatteryOptions(embed, args.budget, args.float_restarts, args.seed)


def _common_flags(p: argparse.ArgumentParser, embed_flags=False):
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", default=None, help="write the report to this file")
    if embed_flags:
        p.add_argument("--budget", type=_nonnegative, default=20000, help="exact-search node budget")
        p.add_argument("--float-restarts", type=_nonnegative, default=0)
        p.add_argument("--seed", type=_nonnegative, default=0)


def _parse(path):
    """The descriptor at ``path``.  When its ring leaves degrees above n
    to truncation, one line on stderr says so, on every call."""
    d = parse_descriptor_file(path)
    excess = algebra.basis_and_dims(d.cohomology).excess_degrees
    if excess:
        print(
            f"warning: relations do not force vanishing above degree {d.cohomology.n} "
            f"(first excess degree {excess[0]}); relying on truncation",
            file=sys.stderr,
        )
    return d


def _require_searchable(n: int, avoid: str):
    """Refuse, as a usage error, an embedding search into Lambda*(Q^n)
    beyond the blade masks' reach; ``avoid`` names the flag that skips it."""
    if n > MAX_DIMENSION:
        raise ParseError(
            f"the embedding search handles n up to {MAX_DIMENSION}, got n = {n}; {avoid}"
        )


def _cmd_check(args) -> int:
    d = _parse(args.descriptor)
    if not args.no_embed:
        _require_searchable(d.n, "pass --no-embed to run the other checks")
    report = run_battery(d, _battery_options(args, not args.no_embed))
    _report(args, report.to_dict(), report.render_text().splitlines())
    return EXIT_OK if report.verdict == "no-obstruction-found" else EXIT_EXCLUDED


def _cmd_embed(args) -> int:
    d = _parse(args.descriptor)
    n = args.n if args.n is not None else d.n
    _require_searchable(n, f"pass --n with a target dimension in 0..{MAX_DIMENSION}")
    outcome = search_embedding(
        d.cohomology, n, budget=args.budget, seed=args.seed, float_restarts=args.float_restarts
    )
    payload = {
        "name": d.name,
        "target_n": n,
        "status": outcome.status,
        "residual": outcome.residual,
        "best_residual": outcome.best_residual,
        "trial_index": outcome.trial_index,
        "obstruction": outcome.obstruction.check_id if outcome.obstruction else None,
        "witness": (
            {nm: repr(mv) for nm, mv in sorted(outcome.morphism.assignment.items())}
            if outcome.morphism
            else None
        ),
    }
    lines = [f"{d.name} -> exterior algebra on {n} generators: {outcome.status}"]
    if outcome.morphism:
        for nm, mv in sorted(outcome.morphism.assignment.items()):
            lines.append(f"  {nm} -> {mv}")
    if outcome.obstruction:
        lines.append(f"  blocked by: {outcome.obstruction.check_id}")
        lines.append(f"  principle: {outcome.obstruction.principle}")
    _report(args, payload, lines)
    return EXIT_OK if outcome.found else EXIT_EXCLUDED if outcome.obstruction else EXIT_OK


def _cmd_lie(args) -> int:
    d = _parse(args.descriptor)
    if d.pi1.kind != "nilpotent":
        raise ParseError(f"descriptor {d.name} has no nilpotent structure-constant block")
    g = d.pi1.algebra
    # the invariant-form complex has 2^dim blades
    if g.dim > nilcoh.MAX_COMPLEX_DIM:
        raise ParseError(
            f"lie computes the invariant-form complex for dim up to {nilcoh.MAX_COMPLEX_DIM}, "
            f"got dim = {g.dim}"
        )
    series = nilcoh.lower_central_series(g)
    betti = nilcoh.lie_cohomology_dims(g)
    verdict = nilcoh.pi1_verdict(g, d.n)
    kernel = nilcoh.nomizu_kernel(g)
    payload = {
        "name": d.name,
        "dim": g.dim,
        "lower_central_series": series,
        "nilpotency_class": len(series) - 1,
        "betti": list(betti),
        "growth_degree": verdict.growth_degree,
        "degree2_kernel": kernel.kernel_dim,
        "abelianization_dim": kernel.q1_dim,
        "verdict_closed_n_manifold": "pass" if verdict.passed else "fail",
        "reasons": list(verdict.reasons),
        # for finite-volume open manifolds only the class <= n-1 bound is
        # enforced; the sqrt(n) heuristic is reported, not asserted
        "open_class_bound": d.n - 1,
        "open_class_heuristic_sqrt_n": round(d.n**0.5, 3),
    }
    lines = [f"{d.name}: nilpotent Lie algebra of dimension {g.dim}"]
    lines.append(f"  lower central series dims: {series} (class {len(series) - 1})")
    lines.append(f"  nilmanifold betti numbers: {list(betti)}")
    lines.append(f"  growth degree: {verdict.growth_degree}")
    lines.append(f"  degree-2 kernel of the abelianization pullback: {kernel.kernel_dim}")
    lines.append(
        f"  closed {d.n}-manifold verdict: "
        + ("pass" if verdict.passed else "fail (" + "; ".join(verdict.reasons) + ")")
    )
    _report(args, payload, lines)
    return EXIT_OK if verdict.passed else EXIT_EXCLUDED


def _load_profile(args) -> geom2d.RadialProfile:
    if args.profile:
        # RadialProfile.tabulated checks the samples too, without their lines
        samples = {}  # radius -> (line number, circumference)
        with open(args.profile, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                content = raw.split("#", 1)[0]
                line = content.strip()
                if not line:
                    continue
                # each field with its column; an error gives the column of
                # the field it names, or of the first for the whole line
                parts = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", content)]
                if len(parts) != 2:
                    raise ParseError(f"expected 'r L' pairs, got {line!r}", lineno, parts[0][1])
                (r_tok, r_col), (_, value_col) = parts
                nums = []
                for tok, col in parts:
                    try:
                        nums.append(float(tok))
                    except ValueError:
                        raise ParseError(f"expected numbers, got {line!r}", lineno, col) from None
                for x, (_, col) in zip(nums, parts):
                    if not math.isfinite(x):
                        raise ParseError(f"samples must be finite, got {line!r}", lineno, col)
                r, value = nums
                if r <= 0:
                    raise ParseError(f"radii must be positive, got {line!r}", lineno, r_col)
                if value <= 0:
                    raise ParseError(
                        f"circumference samples must be positive, got {line!r}", lineno, value_col
                    )
                if r in samples:
                    raise ParseError(f"radius {r_tok} repeats line {samples[r][0]}", lineno, r_col)
                samples[r] = (lineno, value)
        if len(samples) < 2:
            raise ParseError("need at least two 'r L' samples", 1)
        radii = sorted(samples)
        return geom2d.RadialProfile.tabulated(radii, [samples[r][1] for r in radii])
    rmax = {} if args.rmax is None else {"rmax": args.rmax}
    if args.family == "euclidean":
        return geom2d.RadialProfile.euclidean(**rmax)
    if args.family == "hyperbolic":
        return geom2d.RadialProfile.hyperbolic(**rmax)
    if args.family == "power-log":
        if args.epsilon is None:
            raise ParseError("power-log needs --epsilon")
        try:
            return geom2d.RadialProfile.power_log(args.epsilon, **rmax)
        except ValueError as exc:
            raise ParseError(f"--epsilon {args.epsilon:g}: {exc}") from None
    raise ParseError("need --family or --profile")


def _classify(args, profile: geom2d.RadialProfile):
    """Length and curvature verdicts, the one place a profile is evaluated.

    The curvature grid must rise from above r = 2 to rmax.  A float
    overflow, division by zero or invalid operation, or a circumference
    that underflows to zero, is a ParseError naming the profile's flags,
    so no numpy warning reaches stderr.
    """
    if args.profile:
        flags = f"--profile {args.profile}"
    elif profile.family == "power-log":
        flags = f"--epsilon {profile.epsilon:.15g}"
        if args.rmax is not None:
            flags += f" with --rmax {profile.rmax:.15g}"
    else:
        flags = f"--rmax {profile.rmax:.15g}"
    start = max(profile.rmin(), 1.0 + 1e-6) + 1.0
    if not profile.rmax > start:
        raise ParseError(
            f"{flags}: the profile must reach past r = {start:.15g}, where the curvature grid starts"
        )
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            ahlfors = geom2d.ahlfors_classify(profile)
            r = np.geomspace(start, profile.rmax, 4096)
            try:
                milnor = geom2d.milnor_classify(r, profile.curvature_samples(r))
            except ValueError as exc:
                # curvature needs a uniform tabulated grid; the length criterion
                # still applies, so report the curvature side as undecided
                milnor = geom2d.Classification(geom2d.INCONCLUSIVE, (), str(exc))
    except (FloatingPointError, ValueError) as exc:
        raise ParseError(f"{flags}: out of float range ({exc})") from None
    return ahlfors, milnor


def _cmd_surface(args) -> int:
    profile = _load_profile(args)
    ahlfors, milnor = _classify(args, profile)
    payload = {
        "family": profile.family,
        "epsilon": profile.epsilon,
        "length_criterion": ahlfors.verdict,
        "length_detail": ahlfors.detail,
        "curvature_criterion": milnor.verdict,
        "curvature_detail": milnor.detail,
    }
    lines = [
        f"family: {profile.family}"
        + (f" (epsilon = {profile.epsilon})" if profile.epsilon is not None else ""),
        f"length criterion: {ahlfors.verdict} ({ahlfors.detail})",
        f"curvature criterion: {milnor.verdict} ({milnor.detail})",
        "",
        *ahlfors.trace_text().splitlines(),
    ]
    _report(args, payload, lines)
    return EXIT_OK


_MAPS = {
    "sphere-wrap": lambda args: wrapmaps.sphere_wrap_map(),
    "torus-collapse": lambda args: wrapmaps.torus_collapse_map(args.n or 2),
    "join": lambda args: wrapmaps.join_map(args.n or 3),
    "identity": lambda args: wrapmaps.identity_map(args.n or 2),
}


def _cmd_map(args) -> int:
    try:
        if args.n is not None and args.n < 1:
            raise ValueError("--n must be at least 1")
        if not 1 <= args.samples <= wrapmaps.MAX_SAMPLES:
            raise ValueError(f"--samples must be at least 1 and at most {wrapmaps.MAX_SAMPLES}")
        m = _MAPS[args.map](args)
        if args.n is not None and args.n != m.domain_dim:
            raise ValueError(f"--n {args.n}: {args.map} has domain dimension {m.domain_dim}")
        try:
            radii = [float(x) for x in args.radii.split(",")]
        except ValueError:
            raise ValueError(f"--radii must be comma-separated numbers: {args.radii!r}") from None
        wrapmaps.check_quadrature(radii, args.step, m.domain_dim)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    report = wrapmaps.asymptotic_degree(m, radii, args.step)
    if args.map == "sphere-wrap":
        floor = wrapmaps.jacobian_floor(
            m, wrapmaps.sphere_wrap_strip_sampler(), args.samples, seed=args.seed
        )
        lip = wrapmaps.estimate_lipschitz(m, [(-2.0, 6.0), (-10.0, 10.0)], 1e-2)
        report = dataclasses.replace(report, lipschitz=lip, jacobian_floor=floor)
    _write(report.to_text(), args.out)
    return EXIT_OK


def corpus_paths():
    root = resources.files("wrapcheck") / "corpus"
    return sorted(p for p in root.iterdir() if p.name.endswith(".descriptor"))


def _cmd_corpus(args) -> int:
    options = _battery_options(args, True)
    table = []
    for path in corpus_paths():
        d = _parse(path)
        report = run_battery(d, options)
        table.append(report)
    payload = {
        "options": {
            "budget": args.budget,
            "float_restarts": args.float_restarts,
            "seed": args.seed,
        },
        "reports": [r.to_dict() for r in table],
    }
    lines = []
    for r in table:
        emb = "-"
        if r.embedding is not None:
            emb = r.embedding.status
        lines.append(f"{r.name:24s} {r.verdict:24s} embedding: {emb}")
    _report(args, payload, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrapcheck",
        description="obstruction batteries and wrapping-map verification "
        "for elliptic and quasiregularly elliptic manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the obstruction battery on a descriptor")
    p.add_argument("descriptor")
    p.add_argument("--no-embed", action="store_true", help="skip the embedding search")
    _common_flags(p, embed_flags=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("embed", help="search for an exterior-algebra embedding")
    p.add_argument("descriptor")
    p.add_argument("--n", type=_ambient_dimension, default=None, help="target ambient dimension")
    _common_flags(p, embed_flags=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("lie", help="fundamental-group computations for a descriptor")
    p.add_argument("descriptor")
    _common_flags(p)
    p.set_defaults(func=_cmd_lie)

    p = sub.add_parser("surface", help="conformal type of a rotationally symmetric plane")
    p.add_argument("--family", choices=("euclidean", "hyperbolic", "power-log"))
    p.add_argument("--epsilon", type=_finite, default=None)
    p.add_argument("--rmax", type=_finite_positive, default=None)
    p.add_argument("--profile", default=None, help="file of 'r L(r)' samples")
    _common_flags(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("map", help="wrapping-map degree/Lipschitz report")
    p.add_argument("--map", choices=sorted(_MAPS), required=True)
    p.add_argument("--n", type=int, default=None, help="domain dimension where applicable")
    p.add_argument("--radii", default="10,20,30,40,50")
    p.add_argument("--step", type=float, default=0.2)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("corpus", help="run the bundled descriptor corpus")
    _common_flags(p, embed_flags=True)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes -0.5 for a flag's value but -1e-300 for an option: attach it
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--epsilon" and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [f"--epsilon={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
