"""Obstruction battery: run every necessary-condition check on a
descriptor and aggregate the verdicts.

A "fail" in any necessary condition is a proof that the closed
manifold is neither elliptic nor quasiregularly elliptic, and the
report carries the failing check with its witness data.  The embedding
search contributes positive evidence only: "not-found" never excludes
anything, mirroring the asymmetry between obstructions and
constructions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import embed, quadform
from .algebra import basis_and_dims, cup_square_form, euler_characteristic
from .algebra import check_poincare_duality  # noqa: F401 -- perfbench traces it on this module
from .descriptor import ManifoldDescriptor, ParseError, Pi1Data
from .embed import PRINCIPLES, CheckResult, SearchOutcome
from .exterior import Blade
from .nilcoh import pi1_verdict

# free-abelian pi1 rank -> (label, the b2 that chi = 0 forces, the covering model)
FOUR_MANIFOLD_COVERS = {
    1: ("Z", 0, "S^1 x S^3"),
    2: ("Z^2", 2, "T^2 x S^2"),
    4: ("Z^4", 6, "T^4"),
}


@dataclass
class BatteryOptions:
    embed: bool = True
    embed_budget: int = 20000
    embed_float_restarts: int = 0
    seed: int = 0


@dataclass
class BatteryReport:
    name: str
    n: int
    betti: tuple[int, ...]
    euler_characteristic: int
    checks: list[CheckResult]
    embedding: SearchOutcome | None
    cup_form: dict | None
    verdict: str  # "no-obstruction-found" | "excluded-with-witness"
    witnesses: tuple[str, ...]

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "n": self.n,
            "betti": list(self.betti),
            "euler_characteristic": self.euler_characteristic,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "checks": [
                {
                    "id": c.check_id,
                    "verdict": c.verdict,
                    "principle": c.principle,
                    "witness": _plain(c.witness),
                }
                for c in self.checks
            ],
            "cup_form": _plain(self.cup_form) if self.cup_form else None,
        }
        if self.embedding is None:
            out["embedding"] = None
        else:
            e = self.embedding
            out["embedding"] = {
                "status": e.status,
                "witness": _assignment_dict(e.morphism) if e.morphism else None,
                "residual": _fmt_float(e.residual),
                "trial_index": e.trial_index,
                "obstruction": e.obstruction.check_id if e.obstruction else None,
                "best_residual": _fmt_float(e.best_residual),
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"{self.name} (n = {self.n})"]
        lines.append(f"  betti: {list(self.betti)}   chi = {self.euler_characteristic}")
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "inconclusive": "?   "}[c.verdict]
            lines.append(f"  [{mark}] {c.check_id}: {_witness_text(c)}")
            if c.verdict == "fail":
                lines.append(f"         principle: {c.principle}")
        if self.cup_form and self.cup_form.get("degenerate"):
            lines.append(f"  cup form on degree 2: degenerate, rank {self.cup_form['rank']}")
        elif self.cup_form:
            cf = self.cup_form
            lines.append(
                f"  cup form on degree 2: signature {cf['signature']}, "
                f"square class {cf['discriminant']}"
                + (
                    ""
                    if cf.get("equivalent_to_middle_wedge_form") is None
                    else f", rationally equivalent to the wedge pairing form: "
                    f"{cf['equivalent_to_middle_wedge_form']}"
                )
            )
        if self.embedding is not None:
            e = self.embedding
            if e.found and e.morphism is not None:
                kind = "certified" if e.status == "found-certified" else "numerical (uncertified)"
                lines.append(f"  embedding: found ({kind})")
                for nm, mv in sorted(e.morphism.assignment.items()):
                    lines.append(f"      {nm} -> {mv}")
            elif e.obstruction is not None:
                lines.append(f"  embedding: not-found (blocked by {e.obstruction.check_id})")
            else:
                lines.append(
                    "  embedding: not-found (no conclusion"
                    + (f"; best residual {e.best_residual:.3g}" if e.best_residual else "")
                    + ")"
                )
        if self.verdict == "excluded-with-witness":
            lines.append(
                "  verdict: excluded-with-witness "
                "(neither elliptic nor quasiregularly elliptic as a closed manifold)"
            )
            lines.append(f"  witnesses: {', '.join(self.witnesses)}")
        else:
            lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _fmt_float(x) -> str | None:
    return None if x is None else f"{x:.12g}"


def _plain(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _assignment_dict(m: embed.RingMorphism) -> dict:
    out = {}
    for name, mv in sorted(m.assignment.items()):
        out[name] = {
            "".join(f"e{i}" for i in Blade.from_mask(mask).indices) or "1": str(c)
            for mask, c in mv.items()
        }
    return out


def _witness_text(c: CheckResult) -> str:
    if not c.witness:
        return c.verdict
    return ", ".join(f"{k}={v}" for k, v in sorted(c.witness.items()))


def _pi1_checks(d: ManifoldDescriptor) -> list[CheckResult]:
    p = d.pi1
    n = d.n
    if p.kind == "finite":
        growth = abelian = ("pass", {"pi1": "finite"})
    elif p.kind == "free-abelian":
        label = f"Z^{p.rank}"
        growth = ("fail" if p.rank > n else "pass", {"pi1": label, "growth_degree": p.rank, "n": n})
        abelian = ("pass", {"pi1": label})
    elif p.kind == "nilpotent":
        v = pi1_verdict(p.algebra, n)
        growth = (
            "fail" if v.growth_degree > n else "pass",
            {"growth_degree": v.growth_degree, "n": n},
        )
        abelian = (
            "pass" if v.abelian else "fail",
            {"abelian": v.abelian, "nilpotency_class": v.nilpotency_class},
        )
    else:
        growth = abelian = ("inconclusive", {"pi1": "outside the nilpotent data model"})
    return [
        CheckResult(check_id, verdict, PRINCIPLES[check_id], witness)
        for check_id, (verdict, witness) in (
            ("fundamental-group-growth", growth),
            ("fundamental-group-abelian", abelian),
        )
    ]


def fourmanifold_battery(b_plus: int, b_minus: int, pi1: Pi1Data) -> CheckResult:
    """The closed 4-manifold list: finite pi1 passes iff b+, b- <= 3, so that
    the form fits in the (3,3) wedge pairing on the middle of Lambda*(R^4),
    and free abelian pi1 iff b2 is the one its cover in FOUR_MANIFOLD_COVERS
    forces.  Any other pi1 is inconclusive."""
    if b_plus < 0 or b_minus < 0:
        raise ValueError("Betti inputs must be nonnegative")
    principle = PRINCIPLES["four-manifold-intersection"]
    cover = FOUR_MANIFOLD_COVERS.get(pi1.rank) if pi1.kind == "free-abelian" else None
    if pi1.kind != "finite" and cover is None:
        unsupported = {"pi1": "unsupported for the 4-manifold classification"}
        return CheckResult("four-manifold-intersection", "inconclusive", principle, unsupported)
    witness = {"b_plus": b_plus, "b_minus": b_minus, "labels": []}
    if cover is not None:
        label, b2, model = cover
        if b_plus + b_minus == b2:
            witness["labels"] = [model]
        else:
            witness["reason"] = (
                f"pi1 = {label} forces Euler characteristic zero, i.e. b2 = {b2}, "
                f"got {b_plus + b_minus}"
            )
    elif b_plus > 3 or b_minus > 3:
        witness["reason"] = (
            f"intersection form ({b_plus},{b_minus}) does not embed in the (3,3) wedge pairing"
        )
    elif b_plus == b_minus == 0:
        witness["labels"] = ["S^4"]
    else:
        if b_plus == b_minus:
            witness["labels"].append(f"#^{b_plus}(S^2 x S^2)")
        witness["labels"].append(f"#^{b_plus}CP^2 #^{b_minus}CP^2-bar")
    verdict = "fail" if "reason" in witness else "pass"
    return CheckResult("four-manifold-intersection", verdict, principle, witness)


def _cup_form_analysis(d: ManifoldDescriptor) -> dict | None:
    """The degree-2 cup form's invariants, or None without one.

    Declared [betti] data must be the ring's: b_plus + b_minus = b2,
    and (b_plus, b_minus) is the signature of a nondegenerate form;
    otherwise ParseError at the [betti] line, so that the four-manifold
    check never judges data the ring contradicts.
    """
    gb = basis_and_dims(d.cohomology)
    declared = d.betti if d.n == 4 else None
    if declared is not None and sum(declared) != gb.rank(2):
        raise ParseError(
            f"[betti] declares b_plus + b_minus = {sum(declared)}, "
            f"but the cohomology has b2 = {gb.rank(2)}",
            d.betti_line,
        )
    if gb.rank(2) < 1 or d.n < 4 or gb.rank(4) != 1:
        return None
    gram, _ = cup_square_form(d.cohomology, 2)
    form = quadform.QuadraticForm(tuple(tuple(row) for row in gram))
    if not form.is_nondegenerate:
        return {"rank": form.rank, "degenerate": True}
    sig = quadform.signature(form)
    out = {
        "rank": form.rank,
        "signature": list(sig),
        "discriminant": quadform.discriminant(form),
    }
    if declared is not None:
        if sig != declared:
            raise ParseError(
                f"[betti] declares (b_plus, b_minus) = {declared}, "
                f"but the cup form on degree 2 has signature {sig}",
                d.betti_line,
            )
        out["matches_declared_betti"] = True
    wedge4 = quadform.wedge_pairing_form(4)
    if form.rank == wedge4.rank:
        out["equivalent_to_middle_wedge_form"] = quadform.rationally_equivalent(form, wedge4)
    else:
        out["equivalent_to_middle_wedge_form"] = None
    return out


def run_battery(d: ManifoldDescriptor, options: BatteryOptions | None = None) -> BatteryReport:
    options = options or BatteryOptions()
    A = d.cohomology
    gb = basis_and_dims(A)
    chi = euler_characteristic(A)

    checks = _pi1_checks(d)
    checks.extend(embed.ring_checks(A))
    cup_form = _cup_form_analysis(d)  # before the search: it rejects inconsistent [betti] data
    if d.n == 4 and d.betti is not None:
        checks.append(fourmanifold_battery(*d.betti, d.pi1))

    embedding = None
    if options.embed:
        embedding = embed.search_embedding(
            A,
            d.n,
            budget=options.embed_budget,
            seed=options.seed,
            float_restarts=options.embed_float_restarts,
        )

    failing = tuple(c.check_id for c in checks if c.verdict == "fail")
    verdict = "excluded-with-witness" if failing else "no-obstruction-found"
    return BatteryReport(
        name=d.name,
        n=d.n,
        betti=gb.ranks,
        euler_characteristic=chi,
        checks=checks,
        embedding=embedding,
        cup_form=cup_form,
        verdict=verdict,
        witnesses=failing,
    )
