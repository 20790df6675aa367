import importlib.util
import itertools
import json
import pathlib

import numpy as np
import pytest

from wrapcheck import algebra, battery, embed
from wrapcheck.battery import BatteryOptions, fourmanifold_battery, run_battery
from wrapcheck.cli import corpus_paths
from wrapcheck.descriptor import Pi1Data, parse_descriptor, parse_descriptor_file
from wrapcheck.embed import (
    PRINCIPLES,
    RingMorphism,
    certify_injective,
    euler_obstruction,
    ring_checks,
    search_embedding,
    torus_subalgebra_check,
    verify_morphism,
)
from wrapcheck.exterior import Multivector, blade_masks, wedge, wedge_terms
from wrapcheck.nilcoh import NilLieAlgebra

import presentations as P
from presentations import random_small_presentations, reverse_generators


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "corpus_verdicts.json"


def blade(n, *idx):
    return Multivector.blade(n, idx)


class TestVerifyMorphism:
    def test_sphere_into_plane(self):
        m = RingMorphism(P.sphere(2), 2, {"u": blade(2, 1, 2)})
        assert verify_morphism(m)  # u^2 lands above the top degree

    def test_cp2_hyperbolic_image(self):
        m = RingMorphism(P.complex_projective(2), 4, {"w": blade(4, 1, 2) + blade(4, 3, 4)})
        assert verify_morphism(m)

    def test_degenerate_torus_assignment_still_verifies(self):
        m = RingMorphism(
            P.torus(3), 3, {"x1": blade(3, 1), "x2": blade(3, 2), "x3": blade(3, 1)}
        )
        assert verify_morphism(m)  # no relations to violate
        assert not certify_injective(m)  # but the top class dies

    def test_relation_violation(self):
        # u^2 = 0 fails for a class with nonzero square
        m = RingMorphism(
            P.sum_s2xs2(1), 4, {"u1": blade(4, 1, 2) + blade(4, 3, 4), "v1": blade(4, 3, 4)}
        )
        assert not verify_morphism(m)

    def test_failing_relations_named(self):
        from wrapcheck.embed import failing_relations

        m = RingMorphism(
            P.sum_s2xs2(1), 4, {"u1": blade(4, 1, 2) + blade(4, 3, 4), "v1": blade(4, 3, 4)}
        )
        bad = failing_relations(m)
        assert len(bad) == 1
        idx, rel, image = bad[0]
        assert rel == m.source.relations[idx]
        assert image == blade(4, 1, 2, 3, 4).scale(2)

    def test_exact_mode_rejects_tolerance(self):
        m = RingMorphism(P.sphere(2), 2, {"u": blade(2, 1, 2)})
        with pytest.raises(ValueError):
            verify_morphism(m, tol=1e-9)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RingMorphism(P.sphere(2), 3, {"u": blade(3, 1)})


class TestCertifyInjective:
    def test_cp2_certificate(self):
        m = RingMorphism(P.complex_projective(2), 4, {"w": blade(4, 1, 2) + blade(4, 3, 4)})
        assert certify_injective(m)
        assert m.evaluate(m.source.fundamental_class) == blade(4, 1, 2, 3, 4).scale(2)

    def test_zero_map_fails(self):
        m = RingMorphism(P.sphere(2), 2, {"u": Multivector.zero(2)})
        assert not certify_injective(m)

    def test_precondition_violation_raises(self):
        m = RingMorphism(
            P.sum_s2xs2(1), 4, {"u1": blade(4, 1, 2) + blade(4, 3, 4), "v1": blade(4, 3, 4)}
        )
        with pytest.raises(ValueError):
            certify_injective(m)


class TestTorusSubalgebraCheck:
    def test_full_rank_passes(self):
        assert torus_subalgebra_check(P.torus(4)).verdict == "pass"

    def test_rank_n_minus_one_fails(self):
        for extra in (0, 1, 2):
            res = torus_subalgebra_check(P.heisenberg_times_torus(extra))
            assert res.failed
            assert res.witness["reason"] == "rank-n-minus-1-pairing"

    def test_vanishing_product_fails(self):
        res = torus_subalgebra_check(P.heisenberg_nilmanifold())
        assert res.failed

    def test_t3_skeleton_not_free(self):
        res = torus_subalgebra_check(P.t3_skeleton_boundary())
        assert res.failed
        assert res.witness["reason"] == "rank-n-minus-1-pairing"

    def test_rank_exceeds_dimension(self):
        res = torus_subalgebra_check(P.genus_surface(2))
        assert res.failed
        assert res.witness["reason"] == "rank-exceeds-dimension"


class TestEulerObstruction:
    def test_genus_two_fails(self):
        res = euler_obstruction(P.genus_surface(2))
        assert res.failed and res.witness["chi"] == -2

    def test_torus_passes(self):
        assert euler_obstruction(P.torus(4)).verdict == "pass"

    def test_simply_connected_vacuous(self):
        assert euler_obstruction(P.sum_s2xs2(1)).verdict == "pass"


FINITE = Pi1Data("finite")


def free_abelian(rank):
    return Pi1Data("free-abelian", rank=rank)


class TestFourManifoldBattery:
    def test_golden_table(self):
        table = {
            (bp, bm): fourmanifold_battery(bp, bm, FINITE).verdict
            for bp in range(5)
            for bm in range(5)
        }
        for (bp, bm), verdict in table.items():
            assert verdict == ("pass" if bp <= 3 and bm <= 3 else "fail")

    def test_labels(self):
        res = fourmanifold_battery(3, 3, FINITE)
        assert "#^3(S^2 x S^2)" in res.witness["labels"]
        assert fourmanifold_battery(0, 0, FINITE).witness["labels"] == ["S^4"]

    def test_infinite_pi1_covers(self):
        assert fourmanifold_battery(1, 1, free_abelian(2)).witness["labels"] == ["T^2 x S^2"]
        assert fourmanifold_battery(3, 3, free_abelian(4)).witness["labels"] == ["T^4"]
        assert fourmanifold_battery(0, 0, free_abelian(1)).witness["labels"] == ["S^1 x S^3"]
        assert fourmanifold_battery(1, 1, free_abelian(4)).verdict == "fail"

    def test_unsupported_pi1(self):
        # Z^3 has no closed 4-manifold model on the list: the witness the
        # golden table holds for t3_skeleton_boundary, whose pi1 is Z^3
        golden = json.loads(GOLDEN.read_text())
        report = next(r for r in golden["reports"] if r["name"] == "t3_skeleton_boundary")
        want = next(c for c in report["checks"] if c["id"] == "four-manifold-intersection")
        res = fourmanifold_battery(3, 3, free_abelian(3))
        assert (res.check_id, res.verdict, res.principle, res.witness) == (
            want["id"], want["verdict"], want["principle"], want["witness"]
        )

    def test_negative_betti_rejected(self):
        with pytest.raises(ValueError):
            fourmanifold_battery(-1, 0, FINITE)

    UNSUPPORTED = {"pi1": "unsupported for the 4-manifold classification"}
    HEISENBERG = Pi1Data("nilpotent", algebra=NilLieAlgebra(3, {(1, 2): {3: 1}}))

    @pytest.mark.parametrize(
        "pi1, betti, verdict, witness",
        [
            (FINITE, (1, 1), "pass", {"labels": ["#^1(S^2 x S^2)", "#^1CP^2 #^1CP^2-bar"]}),
            (FINITE, (2, 0), "pass", {"labels": ["#^2CP^2 #^0CP^2-bar"]}),
            (
                FINITE,
                (0, 4),
                "fail",
                {
                    "labels": [],
                    "reason": "intersection form (0,4) does not embed in the (3,3) wedge pairing",
                },
            ),
            (free_abelian(1), (0, 0), "pass", {"labels": ["S^1 x S^3"]}),
            (free_abelian(2), (1, 1), "pass", {"labels": ["T^2 x S^2"]}),
            (free_abelian(4), (3, 3), "pass", {"labels": ["T^4"]}),
            (
                free_abelian(2),
                (1, 0),
                "fail",
                {
                    "labels": [],
                    "reason": "pi1 = Z^2 forces Euler characteristic zero, i.e. b2 = 2, got 1",
                },
            ),
            (free_abelian(3), (3, 3), "inconclusive", UNSUPPORTED),
            (free_abelian(5), (0, 0), "inconclusive", UNSUPPORTED),
            (HEISENBERG, (0, 0), "inconclusive", UNSUPPORTED),
            (Pi1Data("nilpotent", algebra=NilLieAlgebra.abelian(4)), (3, 3), "inconclusive", UNSUPPORTED),
            (Pi1Data("other"), (1, 1), "inconclusive", UNSUPPORTED),
        ],
    )
    def test_every_pi1_kind(self, pi1, betti, verdict, witness):
        res = fourmanifold_battery(*betti, pi1)
        assert res.check_id == "four-manifold-intersection"
        assert res.principle == PRINCIPLES["four-manifold-intersection"]
        assert res.verdict == verdict
        if verdict == "inconclusive":
            assert res.witness == witness
        else:
            assert res.witness == {"b_plus": betti[0], "b_minus": betti[1], **witness}


class TestSearchEmbedding:
    def test_torus_identity_witness(self):
        out = search_embedding(P.torus(3), 5, budget=10000, seed=0)
        assert out.status == "found-certified"
        for i in (1, 2, 3):
            assert out.morphism.assignment[f"x{i}"] == blade(5, i)

    def test_cp3_triple_blade(self):
        out = search_embedding(P.complex_projective(3), 6, budget=50000, seed=0)
        assert out.status == "found-certified"
        w = out.morphism.assignment["w"]
        assert w == blade(6, 1, 2) + blade(6, 3, 4) + blade(6, 5, 6)

    def test_genus_two_blocked(self):
        out = search_embedding(P.genus_surface(2), 2, budget=1000, seed=0)
        assert out.status == "not-found"
        assert out.obstruction.check_id == "euler-characteristic"

    def test_soundness_of_found_witnesses(self):
        for pres, n in [
            (P.torus(4), 4),
            (P.complex_projective(2), 4),
            (P.sum_s2xs2(3), 4),
            (P.sum_cp2(3, 3), 4),
        ]:
            out = search_embedding(pres, n, budget=100000, seed=0)
            assert out.status == "found-certified"
            assert verify_morphism(out.morphism)
            assert certify_injective(out.morphism)

    def test_monotone_padding(self):
        out = search_embedding(P.torus(2), 2, budget=1000, seed=0)
        wider = {nm: Multivector(3, dict(mv.items())) for nm, mv in out.morphism.assignment.items()}
        padded = RingMorphism(P.torus(2), 3, wider)
        assert verify_morphism(padded)
        assert certify_injective(padded)

    def test_battery_soundness_on_failing_corpus(self):
        for pres in (
            P.heisenberg_nilmanifold(),
            P.genus_surface(2),
            P.t3_skeleton_boundary(),
            P.heisenberg_times_torus(2),
        ):
            out = search_embedding(pres, pres.n, budget=5000, seed=0)
            assert out.status == "not-found"
            assert out.obstruction is not None

    def test_float_stage_certifies_cp2(self):
        out = search_embedding(P.complex_projective(2), 4, budget=0, seed=0, float_restarts=4)
        assert out.status == "found-certified"
        assert certify_injective(out.morphism)

    def test_float_stage_numerical_candidate(self):
        out = search_embedding(P.sum_s2xs2(1), 4, budget=0, seed=0, float_restarts=8)
        assert out.found
        assert out.residual is not None and out.residual <= 1e-9
        assert out.fc_norm is not None and out.fc_norm >= 1e-6

    def test_determinism(self):
        a = search_embedding(P.sum_cp2(2, 2), 4, budget=20000, seed=7)
        b = search_embedding(P.sum_cp2(2, 2), 4, budget=20000, seed=7)
        assert a.status == b.status
        if a.morphism is not None:
            assert a.morphism.assignment == b.morphism.assignment

    def test_target_dimension_bound(self):
        out = search_embedding(P.torus(5), 4, budget=100, seed=0)
        assert out.status == "not-found"
        assert out.obstruction.check_id == "graded-dimension-bound"


class TestSharedRingChecks:
    NOT_PD = (
        "name: not-pd\nn: 2\n[cohomology]\ngenerators: x:1 v:2\n"
        "relation: x v\nrelation: v^2\nfundamental_class: v\n[pi1]\ntype: other\n"
    )

    def test_battery_checks_poincare_duality_once(self, monkeypatch):
        calls = []
        original = algebra.check_poincare_duality

        def counting(presentation):
            calls.append(presentation)
            return original(presentation)

        for module in (algebra, battery, embed):
            monkeypatch.setattr(module, "check_poincare_duality", counting)
        algebra.basis_and_dims.cache_clear()
        embed.ring_checks.cache_clear()
        path = next(p for p in corpus_paths() if p.name == "t4.descriptor")
        report = run_battery(parse_descriptor_file(path), BatteryOptions(embed=True, embed_budget=100))
        assert report.embedding is not None
        assert len(calls) == 1

    def test_search_and_battery_share_the_pd_principle(self):
        d = parse_descriptor(self.NOT_PD)
        report = run_battery(d, BatteryOptions(embed=True, embed_budget=100))
        pd_check = next(c for c in report.checks if c.check_id == "poincare-duality")
        assert pd_check.verdict == "fail"
        out = search_embedding(d.cohomology, d.n, budget=100, seed=0)
        assert out.obstruction.check_id == "poincare-duality"
        assert out.obstruction.principle == pd_check.principle == PRINCIPLES["poincare-duality"]
        assert report.embedding.obstruction == out.obstruction


# nodes and witness of each corpus ring's exact stage at budget 4000
EXACT_STAGE_PINS = {
    "cp2": (13, {"w": "1*e{1,2} + 1*e{3,4}"}),
    "cp2_1_1": (27, {"c1": "1*e{1,2} + 1*e{3,4}", "d1": "1*e{1,2} + -1*e{3,4}"}),
    "cp2_3_3": (
        105,
        {
            "c1": "1*e{1,2} + 1*e{3,4}",
            "c2": "1*e{1,3} + -1*e{2,4}",
            "c3": "1*e{2,3} + 1*e{1,4}",
            "d1": "1*e{1,2} + -1*e{3,4}",
            "d2": "1*e{1,3} + 1*e{2,4}",
            "d3": "1*e{2,3} + -1*e{1,4}",
        },
    ),
    "cp2_4_0": (3768, None),
    "cp3": (211, {"w": "1*e{1,2} + 1*e{3,4} + 1*e{5,6}"}),
    "filiform4": (4000, None),
    "genus2": (456, None),
    "heisenberg3": (1590, None),
    "nine_disc2": (4000, None),
    "s2": (1, {"u": "1*e{1,2}"}),
    "s2xs2": (12, {"u": "1*e{1,2}", "v": "1*e{3,4}"}),
    "s3": (1, {"u": "1*e{1,2,3}"}),
    "sum2_s2xs2": (
        25,
        {"u1": "1*e{1,2}", "u2": "1*e{1,3}", "v1": "1*e{3,4}", "v2": "-1*e{2,4}"},
    ),
    "sum3_s2xs2": (
        37,
        {
            "u1": "1*e{1,2}",
            "u2": "1*e{1,3}",
            "u3": "1*e{2,3}",
            "v1": "1*e{3,4}",
            "v2": "-1*e{2,4}",
            "v3": "1*e{1,4}",
        },
    ),
    "sum4_s2xs2": (4000, None),
    "t2": (4, {"x": "1*e{1}", "y": "1*e{2}"}),
    "t3": (9, {"x1": "1*e{1}", "x2": "1*e{2}", "x3": "1*e{3}"}),
    "t3_skeleton_boundary": (4000, None),
    "t4": (16, {"x1": "1*e{1}", "x2": "1*e{2}", "x3": "1*e{3}", "x4": "1*e{4}"}),
}


def _witness(m):
    return None if m is None else {nm: repr(mv) for nm, mv in sorted(m.assignment.items())}


def fraction_exact_stage(A, n, node_budget, per_generator_cap=512):
    """The exact stage pruned with Multivectors in Fraction arithmetic."""
    gens = A.generators
    names = [nm for nm, _ in gens]
    candidates = [
        [Multivector(n, c) for c in embed._disjoint_blade_candidates(n, deg, per_generator_cap)]
        for _, deg in gens
    ]
    if any(not c for c in candidates):
        return None, 0
    rels_by_level = [[] for _ in range(len(gens) + 1)]
    for rel in A.relations:
        support = [i for i in range(len(gens)) if any(e[i] for _, e in rel.monomials)]
        rels_by_level[max(support) + 1 if support else 0].append(rel)
    fc = A.fundamental_class
    fc_exps = fc.monomials[0][1] if len(fc.monomials) == 1 else None
    assignment = {}
    nodes = 0

    def fc_prefix(upto):
        term = Multivector.scalar(n, 1)
        for i in range(upto):
            for _ in range(fc_exps[i]):
                term = wedge(term, assignment[names[i]])
                if term.is_zero:
                    return term
        return term

    def backtrack(level):
        nonlocal nodes
        if level == len(gens):
            m = RingMorphism(A, n, dict(assignment))
            if verify_morphism(m) and not m.evaluate(fc).is_zero:
                return m
            return None
        for cand in candidates[level]:
            if nodes >= node_budget:
                return None
            nodes += 1
            assignment[names[level]] = cand
            ok = all(
                algebra.evaluate_polynomial(rel, assignment, n).is_zero
                for rel in rels_by_level[level + 1]
            )
            if ok and fc_exps is not None and fc_prefix(level + 1).is_zero:
                ok = False
            if ok:
                found = backtrack(level + 1)
                if found is not None:
                    return found
            del assignment[names[level]]
        return None

    return backtrack(0), nodes


class TestExactStage:
    @pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.name)
    def test_nodes_and_witness_pinned(self, path):
        d = parse_descriptor_file(path)
        m, nodes = embed._exact_stage(d.cohomology, d.n, 4000)
        assert (nodes, _witness(m)) == EXACT_STAGE_PINS[d.name]
        if m is not None:
            assert certify_injective(m)

    # CP^2 # CP^2 with x^2 = y^2 (found) and x^2 = 2 y^2 (not found: a
    # +-1 disjoint-blade sum in Lambda^2(Q^4) squares to 0 or +-2 e1234),
    # written with fractional coefficients
    HALVES = "name: halves\nn: 4\n[cohomology]\ngenerators: x:2 y:2\nrelation: x y\n"

    @pytest.mark.parametrize(
        "relation,fundamental_class,found",
        [
            ("1/2 x^2 - 1/2 y^2", "x^2", True),
            ("1/2 x^2 - 1/2 y^2", "1/2 x^2 + 1/2 y^2", True),
            ("1/2 x^2 - y^2", "x^2", False),
            ("1/2 x^2 - y^2", "2/3 x^2 + 1/3 y^2", False),
        ],
    )
    def test_fraction_relations_match_fraction_pruning(self, relation, fundamental_class, found):
        text = (
            f"{self.HALVES}relation: {relation}\nfundamental_class: {fundamental_class}\n"
            "[pi1]\ntype: finite\n"
        )
        A = parse_descriptor(text).cohomology
        m, nodes = embed._exact_stage(A, 4, 600)
        ref, ref_nodes = fraction_exact_stage(A, 4, 600)
        assert (nodes, _witness(m)) == (ref_nodes, _witness(ref))
        assert (m is not None) == found
        if found:
            assert certify_injective(m)


def _level_shapes(A):
    """Which term shapes the per-level products meet in A's relations: a
    term with factors both below and at its relation's last generator, a
    power of at least 2 of that generator, and a term without it."""
    split = power = fixed = False
    for rel in A.relations:
        last = max(i for _, e in rel.monomials for i, x in enumerate(e) if x)
        for _, e in rel.monomials:
            split |= bool(e[last] and any(e[:last]))
            power |= e[last] >= 2
            fixed |= not e[last]
    return split, power, fixed


class TestAgainstFractionOracle:
    """The exact stage against the unpruned factor-by-factor Fraction
    oracle, node for node: per-level relation prefixes, cached powers and
    orbit rejection change no outcome and no node count at any budget."""

    BUDGETS = (1, 7, 50, 333, 600)

    @staticmethod
    def _assert_matches_oracle(A, n, budget):
        m, nodes = embed._exact_stage(A, n, budget)
        ref, ref_nodes = fraction_exact_stage(A, n, budget)
        assert (nodes, _witness(m)) == (ref_nodes, _witness(ref)), (A, n, budget)
        return m, nodes

    @pytest.mark.parametrize("setting", ["random", "reversed-corpus"])
    def test_matches_fraction_oracle(self, setting):
        if setting == "random":
            # above the ring's own dimension too, where more symmetry is free
            cases = [(A, A.n + k) for A in random_small_presentations() for k in (0, 1, 2)]
        else:
            cases = [
                (reverse_generators(d.cohomology), d.n)
                for d in map(parse_descriptor_file, corpus_paths())
            ]
        for A, n in cases:
            for budget in self.BUDGETS:
                self._assert_matches_oracle(A, n, budget)
        shapes = [_level_shapes(A) for A, _ in cases]
        assert all(any(flags) for flags in zip(*shapes)), shapes

    def test_capped_list_below_turns_the_rule_off(self):
        # In Lambda*(Q^7) the degree-2 list is capped partway through the
        # triples, so it is not invariant under permutations of e1..e7;
        # orbit rejection at the degree-3 level above it would charge
        # wrong counts and miss the witness at node 2540.
        text = (
            "name: capped\nn: 6\n[cohomology]\ngenerators: a:3 b:2\nrelation: a b\n"
            "fundamental_class: b^3\n[pi1]\ntype: finite\n"
        )
        A = parse_descriptor(text).cohomology
        for budget in self.BUDGETS + (3000,):
            m, nodes = self._assert_matches_oracle(A, 7, budget)
        assert m is not None and nodes == 2540

    @pytest.mark.parametrize(
        "ring, nodes, most_calls", [("cp2_4_0", 3768, 1000), ("cp3", 211, 10)]
    )
    def test_mirrored_subtrees_are_skipped(self, monkeypatch, ring, nodes, most_calls):
        # without orbit rejection: 8856 and 211 relation checks
        calls = 0
        vanishes = embed._vanishes

        def counted(*args):
            nonlocal calls
            calls += 1
            return vanishes(*args)

        monkeypatch.setattr(embed, "_vanishes", counted)
        d = parse_descriptor_file(next(p for p in corpus_paths() if p.name == f"{ring}.descriptor"))
        assert embed._exact_stage(d.cohomology, d.n, 4000)[1] == nodes
        assert calls <= most_calls


def _signed_permutation_image(cand, perm, signs):
    """The image of a ``{mask: coefficient}`` candidate under
    e_i -> signs[i] e_perm[i]."""
    out = {}
    for m, c in cand.items():
        term = {0: c}
        for i in range(len(perm)):
            if m >> i & 1:
                term = wedge_terms(term, {1 << perm[i]: signs[i]})
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return frozenset(out.items())


class TestOrbitKey:
    """``_orbit_key`` names exactly the orbits of the signed permutations
    of the basis vectors outside ``used``, found by brute force."""

    @pytest.mark.parametrize(
        "n, degree, used",
        [(4, 1, 0), (4, 2, 0), (4, 2, 0b0011), (4, 2, 0b0101), (4, 1, 0b0110), (5, 2, 0b00110)],
    )
    def test_keys_are_orbits(self, n, degree, used):
        cands = embed._disjoint_blade_candidates(n, degree, embed.CANDIDATE_CAP)
        outside = [i for i in range(n) if not used >> i & 1]
        orbit = {}
        for images in itertools.permutations(outside):
            perm = list(range(n))
            for i, j in zip(outside, images):
                perm[i] = j
            for flips in itertools.product((1, -1), repeat=len(outside)):
                signs = [1] * n
                for i, s in zip(outside, flips):
                    signs[i] = s
                for c in cands:
                    orbit.setdefault(frozenset(c.items()), set()).add(
                        _signed_permutation_image(c, perm, signs)
                    )
        for a in cands:
            for b in cands:
                same_orbit = frozenset(b.items()) in orbit[frozenset(a.items())]
                assert same_orbit == (embed._orbit_key(a, used) == embed._orbit_key(b, used))


def _polynomial_text(p) -> str:
    """``p`` in descriptor syntax, every term signed."""
    return " ".join(
        f"{'-' if c < 0 else '+'} {abs(c)} "
        + " ".join(nm + (f"^{x}" if x > 1 else "") for (nm, _), x in zip(p.generators, e) if x)
        for c, e in p.monomials
    )


def _reversed_descriptor_text(path) -> str:
    """The descriptor with its generators listed in reverse order and
    renamed, the relations and fundamental class rewritten to match."""
    d = parse_descriptor_file(path)
    A = reverse_generators(d.cohomology, [f"z{i}" for i in range(len(d.cohomology.generators))])
    lines = []
    for line in path.read_text().splitlines():
        if line.split(":", 1)[0].strip() in ("generators", "relation", "fundamental_class"):
            continue
        lines.append(line)
        if line.strip() == "[cohomology]":
            lines.append("generators: " + " ".join(f"{nm}:{deg}" for nm, deg in A.generators))
            lines += [f"relation: {_polynomial_text(rel)}" for rel in A.relations]
            lines.append(f"fundamental_class: {_polynomial_text(A.fundamental_class)}")
    return "\n".join(lines) + "\n"


class TestPresentationOrder:
    """Reversing and renaming the generators changes no ring-level answer."""

    @pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.name)
    def test_reversed_generators_same_checks_and_verdict(self, path):
        d = parse_descriptor_file(path)
        r = parse_descriptor(_reversed_descriptor_text(path))
        assert [nm for nm, _ in r.cohomology.generators][0] == "z0"
        assert [deg for _, deg in r.cohomology.generators] == [
            deg for _, deg in reversed(d.cohomology.generators)
        ]
        assert ring_checks(r.cohomology) == ring_checks(d.cohomology)
        options = BatteryOptions(embed=False)
        want, got = run_battery(d, options), run_battery(r, options)
        assert (got.betti, got.euler_characteristic, got.verdict) == (
            want.betti, want.euler_characteristic, want.verdict
        )
        failing = [[c.check_id for c in rep.checks if c.failed] for rep in (want, got)]
        assert failing[0] == failing[1]


class TestCompiledResiduals:
    """The float stage's compiled images against evaluate_polynomial."""

    # rings whose relations or fundamental class have 3- or 4-factor monomials
    LONG_MONOMIALS = ("cp3", "t3", "t4", "nine_disc2", "t3_skeleton_boundary")

    @pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.name)
    def test_bit_identical_to_multivector_arithmetic(self, path):
        d = parse_descriptor_file(path)
        A, n = d.cohomology, d.n
        masks = [blade_masks(n, d) for _, d in A.generators]
        offsets = np.cumsum([0] + [len(m) for m in masks])
        polys = [(rel, rel.degree()) for rel in A.relations] + [(A.fundamental_class, A.n)]
        factors = max(sum(e) for p, _ in polys for _, e in p.monomials)
        if path.name.removesuffix(".descriptor") in self.LONG_MONOMIALS:
            assert factors >= 3
        images = embed._image_program(polys, n, masks, offsets)
        rng = np.random.default_rng(2024)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(4):
                x = rng.normal(0.0, scale, size=int(offsets[-1]))
                asg = {
                    name: Multivector(
                        n, dict(zip(masks[i], map(float, x[offsets[i]: offsets[i + 1]])))
                    )
                    for i, (name, _) in enumerate(A.generators)
                }
                want = [
                    float(c)
                    for p, deg in polys
                    for c in algebra.evaluate_polynomial(p, asg, n).coords(deg)
                ]
                assert np.array_equal(images(x), np.array(want))


def _regen_golden():
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "regen_golden.py"
    spec = importlib.util.spec_from_file_location("regen_golden", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFloatStageGolden:
    def test_outcomes_match_committed_table(self):
        regen = _regen_golden()
        want = json.loads(regen.FLOAT_GOLDEN.read_text())
        got = regen.float_stage_outcomes()
        assert len(got) == len(regen.FLOAT_RINGS) * len(regen.FLOAT_SEEDS)
        assert got == want
