"""Tests for the rank-one classification pipeline and its self-verification.

The headline results are frozen: the constant extension survives exactly at
parameter -1 (equivalently the n = 1 quotient), every other parameter keeps
only the plain family, and for integer parameters at or below -2 the
surviving constant is killed by the cross relation with the frozen
coefficient x + (1+p) y.
"""

from fractions import Fraction

import pytest

from confal import classify
from confal.classify import (
    RULE_CROSS_RELATION_KILL,
    RULE_DEL_INDEPENDENCE,
    RULE_MU_ZERO_KILL,
    RULE_SHIFT_INVARIANCE_CONST,
    RULE_TOP_INDEX_ASSUMED,
    ClassificationReport,
    FamilyPattern,
    classify_bn,
    classify_rank_one,
    falsification_battery,
    symmetry_residual,
    verify_report,
)
from confal.conformal import make_bn, make_heisenberg_virasoro
from confal.modules import FAMILY_BETA, FAMILY_PLAIN
from confal.poly import DEL, LAM, MU, Poly, Var


# -- headline classification ------------------------------------------------------


def test_families_per_parameter():
    assert [f.tag for f in classify_rank_one(-1).families] == [FAMILY_BETA]
    for p in (Fraction(1), Fraction(2), Fraction(-2), Fraction(-3), Fraction(1, 2)):
        report = classify_rank_one(p)
        assert [f.tag for f in report.families] == [FAMILY_PLAIN], p
        assert report.undecided == []
        assert report.battery.all_violated


def test_quotient_classification_delegates():
    one = classify_bn(1)
    assert [f.tag for f in one.families] == [FAMILY_BETA]
    assert one.alg.name == "b(1)" and one.alg.window == 1
    assert one.p == Fraction(-1)
    for n in (2, 3, 4):
        report = classify_bn(n)
        assert [f.tag for f in report.families] == [FAMILY_PLAIN], n
        assert report.alg.name == f"b({n})" and report.p == -n
        assert report.top_index_bound == n


def test_classification_input_validation():
    with pytest.raises(ValueError):
        classify_rank_one(0)
    with pytest.raises(ValueError):
        classify_rank_one(1, top_index_bound=0)
    with pytest.raises(ValueError):
        classify_bn(0)


# -- derivation steps ---------------------------------------------------------------


def test_every_round_opens_with_assumption_and_reduction():
    report = classify_rank_one(1, top_index_bound=4)
    assumed = [s.top_index for s in report.steps if s.rule == RULE_TOP_INDEX_ASSUMED]
    assert assumed == [4, 3, 2, 1]
    reduction = [s for s in report.steps if s.rule == RULE_DEL_INDEPENDENCE]
    assert len(reduction) == 4
    for step in reduction:
        assert step.polys["bracket_only_probe_residual"].is_zero()


def test_mu_zero_killer_coefficients_frozen():
    report = classify_rank_one(1, top_index_bound=3)
    kills = {s.top_index: s.polys for s in report.steps if s.rule == RULE_MU_ZERO_KILL}
    # -(k+p) x at p = 1.
    assert kills[3]["mu_zero_coefficient"] == -4 * LAM
    assert kills[2]["mu_zero_coefficient"] == -3 * LAM
    assert kills[1]["mu_zero_coefficient"] == -2 * LAM
    # the full coefficient p y - (k+p) x is carried alongside.
    assert kills[3]["composed_identity_coefficient"] == MU - 4 * LAM


def test_cross_relation_kill_frozen_coefficients():
    # integer p <= -2: index -p survives mu-zero, then dies by the relation
    # between indices 1 and -p-1, with coefficient x + (1+p) y.
    for p, expected in ((Fraction(-2), LAM - MU), (Fraction(-3), LAM - 2 * MU)):
        report = classify_rank_one(p)
        cross = [s for s in report.steps if s.rule == RULE_CROSS_RELATION_KILL]
        assert len(cross) == 1
        step = cross[0]
        assert step.top_index == -p
        assert step.polys["relation_coefficient"] == expected
        # the shift-invariance round precedes it at the same index.
        shift = [s for s in report.steps if s.rule == RULE_SHIFT_INVARIANCE_CONST]
        assert [s.top_index for s in shift] == [-p]


def test_no_cross_step_when_mu_zero_suffices():
    for p in (Fraction(1), Fraction(2), Fraction(1, 2)):
        report = classify_rank_one(p)
        assert not [s for s in report.steps if s.rule == RULE_CROSS_RELATION_KILL]


def test_beta_round_stops_at_shift_invariance():
    report = classify_rank_one(-1)
    shift = [s for s in report.steps if s.rule == RULE_SHIFT_INVARIANCE_CONST]
    assert [s.top_index for s in shift] == [1]
    assert not [s for s in report.steps if s.rule == RULE_CROSS_RELATION_KILL]


# -- the imported reduction and its evidence -------------------------------------------


def test_symmetry_residual_oracle():
    # bracket-variable-only actions satisfy the identity exactly.
    assert symmetry_residual(LAM).is_zero()
    assert symmetry_residual(3 * LAM**2 + LAM - 5).is_zero()
    # the simplest translation-dependent action already breaks it.
    assert symmetry_residual(DEL) == DEL * (LAM - MU)
    assert not symmetry_residual(DEL + LAM).is_zero()


def test_falsification_battery_all_violated_and_deterministic():
    a = falsification_battery()
    b = falsification_battery()
    assert len(a.certificates) == 50 and a.all_violated
    assert [c.candidate for c in a.certificates] == [c.candidate for c in b.certificates]
    assert [c.witness_point for c in a.certificates] == [
        c.witness_point for c in b.certificates
    ]


def test_battery_certificates_carry_nonzero_residuals():
    battery = falsification_battery()
    for cert in battery.certificates:
        assert not cert.residual.is_zero()
        assert cert.candidate.degree_in(Var.PARTIAL) >= 1
        assert "->" in cert.witness_point


# -- exact kernels ------------------------------------------------------------------


def test_kernel_dim_of_the_shift_and_mu_zero_images():
    for bound in (0, 1, 2, 4, 6, 64):
        # f(x) -> f(x+y) - f(y): the image of 1 is zero, so the kernel holds
        # the constants, and nothing else.
        shifts = [(LAM + MU) ** j - MU**j for j in range(bound + 1)]
        assert shifts[0].is_zero()
        assert classify._kernel_dim(shifts) == 1, bound
        # f(x) -> -(k+p) x f(x) with k + p != 0 has no kernel.
        killer = -3 * LAM
        assert classify._kernel_dim([killer * LAM**j for j in range(bound + 1)]) == 0
    assert classify._kernel_dim([Poly.zero()] * 3) == 3


def test_each_kill_is_computed_from_the_polynomial_it_records(monkeypatch):
    # With the x term gone from the composed coefficient, the recorded y = 0
    # instance is 0, which kills nothing: no index other than -p may be
    # killed, whatever the degree bound.
    monkeypatch.setattr(classify, "_composed_identity_coefficient", lambda p, index: p * MU)
    for p in (Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(-3)):
        for degree_bound in (0, 2, 6):
            report = classify_rank_one(p, top_index_bound=4, degree_bound=degree_bound)
            assert not [s for s in report.steps if s.rule == RULE_MU_ZERO_KILL], p
            assert {k for k in range(1, 5) if k != -p} <= set(report.undecided), p


# -- report verification ----------------------------------------------------------------


def test_verify_report_accepts_clean_reports():
    for p in (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2)):
        assert verify_report(classify_rank_one(p))
    assert verify_report(classify_bn(1))
    assert verify_report(classify_bn(3))


def with_families(report, families):
    """A copy of ``report`` that claims ``families``, built through the constructor."""
    return ClassificationReport(*(
        families if name == "families" else getattr(report, name)
        for name in ClassificationReport._fields))


def test_verify_report_rejects_wrong_family_tag():
    report = classify_rank_one(2)
    tampered = with_families(report, [
        FamilyPattern(FAMILY_BETA, f.description, f.irreducible_iff) for f in report.families])
    assert not verify_report(tampered)


def test_verify_report_rejects_an_irreducibility_disagreement(blind_submodule_search):
    assert not verify_report(classify_rank_one(1))


def test_verify_report_rejects_an_unknown_irreducibility_condition():
    report = classify_rank_one(2)
    tampered = with_families(report, [
        FamilyPattern(f.tag, f.description, "delta == 0") for f in report.families])
    assert verify_report(tampered) is False


def test_verify_report_rejects_a_known_but_wrong_irreducibility_condition():
    # At p = -1 the beta family is irreducible iff delta != 0 or beta != 0;
    # claiming delta != 0 alone is wrong at delta = 0, beta = 1.
    report = classify_rank_one(-1)
    tampered = with_families(report, [
        FamilyPattern(f.tag, f.description, "delta != 0") for f in report.families])
    assert verify_report(tampered) is False


def test_verify_report_rejects_an_algebra_where_the_constant_extension_holds():
    # Heisenberg-Virasoro has p = 1, yet the constant extension Mb:1:0:5
    # passes its module identity there, so the bolt-on probe disagrees.
    report = classify_rank_one(1)._replace(alg=make_heisenberg_virasoro())
    assert report.p == 1
    assert verify_report(report) is False


def test_verify_report_rejects_empty_families():
    report = classify_rank_one(2)
    assert not verify_report(with_families(report, []))


def test_verify_report_rejects_mismatched_quotient_size():
    # claim the n = 2 result holds over b(1): there p = -1, where the plain
    # family alone is not the classification.
    report = classify_bn(2)._replace(alg=make_bn(1))
    assert not verify_report(report)
