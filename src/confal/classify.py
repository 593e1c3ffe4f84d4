"""Replay of the rank-one module classification over the bracket family.

For each candidate top index ``k`` (the largest generator assumed to act
nonzero on a free rank-one module), the pipeline applies exact eliminations
to the unknown top action ``f`` and records every step:

``TOP_INDEX_ASSUMED``
    the standing hypothesis for the round, bookkeeping only;
``DEL_INDEPENDENCE``
    the imported reduction that the top action depends on the bracket
    variable alone.  It is not re-derived here; instead a falsification
    battery samples translation-dependent candidates against the symmetry
    identity ``f(D, x) f(D + x, y) = f(D, y) f(D + y, x)`` and stores a
    violation certificate for each, and the step is flagged in the report
    caveats;
``MU_ZERO_KILL``
    for ``k != -p``, instantiating the composed-action identity
    ``(p y - (k+p) x) f(x+y) = p y f(y)`` at ``y = 0`` leaves
    ``-(k+p) x f(x) = 0``.  The step records that coefficient, and the
    kernel of multiplication by the recorded polynomial on bounded-degree
    ``f`` is computed from it by exact linear algebra: the kill holds only
    when that kernel is zero;
``SHIFT_INVARIANCE_CONST``
    for ``k = -p``, the identity degenerates to ``f(x+y) = f(y)``, whose
    kernel on bounded-degree polynomials is computed from the images
    ``(x+y)^j - y^j`` and is exactly the constants, surviving as the
    constant action ``beta``;
``CROSS_RELATION_KILL``
    for integer ``-p >= 2``, after the lower indices are killed the bracket
    relation between indices 1 and ``k - 1`` forces
    ``(x + (1+p) y) beta = 0``, so the constant dies too.

What survives: the plain family for every parameter except ``-1``, plus the
constant-action extension exactly at ``p = -1``.  :func:`classify_rank_one`
and :func:`classify_bn` each run the replay over their own algebra, ``B(p)``
or ``b(n)``, which the report carries and reads ``p`` from.  Survivors are
emitted with their irreducibility conditions, and :func:`verify_report`
re-instantiates them over that algebra on a parameter grid and replays the
module axioms and the irreducibility dichotomy against the report's claims.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, NamedTuple

from . import linalg
from .conformal import (
    ConformalAlgebra,
    TruncationPolicy,
    _block_entry,
    family_parameter,
    make_block,
    make_bn,
)
from .modules import (
    FAMILY_BETA,
    FAMILY_PLAIN,
    check_module,
    is_irreducible_rank_one,
    rank_one_module,
)
from .poly import DEL, LAM, MU, Poly, Var, elide

RULE_TOP_INDEX_ASSUMED = "TOP_INDEX_ASSUMED"
RULE_DEL_INDEPENDENCE = "DEL_INDEPENDENCE"
RULE_MU_ZERO_KILL = "MU_ZERO_KILL"
RULE_SHIFT_INVARIANCE_CONST = "SHIFT_INVARIANCE_CONST"
RULE_CROSS_RELATION_KILL = "CROSS_RELATION_KILL"

CAVEAT_DEL_INDEPENDENCE = (
    "del-independence of top actions is imported, not re-derived; the "
    "symmetry-identity falsification battery provides evidence only"
)
CAVEAT_FREENESS = (
    "the classification covers free rank-one modules; non-free rank-one "
    "behaviour is out of scope"
)
CAVEAT_PER_INDEX = (
    "lower-index eliminations reuse the same imported del-independence "
    "reduction per index"
)

#: The falsification battery's fixed seed, sample count and largest degree
#: in each of ``D`` and ``x``; certificates record the first two.
BATTERY_SEED = 0
BATTERY_SAMPLES = 50
BATTERY_DEGREE = 3


class DerivationStep(NamedTuple):
    rule: str
    top_index: int
    polys: dict[str, Poly]
    conclusion: str


class FamilyPattern(NamedTuple):
    tag: str
    description: str
    irreducible_iff: str


class ViolationCertificate(NamedTuple):
    candidate: Poly
    residual: Poly
    witness_point: str


class BatteryResult(NamedTuple):
    certificates: list[ViolationCertificate]

    @property
    def all_violated(self) -> bool:
        return len(self.certificates) == BATTERY_SAMPLES

    def to_payload(self) -> dict[str, Any]:
        return {
            "seed": BATTERY_SEED,
            "samples": BATTERY_SAMPLES,
            "violations": len(self.certificates),
            "certificates": [
                {
                    "candidate": str(c.candidate),
                    "witness_point": c.witness_point,
                    "residual_terms": sum(1 for _ in c.residual.terms()),
                }
                for c in self.certificates
            ],
        }


class ClassificationReport(NamedTuple):
    """The replay over ``alg``, ``B(p)`` or ``b(n)``, which :func:`verify_report` re-checks."""

    alg: ConformalAlgebra
    top_index_bound: int
    degree_bound: int
    families: list[FamilyPattern]
    steps: list[DerivationStep]
    battery: BatteryResult
    caveats: list[str]
    undecided: list[int]

    @property
    def p(self) -> Fraction:
        return family_parameter(self.alg)

    def to_payload(self) -> dict[str, Any]:
        return {
            "algebra": self.alg.name,
            "p": str(self.p),
            "top_index_bound": self.top_index_bound,
            "degree_bound": self.degree_bound,
            "families": [
                {"tag": fam.tag, "description": fam.description,
                 "irreducible_iff": fam.irreducible_iff}
                for fam in self.families
            ],
            "steps": [
                {
                    "rule": step.rule,
                    "top_index": step.top_index,
                    "polys": {key: str(val) for key, val in sorted(step.polys.items())},
                    "conclusion": step.conclusion,
                }
                for step in self.steps
            ],
            "undecided": self.undecided,
        }


def symmetry_residual(f: Poly) -> Poly:
    """``f(D, x) f(D+x, y) - f(D, y) f(D+y, x)``.

    Zero for every bracket-variable-only ``f``; translation-dependent
    actions must satisfy it to extend to a module, which is what the
    falsification battery exploits.
    """
    # Rename the bracket variable before shifting D so the shift's own x is
    # not captured.
    f_y = f.substitute(Var.LAMBDA, MU)
    f_xy = f_y.substitute(Var.PARTIAL, DEL + LAM)
    f_yx = f.substitute(Var.PARTIAL, DEL + MU)
    return f * f_xy - f_y * f_yx


def _random_del_dependent(rng: random.Random) -> Poly:
    """A random polynomial in D and x with genuine D dependence."""
    while True:
        poly = Poly({
            (dd, dx, 0): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for dd in range(BATTERY_DEGREE + 1)
            for dx in range(BATTERY_DEGREE + 1)
            if rng.random() < 0.4
        })
        if poly.degree_in(Var.PARTIAL) >= 1:
            return poly


def falsification_battery() -> BatteryResult:
    """Sample translation-dependent candidates and certify each violation.

    The :data:`BATTERY_SAMPLES` candidates are drawn from
    :data:`BATTERY_SEED`, so every run draws the same ones.  Every candidate
    is expected to break the symmetry identity; the stored certificate
    carries the candidate, the full residual, and one rational witness point
    where the residual is nonzero.
    """
    rng = random.Random(BATTERY_SEED)
    certificates = []
    for _ in range(BATTERY_SAMPLES):
        candidate = _random_del_dependent(rng)
        residual = symmetry_residual(candidate)
        if not residual.is_zero():
            certificates.append(ViolationCertificate(candidate, residual, _nonzero_point(residual)))
    return BatteryResult(certificates)


def _nonzero_point(poly: Poly) -> str:
    """A small rational point where ``poly`` evaluates to a nonzero value.

    Found one variable at a time: a nonzero polynomial of degree ``d`` in the
    current variable stays nonzero for at least one of any ``d + 1`` distinct
    substitutions, so the probe list never runs out for the degrees the
    battery produces.
    """
    values = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3, 5, -5, 7, -7)]
    remaining = poly
    chosen: dict[Var, Fraction] = {}
    for var in (Var.PARTIAL, Var.LAMBDA, Var.MU):
        if remaining.degree_in(var) <= 0:
            chosen[var] = Fraction(0)
            continue
        for v in values:
            candidate = remaining.substitute(var, v)
            if not candidate.is_zero():
                chosen[var] = v
                remaining = candidate
                break
        else:
            raise AssertionError(
                "claimed nonzero residual vanished on the probe grid"
            )
    val = remaining.as_constant()
    return (
        f"D={chosen[Var.PARTIAL]}, x={chosen[Var.LAMBDA]}, "
        f"y={chosen[Var.MU]} -> {val}"
    )


def _composed_identity_coefficient(p: Fraction, index: int) -> Poly:
    """Coefficient polynomial ``p y - (index + p) x`` of the composed identity."""
    return p * MU - (index + p) * LAM


def _kernel_dim(images: list[Poly]) -> int:
    """Kernel dimension of the linear map sending ``x^j`` to ``images[j]``.

    By rank-nullity it is the number of images less the rank of the
    coefficient rows, one row for each monomial that occurs in an image.
    """
    rows: dict[tuple[int, ...], list[Fraction]] = {}
    for j, image in enumerate(images):
        for exp, coeff in image.terms():
            rows.setdefault(exp, [Fraction(0)] * len(images))[j] = coeff
    return len(images) - linalg.rank(list(rows.values()))


def _mu_zero_kill(
    p: Fraction, index: int, degree_bound: int, conclusion: str
) -> DerivationStep | None:
    """The ``MU_ZERO_KILL`` step at ``index``, or None when it does not hold.

    Its kernel is that of ``f -> killer * f`` on degree <= bound, computed
    from the ``killer`` polynomial the step records.
    """
    coeff = _composed_identity_coefficient(p, index)
    killer = coeff.substitute(Var.MU, 0)
    if _kernel_dim([killer * LAM**j for j in range(degree_bound + 1)]) != 0:
        return None
    return DerivationStep(
        rule=RULE_MU_ZERO_KILL,
        top_index=index,
        polys={"composed_identity_coefficient": coeff, "mu_zero_coefficient": killer},
        conclusion=conclusion,
    )


def classify_rank_one(
    p: Fraction | int,
    top_index_bound: int = 6,
    degree_bound: int = 6,
) -> ClassificationReport:
    """Classify free rank-one modules over the bracket family at parameter ``p``."""
    alg = make_block(p, max(3, min(top_index_bound, 4)), TruncationPolicy.TRUNCATE_TO_ZERO)
    if top_index_bound < 1:
        raise ValueError(f"top index bound K must be >= 1, got {elide(str(top_index_bound))}")
    return _replay(alg, top_index_bound, degree_bound)


def classify_bn(n: int, degree_bound: int = 6) -> ClassificationReport:
    """Classification over the windowed quotient ``b(n)``: parameter ``-n``, top index ``n``."""
    return _replay(make_bn(n), n, degree_bound)


def _replay(
    alg: ConformalAlgebra, top_index_bound: int, degree_bound: int
) -> ClassificationReport:
    """The elimination steps for top indices ``K`` down to 1 at the parameter of ``alg``."""
    if degree_bound < 0:
        raise ValueError(f"degree bound D must be >= 0, got {elide(str(degree_bound))}")
    p = family_parameter(alg)
    battery = falsification_battery()
    steps: list[DerivationStep] = []
    undecided: list[int] = []
    beta_survives = False

    for k in range(top_index_bound, 0, -1):
        steps.append(
            DerivationStep(
                rule=RULE_TOP_INDEX_ASSUMED,
                top_index=k,
                polys={},
                conclusion=(
                    f"assume index {k} is the largest acting generator; "
                    f"indices above {k} act by zero"
                ),
            )
        )
        if not battery.all_violated:
            undecided.append(k)
            continue
        steps.append(
            DerivationStep(
                rule=RULE_DEL_INDEPENDENCE,
                top_index=k,
                polys={"bracket_only_probe_residual": symmetry_residual(LAM)},
                conclusion=(
                    "top action taken to depend on the bracket variable only "
                    "(imported; see caveats)"
                ),
            )
        )
        if k + p != 0:
            kill = _mu_zero_kill(
                p, k, degree_bound,
                f"top action at index {k} is zero: the coefficient "
                "system of the y = 0 instance has trivial kernel",
            )
            if kill is None:
                undecided.append(k)
            else:
                steps.append(kill)
            continue

        # k == -p: the identity degenerates to shift invariance.  The image
        # of 1 is zero, so the kernel holds the constants, and it is exactly
        # the constants when its dimension is 1.
        shifts = [(LAM + MU) ** j - MU**j for j in range(degree_bound + 1)]
        if _kernel_dim(shifts) != 1:
            undecided.append(k)
            continue
        coeff = _composed_identity_coefficient(p, k)
        steps.append(
            DerivationStep(
                rule=RULE_SHIFT_INVARIANCE_CONST,
                top_index=k,
                polys={"composed_identity_coefficient": coeff},
                conclusion=(
                    f"at index {k} = -p the identity forces shift-invariance; "
                    "bounded-degree kernel is exactly the constants, leaving "
                    "a constant action beta"
                ),
            )
        )
        if k == 1:
            beta_survives = True
            continue

        # Constant survivor at index k >= 2: kill indices 1..k-1 first,
        # then play the bracket relation between indices 1 and k-1.
        for i in range(1, k):
            kill = _mu_zero_kill(
                p, i, degree_bound, f"index {i} action is zero below top index {k}"
            )
            if kill is None:
                undecided.append(k)
                break
            steps.append(kill)
        else:
            relation = _block_entry(p, 1, k - 1)
            # At k = -p the cross relation is -x - (1+p) y; its x coefficient
            # is -1, so the normalized coefficient x + (1+p) y never vanishes.
            normalized = -relation.substitute(Var.PARTIAL, -(LAM + MU))
            steps.append(
                DerivationStep(
                    rule=RULE_CROSS_RELATION_KILL,
                    top_index=k,
                    polys={
                        "bracket_relation": relation,
                        "relation_coefficient": normalized,
                    },
                    conclusion=(
                        f"the index (1, {k-1}) bracket relation forces "
                        "beta = 0: the surviving constant dies"
                    ),
                )
            )
        continue

    families = [
        FamilyPattern(
            tag=FAMILY_PLAIN,
            description=(
                "index-zero generator acts by p*(D + delta*x + alpha); "
                "higher generators act by zero"
            ),
            irreducible_iff="delta != 0",
        )
    ]
    if beta_survives:
        families = [
            FamilyPattern(
                tag=FAMILY_BETA,
                description=(
                    "index-zero generator acts by -(D + delta*x + alpha); "
                    "index-one generator acts by the constant beta; higher "
                    "generators act by zero"
                ),
                irreducible_iff="delta != 0 or beta != 0",
            )
        ]
    return ClassificationReport(
        alg=alg,
        top_index_bound=top_index_bound,
        degree_bound=degree_bound,
        families=families,
        steps=steps,
        battery=battery,
        caveats=[CAVEAT_DEL_INDEPENDENCE, CAVEAT_PER_INDEX, CAVEAT_FREENESS],
        undecided=undecided,
    )


_GRID = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]
_BETA_GRID = [Fraction(0), Fraction(1), Fraction(-2)]

#: The parameter grid of :func:`verify_report`, as certificates state it.
SELF_CHECK_GRID = "delta, alpha in {%s}; beta in {%s}" % tuple(
    ", ".join(map(str, grid)) for grid in (_GRID, _BETA_GRID))


#: Each irreducibility condition a family may claim, as a test on ``(delta, beta)``.
_CONDITIONS = {
    "delta != 0": lambda delta, beta: delta != 0,
    "delta != 0 or beta != 0": lambda delta, beta: delta != 0 or beta != 0,
}


def verify_report(report: ClassificationReport) -> bool:
    """Independently re-check a classification report.

    Re-instantiates every claimed family over the report's algebra on a
    rational parameter grid, runs the module axiom checker and the
    irreducibility dichotomy, and replays the bolt-on falsification fixture:
    the constant extension must pass the axioms iff the parameter is ``-1``.
    Empty family lists fail, and so do an unknown family or irreducibility
    condition and a module on which the irreducibility criterion and the
    submodule search disagree.
    """
    if not report.families:
        return False
    alg, p = report.alg, report.p
    expected_tag = FAMILY_BETA if p == -1 else FAMILY_PLAIN
    if all(fam.tag != expected_tag for fam in report.families):
        return False

    for fam in report.families:
        condition = _CONDITIONS.get(fam.irreducible_iff)
        if fam.tag not in (FAMILY_PLAIN, FAMILY_BETA) or condition is None:
            return False
        betas = _BETA_GRID if fam.tag == FAMILY_BETA else [Fraction(0)]
        for delta in _GRID:
            for alpha in _GRID:
                for beta in betas:
                    mod = rank_one_module(alg, delta, alpha, beta)
                    if not check_module(alg, mod).ok:
                        return False
                    verdict = is_irreducible_rank_one(mod)
                    if not verdict.agreed or verdict.irreducible != condition(delta, beta):
                        return False

    # Bolt-on fixture: the constant extension with beta != 0 must fail the
    # axioms exactly when the parameter is not -1.
    probe = rank_one_module(alg, 1, 0, 5)
    probe_ok = check_module(alg, probe).ok
    if probe_ok != (p == -1):
        return False
    return True
