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
    ``-(k+p) x f(x) = 0``, whose coefficient system has only the zero
    solution (checked by exact linear algebra, not by inspection);
``SHIFT_INVARIANCE_CONST``
    for ``k = -p``, the identity degenerates to ``f(x+y) = f(y)``, whose
    kernel on bounded-degree polynomials is exactly the constants (again an
    exact kernel computation), surviving as the constant action ``beta``;
``CROSS_RELATION_KILL``
    for integer ``-p >= 2``, after the lower indices are killed the bracket
    relation between indices 1 and ``k - 1`` forces
    ``(x + (1+p) y) beta = 0``, so the constant dies too.

What survives: the plain family for every parameter except ``-1``, plus the
constant-action extension exactly at ``p = -1``.  Survivors are emitted with
their irreducibility conditions, and :func:`verify_report` re-instantiates
them on a parameter grid and replays the module axioms and the
irreducibility dichotomy against the report's own claims.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any

from . import linalg
from .conformal import TruncationPolicy, make_block, make_bn
from .modules import (
    FAMILY_BETA,
    FAMILY_PLAIN,
    check_module,
    is_irreducible_rank_one,
    rank_one_beta_module,
    rank_one_module,
)
from .poly import DEL, LAM, MU, Poly, Var

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


@dataclass
class DerivationStep:
    rule: str
    top_index: int
    polys: dict[str, Poly]
    conclusion: str


@dataclass
class FamilyPattern:
    tag: str
    description: str
    irreducible_iff: str


@dataclass
class ViolationCertificate:
    candidate: Poly
    residual: Poly
    witness_point: str


@dataclass
class BatteryResult:
    seed: int
    samples: int
    violations: int
    certificates: list[ViolationCertificate] = field(default_factory=list)

    @property
    def all_violated(self) -> bool:
        return self.samples == self.violations

    def to_payload(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "violations": self.violations,
            "certificates": [
                {
                    "candidate": str(c.candidate),
                    "witness_point": c.witness_point,
                    "residual_terms": sum(1 for _ in c.residual.terms()),
                }
                for c in self.certificates
            ],
        }


@dataclass
class ClassificationReport:
    algebra: str
    kind: str
    p: Fraction
    n: int | None
    top_index_bound: int
    degree_bound: int
    families: list[FamilyPattern]
    steps: list[DerivationStep]
    battery: BatteryResult
    caveats: list[str]
    undecided: list[int]

    def to_payload(self) -> dict[str, Any]:
        return {
            "algebra": self.algebra,
            "p": str(self.p),
            "top_index_bound": self.top_index_bound,
            "degree_bound": self.degree_bound,
            "families": [asdict(fam) for fam in self.families],
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


def _random_del_dependent(rng: random.Random, max_degree: int = 3) -> Poly:
    """A random polynomial in D and x with genuine D dependence."""
    while True:
        poly = Poly.zero()
        for dd in range(max_degree + 1):
            for dx in range(max_degree + 1):
                if rng.random() < 0.4:
                    coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    poly = poly + coeff * DEL**dd * LAM**dx
        if poly.degree_in(Var.PARTIAL) >= 1:
            return poly


def falsification_battery(seed: int, samples: int = 50) -> BatteryResult:
    """Sample translation-dependent candidates and certify each violation.

    Every candidate is expected to break the symmetry identity; the stored
    certificate carries the candidate, the full residual, and one rational
    witness point where the residual is nonzero.
    """
    rng = random.Random(seed)
    result = BatteryResult(seed=seed, samples=samples, violations=0)
    for _ in range(samples):
        candidate = _random_del_dependent(rng)
        residual = symmetry_residual(candidate)
        if residual.is_zero():
            continue
        witness = _nonzero_point(residual)
        result.violations += 1
        result.certificates.append(
            ViolationCertificate(
                candidate=candidate, residual=residual, witness_point=witness
            )
        )
    return result


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


def _mu_zero_kernel_dim(p: Fraction, index: int, degree_bound: int) -> int:
    """Exact kernel dimension of ``f(x) -> -(index+p) x f(x)`` on degree <= bound.

    By rank-nullity it is the number of coefficients less the rank.
    """
    rows = []
    # Coefficient of x^(e+1) in -(index+p) x f is -(index+p) f_e: one row per
    # output degree, diagonal system.
    scale = -(index + p)
    for out_deg in range(degree_bound + 2):
        row = []
        for j in range(degree_bound + 1):
            row.append(scale if out_deg == j + 1 else Fraction(0))
        rows.append(row)
    return degree_bound + 1 - linalg.rank(rows)


def shift_kernel(degree_bound: int) -> list[list[Fraction]]:
    """Kernel of ``f(x) -> f(x+y) - f(y)`` on polynomials of degree <= bound.

    Returns coefficient vectors over the monomial basis ``1, x, ..., x^bound``.
    The kernel is exactly the constants for every bound.
    """
    monomials: dict[tuple[int, ...], int] = {}
    columns: list[Poly] = []
    for j in range(degree_bound + 1):
        shifted = (LAM + MU) ** j - MU**j
        columns.append(shifted)
        for exp, _ in shifted.terms():
            monomials.setdefault(exp, len(monomials))
    rows = [
        [Fraction(0)] * (degree_bound + 1) for _ in range(len(monomials))
    ]
    for j, col in enumerate(columns):
        for exp, coeff in col.terms():
            rows[monomials[exp]][j] = coeff
    return linalg.nullspace(rows, degree_bound + 1)


def classify_rank_one(
    p: Fraction | int,
    top_index_bound: int = 6,
    degree_bound: int = 6,
    seed: int = 0,
) -> ClassificationReport:
    """Classify free rank-one modules over the bracket family at parameter ``p``."""
    p = Fraction(p)
    if p == 0:
        raise ValueError("the family parameter p must be nonzero")
    if top_index_bound < 1:
        raise ValueError(f"top index bound K must be >= 1, got {top_index_bound}")
    if degree_bound < 0:
        raise ValueError(f"degree bound D must be >= 0, got {degree_bound}")
    battery = falsification_battery(seed)
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
        coeff = _composed_identity_coefficient(p, k)
        if k + p != 0:
            killer = coeff.substitute(Var.MU, 0)
            kernel_dim = _mu_zero_kernel_dim(p, k, degree_bound)
            if kernel_dim != 0:
                undecided.append(k)
                continue
            steps.append(
                DerivationStep(
                    rule=RULE_MU_ZERO_KILL,
                    top_index=k,
                    polys={
                        "composed_identity_coefficient": coeff,
                        "mu_zero_coefficient": killer,
                    },
                    conclusion=(
                        f"top action at index {k} is zero: the coefficient "
                        "system of the y = 0 instance has trivial kernel"
                    ),
                )
            )
            continue

        # k == -p: the identity degenerates to shift invariance.
        kernel = shift_kernel(degree_bound)
        constants_only = len(kernel) == 1 and all(
            v == 0 for v in kernel[0][1:]
        )
        if not constants_only:
            undecided.append(k)
            continue
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
            coeff_i = _composed_identity_coefficient(p, i)
            killer_i = coeff_i.substitute(Var.MU, 0)
            kernel_dim = _mu_zero_kernel_dim(p, i, degree_bound)
            if kernel_dim != 0:
                undecided.append(k)
                break
            steps.append(
                DerivationStep(
                    rule=RULE_MU_ZERO_KILL,
                    top_index=i,
                    polys={
                        "composed_identity_coefficient": coeff_i,
                        "mu_zero_coefficient": killer_i,
                    },
                    conclusion=f"index {i} action is zero below top index {k}",
                )
            )
        else:
            source = make_block(
                p, max(k, 2), TruncationPolicy.TRUNCATE_TO_ZERO
            )
            relation = source.structure_of(1, k - 1).get(k, Poly.zero())
            cross = relation.substitute(Var.PARTIAL, -(LAM + MU))
            normalized = (
                -cross
                if cross.coeff_in(Var.LAMBDA, 1).constant() < 0
                else cross
            )
            if normalized.is_zero():
                undecided.append(k)
                continue
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
        algebra=f"B({p})",
        kind="block",
        p=p,
        n=None,
        top_index_bound=top_index_bound,
        degree_bound=degree_bound,
        families=families,
        steps=steps,
        battery=battery,
        caveats=[CAVEAT_DEL_INDEPENDENCE, CAVEAT_PER_INDEX, CAVEAT_FREENESS],
        undecided=undecided,
    )


def classify_bn(n: int, degree_bound: int = 6, seed: int = 0) -> ClassificationReport:
    """Classification over the windowed quotient: parameter ``-n``, top index ``n``."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    report = classify_rank_one(
        Fraction(-n), top_index_bound=n, degree_bound=degree_bound, seed=seed
    )
    report.algebra = f"b({n})"
    report.kind = "bn"
    report.n = n
    return report


_GRID = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]
_BETA_GRID = [Fraction(0), Fraction(1), Fraction(-2)]

#: The parameter grid of :func:`verify_report`, as certificates state it.
SELF_CHECK_GRID = "delta, alpha in {0, 1, -2, 1/2}; beta in {0, 1, -2}"


def _eval_condition(condition: str, delta: Fraction, beta: Fraction | None) -> bool:
    if condition == "delta != 0":
        return delta != 0
    if condition == "delta != 0 or beta != 0":
        return delta != 0 or (beta is not None and beta != 0)
    raise ValueError(f"unknown irreducibility condition {condition!r}")


def verify_report(report: ClassificationReport) -> bool:
    """Independently re-check a classification report.

    Re-instantiates every claimed family on a rational parameter grid, runs
    the module axiom checker and the irreducibility dichotomy, and replays
    the bolt-on falsification fixture: the constant extension must pass the
    axioms iff the parameter is ``-1``.  Empty family lists fail.
    """
    if not report.families:
        return False
    if report.kind == "bn":
        assert report.n is not None
        alg = make_bn(report.n)
    else:
        window = max(3, min(report.top_index_bound, 4))
        alg = make_block(report.p, window, TruncationPolicy.TRUNCATE_TO_ZERO)

    expected_tag = FAMILY_BETA if report.p == -1 else FAMILY_PLAIN
    if all(fam.tag != expected_tag for fam in report.families):
        return False

    for fam in report.families:
        for delta in _GRID:
            for alpha in _GRID:
                if fam.tag == FAMILY_PLAIN:
                    mods = [rank_one_module(alg, delta, alpha)]
                elif fam.tag == FAMILY_BETA:
                    mods = [
                        rank_one_beta_module(alg, delta, alpha, beta)
                        for beta in _BETA_GRID
                    ]
                else:
                    return False
                for mod in mods:
                    if not check_module(alg, mod).ok:
                        return False
                    assert mod.family is not None
                    verdict = is_irreducible_rank_one(mod)
                    expected = _eval_condition(
                        fam.irreducible_iff, delta, mod.family.beta
                    )
                    if verdict.irreducible != expected:
                        return False

    # Bolt-on fixture: the constant extension with beta != 0 must fail the
    # axioms exactly when the parameter is not -1.
    probe = rank_one_beta_module(alg, 1, 0, 5)
    probe_ok = check_module(alg, probe).ok
    if probe_ok != (report.p == -1):
        return False
    return True
