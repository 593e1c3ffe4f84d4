"""Seeded command lists for the confal benchmark, with predicted verdicts.

A workload is a fixed list of ``python -m confal`` invocations.  The seed
only picks parameters from fixed pools of small-height rationals, so every
seed gives a load of the same shape; the pools within one slot were chosen
so that they do the same amount of work (no entry of the bracket table
vanishes, and the resonance case of a subquotient stays the same).

Every invocation carries the verdict the mathematics predicts, which the
runner checks on every seed:

* the bracket family ``B(p)``, the quotients ``b(n)`` and the handwritten
  tables pass skew-symmetry and Jacobi; ``hv-misprint`` fails skew-symmetry
  on exactly one pair;
* the plain rank-one family ``M:<delta>:<alpha>`` passes the module
  identity; the beta family ``Mb:`` passes it iff ``p = -1``;
* a loaded copy of a ``B(p)`` table hashes to the same structure digest as
  the built-in table;
* a subquotient ``G(p; k, N)`` lands in the resonance case that the
  eigenvalues ``i - p*m`` predict;
* usage errors exit 2 and print no certificate.

Input files (``file:`` algebras and modules) are written by
:func:`write_inputs` from the seed, before anything is timed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("conformal-ladder", "mode-algebra", "small-certs")

# Positive non-integers: no entry (i+p)D + (i+j+2p)x of the table vanishes,
# so every p in the pool walks the same triples with the same term counts.
POSITIVE = ("1/2", "3/2", "5/2", "1/3", "2/3", "4/3", "5/3")
# G(p; 6, 10) whose top resonance i - p*m = 0 sits below the index cap.
G_BELOW_INDEX = ("1/2", "1/3", "1/4")
# G(p; 6, 10) whose top resonance sits on the index cap, below the mode cap.
G_BELOW_MODE = ("2/3", "3/4", "3/2")
SMALL = ("1/2", "-1/2", "2", "-3", "1/3", "3/4", "-2/5", "5/2")
NONZERO = ("1", "2", "-1", "3", "1/2", "-2/3")

VERIFY_ALGEBRA = ("structure_table", "skew_symmetry", "jacobi_identity")
CLASSIFY = ("classification", "falsification_battery", "self_check")
SUBQUOTIENT = (
    "bracket_table", "lie_axioms", "resonance_analysis", "ideal_structure", "characters",
)
MODE_EXPANSION = ("bracket_table", "lie_axioms")

# Relative to the checkout root; the runner runs every command from there.
ALGEBRA_FILE = "perfbench/_work/inputs/algebra.json"
MODULE_FILE = "perfbench/_work/inputs/module.json"
SCALAR_MODULE_FILE = "perfbench/_work/inputs/scalar_module.json"
OUT_DIR = "perfbench/_work/out"


@dataclass(frozen=True)
class Invocation:
    """One command line and the verdict it must produce.

    ``statuses`` lists the result blocks of the certificate in order, as
    ``(name, status)``; it is empty for a usage error (exit 2, no
    certificate).  ``failures`` pins the failure count of some blocks.
    ``same_table_as`` names an earlier invocation whose structure digest the
    certificate must repeat.  ``resonance`` is the predicted resonance case.
    """

    argv: tuple[str, ...]
    exit: int
    statuses: tuple[tuple[str, str], ...] = ()
    out: str | None = None
    failures: tuple[tuple[str, int], ...] = ()
    same_table_as: int | None = None
    resonance: str | None = None


def _passing(names: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    return tuple((n, "PASS") for n in names)


def _p(value: str) -> str:
    # argparse reads a lone "-1/2" as an option name, so pass "--p=-1/2".
    return f"--p={value}"


def resonance_case(p: str, k: int, n: int) -> str:
    """Predicted case of ``G(p; k, N)``: zeros of ``i - p*m`` on the grid."""
    q = Fraction(p)
    if q <= 0:
        return "P_NOT_POSITIVE_RATIONAL"
    hits = [(i, m) for i in range(k + 1) for m in range(n + 1)
            if (i, m) != (0, 0) and i == q * m]
    if not hits:
        return "NO_RESONANCE"
    i0, m0 = max(hits)
    if i0 < k:
        return "RESONANCE_BELOW_INDEX_CAP"
    if m0 < n:
        return "RESONANCE_BELOW_MODE_CAP"
    return "RESONANCE_AT_CORNER"


def _rat(text: str) -> str:
    return f"({Fraction(text)})"


@dataclass
class _Builder:
    rng: random.Random
    items: list[Invocation] = field(default_factory=list)

    def pick(self, pool: tuple[str, ...], *avoid: str) -> str:
        return self.rng.choice([v for v in pool if v not in avoid])

    def add(self, inv: Invocation) -> int:
        self.items.append(inv)
        return len(self.items) - 1

    def algebra(self, *args: str, out: str | None = None,
                same_table_as: int | None = None) -> int:
        argv = ("verify-algebra",) + args + (("--out", out) if out else ())
        return self.add(Invocation(
            argv, 0, _passing(VERIFY_ALGEBRA), out=out, same_table_as=same_table_as,
        ))

    def module(self, *args: str, ok: bool = True, free: bool = True,
               out: str | None = None) -> int:
        argv = ("verify-module",) + args + (("--out", out) if out else ())
        statuses = (
            ("skew_symmetry", "PASS"),
            ("jacobi_identity", "PASS"),
            ("module_identity", "PASS" if ok else "FAIL"),
            ("irreducibility", "PASS" if free else "UNDECIDED"),
        )
        return self.add(Invocation(argv, 0 if ok else 1, statuses, out=out))

    def classify(self, *args: str, out: str | None = None) -> int:
        argv = ("classify",) + args + (("--out", out) if out else ())
        return self.add(Invocation(argv, 0, _passing(CLASSIFY), out=out))

    def subquotient(self, p: str, k: int, n: int, out: str | None = None) -> int:
        argv = ("annihilation", _p(p), "--G", "--k", str(k), "--N", str(n))
        argv += ("--out", out) if out else ()
        return self.add(Invocation(
            argv, 0, _passing(SUBQUOTIENT), out=out, resonance=resonance_case(p, k, n),
        ))

    def expansion(self, p: str, idx: int, mode: int, extended: bool) -> int:
        argv = ("annihilation", _p(p), "--idx", str(idx), "--mode", str(mode))
        names = MODE_EXPANSION
        if extended:
            argv += ("--extended",)
            names += ("centrality",)
        return self.add(Invocation(argv, 0, _passing(names)))

    def usage_error(self, *argv: str) -> int:
        return self.add(Invocation(tuple(argv), 2))


def _file_inputs(rng: random.Random) -> dict:
    """Seeded parameters of the ``file:`` inputs, shared by every workload."""
    return {
        "p": rng.choice(POSITIVE),
        "window": 3,
        "delta": rng.choice(SMALL),
        "alpha": rng.choice(SMALL),
        "scalar_alpha": rng.choice(SMALL),
    }


def write_inputs(root: Path, seed: int) -> dict:
    """Write the seeded algebra and module files; return their parameters.

    The algebra file is the table of ``B(p)`` on ``L_0..L_window`` written
    from its closed form, and the module file the plain rank-one action
    ``p (D + delta x + alpha)`` of ``L_0``, so the program reads a table it
    did not build itself.
    """
    params = _file_inputs(random.Random(f"files-{seed}"))
    p, w = Fraction(params["p"]), params["window"]
    structure = {}
    for i in range(w + 1):
        for j in range(w + 1 - i):
            structure[f"{i},{j}"] = {str(i + j): f"{_rat(str(i + p))}*D + {_rat(str(i + j + 2 * p))}*x"}
    algebra = {
        "format": "confal-algebra", "name": f"B({p}) from file", "kind": "block",
        "window": w, "p": str(p), "policy": "truncate",
        "generators": [f"L_{i}" for i in range(w + 1)], "structure": structure,
    }
    d, a = Fraction(params["delta"]), Fraction(params["alpha"])
    module = {
        "format": "confal-module", "kind": "free", "rank": 1,
        "action": {"0,0": {"0": f"{_rat(str(p))}*D + {_rat(str(p * d))}*x + {_rat(str(p * a))}"}},
    }
    scalar = {"format": "confal-module", "kind": "scalar_del", "alpha": params["scalar_alpha"]}
    for rel, data in ((ALGEBRA_FILE, algebra), (MODULE_FILE, module),
                      (SCALAR_MODULE_FILE, scalar)):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (root / OUT_DIR).mkdir(parents=True, exist_ok=True)
    return params


def _touch_other_layers(b: _Builder) -> None:
    """Four tiny invocations so that every traced layer does some work.

    The ladders otherwise leave whole layers idle; these keep every
    per-layer time a measured number while costing a small share of a pass.
    """
    b.module(f"--alg=file:{ALGEBRA_FILE}", f"--mod=file:{MODULE_FILE}")
    b.expansion(b.pick(POSITIVE), 2, 2, extended=True)
    b.subquotient(b.pick(G_BELOW_INDEX), 2, 3)
    b.classify("--bn", "2", "--D", "2")


def conformal_ladder(b: _Builder, files: dict) -> None:  # noqa: ARG001
    big = b.pick(POSITIVE)
    b.algebra("--alg", "block", _p(big), "--window", "24")
    b.algebra("--alg", "block", _p(b.pick(POSITIVE, big)), "--window", "16")
    b.algebra("--alg", "bn", "--n", "8")
    b.module("--alg", "block", _p(b.pick(POSITIVE)), "--window", "12",
             f"--mod=M:{b.pick(SMALL)}:{b.pick(SMALL)}")
    _touch_other_layers(b)


def mode_algebra(b: _Builder, files: dict) -> None:  # noqa: ARG001
    b.expansion(b.pick(POSITIVE), 10, 10, extended=True)
    b.subquotient(b.pick(G_BELOW_INDEX), 6, 10)
    b.subquotient(b.pick(G_BELOW_MODE), 6, 10)
    _touch_other_layers(b)


def _out(name: str) -> str:
    return f"{OUT_DIR}/{name}.json"


def small_certs(b: _Builder, files: dict) -> None:
    pick = b.pick
    p = pick(POSITIVE)
    # verify-algebra: every selector, the FAIL path, files and --out.
    for alg in ("vir", "hv", "sv"):
        b.algebra("--alg", alg)
    b.add(Invocation(
        ("verify-algebra", "--alg", "hv-misprint"), 1,
        (("structure_table", "PASS"), ("skew_symmetry", "FAIL"), ("jacobi_identity", "FAIL")),
        failures=(("skew_symmetry", 1),),
    ))
    table = b.algebra("--alg", "block", _p(files["p"]), "--window", str(files["window"]))
    b.algebra(f"--alg=file:{ALGEBRA_FILE}", same_table_as=table)
    b.algebra("--alg", "file", "--file", ALGEBRA_FILE, same_table_as=table)
    b.algebra("--alg", "block", _p(pick(SMALL)), "--window", "5", "--policy", "error")
    b.algebra("--alg", "block", _p(p), "--window", "6", out=_out("block"))
    b.algebra("--alg", "bn", "--n", pick(("2", "3", "4")))
    # verify-module: each family, the beta FAIL path, files and --out.
    b.module("--alg", "block", _p(p), "--window", "4", f"--mod=M:{pick(SMALL)}:{pick(SMALL)}")
    b.module("--alg", "bn", "--n", "3", f"--mod=M:{pick(SMALL)}:{pick(SMALL)}")
    beta = f"--mod=Mb:{pick(SMALL)}:{pick(SMALL)}:{pick(NONZERO)}"
    b.module("--alg", "block", "--p=-1", "--window", "3", beta)
    b.module("--alg", "block", _p(pick(SMALL, "-1")), "--window", "3", beta, ok=False)
    b.module("--alg", "block", _p(p), "--window", "3", f"--mod=trivial:{pick(SMALL)}", free=False)
    b.module("--alg", "vir", f"--mod=trivial:{pick(SMALL)}", free=False)
    b.module(f"--alg=file:{ALGEBRA_FILE}", f"--mod=file:{MODULE_FILE}")
    b.module("--alg", "block", _p(files["p"]), "--window", "3",
             f"--mod=file:{SCALAR_MODULE_FILE}", free=False)
    b.module("--alg", "block", _p(p), "--window", "3", f"--mod=M:{pick(SMALL)}:{pick(SMALL)}",
             "--degree-bound", "2", out=_out("module"))
    # classify: the three fixed replays, seeded ones and --out.
    b.classify("--p", "-1")
    b.classify("--p", "2", "--K", "12", "--D", "12")
    b.classify("--bn", "3")
    b.classify(_p(pick(SMALL, "-1")), "--K", "4", "--D", "4")
    b.classify("--bn", pick(("2", "4")), "--D", "4", out=_out("classify"))
    # annihilation: mode expansion, every resonance case, --out.
    b.expansion(pick(SMALL), 3, 3, extended=False)
    b.expansion(pick(SMALL), 3, 3, extended=True)
    b.subquotient(pick(G_BELOW_INDEX), 3, 6)
    b.subquotient(pick(("1", "2/3")), 4, 6)
    b.subquotient("3/5", 3, 5)
    b.subquotient(pick(("7/11", "8/9")), 3, 4)
    b.subquotient(pick(("-1/2", "-2")), 3, 4, out=_out("subquotient"))
    # Usage errors (exit 2), from argparse and from the CLI's own checks.
    b.usage_error("verify-algebra", "--alg", "block", _p(p))
    b.usage_error("verify-algebra", "--alg", "nosuch")
    b.usage_error("verify-module", "--alg", "block", _p(p), "--window", "2", "--mod", "Q:1")
    b.usage_error("verify-module", "--alg", "vir")
    b.usage_error("classify", _p(p), "--bn", "3")
    b.usage_error("annihilation", _p(p), "--G", "--k", "3")
    b.usage_error("annihilation", "--p", "0", "--idx", "2", "--mode", "2")
    # Small seeded tables that round the pass off at 42 invocations.
    for window in (2, 3, 4):
        b.algebra("--alg", "block", _p(pick(SMALL)), "--window", str(window))
    b.module("--alg", "bn", "--n", "2", f"--mod=M:{pick(SMALL)}:{pick(SMALL)}")


BUILDERS = {
    "conformal-ladder": conformal_ladder,
    "mode-algebra": mode_algebra,
    "small-certs": small_certs,
}


def build(workload: str, seed: int, files: dict) -> list[Invocation]:
    """The workload's command list for ``seed``; ``files`` from :func:`write_inputs`."""
    b = _Builder(random.Random(f"{workload}-{seed}"))
    BUILDERS[workload](b, files)
    return b.items
