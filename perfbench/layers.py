"""Outside-in layer trace: timing wrappers around confal's public functions.

Nothing inside the package is changed.  :class:`Tracer` replaces each
traced function with a wrapper, in every ``confal`` module that binds it,
and each traced method on its class; :meth:`Tracer.uninstall` puts the
originals back.  A wrapper records one span (name, start, end, parent span,
command id) in memory and adds the span's self time -- its duration minus
that of its child spans -- to a per-name total.  The wrapper's own
bookkeeping is excluded from both the span and its parent's self time.

Two sets of spans exist.  ``LAYER_SPANS`` are the stage entry points; the
``POLY_SPANS`` wrap polynomial arithmetic, which runs hundreds of thousands
of times per command, so they are traced in a pass of their own where only
per-name totals are kept.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

# (span name, defining module, attribute).  A name may cover several functions.
LAYER_SPANS = (
    ("cli.main", "confal.cli", "main"),
    ("conformal.make_block", "confal.conformal", "make_block"),
    ("conformal.check_skew", "confal.conformal", "check_skew"),
    ("conformal.check_jacobi", "confal.conformal", "check_jacobi"),
    ("annihilation.build_annihilation", "confal.annihilation", "build_annihilation"),
    ("annihilation.annihilation_subquotient", "confal.annihilation", "annihilation_subquotient"),
    ("annihilation.check_lie", "confal.annihilation", "check_lie"),
    ("annihilation.check_central", "confal.annihilation", "check_central"),
    ("annihilation.resonance_analysis", "confal.annihilation", "resonance_analysis"),
    ("annihilation.ideal_and_nilpotency", "confal.annihilation", "ideal_and_nilpotency"),
    ("annihilation.characters", "confal.annihilation", "characters"),
    ("linalg.rref", "confal.linalg", "rref"),
    ("linalg.rank", "confal.linalg", "rank"),
    ("linalg.nullspace", "confal.linalg", "nullspace"),
    ("linalg.solve", "confal.linalg", "solve"),
    ("modules.check_module", "confal.modules", "check_module"),
    ("modules.is_irreducible_rank_one", "confal.modules", "is_irreducible_rank_one"),
    ("classify.classify_rank_one", "confal.classify", "classify_rank_one"),
    ("classify.classify_bn", "confal.classify", "classify_bn"),
    ("classify.verify_report", "confal.classify", "verify_report"),
    ("serialize.load_json", "confal.serialize", "load_json"),
    ("serialize.algebra_from_dict", "confal.serialize", "algebra_from_dict"),
    ("serialize.module_from_dict", "confal.serialize", "module_from_dict"),
    ("serialize.parse_poly", "confal.serialize", "parse_poly"),
    ("certificates.to_json", "confal.certificates", "Certificate.to_json"),
    ("certificates.table_hash", "confal.certificates", "conformal_table_hash"),
    ("certificates.table_hash", "confal.certificates", "lie_table_hash"),
)

POLY_SPANS = (
    ("poly.mul", "confal.poly", "Poly.__mul__"),
    ("poly.mul", "confal.poly", "Poly.__rmul__"),
    ("poly.add", "confal.poly", "Poly.__add__"),
    ("poly.add", "confal.poly", "Poly.__radd__"),
    ("poly.pow", "confal.poly", "Poly.__pow__"),
    ("poly.substitute", "confal.poly", "Poly.substitute"),
    ("poly.divmod_in_var", "confal.poly", "divmod_in_var"),
)


def _rref_rows(tracer: Tracer, args: tuple) -> tuple:
    """Count the cells and distinct rows fed to ``rref``."""
    rows = args[0] if isinstance(args[0], list) else list(args[0])
    tracer.counts["linalg.rref.rows"] += len(rows)
    tracer.counts["linalg.rref.distinct_rows"] += len({tuple(r) for r in rows})
    tracer.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    return (rows,) + args[1:]


def _rref_rank(tracer: Tracer, result: Any) -> None:
    tracer.counts["linalg.rref.pivots"] += len(result[1])


def _count_attr(key: str, attr: str) -> Callable[[Tracer, Any], None]:
    def after(tracer: Tracer, result: Any) -> None:
        tracer.counts[key] += getattr(result, attr)
    return after


def _basis_size(tracer: Tracer, result: Any) -> None:
    tracer.counts["annihilation.basis_size"] += len(result.basis)


def _lie_counts(tracer: Tracer, result: Any) -> None:
    tracer.counts["annihilation.triples_checked"] += result.triples_checked
    tracer.counts["annihilation.triples_excluded"] += result.triples_excluded


BEFORE = {"linalg.rref": _rref_rows}
AFTER = {
    "linalg.rref": _rref_rank,
    "conformal.check_skew": _count_attr("conformal.pairs_checked", "pairs_checked"),
    "conformal.check_jacobi": _count_attr("conformal.triples_checked", "triples_checked"),
    "annihilation.build_annihilation": _basis_size,
    "annihilation.annihilation_subquotient": _basis_size,
    "annihilation.check_lie": _lie_counts,
}


class Tracer:
    """Records spans of one traced pass; install, run commands, uninstall."""

    def __init__(self, keep_spans: bool) -> None:
        self.stack: list[list] = []  # per open span: [child seconds, span id]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] | None = [] if keep_spans else None
        self.command = 0
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, self_s, total_s, calls = self.stack, self.self_s, self.total_s, self.calls
        before, after, tracer = BEFORE.get(name), AFTER.get(name), self

        def traced(*args: Any, **kwargs: Any) -> Any:
            enter = perf_counter()
            parent = stack[-1] if stack else None
            try:
                if before is not None:
                    args = before(tracer, args)
                span_id = tracer._next_id
                tracer._next_id += 1
                frame = [0.0, span_id]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    total_s[name] += end - start
                    self_s[name] += end - start - frame[0]
                    calls[name] += 1
                    if tracer.spans is not None:
                        tracer.spans.append((span_id, name, start, end,
                                             parent[1] if parent else None, tracer.command))
                if after is not None:
                    after(tracer, result)
                return result
            finally:
                # The parent sees this whole call, bookkeeping included, as
                # child time, so the bookkeeping lands in nobody's self time.
                if parent is not None:
                    parent[0] += perf_counter() - enter

        traced.__wrapped__ = fn
        return traced

    def install(self, spans: tuple[tuple[str, str, str], ...]) -> None:
        """Wrap every listed function wherever a ``confal`` module binds it."""
        confal_modules = [m for n, m in sorted(sys.modules.items())
                          if n == "confal" or n.startswith("confal.")]
        for name, module_name, path in spans:
            module = importlib.import_module(module_name)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                targets = [getattr(module, cls_name)]
                original = targets[0].__dict__[attr]
            else:
                original = module.__dict__[attr]
                targets = [m for m in confal_modules if m.__dict__.get(attr) is original]
            wrapped = self.wrap(name, original)
            for target in targets:
                self._restore.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "command": c}
            for i, n, s, e, p, c in self.spans or ()
        ]
