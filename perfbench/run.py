"""Benchmark for the confal CLI: certificate wall times and a layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload conformal-ladder --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``conformal-ladder``, ``mode-algebra``,
``small-certs``.  The seed picks the parameters; the program receives only
the generated command lines and input files.

``--trace 0`` measures what a user waits for.  One client runs the
workload's command list as ``python -m confal`` subprocesses in a closed
loop -- the next command starts only after the previous one has exited --
and repeats the list ("a pass") until ``--seconds`` have elapsed.

* ``wall_s``: wall time of a pass, interpreter starts included;
* ``cpu_s``: user plus system CPU of the pass's child processes;
* ``peak_rss_mb``: the largest max-RSS of any child in a pass;
* ``cert_p50_s``: median wall time of one invocation;
* ``cert_p75_s``: nearest-rank 75th percentile of invocation wall time (on
  ``small-certs`` ten invocations of every pass lie beyond it; the ladders
  have too few invocations for a tail, so there it is the upper quartile);
* ``setup_s``: median wall time of fresh interpreters that run
  ``import confal.cli`` and exit -- the floor every certificate pays.

The first three are medians over the passes of the run; the two
percentiles pool the invocations of every pass.

``--trace 1`` gives per-layer numbers.  It runs one subprocess pass (the
reference certificate bytes), then runs every command three times in
process through ``confal.cli.main``: untraced, traced at the stage entry
points, and traced at the polynomial operations.  Times are self times
summed over the workload's commands.  The stage spans are written to
``perfbench/_work/trace-<workload>-seed<seed>.jsonl``.

Every invocation is checked: exit code and the verdict the mathematics
predicts on every seed, the pinned SHA-256 of the certificate for seed 0
(``expected.json``), and in a traced run that the in-process certificate
bytes equal the subprocess bytes.  ``attempted`` counts invocations and
``failed`` those that missed any check.  ``--pin`` rewrites
``expected.json`` from the current program.

The last line of standard output is the result object; the line before it
records the environment of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import LAYER_SPANS, POLY_SPANS, Tracer  # noqa: E402

WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"
PINNED_SEED = 0
SETUP_LAUNCHES = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import confal.cli; "
    "print(time.perf_counter() - t)"
)
# Every run must end well inside the three minutes a run is allowed.
DEADLINE_S = 170.0


class Run:
    """Settings and bookkeeping shared by the passes of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "CONFAL_SEED": "0"}
        self.files = workloads.write_inputs(ROOT, seed)
        self.invocations = workloads.build(workload, seed, self.files)
        self.pinned = self._pinned()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _pinned(self) -> list[dict] | None:
        if self.seed != PINNED_SEED or not EXPECTED.exists():
            return None
        return json.loads(EXPECTED.read_text())["workloads"].get(self.workload)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def launch(self, argv: list[str], stdout_path: Path) -> tuple[int, float, os.struct_rusage]:
        """Run one child to completion; return exit code, wall seconds, rusage."""
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def record(self, index: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                inv = self.invocations[index]
                self.problems.append(f"[{index}] {' '.join(inv.argv)}: {'; '.join(problems)}")


# -- checks ---------------------------------------------------------------------------


def certificate_bytes(inv: workloads.Invocation, stdout: bytes) -> bytes:
    if inv.out is None:
        return stdout
    path = ROOT / inv.out
    return path.read_bytes() if path.exists() else b""


def check(run: Run, index: int, code: int, stdout: bytes, cert: bytes,
          digests: dict[int, str]) -> list[str]:
    """Everything wrong with one invocation's outcome (empty if nothing)."""
    inv = run.invocations[index]
    problems = []
    if code != inv.exit:
        problems.append(f"exit {code}, expected {inv.exit}")
    if inv.out is not None and stdout:
        problems.append("printed to stdout despite --out")
    if run.pinned is not None:
        pin = run.pinned[index] if index < len(run.pinned) else None
        if pin is None or pin["argv"] != list(inv.argv):
            problems.append("command differs from the pinned list")
        elif pin["exit"] != code or pin["sha256"] != hashlib.sha256(cert).hexdigest():
            problems.append("certificate differs from the pinned digest")
    if inv.exit == 2:
        if cert:
            problems.append("usage error printed a certificate")
        return problems
    try:
        data = json.loads(cert)
        results = {r["name"]: r for r in data["results"]}
        statuses = tuple((r["name"], r["status"]) for r in data["results"])
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable certificate: {exc}"]
    if statuses != inv.statuses:
        problems.append(f"verdicts {statuses}, expected {inv.statuses}")
        return problems
    for name, count in inv.failures:
        got = len(results[name]["payload"]["failures"])
        if got != count:
            problems.append(f"{name}: {got} failures, expected {count}")
    if inv.resonance is not None:
        case = results["resonance_analysis"]["payload"]["case"]
        if case != inv.resonance:
            problems.append(f"resonance case {case}, expected {inv.resonance}")
    irr = results.get("irreducibility")
    if irr and irr["status"] == "PASS" and irr["payload"]["criterion"] != irr["payload"]["search"]:
        problems.append("irreducibility criterion and search disagree")
    if "structure_table" in results:
        digests[index] = results["structure_table"]["payload"]["sha256"]
        if inv.same_table_as is not None and digests.get(inv.same_table_as) != digests[index]:
            problems.append("loaded table hashes differently from the built-in one")
    return problems


# -- subprocess passes ----------------------------------------------------------------


def clear_outputs(run: Run) -> None:
    for inv in run.invocations:
        if inv.out is not None:
            (ROOT / inv.out).unlink(missing_ok=True)


def subprocess_pass(run: Run) -> tuple[dict, list[float], list[bytes]]:
    """One timed pass; checks run after the clock stops."""
    out_dir = WORK / "stdout"
    out_dir.mkdir(parents=True, exist_ok=True)
    clear_outputs(run)
    times, cpu, rss, codes = [], 0.0, 0, []
    start = time.perf_counter()
    for i, inv in enumerate(run.invocations):
        code, wall, usage = run.launch(
            [sys.executable, "-m", "confal", *inv.argv], out_dir / f"{i}.out")
        times.append(wall)
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)
        codes.append(code)
    wall_s = time.perf_counter() - start
    certs, digests = [], {}
    for i, inv in enumerate(run.invocations):
        stdout = (out_dir / f"{i}.out").read_bytes()
        cert = certificate_bytes(inv, stdout)
        certs.append(cert)
        run.record(i, check(run, i, codes[i], stdout, cert, digests))
    metrics = {"wall_s": wall_s, "cpu_s": cpu, "peak_rss_mb": rss / 1024.0}
    return metrics, times, certs


def median_launch(run: Run, argv: list[str], parse=None) -> float:
    """Median over several fresh interpreters of wall time (or of ``parse(stdout)``)."""
    values = []
    probe = WORK / "stdout" / "probe.out"
    probe.parent.mkdir(parents=True, exist_ok=True)
    for _ in range(SETUP_LAUNCHES):
        code, wall, _ = run.launch(argv, probe)
        if code != 0:
            raise SystemExit(f"perfbench: {' '.join(argv)} exited {code}")
        values.append(parse(probe.read_text()) if parse else wall)
    return statistics.median(values)


def warm_up(run: Run) -> None:
    """Compile bytecode and touch the input files; nothing here is timed."""
    out = WORK / "stdout" / "warmup.out"
    out.parent.mkdir(parents=True, exist_ok=True)
    run.launch([sys.executable, "-m", "confal", "verify-algebra",
                f"--alg=file:{workloads.ALGEBRA_FILE}"], out)


def measure(run: Run, seconds: float) -> dict:
    warm_up(run)
    setup_s = median_launch(run, [sys.executable, "-c", "import confal.cli"])
    passes, times = [], []
    start = time.monotonic()
    # Start another pass only if it is expected to end less than half a pass
    # past --seconds, and well before the deadline.
    while not passes or (time.monotonic() - start + 0.5 * passes[-1]["wall_s"] < seconds
                         and run.remaining() > 1.5 * passes[-1]["wall_s"]):
        metrics, pass_times, _ = subprocess_pass(run)
        passes.append(metrics)
        times += pass_times
        print(f"perfbench: pass {len(passes)}: " + ", ".join(
            f"{name} {value:.4f}" for name, value in metrics.items()), file=sys.stderr)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    # Invocation percentiles pool every pass of the run (nearest rank).
    times.sort()
    metrics["cert_p50_s"] = statistics.median(times)
    metrics["cert_p75_s"] = times[math.ceil(0.75 * len(times)) - 1]
    metrics["setup_s"] = setup_s
    units = {"wall_s": "s", "cpu_s": "s", "cert_p50_s": "s", "cert_p75_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}
    print(f"perfbench: {len(passes)} passes of {len(run.invocations)} invocations",
          file=sys.stderr)
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


# -- traced passes --------------------------------------------------------------------


def call_main(main, argv: list[str]) -> tuple[int, bytes, float]:
    """Run one command through ``main`` in this process: exit code, stdout, seconds."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, stdout.getvalue().encode("utf-8"), time.perf_counter() - start


def traced(run: Run) -> dict:
    warm_up(run)
    _, _, reference = subprocess_pass(run)
    import_s = median_launch(run, [sys.executable, "-c", IMPORT_PROBE], parse=float)

    os.environ.update(CONFAL_SEED="0")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import confal.cli

    # Each command runs untraced, then under the stage tracer, then under the
    # polynomial tracer, back to back, so that the overhead is measured on
    # pairs that see the same machine load.
    stage, poly = Tracer(keep_spans=True), Tracer(keep_spans=False)
    elapsed = {None: 0.0, "stage": 0.0, "poly": 0.0}
    digests: dict[str, dict[int, str]] = {key: {} for key in elapsed}
    for i, inv in enumerate(run.invocations):
        for key, tracer, spans in ((None, None, ()), ("stage", stage, LAYER_SPANS),
                                   ("poly", poly, POLY_SPANS)):
            clear_outputs(run)
            if tracer is not None:
                tracer.command = i
                tracer.install(spans)
            try:
                code, out, seconds = call_main(confal.cli.main, list(inv.argv))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            elapsed[key] += seconds
            cert = certificate_bytes(inv, out)
            problems = check(run, i, code, out, cert, digests[key])
            if cert != reference[i]:
                problems.append("in-process certificate differs from the subprocess one")
            run.record(i, problems)

    trace_file = WORK / f"trace-{run.workload}-seed{run.seed}.jsonl"
    with open(trace_file, "w", encoding="utf-8") as fh:
        for i, inv in enumerate(run.invocations):
            fh.write(json.dumps({"command": i, "argv": list(inv.argv)}) + "\n")
        for span in stage.span_records():
            fh.write(json.dumps(span) + "\n")

    values: dict[str, float | int] = {
        "cli.import_s": import_s,
        "cli.main_s": stage.total_s["cli.main"],
        "cli.self_s": stage.self_s["cli.main"],
    }
    for name in ("poly.mul", "poly.substitute", "poly.pow", "poly.add", "poly.divmod_in_var"):
        values[f"{name}.calls"] = poly.calls[name]
        values[f"{name}.self_s"] = poly.self_s[name]
    for name in sorted({n for n, _, _ in LAYER_SPANS} - {"cli.main"}):
        values[f"{name}.self_s"] = stage.self_s[name]
    for name in ("linalg.rref", "linalg.solve", "serialize.parse_poly"):
        values[f"{name}.calls"] = stage.calls[name]
    counts = stage.counts
    for name in ("conformal.pairs_checked", "conformal.triples_checked",
                 "annihilation.basis_size", "annihilation.triples_checked",
                 "annihilation.triples_excluded", "linalg.rref.cells"):
        values[name] = counts[name]
    rows = counts["linalg.rref.rows"]
    values["linalg.rref.distinct_row_frac"] = counts["linalg.rref.distinct_rows"] / rows
    values["linalg.rref.pivot_row_frac"] = counts["linalg.rref.pivots"] / rows
    named = sum(s for n, s in stage.self_s.items() if n != "cli.main")
    values["trace.coverage_frac"] = named / values["cli.main_s"]
    values["trace.overhead_frac"] = elapsed["stage"] / elapsed[None] - 1.0
    values["trace.poly_overhead_frac"] = elapsed["poly"] / elapsed[None] - 1.0
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


# -- environment and entry point --------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.exists() else None
    return ref


def environment() -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:  # not Linux
        cpuinfo = []
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), platform.processor())
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def pin() -> None:
    """Rewrite ``expected.json`` from the program as it is now."""
    pinned = {}
    for name in workloads.WORKLOADS:
        run = Run(name, PINNED_SEED)
        run.pinned = None
        _, _, certs = subprocess_pass(run)
        if run.failed:
            raise SystemExit("perfbench: not pinning, checks failed:\n" + "\n".join(run.problems))
        pinned[name] = [
            {"argv": list(inv.argv), "exit": inv.exit, "sha256": hashlib.sha256(c).hexdigest()}
            for inv, c in zip(run.invocations, certs)
        ]
    lines = [f'{{"seed": {PINNED_SEED}, "CONFAL_SEED": "0", "workloads": {{']
    for n, (name, entries) in enumerate(pinned.items()):
        lines.append(f" {json.dumps(name)}: [")
        lines += [f"  {json.dumps(e)}," for e in entries]
        lines[-1] = lines[-1].rstrip(",")
        lines.append(" ]," if n < len(pinned) - 1 else " ]")
    EXPECTED.write_text("\n".join(lines + ["}}"]) + "\n")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, inherited by every child, so set iteration
        # order -- and with it the traced work counts -- repeats run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "confal" / "cli.py").exists():
        print(f"perfbench: no confal sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    shutil.rmtree(WORK, ignore_errors=True)
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    env = environment()
    run = Run(args.workload, args.seed)
    metrics = traced(run) if args.trace else measure(run, args.seconds)
    env["loadavg_end"] = list(os.getloadavg())
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
