"""One benchmark run of one workload, in this process (started by run.py).

Set-up imports thetagap from the checkout's ``src``, makes one warm-up call
per command on tiny inputs, and writes the seeded inputs; two probe
processes of this script do the same first, for a median.  The timed phase
then runs whole rounds of the workload's jobs: each job produces a
certificate through ``thetagap.cli.main``, ``verify`` re-checks it, and
``verify`` also sees a tampered copy that it must reject.  Every output is
checked against this directory's own computations, outside the timings.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Import and warm-up happen once per process, so set-up runs SETUP_RUNS
# times, all but the run's own in fresh probe processes, and the median counts.
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 60

# Command times are reported in units of a fixed calibration kernel, one
# kernel run counting as REFERENCE_S seconds.  The host's other tenants can
# halve this machine's speed for a minute at a time, so a kernel runs right
# before and after every timed call, and a call is scaled by the median of
# the kernel runs within its own duration of either end.
REFERENCE_S = 0.01
WINDOW_MARGIN_S = 0.05
# Set-up is calibrated the same way, phase by phase, against this many
# kernel runs on either side of each phase.
SETUP_KERNELS = 5

END_TO_END = {
    "setup_s": "s",
    "witness_s": "s",
    "negtype_s": "s",
    "gap_s": "s",
    "l1_s": "s",
    "verify_s": "s",
    "certs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer time metric -> traced functions whose self times it sums
LAYER_TIMES = {
    "graphio.load_s": ("graphio.loads_graph", "graphio.loads_points"),
    "core.distance_matrix_s": ("core.distance_matrix",),
    "core.metric_check_s": ("core.metric_check",),
    "theta.minimal_theta_s": ("theta.minimal_theta",),
    "witness.construct_witness_s": ("witness.construct_witness",),
    "analysis.is_negative_type_s": ("analysis.is_negative_type",),
    "analysis.psd_decompose_s": ("analysis.psd_decompose",),
    "analysis.gamma_s": ("analysis.gamma",),
    "analysis.gap_bracket_s": ("analysis.gap_bracket",),
    "l1cut.is_l1_embeddable_s": ("l1cut.is_l1_embeddable",),
    "l1cut.certificate_check_s": ("l1cut.certificate_check",),
    "cli.self_s": ("cli.main",),
}
LAYER_COUNTS = {
    "core.distance_matrix_calls": "core.distance_matrix",
    "theta.minimal_theta_calls": "theta.minimal_theta",
    "analysis.psd_decompose_calls": "analysis.psd_decompose",
    "analysis.psd_decompose_from_l1cut_calls": "analysis.psd_decompose_from_l1cut",
    "analysis.gamma_calls": "analysis.gamma",
}

# Tiny warm-up inputs: a path of 12 points (enough to reach the float LP)
# with a unit theta hanging off it.
WARM_GRAPH = {
    "vertices": [f"p{i}" for i in range(12)] + ["a"],
    "edges": [{"id": f"q{i}", "ends": [f"p{i}", f"p{i + 1}"], "length": "1"} for i in range(11)]
    + [{"id": f"r{i}", "ends": ["p0", "a"], "length": "1"} for i in range(3)],
}
WARM_POINTS = {"points": [{"vertex": f"p{i}"} for i in range(12)]}


def kernel_seconds() -> float:
    """Wall time of a fixed stretch of exact-rational and dict work (~10 ms)."""
    t0 = perf_counter()
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 700):
        acc += Fraction(i, 7 * i + 3) * Fraction(3, i + 1)
        table[i % 61] = table.get(i % 61, 0) + i
    if acc <= 0 or len(table) != 61:
        raise RuntimeError("calibration kernel miscomputed")
    return perf_counter() - t0


@dataclass
class TimedCall:
    kind: str  # witness, negtype, gap, l1 or verify
    job: str
    start: float
    end: float
    spans: dict[str, float]  # traced self seconds added during the call


ACCEPTED_TAMPER = "verify accepted the tampered copy"


def is_known_fault(command: str, op: str, reason: str) -> bool:
    """verify never re-derives a gap bracket's upper end, so it accepts the
    tampered copy (exit 0, valid true).  Only that failure is excused."""
    return command == "gap" and op == "tamper" and reason == ACCEPTED_TAMPER


def reported_valid(out: str):
    """The "valid" field of a verify report, or None if there is none."""
    try:
        return json.loads(out).get("valid")
    except (ValueError, AttributeError):
        return None


class Runner:
    """Calls the CLI in-process; records, times and checks each operation."""

    def __init__(self, workdir: Path, inputs, tracer=None):
        from thetagap import cli

        self.cli = cli
        self.dir = workdir
        self.inputs = inputs
        self.tracer = tracer
        self.timed: list[TimedCall] = []
        self.kernels: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.attempted = 0
        self.failures: list[tuple] = []  # (job, operation, reason)
        self._verdicts: dict[str, str] = {}
        self._geometry: dict[str, object] = {}

    def _kernel(self) -> None:
        t0 = perf_counter()
        seconds = kernel_seconds()
        self.kernels.append((t0 + seconds / 2, seconds))

    def call(self, argv: list[str], timed: bool) -> tuple[int, str, str, float, float, dict]:
        """(exit code, stdout, stderr, start, end, span deltas) of one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        if timed:
            # start from no garbage, as a fresh CLI process would
            gc.collect()
            self._kernel()
        spans = dict(self.tracer.self_s) if timed and self.tracer is not None else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            if spans is not None:
                code = self.tracer.command(lambda: self.cli.main(argv))
            else:
                code = self.cli.main(argv)
            t1 = perf_counter()
        if timed:
            self._kernel()
        delta = {k: v - spans.get(k, 0.0) for k, v in self.tracer.self_s.items()} if spans is not None else {}
        return code, out.getvalue(), err.getvalue(), t0, t1, delta

    def factors(self) -> list[float]:
        """Per timed call: REFERENCE_S over the median kernel time near it."""
        stamps = [t for t, _ in self.kernels]
        out = []
        for c in self.timed:
            reach = c.end - c.start + WINDOW_MARGIN_S
            lo, hi = bisect_left(stamps, c.start - reach), bisect_right(stamps, c.end + reach)
            out.append(REFERENCE_S / statistics.median(s for _, s in self.kernels[lo:hi]))
        return out

    def _fail(self, job, op: str, reason: str) -> None:
        self.failures.append((job, op, reason))

    def _op(self, job, op: str, argv: list[str], want: set[int]):
        """One CLI call; (exit code, stdout) when it exits as wanted, else None."""
        self.attempted += 1
        try:
            code, out, err, t0, t1, spans = self.call(argv, timed=op != "tamper")
        except Exception:  # a crash of the program is a failed operation
            self._fail(job, op, traceback.format_exc().strip().splitlines()[-1])
            return None
        if code not in want:
            self._fail(job, op, f"exit code {code}: {err.strip()[-200:]}")
            return None
        if op != "tamper":
            self.timed.append(TimedCall(job.command if op == "produce" else "verify", job.name, t0, t1, spans))
        return code, out

    def _check(self, job, cert: dict) -> None:
        """Independent checks, run once per distinct certificate of a job."""
        import checks

        key = hashlib.sha256(f"{job.name}\n{json.dumps(cert, sort_keys=True)}".encode()).hexdigest()
        if key not in self._verdicts:
            self._verdicts[key] = ""
            try:
                if job.graph not in self._geometry:
                    self._geometry[job.graph] = checks.Geometry(self.inputs.graphs[job.graph])
                geo = self._geometry[job.graph]
                points = self.inputs.points.get(job.points)
                if job.command == "witness":
                    checks.check_witness(geo, cert)
                elif job.command == "negtype":
                    checks.check_negtype(geo, points, cert, job.expect)
                elif job.command == "gap":
                    checks.check_gap(geo, points, cert, job.probes)
                else:
                    checks.check_l1(geo, points, cert, job.expect)
            except (checks.CheckFailure, KeyError, TypeError, ValueError) as exc:
                self._verdicts[key] = f"{type(exc).__name__}: {exc}"
        if self._verdicts[key]:
            raise checks.CheckFailure(self._verdicts[key])

    def run_job(self, job) -> None:
        """Produce, verify, and tamper-verify: always three operations."""
        import checks

        stem = job.name.replace(" ", "_").replace(".json", "")
        cert_path = self.dir / f"{stem}.cert.json"
        bad_path = self.dir / f"{stem}.tampered.json"
        cert_path.unlink(missing_ok=True)
        graph = str(self.dir / job.graph)
        argv = [job.command, graph]
        if job.points:
            argv += ["--points", str(self.dir / job.points)]
        argv += [*job.args, "--out", str(cert_path)]

        cert = None
        produced = self._op(job, "produce", argv, {0} if job.command in ("witness", "gap") else {0, 1})
        if produced is not None:
            try:
                cert = json.loads(cert_path.read_text())["certificate"]
                holds = cert.get("verdict", cert.get("feasible", True))
                checks.require(produced[0] == (0 if holds else 1), "exit code contradicts the verdict")
                self._check(job, cert)
            except (checks.CheckFailure, KeyError, TypeError, ValueError) as exc:
                self._fail(job, "produce", str(exc))
                cert = None

        verified = self._op(job, "verify", ["verify", str(cert_path), graph], {0})
        if verified is not None and reported_valid(verified[1]) is not True:
            self._fail(job, "verify", "report is not valid")

        if cert is None:
            self.attempted += 1
            self._fail(job, "tamper", "no certificate to tamper with")
            return
        bad_path.write_text(json.dumps({"certificate": checks.tamper(cert)}))
        rejected = self._op(job, "tamper", ["verify", str(bad_path), graph], {0, 1})
        if rejected is not None:
            code, valid = rejected[0], reported_valid(rejected[1])
            if code == 0 and valid is True:
                self._fail(job, "tamper", ACCEPTED_TAMPER)
            elif code != 1 or valid is not False:
                self._fail(job, "tamper", f"exit code {code} with valid {valid!r}")


def _warm_up(workdir: Path) -> None:
    """One call per command on tiny inputs; loads everything loaded lazily."""
    from thetagap import cli

    warm = workdir / "warmup"
    warm.mkdir()
    graph, points = warm / "graph.json", warm / "points.json"
    graph.write_text(json.dumps(WARM_GRAPH))
    points.write_text(json.dumps(WARM_POINTS))
    calls = [
        ["witness", str(graph)],
        ["negtype", str(graph), "--points", str(points)],
        ["gap", str(graph), "--points", str(points)],
        ["l1", str(graph), "--points", str(points), "--out", str(warm / "l1.json")],
        ["verify", str(warm / "l1.json"), str(graph)],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in calls:
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up call {argv[0]} failed")


def set_up(workload: str, seed: int, workdir: Path):
    """Import, warm-up, and input generation and writing.  Returns the inputs
    and each phase's wall and calibrated seconds, with their calibrated sum."""
    from inputs import build

    def import_thetagap() -> None:
        sys.path.insert(0, str(ROOT / "src"))
        import thetagap.cli

        if not Path(thetagap.cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"thetagap was imported from {thetagap.cli.__file__}, not this checkout")

    def generate():
        inputs = build(workload, seed)
        inputs.write(workdir)
        return inputs

    workdir.mkdir(parents=True, exist_ok=True)
    marks = [[kernel_seconds() for _ in range(SETUP_KERNELS)]]
    walls, results = [], []
    for phase in (import_thetagap, lambda: _warm_up(workdir), generate):
        t0 = perf_counter()
        results.append(phase())
        walls.append(perf_counter() - t0)
        marks.append([kernel_seconds() for _ in range(SETUP_KERNELS)])
    scaled = [
        wall * REFERENCE_S / statistics.median(before + after)
        for wall, before, after in zip(walls, marks, marks[1:])
    ]
    return results[-1], {"wall": walls, "calibrated": scaled, "setup_s": sum(scaled)}


def probe_set_up(args, workdir: Path) -> dict:
    """One set-up in a fresh process of this script."""
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-probe", str(workdir),
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", type=Path, help="only set up, in this directory")
    args = parser.parse_args()

    if args.setup_probe is not None:
        sys.stdout.write(json.dumps(set_up(args.workload, args.seed, args.setup_probe)[1]) + "\n")
        return 0
    workdir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    setups = [probe_set_up(args, workdir / f"setup{i}") for i in range(1, SETUP_RUNS)]
    inputs, own = set_up(args.workload, args.seed, workdir)
    setups.append(own)
    setup_s = statistics.median(s["setup_s"] for s in setups)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(workdir, inputs, tracer)

    # timed phase: whole rounds, at least two so that every input has two
    # samples, then stopping at the round end nearest --seconds
    rounds = 0
    start = perf_counter()
    while True:
        for job in inputs.jobs:
            runner.run_job(job)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= 2 and elapsed + elapsed / rounds / 2 >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    seconds: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
    wall: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
    layer_s: defaultdict[str, float] = defaultdict(float)
    for call, factor in zip(runner.timed, runner.factors()):
        seconds[(call.kind, call.job)].append((call.end - call.start) * factor)
        wall[(call.kind, call.job)].append(call.end - call.start)
        for key, value in call.spans.items():
            layer_s[key] += value * factor

    def mean(kind: str) -> float:
        values = [x for (k, _), v in seconds.items() if k == kind for x in v]
        return statistics.fmean(values) if values else 0.0

    produced = sum(len(v) for (k, _), v in seconds.items() if k != "verify")
    e2e = {
        "setup_s": setup_s,
        "witness_s": mean("witness"),
        "negtype_s": mean("negtype"),
        "gap_s": mean("gap"),
        "l1_s": mean("l1"),
        "verify_s": mean("verify"),
        "certs_per_s": produced / sum(sum(v) for v in seconds.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "args": vars(args),
        "setup_s": setups,
        "rounds": rounds,
        "phase_wall_s": elapsed,
        "command_s_per_round": sum(sum(v) for v in seconds.values()) / rounds,
        "failures": [f"{job.name} [{op}]: {reason}" for job, op, reason in runner.failures],
        "op_seconds": {f"{kind} {name}": v for (kind, name), v in sorted(seconds.items())},
        "op_wall_seconds": {f"{kind} {name}": v for (kind, name), v in sorted(wall.items())},
        "timeline": {
            "calls": [[c.kind, c.job, c.start, c.end] for c in runner.timed],
            "kernels": runner.kernels,
        },
        "end_to_end": e2e,
    }
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = {
            name: {"value": sum(layer_s[k] for k in keys) / rounds, "unit": "s"}
            for name, keys in LAYER_TIMES.items()
        }
        metrics.update(
            {name: {"value": tracer.calls[key] // rounds, "unit": "count"} for name, key in LAYER_COUNTS.items()}
        )
        raw["trace"] = {
            "self_s_per_round": {k: v / rounds for k, v in sorted(layer_s.items())},
            "calls_per_round": {k: v / rounds for k, v in sorted(tracer.calls.items())},
            "traced_command_s_per_round": layer_s["command"] / rounds,
            "accounted_s_per_round": sum(v for k, v in layer_s.items() if k != "command") / rounds,
        }
    unexpected = [(job, op) for job, op, why in runner.failures if not is_known_fault(job.command, op, why)]
    result = {
        "correct": not unexpected,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    raw["result"] = result
    (workdir / "result.json").write_text(json.dumps(raw, indent=2) + "\n")
    for line in raw["failures"]:
        sys.stderr.write(f"failed: {line}\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
