"""Check that two source trees give byte-identical bench reports.

Builds the bench inputs of the given workloads and seeds with
``bench/inputs.py``, then makes every call a bench round makes: each job's
certificate-producing command, ``verify`` on its certificate, and
``verify`` on the copy ``bench/checks.tamper`` makes false.  Every call
goes through ``thetagap.cli.main``, in one process per source tree, so
each tree imports only its own ``thetagap``.  Exit codes, reports and
error lines are compared with ``wall_time_s``, file paths and file digests
masked; the first difference is printed and the exit code is 1.

    python tools/report_identity.py OLD_SRC NEW_SRC [--workloads w,...] [--seeds 1-10]

OLD_SRC and NEW_SRC are ``src`` directories, for instance of a
``git archive`` of the parent commit and of this checkout.  The inputs are
built in each process, by the families of that process's tree.  A change
that alters a certificate on purpose fails here; that is what the check
is for, and why it is no CI gate.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("witness-batch", "metric-points", "l1-cuts")
# values that differ between runs or directories, not between trees
MASKS = (
    (re.compile(r'"wall_time_s": [0-9.e+-]+'), '"wall_time_s": <masked>'),
    (re.compile(r'"path": "(?:[^"\\]|\\.)*"'), '"path": <masked>'),
    (re.compile(r'"sha256": "[0-9a-f]*"'), '"sha256": <masked>'),
)


def _seeds(text: str) -> list[int]:
    """``3``, ``1-10`` or ``1,4,7`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _masked(text: str, workdir: Path) -> str:
    """The text with wall times, paths and digests masked, and the working
    directory named alike in both trees."""
    for pattern, replacement in MASKS:
        text = pattern.sub(replacement, text)
    return text.replace(str(workdir), "<dir>")


def collect(src: str, workloads: list[str], seeds: list[int], workdir: Path) -> list[list[str]]:
    """[call label, masked outcome] for every call, in order, importing
    ``thetagap`` from ``src``."""
    sys.path[:0] = [str(Path(src).resolve()), str(BENCH)]
    import checks
    from inputs import build
    from thetagap import cli

    records: list[list[str]] = []

    def call(label: str, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is an outcome to compare too
                code = -1
                err.write(f"raised {type(exc).__name__}: {exc}\n")
        records.append([label, _masked(f"exit {code}\n{out.getvalue()}{err.getvalue()}", workdir)])

    for workload in workloads:
        for seed in seeds:
            here = workdir / f"{workload}-{seed}"
            inputs = build(workload, seed)
            inputs.write(here)
            for k, job in enumerate(inputs.jobs):
                label = f"{workload} seed {seed} job {k} ({job.name})"
                graph = str(here / job.graph)
                cert_path, bad_path = here / f"{k}.cert.json", here / f"{k}.tampered.json"
                argv = [job.command, graph]
                if job.points:
                    argv += ["--points", str(here / job.points)]
                call(f"{label} produce", [*argv, *job.args, "--out", str(cert_path)])
                call(f"{label} verify", ["verify", str(cert_path), graph])
                try:
                    cert = json.loads(cert_path.read_text())["certificate"]
                except (OSError, ValueError, KeyError, TypeError):
                    continue  # nothing to tamper with; the produce record shows why
                bad_path.write_text(json.dumps({"certificate": checks.tamper(cert)}))
                call(f"{label} tamper", ["verify", str(bad_path), graph])
    return records


def compare(old: list[list[str]], new: list[list[str]]) -> int:
    for (label, a), (label_b, b) in zip(old, new):
        if label != label_b:
            print(f"call lists differ: {label!r} against {label_b!r}")
            return 1
        if a != b:
            print(f"{label}: reports differ")
            diff = difflib.unified_diff(a.splitlines(), b.splitlines(), "old", "new", lineterm="")
            print("\n".join(list(diff)[:40]))
            return 1
    if len(old) != len(new):
        print(f"call counts differ: {len(old)} against {len(new)}")
        return 1
    print(f"{len(old)} reports identical")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    # internal: collect the records of one tree into a file
    parser.add_argument("--collect", metavar="RECORDS", help=argparse.SUPPRESS)
    args = parser.parse_args()
    workloads, seeds = args.workloads.split(","), _seeds(args.seeds)
    if args.collect:
        records = collect(args.old_src, workloads, seeds, Path(args.collect).parent)
        Path(args.collect).write_text(json.dumps(records))
        return 0
    if args.new_src is None:
        parser.error("give two src directories")
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, src in (("old", args.old_src), ("new", args.new_src)):
            (Path(tmp) / name).mkdir()
            records = Path(tmp) / name / "records.json"
            subprocess.run(
                [sys.executable, __file__, src, "--workloads", args.workloads,
                 "--seeds", args.seeds, "--collect", str(records)],
                check=True,
            )
            runs.append(json.loads(records.read_text()))
    return compare(*runs)


if __name__ == "__main__":
    sys.exit(main())
