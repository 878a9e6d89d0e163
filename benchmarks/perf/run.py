"""One perf harness for the offline, request and data paths.

Run one workload (a fresh process per workload under ``all``)::

    python3 benchmarks/perf/run.py --workload serve-thread --seed 1
    python3 benchmarks/perf/run.py --workload all --seed 0 --seconds 10
    python3 benchmarks/perf/run.py --workload fit-generate --seed 2 --trace 1 \\
        --spans spans.jsonl

Every metric is printed as ``name value unit (n=samples)``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  The exit
code is non-zero when a correctness check fails.  Each run is written to
``results/runs/`` and appended to ``results/history.jsonl`` (``--results
DIR`` puts both under another directory).

Compare two run sets (history tags or git-sha prefixes, or JSONL files)::

    python3 benchmarks/perf/run.py compare base head
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
HISTORY = RESULTS / "history.jsonl"
WORK = HERE / ".work"

WORKLOADS = ("fit-locmatcher", "fit-generate", "serve-thread", "serve-process",
             "stream-ingest")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _prepare_imports() -> None:
    """Make ``repro`` (from this checkout's ``src``) importable.

    Scratch files of the program and of ``tempfile`` stay inside the
    checkout, under the benchmark's own work directory.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perf harness: no repro package under {src}")
    sys.path.insert(0, str(src))
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)


def _runner(name: str):
    if name.startswith("fit-"):
        import workload_fit as module
    elif name.startswith("serve-"):
        import workload_serve as module
    else:
        import workload_stream as module
    return module.run


def _fmt(metrics: dict) -> dict:
    return {k: {"value": v[0], "unit": v[1], "n": v[2]} for k, v in metrics.items()}


def run_one(args: argparse.Namespace, spec: dict) -> int:
    from harness import peak_rss_mb

    from repro.obs import git_sha

    traced = args.trace == 1
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    t0 = time.time()
    try:
        out = _runner(args.workload)(args.workload, args.seed, args.seconds, traced,
                                     workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.e2e["peak_rss_mb"] = (peak_rss_mb(out.children_peak_kb), "MB", 1)

    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, unit in declared_e2e.items():
        got = out.e2e.get(name)
        out.check(got is not None and got[1] == unit,
                  f"end-to-end metric {name} missing or not in {unit}")
    if traced:
        for name, unit in declared_layers.items():
            # A layer this workload does not exercise did no work here.
            got = out.layers.setdefault(name, (0, unit, 0))
            out.check(got[1] == unit, f"per-layer metric {name} is not in {unit}")
        undeclared = set(out.layers) - set(declared_layers)
        out.check(not undeclared, f"undeclared per-layer metrics: {sorted(undeclared)}")
        if args.spans:
            with open(args.spans, "w") as fh:
                for row in out.spans:
                    fh.write(json.dumps(row) + "\n")

    for group in (out.e2e, out.layers, out.extra):
        for name, (value, unit, n) in sorted(group.items()):
            print(f"{name} {value:.6g} {unit} (n={n})")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")

    entry = {
        "ts": t0,
        # Only ask git inside a git checkout: it would search parent directories.
        "git_sha": git_sha() if (ROOT / ".git").exists() else None,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tag": args.tag,
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "metrics": _fmt({**out.e2e, **out.layers, **out.extra}),
    }
    results = pathlib.Path(args.results)
    (results / "runs").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(t0))
    run_file = results / "runs" / f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}.json"
    run_file.write_text(json.dumps({**entry, "rounds": out.rounds}, indent=1) + "\n")
    with open(results / HISTORY.name, "a") as fh:
        fh.write(json.dumps(entry, separators=(",", ":")) + "\n")

    shown = declared_layers if traced else declared_e2e
    source = out.layers if traced else out.e2e
    line = {
        "correct": out.correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": source[name][0], "unit": source[name][1]}
                    for name in shown if name in source},
    }
    print(json.dumps(line))
    return 0 if out.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, one after another."""
    codes = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results", args.results]
        if args.tag:
            cmd += ["--tag", args.tag]
        print(f"== {name}", flush=True)
        codes[name] = subprocess.run(cmd, check=False).returncode
    ok = all(code == 0 for code in codes.values())
    print(json.dumps({"correct": ok, "exit_codes": codes}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def _load_set(selector: str) -> list[dict]:
    """Runs of one set: a JSONL file, or history entries by tag / sha prefix."""
    path = pathlib.Path(selector)
    source = path if path.is_file() else HISTORY
    entries = []
    with open(source) as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn last line of an interrupted run
            if source is HISTORY and not (
                entry.get("tag") == selector
                or (entry.get("git_sha") or "").startswith(selector)
            ):
                continue
            if entry.get("trace") == 0 and entry.get("correct"):
                entries.append(entry)
    return entries


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a_sel: str, b_sel: str, spec: dict) -> int:
    """Median and quartiles per metric for two run sets, with a verdict.

    A metric regresses when B's median is worse than A's by more than its
    ``BENCHMARK.json`` bound.  When A's own spread (quartile distance over
    median) exceeds the bound, the verdict is "unresolved".
    """
    sets = {"A": _load_set(a_sel), "B": _load_set(b_sel)}
    workloads = sorted({e["workload"] for s in sets.values() for e in s})
    regressions = 0
    print(f"A = {a_sel} ({len(sets['A'])} runs), B = {b_sel} ({len(sets['B'])} runs)")
    header = f"{'workload':<15} {'metric':<17} {'A q1/med/q3':>28} {'B q1/med/q3':>28} " \
             f"{'worse':>8} {'bound':>6}  verdict"
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {k: [e["metrics"][name]["value"] for e in s
                          if e["workload"] == workload and name in e["metrics"]]
                      for k, s in sets.items()}
            if not values["A"] or not values["B"]:
                continue
            qa, qb = _quartiles(values["A"]), _quartiles(values["B"])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            fa = "/".join(f"{v:.4g}" for v in qa)
            fb = "/".join(f"{v:.4g}" for v in qb)
            print(f"{workload:<15} {name:<17} {fa:>28} {fb:>28} "
                  f"{100 * worse:>7.1f}% {100 * metric['bound']:>5.0f}%  {verdict}"
                  f"  (n={len(values['A'])}/{len(values['B'])})")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    spec = load_spec()
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run half untraced, half traced; print per-layer metrics")
    parser.add_argument("--spans", help="with --trace 1, write the spans to this JSONL file")
    parser.add_argument("--tag", help="label recorded in the history, for compare")
    parser.add_argument("--results", default=str(RESULTS),
                        help="directory of the history file and the per-run files")
    args = parser.parse_args(argv)
    _prepare_imports()
    if args.workload == "all":
        return run_all(args)
    from harness import adopt_orphans, end_children

    adopt_orphans()
    try:
        return run_one(args, spec)
    finally:
        killed = end_children()
        if killed:
            print(f"perf harness: killed leftover processes {killed}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
