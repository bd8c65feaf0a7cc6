"""Benchmark of the currentfock CLI: four cold-process workloads with exact gates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a fresh Python process
(`child.py`) that drives the program only through `currentfock.cli.main(argv)`
and checks every output exactly.  The workloads, their argv and their gates
are in `workloads.py`; the metric names and units are read from the
checkout's `BENCHMARK.json`.

--trace 0 repeats the workload in fresh processes for about S seconds, and
reports the medians of the end-to-end metrics:

    solve_ref_s  time from the first cli.main call to the last verified output
    peak_rss_mb  peak resident memory of the process
    setup_s      process start, import and argv generation, up to the first call

The two times are in reference seconds: each process samples the host's
speed while it runs (`probe.py`) and its wall times are rescaled to one
fixed speed, since on a shared VM the wall time of the same code spreads by
a third.  The wall times themselves, the share of failed calls and the CPU
time are printed as ungated diagnostics.

--trace 1 runs the workload once untraced and twice traced (`tracer.py`),
requires every per-layer count to repeat exactly across the two traced runs,
and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The samples, the run context and the trace spans are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import reference_seconds  # noqa: E402

# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

# Processes that stop at the first cli.main call, started after each whole
# repetition: the set-up takes a tenth of a second and is noisier than the
# solve, so its median needs more samples than a run has repetitions.
SETUP_ONLY = 4

# The function whose inclusive share each workload was chosen for: at least
# half of its home workload and at most a fifth of every other.  Reported, not
# gated, since an optimisation of that function is meant to shrink its share.
DESIGN = {
    "virasoro-adjoint": "vertexops.l_apply",
    "field-eval0": "vertexops.vertex_mode",
    "dims-d2": "fock.enumerate_basis",
    "vacuum-jordan": "exactmath.rank_nullspace",
}
HOME_SHARE, AWAY_SHARE = 0.5, 0.2

# Per-layer stats that are counts; they must repeat exactly across traced runs.
COUNT_STATS = ("calls", "terms_out", "monomials", "cells", "zero_frac", "hits", "misses")


class RunError(Exception):
    """The benchmark could not measure; no result is printed."""


def spawn(workload, seed, size, trace_path, deadline, setup_only=False):
    """One fresh-process repetition; returns its record, or raises RunError."""
    config = {"workload": workload, "seed": seed, "size": size, "trace": trace_path,
              "setup_only": setup_only}
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(config)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("%s repetition timed out" % workload)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(
            "%s repetition exited %d: %s" % (workload, proc.returncode, err.strip()[-2000:])
        )
    record = json.loads(lines[-1])
    record["setup_wall_s"] = record["first_call"] - started
    record["wall_s"] = time.monotonic() - started
    speed = record.get("probe")
    if speed is not None:
        record["setup_ref_s"] = reference_seconds(
            record["setup_wall_s"], speed["setup_samples"], speed["setup_probe_s"]
        )
    if not setup_only and speed is not None:
        record["solve_ref_s"] = reference_seconds(
            record["solve_s"], speed["solve_samples"], speed["solve_probe_s"]
        )
    return record


def quartiles(values):
    """(q1, median, q3) of the samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def git_sha():
    """The commit of the checkout, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    """Digest of the program's sources, which names the measured code in any checkout."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "currentfock")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def context(workload, seed, trace):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "parameters": workloads.parameters(seed),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def tally(records):
    attempted = sum(len(r["errors"]) for r in records)
    errors = [e for r in records for e in r["errors"] if e is not None]
    return attempted, errors


def measure(workload, seed, seconds, size):
    """--trace 0: repeat in fresh processes for `seconds`; medians of the end-to-end metrics."""
    start = time.monotonic()
    records, setups, rounds = [], [], []
    while True:
        began = time.monotonic()
        records.append(spawn(workload, seed, size, None, start + RUN_LIMIT_S))
        setups += [
            spawn(workload, seed, size, None, start + RUN_LIMIT_S, setup_only=True)
            for _ in range(SETUP_ONLY)
        ]
        rounds.append(time.monotonic() - began)
        # Stop when the next round would end more than half a round after
        # `seconds`, so that a run lasts `seconds` on average.
        if time.monotonic() - start + statistics.median(rounds) / 2 > seconds:
            break
    attempted, errors = tally(records)
    summary = {}
    # (printed name, record field, unit); the first three are the end-to-end metrics.
    fields = [
        ("solve_ref_s", "solve_ref_s", "s"),
        ("peak_rss_mb", "peak_rss_mb", "MB"),
        ("setup_s", "setup_ref_s", "s"),
        ("solve_wall_s", "solve_s", "s"),
        ("setup_wall_s", "setup_wall_s", "s"),
        ("cpu_s", "cpu_s", "s"),
    ]
    lines = []
    for name, field, unit in fields:
        samples = [r[field] for r in (records + setups if field.startswith("setup") else records)]
        q1, q2, q3 = summary[name] = quartiles(samples)
        lines.append(
            "%-16s median %.6g %s (q1 %.6g, q3 %.6g, n=%d)" % (name, q2, unit, q1, q3, len(samples))
        )
    for k in range(3, len(lines)):
        lines[k] += "  diagnostic, ungated"
    lines.append(
        "%-16s %.6g (%d of %d calls)"
        % ("ops_failed_frac", len(errors) / attempted, len(errors), attempted)
    )
    values = {name: q2 for name, (q1, q2, q3) in summary.items()}
    return records, attempted, errors, [], values, lines


def layer_values(record, main_s):
    """Per-layer metric values of one traced record, keyed `<module>.<function>.<stat>`."""

    def value(name):
        key, stat = name.rsplit(".", 1)
        if stat in ("hits", "misses"):
            return record["caches"].get(key, {}).get(stat, 0)
        row = record["totals"].get(key, {})
        if stat == "zero_frac":
            return row["zero"] / row["calls"] if row.get("calls") else 0.0
        if stat == "incl_frac":
            return row.get("incl_s", 0.0) / main_s
        return row.get(stat, 0)

    return value


def measure_traced(workload, seed, size, names):
    """--trace 1: one untraced and two traced repetitions; the per-layer metrics."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    untraced = spawn(workload, seed, size, None, deadline)
    traced = [
        spawn(workload, seed, size, os.path.join(OUT, "spans-%s-seed%d-%d.json" % (workload, seed, k)), deadline)
        for k in (1, 2)
    ]
    attempted, errors = tally([untraced] + traced)
    mismatches = []
    readers = [layer_values(r, r["totals"]["cli.main"]["incl_s"]) for r in traced]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = statistics.median(r["solve_s"] for r in traced) - untraced["solve_s"]
        elif name == "process.cpu_s":
            values[name] = untraced["cpu_s"]
        elif name == "process.solve_wall_s":
            values[name] = untraced["solve_s"]
        else:
            got = [read(name) for read in readers]
            if name.rsplit(".", 1)[1] in COUNT_STATS:
                if got[0] != got[1]:
                    mismatches.append("%s differs across two traced runs: %r" % (name, got))
                values[name] = got[0]
            else:
                values[name] = statistics.median(got)
    lines = []
    for home, fn in DESIGN.items():
        share = readers[0](fn + ".incl_frac")
        want_home = home == workload
        ok = share >= HOME_SHARE if want_home else share <= AWAY_SHARE
        lines.append(
            "design: %s takes %.3f of the run inclusive (want %s %.1f) %s"
            % (fn, share, ">=" if want_home else "<=", HOME_SHARE if want_home else AWAY_SHARE,
               "ok" if ok else "NOT MET")
        )
    return [untraced] + traced, attempted, errors, mismatches, values, lines


def run(workload, seed, seconds, trace, size="full"):
    """Measure one workload; returns (result object, human-readable lines, record)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    ctx = context(workload, seed, trace)
    if trace:
        measured = measure_traced(workload, seed, size, list(units))
    else:
        measured = measure(workload, seed, seconds, size)
    records, attempted, errors, mismatches, values, lines = measured
    result = {
        "correct": not errors and not mismatches,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    ctx["samples"] = len(records)
    problems = errors + mismatches
    record = {"context": ctx, "result": result, "errors": problems, "samples": records}
    lines = ["context: " + json.dumps(ctx, sort_keys=True)] + lines
    lines += ["error: " + e for e in problems[:20]]
    return result, lines, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "currentfock", "__init__.py")):
        sys.stderr.write("perfbench: no program at %s\n" % os.path.join(ROOT, "src", "currentfock"))
        return 2
    try:
        result, lines, record = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
