"""One repetition of one workload, in a fresh Python process.

`run.py` starts this file as `python3 perfbench/child.py CONFIG`, where CONFIG
is a JSON object with the keys `workload`, `seed`, `size` and `trace` (a path
for the span file, or null for an untraced run), and optionally
`setup_only`, which ends the process at its first `cli.main` call so that a
run can sample the set-up more often than the whole workload.  A fresh process per
repetition matters: every engine cache is a module-level `lru_cache`, so a
second repetition in one process would measure cache hits no CLI user gets.

The process imports `currentfock` from the checkout's `src`, builds the argv
of the workload from the seed, then drives the program only through
`currentfock.cli.main(argv)`, one call at a time, and gates every output.
It prints one JSON line: the time of its first `cli.main` call, the solve
time up to the last verified output, its peak RSS, CPU time and garbage
collections, the gate verdict of every call, and either the host-speed
probe's samples of the set-up and the solve (`probe.py`) or, when traced,
the per-function totals.  A traced run takes no probe samples, which would
land in the self time of whatever function the alarm interrupts.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cache_counts(package):
    """hits and misses of every lru_cache in the traced modules."""
    from tracer import MODULES

    counts = {}
    for name in MODULES:
        module = getattr(package, name)
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                info = value.cache_info()
                counts["%s.%s" % (name, attr)] = {"hits": info.hits, "misses": info.misses}
    return counts


def main(argv):
    config = json.loads(argv[1])
    speed = None
    if not config["trace"]:
        speed = probe.Probe()
        speed.start()
    sys.path.insert(0, SRC)
    import currentfock
    from currentfock import cli

    if os.path.dirname(os.path.abspath(currentfock.__file__)) != os.path.join(SRC, "currentfock"):
        sys.stderr.write("currentfock was imported from %s, not from %s\n" % (currentfock.__file__, SRC))
        return 2
    import workloads

    calls = workloads.calls(config["workload"], config["seed"], config["size"])
    tracer = None
    if config["trace"]:
        from tracer import Tracer

        tracer = Tracer(currentfock)
        tracer.install()

    if speed is not None:
        setup_samples, setup_probe_s = speed.take()
    errors = []
    first = time.monotonic()
    if config.get("setup_only"):
        speed.stop()
        record = {
            "first_call": first,
            "errors": errors,
            "probe": {"setup_samples": setup_samples, "setup_probe_s": setup_probe_s},
        }
        sys.stdout.write(json.dumps(record) + "\n")
        return 0
    for call in calls:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(call.argv))
        except Exception as exc:  # a raised error is a failed call, not a crash of the run
            errors.append("raised %s: %s" % (type(exc).__name__, exc))
        else:
            errors.append(call.gate(rc, out.getvalue()))
    if speed is not None:
        solve_samples, solve_probe_s = speed.take()
    end = time.monotonic()
    if speed is not None:
        speed.stop()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "first_call": first,
        "solve_s": end - first,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "gc_collections": [gen["collections"] for gen in gc.get_stats()],
        "errors": errors,
    }
    if speed is not None:
        record["probe"] = {
            "setup_samples": setup_samples,
            "setup_probe_s": setup_probe_s,
            "solve_samples": solve_samples,
            "solve_probe_s": solve_probe_s,
        }
    if tracer is not None:
        record["totals"] = tracer.totals()
        record["caches"] = _cache_counts(currentfock)
        with open(config["trace"], "w") as handle:
            json.dump({"config": config, "spans": tracer.span_records()}, handle)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
