"""Seeded CLI argv for each benchmark workload, and the exact gate on each output.

A workload is a list of `Call`s: one `currentfock` argv and the gate that its
exit code and stdout must pass.  The seed picks only the rational parameters
(the level L, the highest weight Lambda, the evaluation point C) from fixed
pools of small-height rationals.  The truncations are fixed, so the pinned
work counts below hold for every seed; the default seed reproduces the values
of the acceptance tests.

Every workload is closed-loop: one process makes one call at a time, with
`--threads 1`.  Rationals are passed as `--flag=value`, since argparse reads a
separate token such as `-1/3` as an option.
"""

from __future__ import annotations

import json
import random
from functools import partial
from typing import Callable, NamedTuple

DEFAULT_SEED = 0

LEVEL_POOL = ("1", "1/2", "-2", "2", "-1", "-1/2", "1/3", "3", "2/3", "-3/2")
# Lambda is the zero-mode eigenvalue, so it scales every zero-mode coefficient:
# a fractional Lambda makes field-eval0 about a tenth slower than the
# acceptance value 1, so the pool keeps every seed in that integral cost class.
LAMBDA_POOL = ("1", "-1", "2", "-2", "3", "-3")
# C = +-1 has no Casimir and C = 0 kills the Jordan coupling, so neither is here.
C_POOL = ("1/3", "1/2", "2", "-1/3", "-1/2", "1/4", "2/3", "3", "-2", "3/2")

ACCEPTANCE = {"levels": ("1", "1/2", "-2"), "lam": "1", "c": "1/3"}

# Truncations per workload: the full size the benchmark measures, and a tiny
# size that takes the same path in well under a second (used by the self-tests).
# `states` pins states_checked per invocation, keyed by d where it depends on d.
SIZES = {
    "virasoro-adjoint": {
        "full": {"wt": 5, "nwt": 3, "m": "-1..3", "n": "-1..3", "states": {1: 3675, 2: 21175}},
        "tiny": {"wt": 2, "nwt": 1, "m": "-1..1", "n": "-1..1", "states": {1: 63, 2: 144}},
    },
    "field-eval0": {
        "full": {"a_wt": 3, "a_nwt": 2, "n": "-1..2", "k": "-3..3", "wt": 3, "nwt": 2,
                 "states": 16128},
        "tiny": {"a_wt": 1, "a_nwt": 1, "n": "0..1", "k": "-1..1", "wt": 2, "nwt": 1,
                 "states": 126},
    },
    "dims-d2": {
        "full": {"p": 10, "q": 6, "enum_total": 183479},
        "tiny": {"p": 4, "q": 2, "enum_total": 201},
    },
    "vacuum-jordan": {
        "full": {"wt": 4, "nwt": 3, "dimension": 2},
        "tiny": {"wt": 2, "nwt": 1, "dimension": 2},
    },
}

WORKLOADS = tuple(SIZES)


class Call(NamedTuple):
    """One CLI invocation and the gate its (exit code, stdout) must pass.

    The gate returns None when the output is exactly right, else the reason.
    """

    argv: list
    gate: Callable[[int, str], "str | None"]


def parameters(seed):
    """The rational parameters for a seed; the default seed gives the acceptance values."""
    if seed == DEFAULT_SEED:
        return dict(ACCEPTANCE)
    rng = random.Random(seed)
    return {
        "levels": tuple(rng.sample(LEVEL_POOL, 3)),
        "lam": rng.choice(LAMBDA_POOL),
        "c": rng.choice(C_POOL),
    }


def calls(workload, seed, size="full"):
    """The CLI calls of one workload for a seed, in the order they run."""
    p = parameters(seed)
    t = SIZES[workload][size]
    if workload == "virasoro-adjoint":
        return [
            Call(
                ["verify", "virasoro", "--d", str(d), "--l=" + level,
                 "--max-wt", str(t["wt"]), "--max-nwt", str(t["nwt"]),
                 "--m-range=" + t["m"], "--n-range=" + t["n"],
                 "--threads", "1", "--format", "json"],
                partial(gate_report, "virasoro", t["states"][d]),
            )
            for d in (1, 2)
            for level in p["levels"]
        ]
    if workload == "field-eval0":
        return [
            Call(
                ["verify", "field-commutator", "--kind", "evaluation", "--c", "0",
                 "--lambda=" + p["lam"],
                 "--a-max-wt", str(t["a_wt"]), "--a-max-nwt", str(t["a_nwt"]),
                 "--n-range=" + t["n"], "--k-range=" + t["k"],
                 "--max-wt", str(t["wt"]), "--max-nwt", str(t["nwt"]),
                 "--threads", "1", "--format", "json"],
                partial(gate_report, "field-commutator", t["states"]),
            )
        ]
    if workload == "dims-d2":
        return [
            Call(
                ["dims", "--d", "2", "--max-p", str(t["p"]), "--max-q", str(t["q"]),
                 "--threads", "1", "--format", "json"],
                partial(gate_dims, t["p"], t["q"], t["enum_total"]),
            )
        ]
    if workload == "vacuum-jordan":
        return [
            Call(
                ["module", "vacuum", "--kind", "evaluation", "--d", "2", "--c=" + p["c"],
                 "--lambda", "1,1", "--H", "[[[1,1],[0,1]],[[1,0],[0,1]]]",
                 "--max-wt", str(t["wt"]), "--max-nwt", str(t["nwt"]),
                 "--threads", "1", "--format", "json"],
                partial(gate_vacuum, t["dimension"]),
            )
        ]
    raise ValueError("unknown workload %r" % workload)


def _parse(rc, out):
    if rc != 0:
        raise _GateError("exit code %r" % rc)
    try:
        return json.loads(out)
    except ValueError:
        raise _GateError("stdout is not one JSON document")


class _GateError(Exception):
    pass


def _gated(check):
    """Turn a check that raises _GateError into a gate that returns the reason."""

    def gate(*args):
        try:
            check(*args)
        except _GateError as err:
            return str(err)
        except (KeyError, TypeError, AttributeError) as err:
            return "malformed output: %r" % err
        return None

    gate.__name__ = check.__name__
    return gate


@_gated
def gate_report(identity, states, rc, out):
    """An identity sweep: defect exactly zero over exactly the pinned state count."""
    report = _parse(rc, out)
    if report["identity"] != identity:
        raise _GateError("identity %r, expected %r" % (report["identity"], identity))
    if report["defect_zero"] is not True or report["max_defect"] != "0":
        raise _GateError("nonzero defect %r" % report["max_defect"])
    if report["counterexample"] is not None:
        raise _GateError("counterexample reported")
    if report["states_checked"] != states:
        raise _GateError("states_checked %r, pinned %d" % (report["states_checked"], states))


@_gated
def gate_dims(max_p, max_q, enum_total, rc, out):
    """The dimension table: enum = dp = gf_product on every row, pinned sum of enum."""
    rows = _parse(rc, out)["rows"]
    if len(rows) != (max_p + 1) * (max_q + 1):
        raise _GateError("%d rows, expected %d" % (len(rows), (max_p + 1) * (max_q + 1)))
    for row in rows:
        if not row["enum"] == row["dp"] == row["gf_product"]:
            raise _GateError("row (%d, %d) disagrees" % (row["m"], row["n"]))
    total = sum(row["enum"] for row in rows)
    if total != enum_total:
        raise _GateError("sum of enum %d, pinned %d" % (total, enum_total))


@_gated
def gate_vacuum(dimension, rc, out):
    """The vacuum space: the pinned dimension, every basis state in bigrade (0, 0)."""
    payload = _parse(rc, out)
    if payload["dimension"] != dimension or len(payload["basis"]) != dimension:
        raise _GateError("dimension %r, expected %d" % (payload["dimension"], dimension))
    for state in payload["basis"]:
        if not state or any(term["mono"] != [] for term in state):
            raise _GateError("basis state outside bigrade (0, 0)")
