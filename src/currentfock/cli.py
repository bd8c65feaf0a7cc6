"""Command-line surface tying the verification suites and tables together.

Exit codes: 0 all checks pass, 1 a mathematical counterexample was found,
2 invalid configuration or usage.  All rationals are written "num/den";
matrices are JSON arrays of such strings.  Identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import lru_cache

from . import dims as dims_mod
from . import repcat, vertexops
from .exactmath import RatMatrix, rat, rat_str
from .fock import ModuleSpec, State, count_table, enumerate_basis
from .vertexops import Truncation

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


def _parse_range(flag, text):
    """Parse the value of a range flag, "3" or "-1..4", into an inclusive list of integers."""
    lo, dots, hi = text.strip().partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1)) if dots else [int(lo)]
    except ValueError:
        raise ConfigError("%s must be an integer or a range lo..hi, got %r" % (flag, text))
    if not values:
        raise ConfigError("%s is an empty range: %r" % (flag, text))
    return values


def _index_range(args, name):
    """The text and values of --{name}-range, or of the single --{name} that replaces it."""
    flag, text = "--" + name, getattr(args, name)
    if text is None:
        flag, text = flag + "-range", getattr(args, name + "_range")
    return text, _parse_range(flag, text)


def _parse_lambda(text):
    return tuple(rat(part.strip()) for part in text.split(","))


def _parse_flag(flag, parse, text):
    """parse(text) for a rational flag, --l, --c or --lambda; its error names the flag."""
    try:
        return parse(text)
    except ValueError as err:
        raise ConfigError("malformed %s: %s" % (flag, err))


def _parse_gen(text):
    """Parse --gen "i,j" into two integers."""
    try:
        i, j = (int(part) for part in text.split(","))
        return i, j
    except ValueError:
        raise ConfigError("--gen must be two integers i,j, got %r" % text)


def _decode_json(flag, text, build):
    """Build an object from the JSON value of a flag.

    The builders index into the decoded data, so a value of the wrong shape
    surfaces as KeyError, TypeError or IndexError, and one they refuse as
    ValueError (as does text that is not JSON); all are bad input, and the
    error names the flag.  A ConfigError of the builder passes unchanged.
    """
    try:
        return build(json.loads(text))
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise ConfigError("malformed %s: %s: %s" % (flag, type(err).__name__, err))


def _matrices(data):
    """Build --H: either one JSON matrix (d=1) or a JSON list of matrices."""
    if not isinstance(data, list) or not data:
        raise ConfigError("--H must be a JSON matrix or list of matrices")
    if isinstance(data[0][0], list):
        return [RatMatrix(m) for m in data]
    return [RatMatrix(data)]


def _build_spec(args):
    kind = getattr(args, "kind", "adjoint")
    d = args.d
    l = _parse_flag("--l", rat, args.l)
    if kind == "adjoint":
        for flag, value in (("--c", args.c), ("--lambda", args.lam), ("--H", args.H)):
            if value is not None:
                raise ConfigError("%s sets an evaluation module; pass --kind evaluation" % flag)
        return ModuleSpec.adjoint(d, l)
    if args.c is None:
        raise ConfigError("evaluation modules need --c")
    lam = _parse_flag("--lambda", _parse_lambda, args.lam) if args.lam else (Fraction(0),) * d
    if len(lam) != d:
        raise ConfigError("--lambda must list exactly d values")
    H = _decode_json("--H", args.H, _matrices) if args.H else None
    return ModuleSpec.evaluation(d, l, _parse_flag("--c", rat, args.c), lam, H=H)


def _truncation(args):
    return Truncation(args.max_wt, args.max_nwt, args.j_max)


def _open_out(path):
    """The output stream, opened before any work so a bad --out fails at once."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as err:
        raise ConfigError("cannot write --out: %s" % err)


def _emit_report(report, args):
    """Write the report in --format; csv and text derive from `Report.to_json()`.

    In csv and text a string field is written as it is and any other field
    as JSON; csv keeps the first five fields, each quoted, under a header of
    their names.
    """
    data = report.to_json()
    if args.format == "json":
        text = json.dumps(data, sort_keys=True) + "\n"
    else:
        fields = [
            (name, value if isinstance(value, str) else json.dumps(value, sort_keys=True))
            for name, value in data.items()
        ]
        if args.format == "csv":
            names, values = zip(*fields[:5])
            quoted = ('"%s"' % value.replace('"', '""') for value in values)
            text = ",".join(names) + "\n" + ",".join(quoted) + "\n"
        else:
            text = "".join("%s: %s\n" % field for field in fields)
    args.stream.write(text)
    return EXIT_OK if report.defect_zero else EXIT_COUNTEREXAMPLE


def _sample_modes(spec, args, j_values, rng):
    """Doubly homogeneous mode labels (v, j) for the strong-grading sweep."""
    sample = []
    for wt_v in range(1, args.v_max_wt + 1):
        for nwt_v in range(args.v_max_nwt + 1):
            for mono in enumerate_basis(spec.d, nwt_v, wt_v):
                for j in j_values:
                    sample.append((State.term(mono), j))
    if args.sample_size is not None and args.sample_size < len(sample):
        sample = rng.sample(sample, args.sample_size)
        sample.sort(key=lambda vj: (json.dumps(vj[0].to_json()), vj[1]))
    return sample


def _plan_e1(args, spec, tr):
    i, j = _parse_gen(args.gen)
    n_text, n_values = _index_range(args, "n")
    k_text, k_values = _index_range(args, "k")
    reports = vertexops.check_l_mode_commutators((i, j), n_values, k_values, spec, tr)
    params = {"gen": [i, j], "n_range": n_text, "k_range": k_text}
    return "l-mode-commutator", params, reports


def _plan_virasoro(args, spec, tr):
    m_values = _parse_range("--m-range", args.m_range)
    n_text, n_values = _index_range(args, "n")
    pairs = [(m, n) for m in m_values for n in n_values]
    params = {"m_range": args.m_range, "n_range": n_text}
    return "virasoro", params, vertexops.check_virasoro_pairs(pairs, spec, tr)


def _plan_field_commutator(args, spec, tr):
    if args.a_state:
        labels = [_decode_json("--a-state", args.a_state, State.from_json)]
    else:
        if args.a_max_wt < 0 or args.a_max_nwt < 0:
            raise ConfigError("--a-max-wt and --a-max-nwt must be nonnegative")
        labels = [
            State.term(mono)
            for wt_a in range(args.a_max_wt + 1)
            for nwt_a in range(args.a_max_nwt + 1)
            for mono in enumerate_basis(spec.d, nwt_a, wt_a)
        ]
    n_text, n_values = _index_range(args, "n")
    k_text, k_values = _index_range(args, "k")
    reports = [
        report
        for a in labels
        for report in vertexops.check_field_commutators(a, n_values, k_values, spec, tr)
    ]
    params = {"a_count": len(labels), "n_range": n_text, "k_range": k_text}
    return "field-commutator", params, reports


def _plan_strong_grading(args, spec, tr):
    if args.v_max_wt < 0 or args.v_max_nwt < 0:
        raise ConfigError("--v-max-wt and --v-max-nwt must be nonnegative")
    if args.v_max_wt == 0:
        raise ConfigError("--v-max-wt 0 samples no mode; every mode has weight >= 1")
    if args.sample_size is not None and args.sample_size < 1:
        raise ConfigError("--sample-size must be positive")
    j_values = _parse_range("--j-range", "-2..2" if args.j_range is None else args.j_range)
    sample = _sample_modes(spec, args, j_values, random.Random(args.seed))
    return None, None, [vertexops.check_strong_grading(spec, tr, sample)]


def _plan_l0_grading(args, spec, tr):
    j_values = _parse_range("--j-range", "-1..1" if args.j_range is None else args.j_range)
    return None, None, [vertexops.check_l0_grading(spec, tr, j_values)]


def _plan_d_equals_lminus1(args, spec, tr):
    return None, None, [vertexops.check_d_equals_lminus1(spec, tr)]


# each identity, in `--help` order: the identity flags it reads (every other one it
# is given is refused) and its plan.  A plan parses each range flag before any check
# runs; it returns the merged report's identity and params, None for a single check
# whose report names its own, and the sub-reports.
VERIFY = {
    "e1": ({"gen", "n_range", "n", "k_range", "k"}, _plan_e1),
    "virasoro": ({"m_range", "n_range", "n"}, _plan_virasoro),
    "field-commutator": (
        {"a_state", "a_max_wt", "a_max_nwt", "n_range", "n", "k_range", "k"},
        _plan_field_commutator,
    ),
    "strong-grading": (
        {"v_max_wt", "v_max_nwt", "j_range", "sample_size", "seed"}, _plan_strong_grading
    ),
    "l0-grading": ({"j_max", "j_range"}, _plan_l0_grading),
    "d-equals-lminus1": (set(), _plan_d_equals_lminus1),
}

# flags that exclude each other: a given A is the one label checked, so the bounds
# that generate labels would go unread, and a single --n or --k replaces its range
EXCLUDED_PAIRS = (("--a-state", "--a-max-wt"), ("--a-state", "--a-max-nwt"),
                  ("--n-range", "--n"), ("--k-range", "--k"))


def _check_reads(args, command, reads):
    """Give each unset flag of args.read_flags its default; refuse a set one not read.

    An unset flag parses as None (see `_read_flags`), and the flags are
    listed in `--help` order.  The first set flag not read is named; then
    the first pair of `EXCLUDED_PAIRS` that is set in full.
    """
    given = set()
    for flag, dest, default in args.read_flags:
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in reads:
            raise ConfigError("%s does not read %s" % (command, flag))
        else:
            given.add(flag)
    for pair in EXCLUDED_PAIRS:
        if given.issuperset(pair):
            raise ConfigError("%s and %s exclude each other" % pair)


def _cmd_verify(args):
    """Run the planned checks and merge their reports."""
    reads, plan = VERIFY[args.identity]
    _check_reads(args, "verify " + args.identity, reads)
    spec = _build_spec(args)
    identity, params, reports = plan(args, spec, _truncation(args))
    if params is None:
        identity, params = reports[0].identity, dict(reports[0].params)
    params["spec"] = spec.to_json()
    return _emit_report(vertexops.merge_reports(reports, identity, params), args)


# the columns of a `dims` row, in CSV order
DIMS_COLUMNS = ("m", "n", "enum", "dp", "gf_product", "gf_paper_ct", "diff")


def _cmd_dims(args):
    if args.format == "text":
        raise ConfigError("dims writes JSON or CSV, not --format text")
    d, P, Q = args.d, args.max_p, args.max_q
    product = dims_mod.gf_product_count(d, P, Q)
    parts = dims_mod.bipartite_table(d, P, Q)
    paper = dims_mod.gf_paper_ct(P, Q) if d == 1 else None
    counts = count_table(d, Q, P)
    rows = []
    agree = True
    for m in range(Q + 1):
        for n in range(P + 1):
            enum = counts[m][n]
            dp = parts.get(m, n)
            gf = product.get(m, n)
            if not (enum == dp == gf):
                agree = False
            ct = None if paper is None else paper.get(m, n)
            rows.append((m, n, enum, dp, gf, ct, None if ct is None else enum - ct))
    if args.format == "json":
        payload = {
            "meta": {"d": d, "max_p": P, "max_q": Q},
            "rows": [dict(zip(DIMS_COLUMNS, row)) for row in rows],
        }
        args.stream.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        args.stream.write("# d=%d,max_p=%d,max_q=%d\n" % (d, P, Q))
        args.stream.write(",".join(DIMS_COLUMNS) + "\n")
        for row in rows:
            args.stream.write(",".join("" if x is None else str(x) for x in row) + "\n")
    return EXIT_OK if agree else EXIT_COUNTEREXAMPLE


def _parse_top(token):
    """Parse a top space: "r{R}:{d}@{lam1,lam2,...}" or a JSON object."""
    token = token.strip()
    if token.startswith("{"):
        return _decode_json("--tops", token, repcat.TopSpace.from_json)
    try:
        head, lam_text = token.split("@", 1)
        r_text, d_text = head.split(":", 1)
        if not r_text.startswith("r"):
            raise ValueError
        r = int(r_text[1:])
        d = int(d_text)
        lam = _parse_lambda(lam_text)
        if len(lam) != d:
            raise ValueError
    except ValueError:
        raise ConfigError(
            "top space %r not understood; use r{R}:{d}@{lambda,...} or JSON" % token
        )
    H = tuple(RatMatrix.scalar(r, x) for x in lam)
    return repcat.TopSpace(r=r, lam=lam, H=H)


def _module_casimir(args):
    if args.lam is None or args.c is None:
        raise ConfigError("casimir needs --lambda and --c")
    lam = _parse_flag("--lambda", _parse_lambda, args.lam)
    return rat_str(repcat.casimir_scalar(lam, _parse_flag("--c", rat, args.c)))


def _module_vacuum(args):
    spec = _build_spec(args)
    tr = _truncation(args)
    states = repcat.vacuum_space(spec, tr)
    return {
        "dimension": len(states),
        "bigrades_scanned": {"max_wt": tr.max_wt, "max_nwt": tr.max_nwt},
        "basis": [s.to_json() for s in states],
    }


def _module_logcheck(args):
    if args.H is None or args.c is None:
        raise ConfigError("logcheck needs --H and --c")
    H = _decode_json("--H", args.H, _matrices)
    r = H[0].rows
    if any(m.rows != r or m.cols != r for m in H):
        raise ConfigError("--H must hold square matrices of one size")
    if args.lam is not None:
        lam = _parse_flag("--lambda", _parse_lambda, args.lam)
    else:
        # trace/r is exact: each H_i has a single eigenvalue of multiplicity r
        lam = tuple(sum((m[t, t] for t in range(r)), Fraction(0)) / r for m in H)
    l, c = _parse_flag("--l", rat, args.l), _parse_flag("--c", rat, args.c)
    spec = ModuleSpec.evaluation(len(H), l, c, lam, H=H)
    genuine, blocks = repcat.is_genuine_logarithmic(spec)
    return {"blocks": blocks, "genuine": genuine}


def _module_homdim(args):
    if len(args.tops) != 3:
        raise ConfigError("homdim needs exactly three top spaces")
    source, middle, target = (_parse_top(tok) for tok in args.tops)
    problem = repcat.HomProblem(source=source, middle=middle, target=target)
    return repcat.intertwiner_dim(problem)


# each module action: the module flags it reads (every other one it is given is
# refused) and the function that returns its JSON value
MODULE = {
    "casimir": ({"lam", "c"}, _module_casimir),
    "vacuum": ({"kind", "d", "l", "c", "lam", "H", "max_wt", "max_nwt"}, _module_vacuum),
    "logcheck": ({"H", "c", "lam", "l"}, _module_logcheck),
    "homdim": ({"tops"}, _module_homdim),
}


def _cmd_module(args):
    action = args.action
    if args.format != "json":
        raise ConfigError("module %s writes JSON only, not --format %s" % (action, args.format))
    reads, run = MODULE[action]
    _check_reads(args, "module " + action, reads)
    args.stream.write(json.dumps(run(args), sort_keys=True) + "\n")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--format", choices=["json", "csv", "text"], default="json")
    parser.add_argument(
        "--out",
        default=None,
        help="write output to a file; it is opened, and truncated, before any work",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and ignored; sweeps run serially in a "
        "fixed order",
    )


def _add_spec_flags(parser):
    parser.add_argument("--kind", choices=["adjoint", "evaluation"], default="adjoint")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--l", default="1", help='level, e.g. "1/2"')
    parser.add_argument("--c", default=None, help="evaluation point")
    parser.add_argument("--lambda", dest="lam", default=None, help='e.g. "1,0"')
    parser.add_argument("--H", default=None, help="JSON matrix or list of matrices")


def _add_truncation_flags(parser, wt=4, nwt=3):
    parser.add_argument("--max-wt", type=int, default=wt)
    parser.add_argument("--max-nwt", type=int, default=nwt)


def _read_flags(parser, actions):
    """Make each flag of actions parse as None when unset, and list it in args.read_flags.

    The tuple holds (flag, dest, default) in `--help` order, for `_check_reads`.
    """
    parser.set_defaults(
        read_flags=tuple((a.option_strings[0], a.dest, a.default) for a in actions),
        **{a.dest: None for a in actions},
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="currentfock",
        description="Exact verification suites for the abelian current-algebra "
        "vertex algebra, its modules and dimension tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an identity sweep")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("identity", choices=list(VERIFY))
    _add_spec_flags(verify)
    _add_truncation_flags(verify)
    shared = len(verify._actions)  # the spec and truncation flags every identity reads
    verify.add_argument("--j-max", type=int, default=0)
    verify.add_argument("--m-range", default="-1..3")
    verify.add_argument("--n-range", default="-1..3")
    verify.add_argument("--k-range", default="-3..3")
    verify.add_argument("--gen", default="1,0", help="generator as i,j")
    verify.add_argument("--k", default=None, help="single mode (excludes --k-range)")
    verify.add_argument("--n", default=None, help="single index (excludes --n-range)")
    verify.add_argument("--a-state", default=None, help="JSON state labeling Y(A,z)")
    verify.add_argument("--a-max-wt", type=int, default=2)
    verify.add_argument("--a-max-nwt", type=int, default=1)
    verify.add_argument("--v-max-wt", type=int, default=2)
    verify.add_argument("--v-max-nwt", type=int, default=2)
    verify.add_argument(
        "--j-range", default=None, help="default -2..2; -1..1 for l0-grading"
    )
    verify.add_argument("--sample-size", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")
    _read_flags(verify, verify._actions[shared:])
    _add_common(verify)

    table = sub.add_parser("dims", help="emit the cross-checked dimension table")
    table.set_defaults(run=_cmd_dims)
    table.add_argument("--d", type=int, default=1)
    table.add_argument("--max-p", type=int, default=8)
    table.add_argument("--max-q", type=int, default=6)
    _add_common(table)

    module = sub.add_parser("module", help="module-level quantities")
    module.set_defaults(run=_cmd_module)
    module.add_argument("action", choices=list(MODULE))
    _add_spec_flags(module)
    _add_truncation_flags(module)
    module.add_argument("--j-max", type=int, default=0)
    module.add_argument("--tops", nargs="*", default=(), help="three top spaces")
    _read_flags(module, [a for a in module._actions if a.option_strings and a.dest != "help"])
    _add_common(module)

    return parser


@lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process.

    Parsing changes neither the parser nor the default objects it hands
    out: `read_flags` is a tuple and the default of `--tops` an empty one.
    """
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        with _open_out(args.out) as args.stream:
            return args.run(args)
    # a ValueError is a library rule refusing the input; the CLI checks only its flags
    except (ConfigError, ValueError) as err:
        sys.stderr.write("error: %s\n" % err)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
