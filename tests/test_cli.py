"""CLI surface: exit codes, output formats, determinism, round-trips."""

import contextlib
import csv
import io
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from currentfock import cli
from currentfock.cli import EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_virasoro_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "virasoro",
            "--d", "1",
            "--l", "1",
            "--max-wt", "3",
            "--max-nwt", "2",
            "--m-range=-1..2",
            "--n-range=-1..2",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["defect_zero"] is True
        assert payload["states_checked"] > 0
        assert payload["counterexample"] is None

    def test_e1_single_trivial_combo(self, capsys):
        code, out, _ = run(
            capsys, "verify", "e1", "--gen", "1,0", "--k", "0", "--n", "0",
            "--max-wt", "2", "--max-nwt", "1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["defect_zero"] is True

    def test_zero_level_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "virasoro", "--l", "0")
        assert code == EXIT_USAGE
        assert "nonzero" in err

    def test_field_commutator_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "field-commutator",
            "--a-max-wt", "2",
            "--a-max-nwt", "1",
            "--n-range=0..1",
            "--k-range=-1..1",
            "--max-wt", "2",
            "--max-nwt", "1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["defect_zero"] is True

    def test_strong_grading_sampled(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "strong-grading",
            "--v-max-wt", "2",
            "--v-max-nwt", "2",
            "--j-range=-1..1",
            "--sample-size", "6",
            "--seed", "7",
            "--max-wt", "3",
            "--max-nwt", "2",
        )
        assert code == EXIT_OK
        assert json.loads(out)["defect_zero"] is True

    def test_d_equals_lminus1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "d-equals-lminus1", "--max-wt", "4", "--max-nwt", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["defect_zero"] is True

    def test_l0_grading_small_indices_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "l0-grading", "--j-range=-1..1",
            "--max-wt", "3", "--max-nwt", "2",
        )
        assert code == EXIT_OK

    def test_l0_grading_default_range_is_minus_one_to_one(self, capsys):
        # the strong-grading default -2..2 would ask for L(-2), which does not exist
        code, out, _ = run(capsys, "verify", "l0-grading", "--max-wt", "2", "--max-nwt", "1")
        assert code == EXIT_OK
        assert json.loads(out)["params"]["j_values"] == [-1, 0, 1]

    def test_l0_grading_finds_the_grading_counterexample(self, capsys):
        # exact nwt preservation fails at j = 2; the verifier must report it
        code, out, _ = run(
            capsys, "verify", "l0-grading", "--j-range=2..2",
            "--max-wt", "3", "--max-nwt", "2",
        )
        assert code == EXIT_COUNTEREXAMPLE
        payload = json.loads(out)
        assert payload["defect_zero"] is False
        assert payload["counterexample"] is not None

    def test_l0_grading_truncated_tail_needs_gate(self, capsys):
        args = (
            "verify", "l0-grading",
            "--kind", "evaluation", "--c", "1/2", "--lambda", "1",
            "--j-range=-1..0", "--max-wt", "2", "--max-nwt", "1",
        )
        code, _, err = run(capsys, *args)
        assert code == EXIT_USAGE
        assert "j_max" in err
        code, out, _ = run(capsys, *args, "--j-max", "2")
        assert code == EXIT_COUNTEREXAMPLE  # the tail itself moves the bigrade
        payload = json.loads(out)
        assert payload["params"]["truncated"] is True

    def test_threads_flag_gives_identical_output(self, capsys):
        args = (
            "verify", "virasoro", "--max-wt", "3", "--max-nwt", "1",
            "--m-range=0..2", "--n-range=0..2",
        )
        _, out1, _ = run(capsys, *args, "--threads", "1")
        _, out2, _ = run(capsys, *args, "--threads", "4")
        assert out1 == out2

    def test_evaluation_module_config(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "e1",
            "--kind", "evaluation",
            "--c", "1/3",
            "--lambda", "1",
            "--gen", "1,1",
            "--n-range=0..2",
            "--k-range=-2..2",
            "--max-wt", "2",
            "--max-nwt", "1",
        )
        assert code == EXIT_OK


ADJ1 = '{"H": [[["0"]]], "c": null, "d": 1, "kind": "adjoint", "l": "1", "lambda": ["0"]}'

# Exact stdout of every identity at a tiny truncation.  The report's field
# order, the merge of multi-combo sweeps and the serialization of params and
# counterexamples are all pinned byte for byte.
PINNED_VERIFY = {
    "virasoro": (
        ("verify", "virasoro", "--max-wt", "2", "--max-nwt", "1",
         "--m-range=-1..1", "--n-range=-1..1"),
        EXIT_OK,
        '{"counterexample": null, "defect_zero": true, "identity": "virasoro", '
        '"max_defect": "0", "params": {"m_range": "-1..1", "n_range": "-1..1", '
        '"spec": %s}, "states_checked": 63}\n' % ADJ1,
    ),
    # some mirrors absent: only (0, 1) and (1, 0) share a sweep off the diagonal
    "virasoro-asymmetric-ranges": (
        ("verify", "virasoro", "--max-wt", "2", "--max-nwt", "1",
         "--m-range=0..3", "--n-range=-1..1"),
        EXIT_OK,
        '{"counterexample": null, "defect_zero": true, "identity": "virasoro", '
        '"max_defect": "0", "params": {"m_range": "0..3", "n_range": "-1..1", '
        '"spec": %s}, "states_checked": 84}\n' % ADJ1,
    ),
    "virasoro-evaluation-c0": (
        ("verify", "virasoro", "--kind", "evaluation", "--c", "0", "--lambda=1",
         "--max-wt", "2", "--max-nwt", "1"),
        EXIT_OK,
        '{"counterexample": null, "defect_zero": true, "identity": "virasoro", '
        '"max_defect": "0", "params": {"m_range": "-1..3", "n_range": "-1..3", '
        '"spec": {"H": [[["1"]]], "c": "0", "d": 1, "kind": "evaluation", "l": "1", '
        '"lambda": ["1"]}}, "states_checked": 175}\n',
    ),
    "e1": (
        ("verify", "e1", "--kind", "evaluation", "--c", "1/3", "--lambda", "1",
         "--gen", "1,1", "--n-range=0..1", "--k-range=-1..1",
         "--max-wt", "2", "--max-nwt", "1"),
        EXIT_OK,
        '{"counterexample": null, "defect_zero": true, "identity": "l-mode-commutator", '
        '"max_defect": "0", "params": {"gen": [1, 1], "k_range": "-1..1", '
        '"n_range": "0..1", "spec": {"H": [[["1"]]], "c": "1/3", "d": 1, '
        '"kind": "evaluation", "l": "1", "lambda": ["1"]}}, "states_checked": 42}\n',
    ),
    "field-commutator": (
        ("verify", "field-commutator", "--a-max-wt", "1", "--a-max-nwt", "1",
         "--n-range=0..1", "--k-range=-1..0", "--max-wt", "2", "--max-nwt", "1"),
        EXIT_OK,
        '{"counterexample": null, "defect_zero": true, "identity": "field-commutator", '
        '"max_defect": "0", "params": {"a_count": 3, "k_range": "-1..0", '
        '"n_range": "0..1", "spec": %s}, "states_checked": 84}\n' % ADJ1,
    ),
    "strong-grading": (
        ("verify", "strong-grading", "--v-max-wt", "1", "--v-max-nwt", "1",
         "--j-range=-1..0", "--sample-size", "2", "--seed", "3",
         "--max-wt", "2", "--max-nwt", "1"),
        EXIT_OK,
        '{"counterexample": null, "defect_zero": true, "identity": "strong-grading", '
        '"max_defect": "0", "params": {"sample": '
        '[[[{"coeff": "1", "mono": [[1, 0, 1]], "top": 0}], 0], '
        '[[{"coeff": "1", "mono": [[1, 1, 1]], "top": 0}], -1]], '
        '"spec": %s}, "states_checked": 7}\n' % ADJ1,
    ),
    "l0-grading": (
        ("verify", "l0-grading", "--j-range=1..2", "--max-wt", "2", "--max-nwt", "2"),
        EXIT_COUNTEREXAMPLE,
        '{"counterexample": [{"coeff": "1", "mono": [[1, 1, 1], [1, 1, 1]], "top": 0}], '
        '"defect_zero": false, "identity": "l0-grading", "max_defect": "1", '
        '"params": {"j_values": [1, 2], "spec": %s}, "states_checked": 11}\n' % ADJ1,
    ),
    "d-equals-lminus1": (
        ("verify", "d-equals-lminus1", "--d", "2", "--l", "1/2",
         "--max-wt", "2", "--max-nwt", "1"),
        EXIT_OK,
        '{"counterexample": null, "defect_zero": true, "identity": "d-equals-lminus1", '
        '"max_defect": "0", "params": {"spec": {"H": [[["0"]], [["0"]]], "c": null, '
        '"d": 2, "kind": "adjoint", "l": "1/2", "lambda": ["0", "0"]}}, '
        '"states_checked": 16}\n',
    ),
}

E1_MERGED = ("verify", "e1", "--n-range=0..1", "--k-range=-1..1",
             "--max-wt", "2", "--max-nwt", "1")
E1_PARAMS = '{"gen": [1, 0], "k_range": "-1..1", "n_range": "0..1", "spec": %s}' % ADJ1
PINNED_FORMATS = {
    "text": (
        "identity: l-mode-commutator\n"
        "params: %s\n"
        "states_checked: 42\n"
        "defect_zero: true\n"
        "max_defect: 0\n"
        "counterexample: null\n" % E1_PARAMS
    ),
    "csv": (
        "identity,params,states_checked,defect_zero,max_defect\n"
        '"l-mode-commutator","%s","42","true","0"\n' % E1_PARAMS.replace('"', '""')
    ),
}
# A failing report: L(2) x_{1,1,1}^2 = l * vacuum leaves nwt (criterion 4b).
L0_FAILING = ("verify", "l0-grading", "--d", "1", "--j-range=1..2", "--l=2/3")
L0_FAILING_PARAMS = (
    '{"j_values": [1, 2], "spec": {"H": [[["0"]]], "c": null, "d": 1, '
    '"kind": "adjoint", "l": "2/3", "lambda": ["0"]}}'
)
PINNED_FAILING_FORMATS = {
    "text": (
        "identity: l0-grading\n"
        "params: %s\n"
        "states_checked: 76\n"
        "defect_zero: false\n"
        "max_defect: 2\n"
        'counterexample: [{"coeff": "1", "mono": [[1, 1, 1], [1, 1, 1]], "top": 0}]\n'
        % L0_FAILING_PARAMS
    ),
    "csv": (
        "identity,params,states_checked,defect_zero,max_defect\n"
        '"l0-grading","%s","76","false","2"\n' % L0_FAILING_PARAMS.replace('"', '""')
    ),
}


# The vacuum space of the benchmark's Jordan top (d = 2, r = 2, c = 1/3).
VACUUM_JORDAN = ("module", "vacuum", "--kind", "evaluation", "--d", "2", "--c=1/3",
                 "--lambda", "1,1", "--H", "[[[1,1],[0,1]],[[1,0],[0,1]]]",
                 "--max-wt", "2", "--max-nwt", "1", "--format", "json")
PINNED_VACUUM = (
    '{"basis": [[{"coeff": "1", "mono": [], "top": 0}], '
    '[{"coeff": "1", "mono": [], "top": 1}]], '
    '"bigrades_scanned": {"max_nwt": 1, "max_wt": 2}, "dimension": 2}\n'
)


# Dimension tables.  At d = 2, enum = dp = gf_product in every cell; one row
# of counts per nwt m, over weights n = 0..6.
DIMS_D2 = ("dims", "--d", "2", "--max-p", "6", "--max-q", "3", "--format", "json")
D2_COUNTS = [
    [1, 2, 5, 10, 20, 36, 65],
    [0, 2, 6, 16, 36, 76, 148],
    [0, 2, 9, 26, 66, 148, 310],
    [0, 2, 10, 36, 98, 240, 532],
]
PINNED_DIMS_JSON = '{"meta": {"d": 2, "max_p": 6, "max_q": 3}, "rows": [%s]}\n' % (
    ", ".join(
        '{"diff": null, "dp": %d, "enum": %d, "gf_paper_ct": null, "gf_product": %d, '
        '"m": %d, "n": %d}' % (k, k, k, m, n)
        for m, row in enumerate(D2_COUNTS)
        for n, k in enumerate(row)
    )
)
DIMS_D1 = ("dims", "--d", "1", "--max-p", "6", "--max-q", "4", "--format", "csv")
PINNED_DIMS_CSV = (
    "# d=1,max_p=6,max_q=4\n"
    "m,n,enum,dp,gf_product,gf_paper_ct,diff\n"
    "0,0,1,1,1,1,0\n"
    "0,1,1,1,1,1,0\n"
    "0,2,2,2,2,2,0\n"
    "0,3,3,3,3,3,0\n"
    "0,4,5,5,5,5,0\n"
    "0,5,7,7,7,7,0\n"
    "0,6,11,11,11,11,0\n"
    "1,0,0,0,0,0,0\n"
    "1,1,1,1,1,1,0\n"
    "1,2,2,2,2,2,0\n"
    "1,3,4,4,4,3,1\n"
    "1,4,7,7,7,5,2\n"
    "1,5,12,12,12,7,5\n"
    "1,6,19,19,19,11,8\n"
    "2,0,0,0,0,0,0\n"
    "2,1,1,1,1,1,0\n"
    "2,2,3,3,3,3,0\n"
    "2,3,6,6,6,5,1\n"
    "2,4,12,12,12,9,3\n"
    "2,5,21,21,21,13,8\n"
    "2,6,36,36,36,21,15\n"
    "3,0,0,0,0,0,0\n"
    "3,1,1,1,1,1,0\n"
    "3,2,3,3,3,3,0\n"
    "3,3,8,8,8,6,2\n"
    "3,4,16,16,16,11,5\n"
    "3,5,31,31,31,17,14\n"
    "3,6,55,55,55,28,27\n"
    "4,0,0,0,0,0,0\n"
    "4,1,1,1,1,1,0\n"
    "4,2,4,4,4,4,0\n"
    "4,3,10,10,10,8,2\n"
    "4,4,23,23,23,16,7\n"
    "4,5,45,45,45,25,20\n"
    "4,6,84,84,84,42,42\n"
)


# per identity: a small run, flags it does not read, and the first of them in --help order
UNREAD_VERIFY = {
    "virasoro-gen-k-range": (
        ("virasoro", "--max-wt", "1", "--max-nwt", "0"), ("--gen", "1,0", "--k-range=0..0"),
        "--k-range",
    ),
    "virasoro-sample-size": (
        ("virasoro", "--max-wt", "1", "--max-nwt", "0"), ("--sample-size", "0"), "--sample-size",
    ),
    "d-equals-lminus1-m-range": (
        ("d-equals-lminus1", "--max-wt", "2", "--max-nwt", "1"),
        ("--m-range=0..0", "--v-max-wt", "3"), "--m-range",
    ),
    "e1-a-state": (
        ("e1", "--gen", "1,0", "--max-wt", "1", "--max-nwt", "0"),
        ("--a-state", "[[[[1,0,1]],1]]"), "--a-state",
    ),
    "field-commutator-v-max-nwt": (
        ("field-commutator", "--max-wt", "1", "--max-nwt", "0", "--a-max-wt", "1"),
        ("--j-range=0", "--v-max-nwt", "1"), "--v-max-nwt",
    ),
    "strong-grading-n": (
        ("strong-grading", "--max-wt", "1", "--max-nwt", "0", "--v-max-wt", "1"),
        ("--a-max-nwt", "1", "--n", "0"), "--n",
    ),
    "l0-grading-gen": (
        ("l0-grading", "--max-wt", "1", "--max-nwt", "0"), ("--gen", "1,1"), "--gen",
    ),
}
# flags every identity accepts: spec, weight bounds and common ones (not --j-max or --seed)
SHARED_VERIFY_FLAGS = ("--kind", "adjoint", "--d", "1", "--l", "1", "--max-wt", "1",
                       "--max-nwt", "0", "--threads", "2", "--format", "json")


class TestVerifyReads:
    @pytest.mark.parametrize(
        "argv, extra, unread", UNREAD_VERIFY.values(), ids=UNREAD_VERIFY.keys()
    )
    def test_verify_refuses_a_flag_it_does_not_read(self, capsys, argv, extra, unread):
        assert run(capsys, "verify", *argv)[0] == EXIT_OK
        code, out, err = run(capsys, "verify", *argv, *extra)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: verify %s does not read %s\n" % (argv[0], unread)

    @pytest.mark.parametrize("identity", sorted(cli.VERIFY))
    def test_every_identity_accepts_the_shared_flags(self, capsys, identity):
        code, out, err = run(capsys, "verify", identity, *SHARED_VERIFY_FLAGS)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["defect_zero"] is True

    @pytest.mark.parametrize("identity", sorted(cli.VERIFY))
    def test_only_l0_grading_reads_j_max(self, capsys, identity):
        code, out, err = run(capsys, "verify", identity, *SHARED_VERIFY_FLAGS, "--j-max", "0")
        if identity == "l0-grading":
            assert (code, err) == (EXIT_OK, "")
        else:
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "error: verify %s does not read --j-max\n" % identity

    @pytest.mark.parametrize("identity", sorted(cli.VERIFY))
    def test_only_strong_grading_reads_seed(self, capsys, identity):
        code, out, err = run(capsys, "verify", identity, *SHARED_VERIFY_FLAGS, "--seed", "5")
        if identity == "strong-grading":
            assert (code, err) == (EXIT_OK, "")
        else:
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "error: verify %s does not read --seed\n" % identity

    def test_each_read_flag_is_an_identity_flag_of_the_parser(self):
        dests = {dest for _flag, dest, _default in cli.build_parser().parse_args(
            ["verify", "e1"]).read_flags}
        assert set().union(*(reads for reads, _plan in cli.VERIFY.values())) == dests


class TestPinnedOutput:
    @pytest.mark.parametrize("identity", sorted(PINNED_VERIFY))
    def test_verify_json_stdout(self, capsys, identity):
        argv, code, expected = PINNED_VERIFY[identity]
        assert run(capsys, *argv)[:2] == (code, expected)

    def test_vacuum_json_stdout(self, capsys):
        assert run(capsys, *VACUUM_JORDAN)[:2] == (EXIT_OK, PINNED_VACUUM)

    @pytest.mark.parametrize("fmt", sorted(PINNED_FORMATS))
    def test_merged_report_formats(self, capsys, fmt):
        out = run(capsys, *E1_MERGED, "--format", fmt)[:2]
        assert out == (EXIT_OK, PINNED_FORMATS[fmt])

    @pytest.mark.parametrize("fmt", sorted(PINNED_FAILING_FORMATS))
    def test_failing_report_formats(self, capsys, fmt):
        out = run(capsys, *L0_FAILING, "--format", fmt)[:2]
        assert out == (EXIT_COUNTEREXAMPLE, PINNED_FAILING_FORMATS[fmt])

    @pytest.mark.parametrize(
        "argv, expected",
        [(DIMS_D2, PINNED_DIMS_JSON), (DIMS_D1, PINNED_DIMS_CSV)],
        ids=["d2-json", "d1-csv"],
    )
    def test_dims_stdout(self, capsys, argv, expected):
        assert run(capsys, *argv)[:2] == (EXIT_OK, expected)

    def test_dims_builds_no_monomial(self, capsys, monkeypatch):
        # enum is read off one box walk; no cell's basis is listed, nor walked alone
        def refuse(*args):
            raise AssertionError("dims listed a basis or walked one cell")

        monkeypatch.setattr("currentfock.cli.enumerate_basis", refuse)
        monkeypatch.setattr("currentfock.fock.count_basis", refuse)
        monkeypatch.setattr("currentfock.cli.count_basis", refuse, raising=False)
        assert run(capsys, *DIMS_D2)[:2] == (EXIT_OK, PINNED_DIMS_JSON)
        assert run(capsys, *DIMS_D1)[:2] == (EXIT_OK, PINNED_DIMS_CSV)


class TestDims:
    def test_csv_table(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--d", "1", "--max-p", "6", "--max-q", "4",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "# d=1,max_p=6,max_q=4"
        assert lines[1] == "m,n,enum,dp,gf_product,gf_paper_ct,diff"
        rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[2:]}
        assert rows[("0", "4")][2:] == ["5", "5", "5", "5", "0"]
        assert rows[("2", "3")][2:] == ["6", "6", "6", "5", "1"]
        assert rows[("0", "0")][2:] == ["1", "1", "1", "1", "0"]

    def test_json_table(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--d", "2", "--max-p", "3", "--max-q", "2",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["meta"] == {"d": 2, "max_p": 3, "max_q": 2}
        by_cell = {(row["m"], row["n"]): row for row in payload["rows"]}
        assert by_cell[(0, 0)]["enum"] == 1
        for row in payload["rows"]:
            assert row["enum"] == row["dp"] == row["gf_product"]
            assert row["gf_paper_ct"] is None

    def test_single_cell(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--max-p", "0", "--max-q", "0", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.strip().splitlines()[-1] == "0,0,1,1,1,1,0"

    def test_deterministic_output(self, capsys):
        args = ("dims", "--d", "1", "--max-p", "5", "--max-q", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_documented_full_size_table(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--d", "1", "--max-p", "10", "--max-q", "8",
            "--format", "csv",
        )
        assert code == EXIT_OK
        rows = {
            tuple(line.split(",")[:2]): line.split(",")
            for line in out.strip().splitlines()[2:]
        }
        assert rows[("0", "4")][2:] == ["5", "5", "5", "5", "0"]
        assert len(rows) == 9 * 11


CASIMIR = ("casimir", "--lambda", "1", "--c", "1/2")
LOGCHECK = ("logcheck", "--H", "[[1,1],[0,1]]", "--c", "0")
HOMDIM = ("homdim", "--tops", "r1:1@1", "r1:1@1", "r1:1@2")


class TestModule:
    def test_casimir(self, capsys):
        code, out, _ = run(capsys, "module", "casimir", "--lambda", "1,1", "--c", "1/2")
        assert code == EXIT_OK
        assert out.strip() == '"8/3"'

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("casimir", "--lambda", "2", "--c", "0"),
            ("vacuum", "--max-wt", "1", "--max-nwt", "0"),
            ("logcheck", "--H", "[[1,1],[0,1]]", "--c", "0"),
            ("homdim", "--tops", "r1:1@1", "r1:1@1", "r1:1@2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_module_actions_write_json_only(self, capsys, argv, fmt):
        code, out, err = run(capsys, "module", *argv, "--format", fmt)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: module %s writes JSON only, not --format %s\n" % (argv[0], fmt)
        assert run(capsys, "module", *argv, "--format", "json")[0] == EXIT_OK

    def test_dims_writes_json_or_csv_only(self, capsys):
        argv = ("dims", "--d", "1", "--max-p", "1", "--max-q", "0")
        code, out, err = run(capsys, *argv, "--format", "text")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: dims writes JSON or CSV, not --format text\n"
        for fmt in ("json", "csv"):
            assert run(capsys, *argv, "--format", fmt)[0] == EXIT_OK

    @pytest.mark.parametrize(
        "argv", [("dims", "--max-p", "1", "--max-q", "0"), ("module", *CASIMIR)],
        ids=["dims", "module"],
    )
    def test_dims_and_module_have_no_seed(self, capsys, argv):
        # only verify strong-grading samples, so only verify defines --seed
        assert run(capsys, *argv)[0] == EXIT_OK
        code, out, err = run(capsys, *argv, "--seed", "5")
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --seed 5" in err

    def test_casimir_rejects_c_squared_one(self, capsys):
        code, _, err = run(capsys, "module", "casimir", "--lambda", "1", "--c", "-1")
        assert code == EXIT_USAGE

    def test_vacuum(self, capsys):
        code, out, _ = run(
            capsys,
            "module", "vacuum",
            "--kind", "evaluation",
            "--c", "0",
            "--lambda", "1",
            "--max-wt", "3",
            "--max-nwt", "2",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dimension"] == 1
        assert payload["bigrades_scanned"] == {"max_wt": 3, "max_nwt": 2}

    def test_logcheck_genuine(self, capsys):
        code, out, _ = run(
            capsys, "module", "logcheck", "--H", "[[1,1],[0,1]]", "--c", "0", "--l", "1"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"blocks": [2], "genuine": True}

    def test_logcheck_explicit_lambda(self, capsys):
        code, out, err = run(
            capsys, "module", "logcheck", "--H", "[[1,1],[0,1]]", "--c", "1/3", "--lambda", "1"
        )
        assert (code, out, err) == (EXIT_OK, '{"blocks": [2], "genuine": true}\n', "")

    def test_logcheck_degenerate(self, capsys):
        code, out, _ = run(
            capsys, "module", "logcheck", "--H", "[[0,1],[0,0]]", "--c", "0", "--l", "1"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"blocks": [1, 1], "genuine": False}

    def test_homdim_selection_rule(self, capsys):
        code, out, _ = run(
            capsys, "module", "homdim", "--tops", "r1:1@1", "r1:1@1", "r1:1@2"
        )
        assert code == EXIT_OK
        assert out.strip() == "1"
        code, out, _ = run(
            capsys, "module", "homdim", "--tops", "r1:1@1", "r1:1@1", "r1:1@3"
        )
        assert out.strip() == "0"

    def test_homdim_json_tops(self, capsys):
        j2_1 = json.dumps({"r": 2, "lambda": ["1"], "H": [[["1", "1"], ["0", "1"]]]})
        j2_2 = json.dumps({"r": 2, "lambda": ["2"], "H": [[["2", "1"], ["0", "2"]]]})
        code, out, _ = run(capsys, "module", "homdim", "--tops", j2_1, "r1:1@1", j2_2)
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_homdim_needs_three_tops(self, capsys):
        code, _, err = run(capsys, "module", "homdim", "--tops", "r1:1@1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, extra, unread",
        [
            (CASIMIR, ("--H", "[[5]]", "--d", "3", "--l", "7"), "--d"),
            (CASIMIR, ("--kind", "adjoint"), "--kind"),
            (CASIMIR, ("--max-wt", "4"), "--max-wt"),
            (CASIMIR, ("--tops",), "--tops"),
            (LOGCHECK, ("--d", "3"), "--d"),
            (LOGCHECK, ("--kind", "evaluation"), "--kind"),
            (LOGCHECK, ("--j-max", "1"), "--j-max"),
            (HOMDIM, ("--kind", "evaluation", "--c", "5", "--lambda", "9"), "--kind"),
            (HOMDIM, ("--l", "2"), "--l"),
            (HOMDIM, ("--max-nwt", "1"), "--max-nwt"),
            (("vacuum", "--max-wt", "1", "--max-nwt", "0"), ("--tops", "r1:1@1"), "--tops"),
            (("vacuum", "--max-wt", "1", "--max-nwt", "0"), ("--j-max", "5"), "--j-max"),
        ],
        ids=["casimir-d", "casimir-kind", "casimir-max-wt", "casimir-tops", "logcheck-d",
             "logcheck-kind", "logcheck-j-max", "homdim-kind", "homdim-l",
             "homdim-max-nwt", "vacuum-tops", "vacuum-j-max"],
    )
    def test_module_refuses_a_flag_it_does_not_read(self, capsys, argv, extra, unread):
        # the first unread module flag, in the order `--help` lists them, is named
        assert run(capsys, "module", *argv)[0] == EXIT_OK
        code, out, err = run(capsys, "module", *argv, *extra)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: module %s does not read %s\n" % (argv[0], unread)


# a vertex-operator label with color 2 on a d = 1 module
BAD_COLOR_A = '[{"mono": [[2,0,1]], "coeff": "1"}]'
ZERO_DENOMINATOR_A = '[{"mono": [[1,0,1]], "coeff": "1/0"}]'
FLOAT_DEPTH_A = '[{"mono": [[1,0,2.0]], "coeff": "1"}]'
BOOL_TOP_A = '[{"mono": [[1,0,1]], "top": false, "coeff": "1"}]'
NOT_A_TERM = "--a-state: ValueError: a state term must be a JSON object, got "
NO_L_BELOW_MINUS_ONE = "error: only the operators L(n) with n >= -1 exist here\n"
BOOL_R_TOP = '{"r":true,"lambda":["1"],"H":[[["1"]]]}'
ZERO_COEFF_A = '[{"mono":[[1,0,1]],"coeff":"0"}]'
NOTHING_TO_CHECK = "error: field-commutator needs at least one operator to check\n"
NOT_ADJOINT = " sets an evaluation module; pass --kind evaluation\n"
# malformed input, and what its one error line must name (a whole line, where pinned)
NAMED_IN_ERROR = {
    ("verify", "virasoro", "--m-range=1.."): "--m-range",
    ("verify", "virasoro", "--n-range=x"): "--n-range",
    ("verify", "e1", "--k-range=1..a"): "--k-range",
    ("verify", "strong-grading", "--j-range=q"): "--j-range",
    ("verify", "l0-grading", "--j-range=3..1"): "--j-range",
    ("verify", "e1", "--k", "x"): "--k ",
    ("verify", "field-commutator", "--n", "1..0"): "--n ",
    ("verify", "field-commutator", "--a-state", "[1]"): NOT_A_TERM + "1",
    ("verify", "field-commutator", "--a-state", '{"a":1}'): NOT_A_TERM + "'a'",
    ("verify", "field-commutator", "--a-state", '"x"'): NOT_A_TERM + "'x'",
    ("verify", "field-commutator", "--a-state", FLOAT_DEPTH_A, "--max-wt", "2",
     "--max-nwt", "1", "--n-range=0..1", "--k-range=-1..0"): "--a-state",
    ("verify", "field-commutator", "--a-state", BOOL_TOP_A, "--max-wt", "2",
     "--max-nwt", "1", "--n-range=0..1", "--k-range=-1..0"): "--a-state",
    # an L(n) with n < -1 does not exist, whichever flag names it and wherever it comes
    ("verify", "virasoro", "--m-range=-2", "--n-range=0"): NO_L_BELOW_MINUS_ONE,
    ("verify", "virasoro", "--m-range=0", "--n-range=-3..-2"): NO_L_BELOW_MINUS_ONE,
    ("verify", "virasoro", "--m-range=-2..0", "--n-range=1"): NO_L_BELOW_MINUS_ONE,
    # L(0) is made first, so the c^2 != 1 rule of this top speaks first
    ("verify", "virasoro", "--kind", "evaluation", "--c=1", "--lambda", "1", "--H",
     "[[1,1],[0,1]]", "--m-range=0", "--n-range=-2"):
        "error: L(n) on an evaluation module with nontrivial top action needs c^2 != 1\n",
    ("verify", "virasoro", "--l", "0"): "error: level must be nonzero\n",
    ("module", "homdim", "--tops", BOOL_R_TOP, "r1:1@1", "r1:1@0"):
        "error: malformed --tops: ValueError: top-space dimension must be an int, got True\n",
    # A = 0 composes no product: the sweep would check nothing
    ("verify", "field-commutator", "--a-state", "[]", "--n", "0", "--k", "0",
     "--max-wt", "2", "--max-nwt", "1"): NOTHING_TO_CHECK,
    ("verify", "field-commutator", "--a-state", ZERO_COEFF_A, "--n", "0", "--k", "0",
     "--max-wt", "2", "--max-nwt", "1"): NOTHING_TO_CHECK,
    # a rational flag that does not parse
    ("verify", "virasoro", "--l=abc"):
        "error: malformed --l: Invalid literal for Fraction: 'abc'\n",
    ("module", "vacuum", "--kind", "evaluation", "--c=x"): "error: malformed --c: ",
    ("module", "casimir", "--lambda", "1,x", "--c", "0"): "error: malformed --lambda: ",
    # a flag of an evaluation module on the adjoint one, which would ignore it
    ("verify", "virasoro", "--c", "1/3", "--lambda", "1", "--H", "[[1,1],[0,1]]"):
        "error: --c" + NOT_ADJOINT,
    ("module", "vacuum", "--lambda", "5"): "error: --lambda" + NOT_ADJOINT,
    ("verify", "e1", "--H", "[[1]]"): "error: --H" + NOT_ADJOINT,
    # a flag an action needs, missing or malformed
    ("verify", "virasoro", "--kind", "evaluation", "--max-wt", "1"):
        "error: evaluation modules need --c\n",
    ("module", "casimir", "--c", "0"): "error: casimir needs --lambda and --c\n",
    ("module", "logcheck", "--c", "0"): "error: logcheck needs --H and --c\n",
    ("module", "logcheck", "--H", "5", "--c", "0"):
        "error: --H must be a JSON matrix or list of matrices\n",
    ("module", "homdim", "--tops", "r1:1@0", "r1:1@0", "x1:1@0"):
        "error: top space 'x1:1@0' not understood; use r{R}:{d}@{lambda,...} or JSON\n",
    ("module", "homdim", "--tops", "r1:1@0", "r1:1@0", "r1:1"):
        "error: top space 'r1:1' not understood; use r{R}:{d}@{lambda,...} or JSON\n",
    ("verify", "e1", "--gen", "1,-1", "--max-wt", "1"):
        "error: generator power must be nonnegative\n",
    ("verify", "d-equals-lminus1", "--kind", "evaluation", "--c", "0", "--max-wt", "1"):
        "error: d-equals-lminus1 is an adjoint-module identity\n",
    ("verify", "field-commutator", "--max-wt", "1", "--a-state",
     '[{"mono": [[1,0,1]], "top": 1, "coeff": "1"}]'):
        "error: vertex-operator labels live in M(l); top index must be 0\n",
    ("module", "logcheck", "--H", "[[1,1],[0,1]]", "--c", "1/3", "--lambda", "2"):
        "error: lambda[0] is not the unique eigenvalue of H[0]\n",
}


A_ONE = '[{"mono":[[1,0,1]],"coeff":"1"}]'
JORDAN_C = ("--kind", "evaluation", "--c", "1/3", "--lambda", "1", "--H", "[[1,1],[0,1]]")
TRUNCATED_TAIL = (
    "error: identity check hit a truncated L(-1) tail; "
    "restrict to exact configurations (c = 0 or trivial top action)\n"
)
# commands whose checks share one walk per A, and the one error line each exits 2 with
SWEEP_REFUSALS = {
    "field-n-below-minus-one": (
        ("field-commutator", "--n-range=-2..1", "--k-range=-1..1"), NO_L_BELOW_MINUS_ONE,
    ),
    "field-zero-a": (
        ("field-commutator", "--a-state", "[]", "--n-range=0..2", "--k-range=-1..1"),
        NOTHING_TO_CHECK,
    ),
    "field-zero-a-n-below-minus-one": (
        ("field-commutator", "--a-state", "[]", "--n-range=-2..0"), NO_L_BELOW_MINUS_ONE,
    ),
    "field-truncated-tail": (
        ("field-commutator", *JORDAN_C, "--n-range=-1..1", "--a-max-wt", "1"), TRUNCATED_TAIL,
    ),
    "e1-n-below-minus-one": (("e1", "--n-range=-2..1"), NO_L_BELOW_MINUS_ONE),
    "e1-truncated-tail": (("e1", *JORDAN_C), TRUNCATED_TAIL),
    # a given A is the one label checked, so a bound that generates labels is refused,
    # even at its default value
    "a-state-a-max-wt": (
        ("field-commutator", "--a-state", A_ONE, "--a-max-wt", "3"),
        "error: --a-state and --a-max-wt exclude each other\n",
    ),
    "a-state-a-max-nwt-default": (
        ("field-commutator", "--a-max-nwt", "1", "--a-state", A_ONE),
        "error: --a-state and --a-max-nwt exclude each other\n",
    ),
    "a-state-both": (
        ("field-commutator", "--a-max-nwt", "0", "--a-max-wt", "0", "--a-state", A_ONE),
        "error: --a-state and --a-max-wt exclude each other\n",
    ),
    # a single --n or --k replaces its range, so the two are refused together, even
    # where the range is malformed or the single value alone would run
    "n-with-n-range": (
        ("virasoro", "--n", "0", "--n-range=5..6"),
        "error: --n-range and --n exclude each other\n",
    ),
    "k-with-k-range": (
        ("e1", "--k", "0", "--k-range=x"), "error: --k-range and --k exclude each other\n",
    ),
    "field-n-and-k-with-ranges": (
        ("field-commutator", "--k-range=0", "--n-range=0", "--k", "0", "--n", "0"),
        "error: --n-range and --n exclude each other\n",
    ),
}


class TestPlumbing:
    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        # the shared parser hands every call fresh defaults: a module flag set in one call
        # stays unset in the next, and an identity flag's default comes back
        argvs = [
            ("module", "homdim", "--tops", "r1:1@1", "r1:1@1", "r1:1@2"),
            ("module", "casimir", "--lambda", "1", "--c", "1/2"),
            ("module", "casimir", "--lambda", "1", "--c", "1/2", "--tops"),
            ("verify", "e1", "--max-wt", "1", "--max-nwt", "0", "--k-range=0"),
            ("verify", "e1", "--max-wt", "1", "--max-nwt", "0"),
            ("verify", "virasoro", "--max-wt", "1", "--max-nwt", "0", "--gen", "1,0"),
        ]
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        shared = [run(capsys, *argv) for argv in argvs + argvs]
        assert shared == fresh + fresh and built == [1]
        assert [code for code, _out, _err in fresh] == [0, 0, 2, 0, 0, 2]
        cli._parser.cache_clear()

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "module", "casimir", "--lambda", "2", "--c", "0",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().strip() == '"4"'

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "virasoro", "--kind", "evaluation", "--c", "0", "--H", "[1]"),
            ("verify", "virasoro", "--kind", "evaluation", "--c", "0",
             "--lambda", "1", "--H", "[[[1]],2]"),
            ("module", "logcheck", "--H", "[[1.5]]", "--c", "0"),
            ("verify", "field-commutator", "--a-state", '[{"mono":[[1,0,1]]}]'),
            ("module", "homdim", "--tops", '{"r":1}', "r1:1@1", "r1:1@1"),
            ("module", "casimir", "--lambda", "1", "--c", "1/2",
             "--out", "/nonexistent/dir/x.json"),
            ("module", "logcheck", "--H", "[[[]]]", "--c", "0"),
            ("module", "logcheck", "--H", "[[1],[2]]", "--c", "0"),
            ("verify", "field-commutator", "--kind", "evaluation", "--c", "0",
             "--lambda", "1", "--a-state", BAD_COLOR_A, "--max-wt", "1",
             "--max-nwt", "0", "--n", "0", "--k", "0"),
            ("verify", "field-commutator", "--a-state", BAD_COLOR_A, "--max-wt", "0",
             "--n", "0", "--k", "5"),
            ("verify", "virasoro", "--l=1/0"),
            ("module", "casimir", "--lambda=1", "--c=1/0"),
            ("module", "vacuum", "--kind", "evaluation", "--c=0", "--lambda=1/0"),
            ("module", "homdim", "--tops", "r1:1@1/0", "r1:1@1", "r1:1@1"),
            ("module", "logcheck", "--H", '[["1/0"]]', "--c", "0"),
            ("verify", "field-commutator", "--a-state", ZERO_DENOMINATOR_A,
             "--max-wt", "1", "--max-nwt", "0", "--n", "0", "--k", "0"),
            ("module", "logcheck", "--H", "[[true]]", "--c", "0"),
            ("verify", "field-commutator", "--a-max-wt=-1"),
            ("verify", "strong-grading", "--v-max-nwt=-1"),
            ("verify", "strong-grading", "--sample-size=0"),
            ("verify", "strong-grading", "--v-max-wt=0", "--max-wt", "2", "--max-nwt", "1"),
            *NAMED_IN_ERROR,
        ],
        ids=["H-flat", "H-ragged", "H-float", "a-state-no-coeff", "tops-no-lambda",
             "out-no-dir", "H-no-columns", "H-not-square", "a-state-color-evaluation",
             "a-state-color-adjoint", "l-zero-denominator", "c-zero-denominator",
             "lambda-zero-denominator", "tops-zero-denominator", "H-zero-denominator",
             "a-state-zero-denominator", "H-bool", "a-max-wt-negative",
             "v-max-nwt-negative", "sample-size-zero", "v-max-wt-zero", "m-range-open",
             "n-range-word", "k-range-letter", "j-range-word", "j-range-empty", "k-word",
             "n-empty", "a-state-not-a-term", "a-state-object", "a-state-string",
             "a-state-float-depth", "a-state-bool-top", "m-below-minus-one",
             "n-below-minus-one", "m-range-reaching-minus-two", "index-after-c-squared-one",
             "level-zero", "tops-bool-r", "a-state-empty", "a-state-zero-coeff", "l-word",
             "c-word", "lambda-word", "adjoint-c", "adjoint-lambda", "adjoint-H",
             "evaluation-no-c", "casimir-no-lambda", "logcheck-no-H", "H-scalar",
             "tops-word", "tops-no-lambda-list", "gen-negative", "d-equals-evaluation",
             "a-state-top-index", "lambda-not-eigenvalue"],
    )
    def test_malformed_input_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert NAMED_IN_ERROR.get(argv, "") in err

    @pytest.mark.parametrize(
        "argv, workhorse",
        [
            (VACUUM_JORDAN, "currentfock.repcat.vacuum_space"),
            (("verify", "virasoro", "--max-wt", "2", "--max-nwt", "1"),
             "currentfock.vertexops.check_virasoro_pairs"),
        ],
        ids=["vacuum", "virasoro"],
    )
    def test_unwritable_out_fails_before_any_work(self, capsys, monkeypatch,
                                                  argv, workhorse):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before --out was checked")

        monkeypatch.setattr(workhorse, refuse)
        code, out, err = run(capsys, *argv, "--out", "/nonexistent/dir/x.json")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: cannot write --out") and err.count("\n") == 1

    def test_the_first_planned_pair_reports_the_truncated_tail(self, capsys):
        # (0, -1) runs first and meets the cut L(-1) of a Jordan top at c = 1/3
        code, out, err = run(
            capsys, "verify", "virasoro", "--kind", "evaluation", "--c", "1/3",
            "--lambda", "1", "--H", "[[1,1],[0,1]]", "--m-range=0..1", "--n-range=-1..1",
            "--max-wt", "2", "--max-nwt", "1",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: identity check hit a truncated L(-1) tail; "
            "restrict to exact configurations (c = 0 or trivial top action)\n"
        )

    @pytest.mark.parametrize("argv, message", SWEEP_REFUSALS.values(), ids=SWEEP_REFUSALS.keys())
    def test_a_refused_sweep_over_several_modes_keeps_its_message(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv, "--max-wt", "2", "--max-nwt", "1")
        assert (code, out, err) == (EXIT_USAGE, "", message)

    @pytest.mark.parametrize("gen", ["1", "1,2,3", "a,b"])
    def test_malformed_gen_names_the_flag(self, capsys, gen):
        code, out, err = run(capsys, "verify", "e1", "--gen", gen)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: --gen ") and err.count("\n") == 1

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == EXIT_USAGE

    def test_console_script_entry_point(self):
        # run from the directory that holds the package under test, so that the
        # child imports it with or without an install
        proc = subprocess.run(
            [sys.executable, "-m", "currentfock.cli", "module", "casimir",
             "--lambda", "1,1", "--c", "1/2"],
            capture_output=True,
            text=True,
            cwd=pathlib.Path(cli.__file__).parents[1],
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == '"8/3"'

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # each command is a fresh process and pays for every module the import
        # loads; the diff against the interpreter's own modules leaves out what
        # site and .pth files load
        script = (
            "import sys; before = set(sys.modules); import currentfock.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=pathlib.Path(cli.__file__).parents[1],
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        added = set(proc.stdout.split())
        assert "currentfock.cli" in added
        assert not added & {"dataclasses", "inspect"}

    def test_readme_commands_run_as_documented(self, capsys):
        # every `currentfock ...` line of README's fenced blocks exits 0, and a
        # trailing `# value` is its whole stdout
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```(\w*)\n(.*?)^```", readme, re.M | re.S)
        commands = [
            line.strip()
            for _lang, body in blocks
            for line in body.replace("\\\n", " ").splitlines()
            if line.startswith("currentfock ")
        ]
        assert len(commands) == 11
        for command in commands:
            line, _, value = command.partition(" # ")
            code, out, err = run(capsys, *shlex.split(line)[1:])
            assert (code, err) == (EXIT_OK, ""), command
            if value:
                assert out == value.strip() + "\n", command
        # the Library example prints the exact L(0) eigenvalue of its top
        [example] = [body for lang, body in blocks if lang == "python"]
        exec(example, {})
        assert capsys.readouterr().out == "(State(8/3*1@0), True)\n"

    def test_text_format_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "virasoro", "--max-wt", "2", "--max-nwt", "1",
            "--m-range=0..1", "--n-range=0..1", "--format", "text",
        )
        assert code == EXIT_OK
        assert "defect_zero: true" in out
        assert "max_defect: 0" in out


# Argv fuzz over small verify, dims and module commands.  Truncations stay at or
# below (3, 2), ranges are short and rationals have small height, so every
# example is fast.  Each draw may append one perturbation that is malformed by
# construction; a later flag overrides an earlier one, so it always takes effect.
RATS = ["1", "-1", "2", "1/2", "-1/3", "3/2", "0"]
NONZERO = [x for x in RATS if x != "0"]
SPEC_BAD = [["--l=0"], ["--l=1/0"], ["--d=0"], ["--max-nwt=-1"], ["--max-wt=x"],
            ["--format=xml"], ["--kind=evaluation", "--c=0", "--H=[1]"],
            ["--kind=adjoint", "--c=1/2"]]
VERIFY_FLAGS = {
    "virasoro": {"--m-range": ["-1..1", "0..2", "2", "-1"],
                 "--n-range": ["-1..1", "0..2", "-1"], "--n": ["0", "-1"]},
    "e1": {"--gen": ["1,0", "1,1"], "--n-range": ["-1..1", "0..2"], "--n": ["1"],
           "--k-range": ["-1..1", "0", "-2..0"], "--k": ["0", "-1"]},
    "field-commutator": {"--a-max-wt": ["0", "1"], "--a-max-nwt": ["0", "1"],
                         "--a-state": ['[{"mono":[[1,0,1]],"coeff":"1"}]',
                                       '[{"mono":[[1,1,2]],"coeff":"-1/2"}]'],
                         "--n-range": ["-1..1", "0..1"], "--n": ["0"],
                         "--k-range": ["-1..1", "0"], "--k": ["-1"]},
    "strong-grading": {"--v-max-wt": ["1", "2"], "--v-max-nwt": ["0", "1"],
                       "--j-range": ["-1..1", "0..2"], "--sample-size": ["1", "4"],
                       "--seed": ["0", "3"]},
    "l0-grading": {"--j-range": ["-1..1", "2", "0..2"], "--j-max": ["0", "1", "2"]},
    "d-equals-lminus1": {},
}
# per identity: bounds that would sample nothing, a float depth in A's monomial,
# a malformed range, an --a-state that is not a list of term objects, an A = 0,
# two flags that exclude each other, and identity flags it does not read
VERIFY_BAD = {
    "virasoro": [["--m-range=1.."], ["--gen=1,0"], ["--k-range=0..0"], ["--sample-size=1"],
                 ["--j-max=0"], ["--seed=1"], ["--n=0", "--n-range=5..6"]],
    "e1": [["--k-range=1..a"], ["--m-range=0"], ["--a-state=[[[[1,0,1]],1]]"], ["--j-max=0"],
           ["--seed=1"], ["--k=0", "--k-range=x"], ["--n-range=0", "--n=0"]],
    "field-commutator": [["--a-max-wt=-1"], ["--a-max-nwt=-1"],
                         ["--a-state=" + FLOAT_DEPTH_A], ["--k-range=1..a"],
                         ["--a-state=[1]"], ['--a-state={"a":1}'], ['--a-state="x"'],
                         ["--a-state=[]"], ["--a-state=" + A_ONE, "--a-max-nwt=1"],
                         ["--j-range=0"], ["--v-max-wt=1"], ["--j-max=0"], ["--seed=1"],
                         ["--k-range=0", "--k=0"], ["--n=0", "--n-range=0"]],
    "strong-grading": [["--v-max-wt=-1"], ["--v-max-wt=0"], ["--v-max-nwt=-1"],
                       ["--sample-size=0"], ["--sample-size=-1"], ["--j-range=q"],
                       ["--n=0"], ["--a-max-wt=1"], ["--j-max=0"]],
    "l0-grading": [["--j-range=q"], ["--k=0"], ["--sample-size=1"], ["--seed=1"]],
    "d-equals-lminus1": [["--m-range=0..0"], ["--v-max-wt=3"], ["--j-max=0"], ["--seed=1"]],
}
# flag pairs that exclude each other: a given A is the one label checked, and a single
# --n or --k replaces its range
EXCLUDED = [("--a-state", "--a-max-wt"), ("--a-state", "--a-max-nwt"),
            ("--n-range", "--n"), ("--k-range", "--k")]
JORDAN_TOP = json.dumps({"r": 2, "lambda": ["1"], "H": [[["1", "1"], ["0", "1"]]]})
# per action: bad values of the flags it reads, and flags it does not read
MODULE_BAD = {
    "casimir": [["--c=1"], ["--c=1/0"], ["--lambda=x"], ["--d=1"], ["--l=2"],
                ["--H=[[1]]"], ["--max-wt=1"], ["--tops"], ["--seed=1"]],
    "vacuum": SPEC_BAD + [["--tops", "r1:1@1"], ["--j-max=0"], ["--seed=1"]],
    "logcheck": [["--H=[[[]]]"], ["--H=[[1],[2]]"], ["--H=[[1.5]]"], ["--l=0"],
                 ["--kind=evaluation"], ["--d=1"], ["--j-max=0"], ["--tops"], ["--seed=1"]],
    "homdim": [["--tops", "r1:1@1"], ["--tops", "r1:1@1", "r1:1@1", "bogus"],
               ["--kind=evaluation"], ["--c=5"], ["--lambda=9"], ["--max-nwt=1"],
               ["--seed=1"]],
}


@st.composite
def spec_flags(draw):
    d = draw(st.integers(1, 2))
    flags = ["--d=%d" % d, "--l=" + draw(st.sampled_from(NONZERO))]
    if draw(st.booleans()):
        lam = [draw(st.sampled_from(RATS)) for _ in range(d)]
        flags += ["--kind=evaluation", "--c=" + draw(st.sampled_from(RATS)),
                  "--lambda=" + ",".join(lam)]
        if d == 1 and draw(st.booleans()):
            flags.append("--H=" + json.dumps([[lam[0], "1"], ["0", lam[0]]]))
    flags.append("--max-wt=%d" % draw(st.integers(0, 3)))
    flags.append("--max-nwt=%d" % draw(st.integers(0, 2)))
    return flags


@st.composite
def small_argv(draw):
    """(argv, format, malformed): a small command and whether it is bad by construction."""
    fmt = draw(st.sampled_from(["json", "csv", "text"]))
    command = draw(st.sampled_from(["verify", "dims", "module"]))
    if command == "verify":
        identity = draw(st.sampled_from(sorted(VERIFY_FLAGS)))
        argv = ["verify", identity] + draw(spec_flags())
        drawn = set()
        for flag, values in sorted(VERIFY_FLAGS[identity].items()):
            if draw(st.booleans()):
                argv.append("%s=%s" % (flag, draw(st.sampled_from(values))))
                drawn.add(flag)
        bad = SPEC_BAD + VERIFY_BAD.get(identity, [])
        if any(drawn.issuperset(pair) for pair in EXCLUDED):
            return argv + ["--format=" + fmt], fmt, True
    elif command == "dims":
        argv = ["dims", "--d=%d" % draw(st.integers(1, 2)),
                "--max-p=%d" % draw(st.integers(0, 4)), "--max-q=%d" % draw(st.integers(0, 3))]
        bad = [["--d=0"], ["--max-p=-1"], ["--max-q=-1"], ["--format=xml"], ["--seed=1"]]
    else:
        action = draw(st.sampled_from(sorted(MODULE_BAD)))
        argv = ["module", action]
        if action == "casimir":
            argv += ["--lambda=" + draw(st.sampled_from(["1", "1,-1", "1/2"])),
                     "--c=" + draw(st.sampled_from(["0", "1/2", "-1/3", "2"]))]
        elif action == "vacuum":
            argv += draw(spec_flags())
        elif action == "logcheck":
            H = ["[[1,1],[0,1]]", "[[0,1],[0,0]]", "[[2]]", "[[[1,1],[0,1]],[[1,0],[0,1]]]"]
            argv += ["--H=" + draw(st.sampled_from(H)), "--c=" + draw(st.sampled_from(RATS))]
        else:
            tops = ["r1:1@1", "r1:1@2", "r2:1@1", JORDAN_TOP]
            argv += ["--tops"] + [draw(st.sampled_from(tops)) for _ in range(3)]
        bad = MODULE_BAD[action]
    argv.append("--format=" + fmt)
    if draw(st.integers(0, 3)) == 0:
        return argv + draw(st.sampled_from(bad)), fmt, True
    # module actions write JSON only, and dims JSON or CSV
    return argv, fmt, (command == "module" and fmt != "json") or (command, fmt) == ("dims", "text")


def counterexample_shown(command, fmt, out):
    """Whether stdout reports a nonzero defect (verify) or disagreeing columns (dims)."""
    if command == "verify":
        if fmt == "json":
            return json.loads(out)["defect_zero"] is False
        if fmt == "text":
            return "defect_zero: false\n" in out
        return next(csv.reader(out.splitlines()[1:]))[3] == "false"
    if command == "dims":
        if fmt == "json":
            rows = [(r["enum"], r["dp"], r["gf_product"]) for r in json.loads(out)["rows"]]
        else:
            rows = [tuple(line.split(",")[2:5]) for line in out.splitlines()[2:]]
        return any(len(set(row)) > 1 for row in rows)
    return False


# L(2) x_{1,1,1}^2 = l * vacuum leaves the bigrade: a counterexample in each format
L0_COUNTEREXAMPLE = ["verify", "l0-grading", "--j-range=2", "--max-wt=2", "--max-nwt=2"]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(small_argv())
@example((L0_COUNTEREXAMPLE + ["--format=json"], "json", False))
@example((L0_COUNTEREXAMPLE + ["--format=csv"], "csv", False))
@example((L0_COUNTEREXAMPLE + ["--format=text"], "text", False))
# a module flag the action does not read, as a draw rarely appends one
@example((["module", "casimir", "--lambda=1", "--c=1/2", "--format=json", "--d=1"], "json", True))
@example((["module", "homdim", "--tops", "r1:1@1", "r1:1@1", "r1:1@2", "--format=json",
           "--kind=evaluation"], "json", True))
@example((["module", "vacuum", "--max-wt=1", "--format=json", "--tops", "r1:1@1"], "json", True))
# an identity flag the identity does not read
@example((["verify", "virasoro", "--max-wt=1", "--format=json", "--gen=1,0"], "json", True))
# a given A with a bound that generates labels, and a single --k with its range
@example((["verify", "field-commutator", "--max-wt=1", "--a-max-wt=1", "--a-state=" + A_ONE,
           "--format=json"], "json", True))
@example((["verify", "e1", "--max-wt=1", "--max-nwt=0", "--k=0", "--k-range=x",
           "--format=json"], "json", True))
def test_argv_fuzz_keeps_the_exit_code_contract(case):
    argv, fmt, malformed = case
    out, err = io.StringIO(), io.StringIO()
    # an exception escaping main would print a traceback; here it fails the test
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if malformed:
        assert code == EXIT_USAGE, argv
    if code == EXIT_USAGE:
        assert out == "" and "error:" in err, argv
    else:
        assert code in (EXIT_OK, EXIT_COUNTEREXAMPLE) and err == "", argv
        assert (code == EXIT_COUNTEREXAMPLE) == counterexample_shown(argv[0], fmt, out), argv
