import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import lrwkit
from lrwkit import looproot
from lrwkit.cli import BETA_MAX_COORDS, COMMUTE_MAX_PAIRS, main, parse_partition, parse_weight
from lrwkit.lie import LieSpec
from lrwkit.partitions import DominantWeight, Partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_partition(self):
        assert parse_partition("4,3,1") == Partition([4, 3, 1])
        assert parse_partition("") == Partition()
        assert parse_partition("-") == Partition()

    def test_partition_errors(self):
        from lrwkit.cli import UsageError

        with pytest.raises(UsageError):
            parse_partition("a,b")

    def test_weight(self):
        assert parse_weight("1,2,1@rank=3") == DominantWeight((1, 2, 1), 3)
        assert parse_weight("@rank=2") == DominantWeight((0, 0), 2)
        assert parse_weight("1@rank=3") == DominantWeight((1, 0, 0), 3)


class TestCommands:
    def test_part_roundtrip(self, capsys):
        code, out, _ = run(capsys, "part", "fromweight", "1,2,1@rank=3")
        assert code == 0
        assert json.loads(out)["result"] == [4, 3, 1]
        code, out, _ = run(capsys, "part", "toweight", "4,3,1", "3")
        assert json.loads(out)["result"] == [1, 2, 1]

    def test_part_conjugate_contains_size(self, capsys):
        code, out, _ = run(capsys, "part", "conjugate", "4,3,1")
        assert json.loads(out)["result"] == [3, 2, 2, 1]
        code, out, _ = run(capsys, "part", "contains", "3,2,1", "2,2")
        assert json.loads(out)["result"] is True
        code, out, _ = run(capsys, "part", "size", "4,3,1")
        assert json.loads(out)["result"] == 8

    def test_schur_commands(self, capsys):
        code, out, _ = run(capsys, "schur", "mult", "1", "1")
        assert json.loads(out)["result"] == [
            {"partition": [2], "coeff": 1},
            {"partition": [1, 1], "coeff": 1},
        ]
        code, out, _ = run(capsys, "schur", "skew", "3,2,1", "2,2")
        assert json.loads(out)["result"] == [
            {"partition": [2], "coeff": 1},
            {"partition": [1, 1], "coeff": 1},
        ]
        code, out, _ = run(capsys, "schur", "jt", "2,1")
        payload = json.loads(out)
        assert payload["h_expansion"] == [
            {"partition": [3], "coeff": -1},
            {"partition": [2, 1], "coeff": 1},
        ]
        assert payload["schur"] == [{"partition": [2, 1], "coeff": 1}]

    def test_lr(self, capsys):
        code, out, _ = run(capsys, "lr", "2,1", "1", "1,1")
        assert code == 0
        assert json.loads(out)["coefficient"] == 1

    def test_branch(self, capsys):
        code, out, _ = run(capsys, "branch", "1,1", "--target", "sp")
        assert json.loads(out)["result"] == [
            {"partition": [1, 1], "coeff": 1},
            {"partition": [], "coeff": 1},
        ]

    def test_dcoef(self, capsys):
        code, out, _ = run(capsys, "dcoef", "1", "1")
        assert json.loads(out)["result"] == [
            {"partition": [2], "coeff": 1},
            {"partition": [1, 1], "coeff": 1},
            {"partition": [], "coeff": 1},
        ]
        code, out, _ = run(capsys, "dcoef", "1", "1", "--lam", "", "--family", "o")
        assert json.loads(out)["coefficient"] == 1

    def test_wdecomp(self, capsys):
        code, out, _ = run(capsys, "wdecomp", "3,2,1", "--family", "o")
        payload = json.loads(out)
        assert payload["family"] == "O"
        assert len(payload["terms"]) == 6

    def test_wtensor(self, capsys):
        code, out, _ = run(capsys, "wtensor", "1", "1", "--family", "sp")
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["lhs"] == payload["rhs"]

    def test_fermionic(self, capsys):
        code, out, _ = run(capsys, "fermionic", "B", "3", "--factor", "1,2")
        payload = json.loads(out)
        assert payload["terms"] == [
            {"weight": [0, 1, 0], "mult": 1},
            {"weight": [0, 0, 0], "mult": 1},
        ]
        code, out, _ = run(
            capsys, "fermionic", "B", "3", "--factor", "1,2", "--weight", "@rank=3"
        )
        assert json.loads(out)["multiplicity"] == 1

    def test_fermionic_high_rank_column_pair(self, capsys):
        # the root-coordinate box has 30 dimensions: the decomposition must not walk it
        code, out, _ = run(capsys, "fermionic", "D", "30", "--factor", "1,2")
        assert code == 0
        omega2 = [0, 1] + [0] * 28
        assert json.loads(out)["terms"] == [
            {"weight": omega2, "mult": 1},
            {"weight": [0] * 30, "mult": 1},
        ]

    def test_roots(self, capsys):
        code, out, _ = run(capsys, "roots", "beta", "D", "5")
        payload = json.loads(out)
        assert payload["count"] == 3
        assert payload["roots"][0]["weight"] == [0, 1, 0, 0, 0]
        code, out, _ = run(capsys, "roots", "commute", "C", "4")
        assert json.loads(out)["ok"] is True
        code, out, _ = run(
            capsys, "roots", "cone", "D", "5", "--weight", "1,-1,1,0,0"
        )
        assert json.loads(out)["solutions"] == [[0, 1, 0]]
        code, out, _ = run(capsys, "roots", "cone", "D", "5", "--alpha", "1,1,2,1,1")
        assert json.loads(out)["solutions"] == [[0, 1, 0]]

    @pytest.mark.parametrize(
        "options",
        [["--alpha", "1,1,2,1,1", "--weight", "1,0,0,0,0"], []],
        ids=["both", "neither"],
    )
    def test_roots_cone_needs_exactly_one_target(self, capsys, options):
        with pytest.raises(SystemExit) as err:
            main(["roots", "cone", "D", "5", *options])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_roots_known_slow_inputs(self, capsys):
        # both ran for minutes in simple-root coordinates
        argv = ["roots", "cone", "C", "6", "--alpha", "9,18,27,36,45,24"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert '"solutions":[]' in out
        code, out, _ = run(capsys, "--format", "tsv", *argv)
        assert (code, out) == (0, "(none)\n")
        code, out, _ = run(capsys, "roots", "commute", "D", "24")
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("family,rank", [("C", 46), ("B", 47), ("D", 48), ("D", 200)])
    def test_roots_cone_more_labels_than_recursion_limit(self, capsys, family, rank):
        # over 1,000 labels; a search recursing once per label overflowed the stack
        code, out, _ = run(
            capsys, "roots", "cone", family, str(rank), "--alpha", ",".join(["0"] * rank)
        )
        assert code == 0
        labels = looproot.beta_count(LieSpec(family, rank))
        assert labels > 1000
        assert json.loads(out)["solutions"] == [[0] * labels]

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, "--format", "tsv", "wdecomp", "3,2,1", "--family", "o")
        lines = out.strip().splitlines()
        assert lines[0] == "3,2,1\t1"
        assert len(lines) == 6

    @pytest.mark.parametrize(
        "argv", [["D", "5", "--weight", "1,0,0,0,0"], ["B", "3", "--weight", "0,0,1"]]
    )
    def test_roots_cone_weight_outside_root_lattice(self, capsys, argv):
        code, out, _ = run(capsys, "roots", "cone", *argv)
        family, rank, _, weight = argv
        assert (code, out) == (
            0,
            f'{{"family":"{family}","rank":{rank},"weight":[{weight}],'
            '"solutions":[],"note":"not in the root lattice"}\n',
        )
        code, out, _ = run(capsys, "--format", "tsv", "roots", "cone", *argv)
        assert (code, out) == (0, "solutions\t0\n")


def _cells(parts):
    return ",".join(map(str, parts)) or "-"


def _expansion_rows(terms, prefix=""):
    return [[prefix + _cells(t["partition"]), t["coeff"]] for t in terms]


def _beta_rows(payload):
    return [[_cells(r["label"]), _cells(r["alpha"])] for r in payload["roots"]] or [["(none)"]]


def _solution_rows(payload):
    return [[_cells(s)] for s in payload["solutions"]] or [["(none)"]]


# argv, and the TSV rows that the same command's JSON output implies
TSV_CASES = {
    "part-conjugate": (["part", "conjugate", "4,3,1"], lambda j: [[_cells(j["result"])]]),
    "part-size": (["part", "size", "4,3,1"], lambda j: [[j["result"]]]),
    "part-contains": (["part", "contains", "3,2,1", "2,2"], lambda j: [[json.dumps(j["result"])]]),
    "part-toweight": (["part", "toweight", "4,3,1", "4"], lambda j: [[_cells(j["result"])]]),
    "part-fromweight": (
        ["part", "fromweight", "0,0@rank=2"], lambda j: [[_cells(j["result"])]]
    ),
    "schur-mult": (["schur", "mult", "2,1", "1,1"], lambda j: _expansion_rows(j["result"])),
    "schur-skew": (["schur", "skew", "3,2,1", "1"], lambda j: _expansion_rows(j["result"])),
    "schur-jt": (
        ["schur", "jt", "3,2", "1"],
        lambda j: _expansion_rows(j["h_expansion"], "h:") + _expansion_rows(j["schur"], "s:"),
    ),
    "lr": (["lr", "3,2,1", "2,1", "2,1"], lambda j: [[j["coefficient"]]]),
    "branch": (["branch", "2,2", "--target", "sp"], lambda j: _expansion_rows(j["result"])),
    "dcoef": (["dcoef", "2,1", "1", "--family", "o"], lambda j: _expansion_rows(j["result"])),
    "dcoef-lam": (["dcoef", "2,1", "1", "--lam", "2"], lambda j: [[j["coefficient"]]]),
    "wdecomp": (
        ["wdecomp", "3,2,1", "--family", "sp"],
        lambda j: [[_cells(t["partition"]), t["mult"]] for t in j["terms"]],
    ),
    "wtensor": (
        ["wtensor", "2", "1,1", "--family", "o"],
        lambda j: [["equal", json.dumps(j["equal"])]]
        + _expansion_rows(j["lhs"], "lhs:")
        + _expansion_rows(j["rhs"], "rhs:"),
    ),
    "fermionic": (
        ["fermionic", "C", "3", "--factor", "2,1"],
        lambda j: [[_cells(t["weight"]), t["mult"]] for t in j["terms"]],
    ),
    "fermionic-weight": (
        ["fermionic", "B", "3", "--factor", "1,2", "--factor", "1,1", "--weight", "1@rank=3"],
        lambda j: [[_cells(j["weight"]), j["multiplicity"]]],
    ),
    "roots-beta": (["roots", "beta", "C", "4"], _beta_rows),
    "roots-beta-none": (["roots", "beta", "B", "2"], _beta_rows),
    "roots-commute": (
        ["roots", "commute", "B", "5"],
        lambda j: [["beta_count", j["beta_count"]]]
        + [
            [f"{kind}_violations", len(j[f"{kind}_violations"])]
            for kind in ("pair_sum", "pair_sum_minus_simple", "lowering")
        ]
        + [["ok", json.dumps(j["ok"])]],
    ),
    "roots-cone-alpha": (["roots", "cone", "B", "5", "--alpha", "1,2,3,4,4"], _solution_rows),
    "roots-cone-weight": (["roots", "cone", "D", "5", "--weight", "1,-1,1,0,0"], _solution_rows),
    "roots-cone-empty-solution": (["roots", "cone", "B", "2", "--alpha", "0,0"], _solution_rows),
    "roots-cone-none": (["roots", "cone", "C", "6", "--alpha", "9,18,27,36,45,24"], _solution_rows),
    "roots-cone-off-lattice": (
        ["roots", "cone", "D", "5", "--weight", "1,0,0,0,0"],
        lambda j: [["solutions", len(j["solutions"])]],
    ),
    "verify": (
        ["verify"],
        lambda *lines: [[c["name"], c["status"]] for c in lines[:-1]]
        + [["summary", "{passed}/{total}".format(**lines[-1]["summary"])]],
    ),
}


@pytest.mark.parametrize("argv,rows", list(TSV_CASES.values()), ids=list(TSV_CASES))
def test_tsv_rows_match_json(capsys, argv, rows):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = rows(*(json.loads(line) for line in out.splitlines()))
    assert want, "a case should print at least one row"
    code, out, _ = run(capsys, "--format", "tsv", *argv)
    assert code == 0
    assert out.splitlines() == ["\t".join(map(str, row)) for row in want]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_closed_stdout_keeps_the_exit_code(fmt):
    # C 60 prints about 500 KB, far past a 64 KiB pipe buffer: the reader leaves mid-output
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(lrwkit.__file__).parents[1]))
    argv = [sys.executable, "-m", "lrwkit.cli", "--format", fmt, "roots", "beta", "C", "60"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline(4096)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def run_near_recursion_limit(capsys, *argv):
    # a limit just above the current depth stands in for an input that nests
    # near the default limit of 1000
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        return run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)


class TestExitCodes:
    @pytest.mark.parametrize("extra", [[], ["--weight", "0@rank=150"]], ids=["decomp", "weight"])
    def test_recursion_limit_exits_3(self, capsys, extra):
        # the fermionic searches nest one frame per Dynkin node
        code, out, err = run_near_recursion_limit(
            capsys, "fermionic", "D", "150", "--factor", "1,2", *extra
        )
        assert (code, out) == (3, "")
        assert err.startswith("lrwkit: ") and err.count("\n") == 1 and "rank" in err

    def test_recursion_limit_message_names_no_command(self, capsys):
        # the ballot-filling search nests one frame per box of a one-row skew
        code, out, err = run_near_recursion_limit(
            capsys, "--max-boxes", "5000", "schur", "skew", "300", "-"
        )
        assert (code, out) == (3, "")
        assert err.startswith("lrwkit: input nests deeper") and err.count("\n") == 1
        assert "fermionic" not in err

    @pytest.mark.parametrize("family,rank", [("D", 1000), ("C", 78), ("B", 79), ("D", 80)])
    def test_commute_pair_cap_exits_3(self, capsys, family, rank):
        code, out, err = run(capsys, "roots", "commute", family, str(rank))
        assert (code, out) == (3, "")
        assert err.startswith("lrwkit: ") and err.count("\n") == 1
        assert f"over the limit of {COMMUTE_MAX_PAIRS:,} pairs" in err

    def test_commute_pair_cap_admits_largest_ranks(self):
        # the ranks just under the cap answer in about 2 s; the benchmark's
        # ranks (10 to 18, and D 40) sit far below it
        for family, rank in (("D", 79), ("C", 77), ("B", 78)):
            assert looproot.beta_count(LieSpec(family, rank)) ** 2 <= COMMUTE_MAX_PAIRS
            assert looproot.beta_count(LieSpec(family, rank + 1)) ** 2 > COMMUTE_MAX_PAIRS

    @pytest.mark.parametrize("family,rank", [("D", 1000), ("B", 152), ("C", 151), ("D", 153)])
    def test_beta_coordinate_cap_exits_3(self, capsys, family, rank):
        code, out, err = run(capsys, "roots", "beta", family, str(rank))
        assert (code, out) == (3, "")
        assert err.startswith("lrwkit: ") and err.count("\n") == 1
        assert f"over the limit of {BETA_MAX_COORDS:,} coordinates" in err

    def test_beta_coordinate_cap_admits_largest_ranks(self):
        # the ranks just under the cap answer in about 2 s; the benchmark's
        # ranks (5 to 9) sit far below it
        for family, rank in (("B", 151), ("C", 150), ("D", 152)):
            assert looproot.beta_count(LieSpec(family, rank)) * rank <= BETA_MAX_COORDS
            spec = LieSpec(family, rank + 1)
            assert looproot.beta_count(spec) * (rank + 1) > BETA_MAX_COORDS

    @pytest.mark.parametrize(
        "family,rank,alpha",
        [("C", 7, "6,12,18,24,30,36,18"), ("D", 1847, ",".join(["0"] * 1847))],
        ids=["C-7-solutions", "D-1847-labels"],
    )
    def test_cone_output_cap_exits_3(self, capsys, family, rank, alpha):
        # C 7: 1,594,340 solutions of 21 labels; D 1847: one solution of 1,701,090
        start = time.perf_counter()
        code, out, err = run(capsys, "roots", "cone", family, str(rank), "--alpha", alpha)
        assert time.perf_counter() - start < 3
        assert (code, out) == (3, "")
        assert err.startswith("lrwkit: ") and err.count("\n") == 1
        assert f"over the limit of {BETA_MAX_COORDS:,} coordinates" in err

    def test_cone_output_cap_admits_largest_rank(self):
        # D 1846 with all zeros prints its one solution of 1,699,246 labels in about 2 s
        assert looproot.beta_count(LieSpec("D", 1846)) <= BETA_MAX_COORDS
        assert looproot.beta_count(LieSpec("D", 1847)) > BETA_MAX_COORDS

    def test_cone_odd_orthogonal_sum_answers_at_once(self, capsys):
        # orthogonal coordinates (8,8,8,8,8,8,1,0) sum to 49: no sum of roots
        # e_k + e_l meets them; the walk took 14 s to find that out
        start = time.perf_counter()
        code, out, _ = run(capsys, "roots", "cone", "B", "8", "--alpha", "8,16,24,32,40,48,49,49")
        assert time.perf_counter() - start < 1
        assert (code, json.loads(out)["solutions"]) == (0, [])

    def test_fermionic_rank_past_recursion_limit_exits_3_at_once(self, capsys):
        # the dense Cartan matrix of A 5000 took 2 s and 400 MB before the search failed
        start = time.perf_counter()
        code, out, err = run(capsys, "fermionic", "A", "5000", "--factor", "1,1")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert err.startswith("lrwkit: input nests deeper") and err.count("\n") == 1
        # a weight off the root lattice answers 0 before any search
        code, out, _ = run(
            capsys, "fermionic", "D", "5000", "--factor", "1,2", "--weight", "1@rank=5000"
        )
        assert code == 0 and json.loads(out)["multiplicity"] == 0

    @pytest.mark.parametrize(
        "argv,unit",
        [
            (["part", "toweight", "1", "1000000000"], "coordinates"),
            (["part", "fromweight", "1@rank=1000000000"], "coordinates"),
            (["part", "conjugate", "1000000000"], "boxes"),
            (["fermionic", "B", "3", "--factor", "1,1", "--weight", "1@rank=1000000000"],
             "coordinates"),
        ],
        ids=["toweight", "fromweight", "conjugate", "fermionic-weight"],
    )
    def test_part_budget_exits_3_at_once(self, capsys, argv, unit):
        # each built a list of that length first: 2 s and 275 MB at 3,000,000
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert err.startswith("lrwkit: ") and err.count("\n") == 1
        assert f"1,000,000,000 {unit}, over the limit of {BETA_MAX_COORDS:,} {unit}" in err

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["part", "toweight", "1", "{n}"], "result"),
            (["part", "fromweight", "1@rank={n}"], "weight"),
            (["part", "conjugate", "{n}"], "result"),
        ],
        ids=["toweight", "fromweight", "conjugate"],
    )
    def test_part_budget_admits_its_limit(self, capsys, argv, key):
        code, out, _ = run(capsys, *(a.format(n=BETA_MAX_COORDS) for a in argv))
        assert code == 0 and len(json.loads(out)[key]) == BETA_MAX_COORDS
        code, out, err = run(capsys, *(a.format(n=BETA_MAX_COORDS + 1) for a in argv))
        assert (code, out) == (3, "")
        assert f"over the limit of {BETA_MAX_COORDS:,}" in err
        assert parse_weight(f"1@rank={BETA_MAX_COORDS}").rank == BETA_MAX_COORDS

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "option,noun", [("--alpha", "coordinates"), ("--weight", "coefficients")]
    )
    def test_roots_cone_wrong_length_is_usage_error(self, capsys, option, noun):
        code, out, err = run(capsys, "roots", "cone", "D", "5", option, "1,2")
        assert (code, out) == (2, "")
        assert err == f"lrwkit: expected 5 {noun}, got 2\n"

    def test_usage_error_from_values(self, capsys):
        code, _, err = run(capsys, "lr", "2,1", "1", "x")
        assert code == 2
        assert "bad partition" in err

    def test_dcoef_checks_lam_before_the_expansion(self, capsys, monkeypatch):
        from lrwkit import classical

        def expand(*args):
            raise AssertionError("the expansion ran before --lam was checked")

        monkeypatch.setattr(classical, "stable_tensor_expansion", expand)
        code, out, err = run(
            capsys, "--max-boxes", "24", "dcoef", "5,4,3", "5,4,3", "--family", "o", "--lam", "x"
        )
        assert (code, out) == (2, "")
        assert "bad partition" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "wdecomp", "6,6,6,6,6", "--family", "o")
        assert code == 3
        assert "cap" in err

    def test_cap_can_be_raised(self, capsys):
        code, _, _ = run(
            capsys, "--max-boxes", "40", "wdecomp", "5,5,5", "--family", "o"
        )
        assert code == 0

    def test_environment_sets_no_cap(self, capsys, monkeypatch):
        # the environment does not set the cap: only --max-boxes does
        monkeypatch.setenv("LRWKIT_MAX_BOXES", "30")
        code, out, err = run(capsys, "schur", "mult", "6", "6")
        assert (code, out) == (3, "")
        assert "over the cap of 10" in err
        monkeypatch.setenv("LRWKIT_MAX_BOXES", "3")
        code, _, _ = run(capsys, "wdecomp", "2,2", "--family", "o")
        assert code == 0

    def test_config_option_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "f.json"
        cfg.write_text('{"max_boxes": 30, "format": "tsv"}')
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "part", "size", "1"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_negative_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--max-boxes", "-5", "schur", "mult", "1", "1")
        assert (code, out) == (2, "")
        assert "nonnegative" in err
        # even commands that enumerate nothing refuse it
        assert run(capsys, "--max-boxes", "-1", "part", "size", "3,2")[0] == 2
        assert run(capsys, "--max-boxes", "0", "part", "size", "3,2")[0] == 0

    def test_verify_quick_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "quick")
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["failed"] == 0
        assert summary["total"] == len(lines) - 1


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--level", "quick")
        _, out2, _ = run(capsys, "verify", "--level", "quick")
        assert out1 == out2

    def test_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--level", "quick", "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["summary"]["failed"] == 0
        code, _, _ = run(capsys, "verify", "--level", "quick", "--out", str(out_path))
        assert json.loads(out_path.read_text()) == report

    def test_unwritable_report_file_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "verify", "--level", "quick", "--out", str(out_path))
        assert code == 2
        assert json.loads(out.strip().splitlines()[-1])["summary"]["failed"] == 0
        assert err.startswith("lrwkit: cannot write report")
        assert not out_path.parent.exists()
