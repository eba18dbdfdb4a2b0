import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_arbor import arbor, cli, verify


def run_cli(*args, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "collatz_arbor.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestTrajectory:
    def test_orbit_of_nine(self):
        result = run_cli("trajectory", "9")
        assert result.returncode == 0
        assert result.stdout == (
            "9 -> 7 -> 11 -> 17 -> 13 -> 5 -> 1\n"
            "a = 2,1,1,2,3,4\n"
            "length = 6 (converged)\n"
        )

    def test_json_output(self):
        result = run_cli("trajectory", "9", "--output", "json")
        payload = json.loads(result.stdout)
        assert payload["values"] == [9, 7, 11, 17, 13, 5, 1]
        assert payload["exponents"] == [2, 1, 1, 2, 3, 4]
        assert payload["converged"] is True

    def test_even_input_is_usage_error(self):
        result = run_cli("trajectory", "8")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "odd" in result.stderr

    def test_non_decimal_rejected(self):
        result = run_cli("trajectory", "0x11")
        assert result.returncode == 2

    def test_non_ascii_digits_rejected(self):
        # Arabic-Indic "13": str.isdigit accepts it, int() would read 13
        result = run_cli("trajectory", "\u0661\u0663")
        assert result.returncode == 2
        assert result.stdout == ""

    def test_start_past_4300_digits(self):
        # Python's default int/str limit once refused this as a usage error
        start = "1" + "0" * 4399 + "1"
        result = run_cli("trajectory", start, "--max-steps", "3")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        lines = result.stdout.splitlines()
        assert lines[0].split(" -> ")[0] == start
        assert lines[2] == "length = 3 (not converged)"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="Python 3.10 has no int/str digit limit")
    def test_main_gives_the_digit_limit_back(self):
        # main lifts the limit for its own call only, so an in-process
        # caller keeps the limit it had
        start = "1" + "0" * 4399 + "1"
        limit = sys.get_int_max_str_digits()
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["trajectory", start, "--max-steps", "3"]) == 0
        assert out.getvalue().startswith(start)
        assert sys.get_int_max_str_digits() == limit


class TestSiblings:
    def test_count_stop(self):
        result = run_cli("siblings", "5", "--count", "3")
        assert result.returncode == 0
        assert result.stdout == "3, 13, 53\n"

    def test_bound_stop(self):
        result = run_cli("siblings", "5", "--bound", "100")
        assert result.stdout == "3, 13, 53\n"

    def test_stop_criteria_mutually_exclusive(self):
        result = run_cli("siblings", "5", "--count", "3", "--bound", "100")
        assert result.returncode == 2

    def test_missing_stop_criterion(self):
        result = run_cli("siblings", "5")
        assert result.returncode == 2

    def test_leaf_parent_is_usage_error(self):
        result = run_cli("siblings", "9", "--count", "3")
        assert result.returncode == 2

    def test_json_output(self):
        result = run_cli("siblings", "5", "--count", "3", "--output", "json")
        payload = json.loads(result.stdout)
        assert payload["values"] == [3, 13, 53]
        assert payload["indices"] == [1, 2, 3]

    @pytest.mark.parametrize("u, stop", [(5, ("--count", "40")), (7, ("--bound", "100000")),
                                         (5, ("--bound", "2")), (1, ("--count", "1"))])
    def test_json_is_json_dumps_of_the_payload(self, u, stop):
        # written value by value, byte for byte as json.dumps(payload, sort_keys=True)
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["siblings", str(u), *stop, "--output", "json"]) == 0
        count = int(stop[1]) if stop[0] == "--count" else None
        bound = int(stop[1]) if stop[0] == "--bound" else None
        e1 = 2 if u % 3 == 1 else 1
        values = []
        for n in range(1, 100):
            v = ((u << (e1 + 2 * (n - 1))) - 1) // 3
            if (count is not None and n > count) or (bound is not None and v > bound):
                break
            values.append(v)
        payload = {"parent": u, "count": count, "bound": bound,
                   "indices": list(range(1, len(values) + 1)), "values": values}
        assert out.getvalue() == json.dumps(payload, sort_keys=True) + "\n"

    def test_json_run_peak_rss(self):
        # the 8,000 values hold about 8 MB; the JSON text of the whole
        # payload, held at once, took the run to 64.5 MB
        probe = ("import resource, subprocess, sys; subprocess.run([sys.executable, '-m', "
                 "'collatz_arbor.cli', 'siblings', '5', '--count', '8000', '--output', 'json'], "
                 "stdout=subprocess.DEVNULL, check=True); "
                 "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr[-500:]
        peak_kib = int(result.stdout) // (1024 if sys.platform == "darwin" else 1)  # bytes there
        assert peak_kib < 40 * 1024

    def test_values_past_4300_digits(self):
        # v_7200 of 5 has 4,335 digits; printing it once exited 2 after the
        # values were all computed
        result = run_cli("siblings", "5", "--count", "7200")
        assert result.returncode == 0, result.stderr[-500:]
        assert "Traceback" not in result.stderr
        values = result.stdout.rstrip("\n").split(", ")
        assert len(values) == 7200 and values[:3] == ["3", "13", "53"]
        last = ((5 << (2 * 7200 - 1)) - 1) // 3
        assert 10 ** (len(values[-1]) - 1) <= last < 10 ** len(values[-1])
        assert int(values[-1][-18:]) == last % 10**18

    @pytest.mark.parametrize("count", ["100000", "100000000"])
    def test_run_over_the_budget_exits_3(self, count):
        # the run is charged in closed form (33.4 M nodes for 100,000
        # siblings) and refused before any child is grown
        start = time.perf_counter()
        result = run_cli("siblings", "5", "--count", count, timeout=60)
        assert time.perf_counter() - start < 2
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: node budget ")
        assert "Traceback" not in result.stderr

    def test_env_var_budget(self):
        # 200 siblings of 5 are charged 305 nodes
        env = dict(os.environ, COLLATZ_ARBOR_MAX_NODES="305")
        assert run_cli("siblings", "5", "--count", "200", env=env).returncode == 0
        env["COLLATZ_ARBOR_MAX_NODES"] = "304"
        result = run_cli("siblings", "5", "--count", "200", env=env)
        assert result.returncode == 3
        assert result.stdout == ""


class TestTree:
    def test_jsonl_to_stdout(self):
        result = run_cli("tree", "--depth", "1", "--bound", "25")
        assert result.returncode == 0
        values = [json.loads(line)["value"] for line in result.stdout.splitlines()]
        assert values == [1, 5, 21]

    def test_byte_identical_runs(self):
        first = run_cli("tree", "--depth", "4", "--bound", "1000", "--format", "jsonl")
        second = run_cli("tree", "--depth", "4", "--bound", "1000", "--format", "jsonl")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_out_file(self, tmp_path):
        out = tmp_path / "tree.csv"
        result = run_cli("tree", "--depth", "1", "--bound", "25",
                         "--format", "csv", "--out", str(out))
        assert result.returncode == 0
        assert out.read_text().startswith("value,depth,parent")

    def test_export_alias(self):
        via_tree = run_cli("tree", "--depth", "1", "--bound", "25", "--format", "dot")
        via_export = run_cli("export", "--depth", "1", "--bound", "25", "--format", "dot")
        assert via_tree.stdout == via_export.stdout

    def test_values_past_4300_digits(self):
        # the root's last child here, v_7201, has over 4,300 digits; the
        # export once wrote the rows before it and then exited 2
        result = run_cli("tree", "--depth", "1", "--sibling-cap", "7201", "--format", "csv")
        assert result.returncode == 0, result.stderr[-500:]
        assert "Traceback" not in result.stderr
        rows = result.stdout.splitlines()
        assert len(rows) == 2 + 7200  # the header, the root and v_2 .. v_7201
        last = ((1 << (2 * 7201)) - 1) // 3
        value = rows[-1].split(",")[0]
        assert len(value) > 4300 and int(value[-18:]) == last % 10**18

    def test_budget_exceeded_exit_code(self):
        result = run_cli("tree", "--depth", "6", "--bound", "1000000",
                         "--max-nodes", "10")
        assert result.returncode == 3
        assert "budget" in result.stderr
        assert result.stdout == ""  # the whole tree is built before a byte is written

    def test_env_var_budget(self):
        env = dict(os.environ, COLLATZ_ARBOR_MAX_NODES="10")
        result = run_cli("tree", "--depth", "6", "--bound", "1000000", env=env)
        assert result.returncode == 3
        assert result.stdout == ""

    def test_env_var_budget_needs_ascii_digits(self):
        env = dict(os.environ, COLLATZ_ARBOR_MAX_NODES="\u0661\u0663")
        result = run_cli("tree", "--depth", "1", "--bound", "25", env=env)
        assert result.returncode == 2
        assert "COLLATZ_ARBOR_MAX_NODES" in result.stderr

    def test_no_bounds_is_usage_error(self):
        result = run_cli("tree")
        assert result.returncode == 2

    def test_reader_closing_early_exits_quietly(self):
        # like `tree ... | head -c 100`: megabytes of output, reader stops at 100 bytes
        proc = subprocess.Popen(
            [sys.executable, "-m", "collatz_arbor.cli", "tree", "--depth", "20",
             "--bound", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert len(head) == 100
        assert stderr == b""


class TestVerify:
    def test_single_suite_passes(self):
        result = run_cli("verify", "--suite", "lemma1",
                         "--parent-bound", "200", "--count", "8")
        assert result.returncode == 0
        assert result.stdout.startswith("PASS residue_cycle")

    def test_all_suites_on_default_boxes(self):
        result = run_cli("verify", "--suite", "all")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 12
        assert all(line.startswith("PASS") for line in lines)

    def test_all_suites_on_small_boxes(self):
        result = run_cli("verify", "--suite", "all",
                         "--parent-bound", "200", "--count", "8",
                         "--max-d", "8", "--partners", "20",
                         "--depth", "6", "--bound", "100000",
                         "--conv-bound", "200")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 12
        assert all(line.startswith("PASS") for line in lines)

    def test_json_reports_are_line_delimited_and_stable(self):
        args = ("verify", "--suite", "collision", "--max-d", "8",
                "--partners", "20", "--output", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["check_name"] == "collision_parity"
        assert report["passed"] is True
        assert "elapsed_s" not in report["statistics"]

    def test_failing_check_exits_one(self):
        result = run_cli("verify", "--suite", "convergence",
                         "--conv-bound", "27", "--max-steps", "3")
        assert result.returncode == 1
        assert "FAIL" in result.stdout
        assert "counterexample" in result.stdout

    def test_unknown_suite_is_usage_error(self):
        result = run_cli("verify", "--suite", "bogus")
        assert result.returncode == 2

    def test_budget_exceeded_exit_code(self):
        # the depth-6, 10^6 tree holds 1,060 nodes; it is built before any report is written
        result = run_cli("verify", "--suite", "uniqueness", "--max-nodes", "10")
        assert result.returncode == 3
        assert result.stderr == "error: node budget 10 exhausted at depth 2\n"
        assert result.stdout == ""
        assert run_cli("verify", "--suite", "uniqueness", "--max-nodes", "1060").returncode == 0

    def test_env_var_budget(self):
        env = dict(os.environ, COLLATZ_ARBOR_MAX_NODES="10")
        result = run_cli("verify", "--suite", "uniqueness", env=env)
        assert result.returncode == 3
        assert result.stdout == ""
        # --max-nodes outranks the override
        result = run_cli("verify", "--suite", "uniqueness", "--max-nodes", "1060", env=env)
        assert result.returncode == 0
        assert result.stdout.startswith("PASS uniqueness")

    def test_uniqueness_peak_rss(self):
        # the depth-40, 2*10^6 tree (298,358 nodes): counting every child in a Counter
        # beside a set of every stored value peaked at 58.7 MB, the ordered walk at 17.1 MB
        probe = ("import resource, subprocess, sys; subprocess.run([sys.executable, '-m', "
                 "'collatz_arbor.cli', 'verify', '--suite', 'uniqueness', '--depth', '40', "
                 "'--bound', '2000000', '--output', 'json'], stdout=subprocess.DEVNULL, "
                 "check=True); print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr[-500:]
        peak_kib = int(result.stdout) // (1024 if sys.platform == "darwin" else 1)  # bytes there
        assert peak_kib < 30 * 1024


# every check run_suite can start, the per-parent driver and the collision
# loop included; none may start when a box is bad
SWEEPS = ("_over_parents", "_collision_parity", "check_uniqueness", "check_parent_pointers",
          "check_covering", "check_convergence")


def _must_not_run(name):
    def sweep(*args, **kwargs):
        raise AssertionError(f"{name} ran although a box was bad")
    return sweep


class TestVerifyBoxes:
    @pytest.mark.parametrize("args, message", [
        (("--suite", "all", "--parent-bound", "3"), "parent_bound must be >= 7, got 3"),
        (("--suite", "all", "--depth", "2"), "tree depth 2 is too shallow; need >= 3"),
        (("--suite", "all", "--conv-bound", "0"), "bound must be >= 1, got 0"),
        (("--suite", "convergence", "--max-steps", "0"), "max_steps must be >= 1, got 0"),
        # empty boxes: each would otherwise pass with cases=0, or run sweeps first
        (("--suite", "residue-cycle", "--count", "0"), "count must be >= 1, got 0"),
        (("--suite", "residue-cycle", "--parent-bound", "0"), "parent_bound must be >= 1, got 0"),
        (("--suite", "gaps", "--count", "0"), "count must be >= 1, got 0"),
        (("--suite", "closed-forms", "--count", "0"), "count must be >= 1, got 0"),
        (("--suite", "covering", "--count", "0"), "count must be >= 1, got 0"),
        (("--suite", "collision", "--max-d", "0"), "max_d must be >= 1, got 0"),
        (("--suite", "collision", "--partners", "0"), "partners must be >= 1, got 0"),
        (("--suite", "multiples", "--count", "0"), "count must be >= 1, got 0"),
        (("--suite", "adjacent-initials", "--parent-bound", "0"),
         "parent_bound must be >= 1, got 0"),
        (("--suite", "all", "--count", "0"), "count must be >= 1, got 0"),
        # tree boxes holding only the root: uniqueness would pass with cases=0
        (("--suite", "uniqueness", "--depth", "0"), "tree_depth must be >= 1, got 0"),
        (("--suite", "uniqueness", "--bound", "4"), "tree_bound must be >= 5, got 4"),
        (("--suite", "covering", "--depth", "0"), "tree_depth must be >= 1, got 0"),
        (("--suite", "all", "--bound", "3"), "tree_bound must be >= 5, got 3"),
        (("--suite", "uniqueness", "--max-nodes", "0"), "max_nodes must be >= 1, got 0"),
    ])
    def test_bad_box_stops_before_any_sweep(self, monkeypatch, capsys, args, message):
        for name in SWEEPS:
            monkeypatch.setattr(verify, name, _must_not_run(name))
        assert cli.main(["verify", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (("--suite", "all", "--parent-bound", "3"), "parent_bound must be >= 7, got 3"),
        (("--suite", "all", "--conv-bound", "0"), "bound must be >= 1, got 0"),
    ])
    def test_bad_box_stops_before_the_build(self, monkeypatch, capsys, args, message):
        # the partition and convergence boxes are checked before the tree checks' tree is built
        monkeypatch.setattr(arbor, "build", _must_not_run("build"))
        assert cli.main(["verify", *args]) == 2
        assert tuple(capsys.readouterr()) == ("", f"error: {message}\n")


class TestCheckFailed:
    """A consistency error inside a command exits 1 and names its counterexample."""

    def _main(self, capsys, *args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return code, out, err

    def test_tree_with_a_repeated_vertex(self, monkeypatch, capsys):
        from collatz_arbor import arbor

        real = arbor._children

        def children(parents, c, table):  # 5's run starts at 21, the root's v_3
            return [21 if v == 3 else v for v in real(parents, c, table)]

        monkeypatch.setattr(arbor, "_children", children)
        code, out, err = self._main(capsys, "verify", "--suite", "uniqueness", "--depth", "2",
                                    "--bound", "60")
        assert (code, err) == (1, "")
        assert re.sub(r" elapsed=\S+", "", out).splitlines() == [
            "FAIL uniqueness [max_depth=2 value_bound=60 sibling_cap=None] cases=5",
            '     counterexample: {"reason": "derived child set differs from stored nodes", '
            '"value": 3}',
            "FAIL parent_pointers [nodes=6] cases=3",
            '     counterexample: {"parent": 1, "reason": "not next in its parent\'s run below '
            'the level above", "sibling_index": 3, "value": 21}',
        ]
        # tree builds and writes the levels; finding the repeat is the tree checks' work
        code, out, err = self._main(capsys, "tree", "--depth", "2", "--bound", "60")
        assert (code, err) == (0, "nodes=6 max_depth=2\n")
        assert out

    def test_closed_forms_with_a_wrong_z_term(self, monkeypatch, capsys):
        real = verify.z_term
        monkeypatch.setattr(verify, "z_term", lambda n: real(n) + (n == 3))
        assert self._main(capsys, "verify", "--suite", "closed-forms", "--parent-bound", "10",
                          "--count", "4") == (
            1, "", "counterexample: child of 1 at index 3: 21 != multiple form 22\n")


class TestCover:
    def test_summary_with_missing_list(self):
        result = run_cli("cover", "--bound", "60", "--depth", "2",
                         "--report-bound", "25")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "bound=25 covered=5 missing=8"
        assert lines[1] == "missing: 7, 9, 11, 15, 17, 19, 23, 25"
        assert lines[2] == "levels: 0:1, 1:2, 2:2"

    def test_json_report(self):
        result = run_cli("cover", "--bound", "60", "--depth", "2",
                         "--report-bound", "25", "--output", "json")
        payload = json.loads(result.stdout)
        assert payload["covered_count"] == 5
        assert payload["missing"] == [7, 9, 11, 15, 17, 19, 23, 25]
        assert payload["level_sizes"] == {"0": 1, "1": 2, "2": 2}

    def test_missing_list_over_the_budget_exits_3(self):
        # 9 nodes, but 49991 missing values to list against a budget of 1000
        result = run_cli("cover", "--bound", "100000", "--depth", "1", "--max-nodes", "1000")
        assert result.returncode == 3
        assert result.stdout == ""
        assert "--report-bound" in result.stderr


class TestUsage:
    def test_no_subcommand(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_subcommand(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2


# Small argument vectors for every subcommand, run in-process: zero, even,
# multiple-of-3 and tiny values, malformed ones, counts past any budget, and
# tiny budgets.  Every box is small or refused, so each run is quick.
VALID = st.sampled_from(["5", "7", "11", "13"])  # odd, no multiple of 3, and >= 5
TINY = st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "7", "9", "12", "27"])
BAD = st.sampled_from(["-3", "1e3", "0x11", ""])
OVER = st.sampled_from(["100000", "100000000"])


def _value(values):
    """A value from VALID or from values, 50:50."""
    return st.booleans().flatmap(lambda valid: VALID if valid else values)


def _arg(name, values):
    return values.map(lambda v: [name, v])


def _opt(name, values):
    return st.just([]) | _arg(name, values)


def _argv(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


_OUTPUT = _opt("--output", st.sampled_from(["human", "json", "xml"]))
_TREE = _argv(_opt("--depth", st.sampled_from(["0", "1", "2", "3"]) | BAD),
              _opt("--bound", TINY | st.just("1000")), _opt("--sibling-cap", TINY),
              _opt("--max-nodes", st.sampled_from(["0", "1", "5", "100"])),
              _opt("--format", st.sampled_from(["jsonl", "csv", "dot"])))


@st.composite
def _verify_argv(draw):
    # every box is given, so no default box runs; one of its fields is drawn from TINY
    box = {"--parent-bound": "13", "--count": "5", "--max-d": "5", "--partners": "5",
           "--depth": "7", "--bound": "200", "--conv-bound": "200", "--max-steps": "50"}
    box[draw(st.sampled_from(sorted(box)))] = draw(TINY)
    suite = draw(_opt("--suite", st.sampled_from(("all", "lemma1") + cli.defaults.SUITE_NAMES)))
    return suite + [a for item in box.items() for a in item] + draw(_OUTPUT)


ARGV = {
    "trajectory": _argv(_value(TINY | BAD).map(lambda x: [x]), _opt("--max-steps", _value(TINY)),
                        _OUTPUT),
    # one stop criterion, both (a usage error) or none
    "siblings": _argv(_value(TINY | BAD).map(lambda u: [u]), st.one_of(
        _arg("--count", _value(TINY | BAD | OVER)), _arg("--bound", _value(TINY | OVER)),
        _argv(_arg("--count", TINY), _arg("--bound", TINY)), st.just([])), _OUTPUT),
    "tree": _TREE,
    "export": _TREE,
    "verify": _verify_argv(),
    "cover": _argv(_arg("--bound", TINY | st.just("1000")), _arg("--depth", _value(TINY)),
                   _opt("--report-bound", TINY), _opt("--max-nodes", TINY), _OUTPUT),
}


@pytest.mark.parametrize("command", sorted(ARGV))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_small_argument_vectors_exit_cleanly(command, data):
    argv = [command, *data.draw(ARGV[command])]
    budget = data.draw(st.sampled_from([None, "1", "3", "100", "0", "x"]))
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n", write_through=True)
    with mock.patch.dict(os.environ), redirect_stdout(out), \
            redirect_stderr(io.StringIO()) as err:
        os.environ.pop(cli.MAX_NODES_ENV, None)
        if budget is not None:
            os.environ[cli.MAX_NODES_ENV] = budget
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, budget, code)
    if code in (2, 3):  # a refused run writes nothing to stdout
        assert raw.getvalue() == b"", (argv, budget, code)
    assert "Traceback" not in err.getvalue()
