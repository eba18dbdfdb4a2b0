"""The package surface: lazy attributes, what each subcommand imports, and the record types."""

import ast
import copy
import inspect
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import collatz_arbor
from core_reference import OddInteger
from verify_reference import CollisionProbe, MultiplesSequence, multiples_sequence
from collatz_arbor.arbor import CoverageReport, TruncationConfig, build, coverage
from collatz_arbor.core import BaseSequences
from collatz_arbor.forward import TrajectoryRecord, TrajectorySummary
from collatz_arbor.inverse import SiblingSet, siblings
from collatz_arbor.verify import VerificationReport

MODULES = ("arbor", "cli", "core", "defaults", "errors", "forward", "inverse", "verify")


def _modules_after(code):
    """Package modules (and dataclasses) in sys.modules after code runs in a fresh interpreter."""
    probe = (code + "\nimport json, sys\n"
             "sys.stderr.write('\\n' + json.dumps(sorted(m for m in sys.modules if "
             "m.startswith('collatz_arbor') or m == 'dataclasses')))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


def _after_main(*argv):
    return _modules_after(f"from collatz_arbor import cli\ncli.main({list(argv)!r})")


class TestSubcommandImports:
    def test_parser_alone_loads_no_arithmetic(self):
        assert _modules_after("import collatz_arbor.cli") == {
            "collatz_arbor", "collatz_arbor.cli", "collatz_arbor.defaults",
            "collatz_arbor.errors"}

    @pytest.mark.parametrize("argv", [("trajectory", "27"), ("siblings", "5", "--count", "3")])
    def test_orbit_commands_skip_the_tree_and_the_checks(self, argv):
        loaded = _after_main(*argv)
        assert "collatz_arbor.verify" not in loaded
        assert "collatz_arbor.arbor" not in loaded

    @pytest.mark.parametrize("argv", [
        ("tree", "--depth", "3", "--bound", "100"),
        ("export", "--depth", "3", "--bound", "100", "--format", "csv"),
        ("cover", "--bound", "100", "--depth", "10"),
    ])
    def test_tree_commands_skip_the_checks(self, argv):
        loaded = _after_main(*argv)
        assert "collatz_arbor.arbor" in loaded
        assert "collatz_arbor.verify" not in loaded

    def test_lemma_suite_skips_the_tree(self):
        loaded = _after_main("verify", "--suite", "lemma1", "--parent-bound", "50", "--count", "4")
        assert "collatz_arbor.verify" in loaded
        assert "collatz_arbor.arbor" not in loaded

    def test_no_module_imports_dataclasses(self):
        # against a bare interpreter, so whatever site imports does not count
        bare = _modules_after("pass")
        loaded = _modules_after("\n".join(f"import collatz_arbor.{m}" for m in MODULES))
        assert "dataclasses" not in loaded - bare
        assert {f"collatz_arbor.{m}" for m in MODULES} <= loaded


SOURCES = sorted(Path(collatz_arbor.__file__).parent.glob("*.py"))


def _listed(tree):
    """The names of a module's literal __all__, or None when it is computed."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                return ast.literal_eval(node.value)
            except ValueError:
                return None
    return None


class TestModuleNames:
    """Each module under src/collatz_arbor/ uses what it imports and defines what it lists."""

    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
    def test_every_import_is_used(self, path):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used - set(_listed(tree) or ()) == set()

    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
    def test_every_listed_name_is_defined(self, path):
        tree = ast.parse(path.read_text())
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        # the package's computed __all__ is checked by resolving each name, below
        assert set(_listed(tree) or ()) - defined == set()

    def test_every_private_name_is_referenced(self):
        # a module-level _name that no module reads, calls or imports is a
        # leftover; tests reach the package's private names, so they do not count
        trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
        private = set()
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = {node.name}
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                else:
                    continue
                private |= {(module, name) for name in names
                            if name.startswith("_") and not name.startswith("__")}
        referenced = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    referenced |= {alias.name for alias in node.names}
        assert len(private) >= 60  # the walk found the module-level names
        assert {(module, name) for module, name in private if name not in referenced} == set()

    @pytest.mark.parametrize("name", ["verify.py", "arbor.py"])
    def test_exponent_rule_has_one_home(self, name):
        # e_n = 2n (class 1) or 2n - 1 (class 2) lives in inverse._exponent alone
        text = (Path(collatz_arbor.__file__).parent / name).read_text()
        assert "2 * n - 1" not in text
        assert "2 if u % 3 == 1 else 1" not in text

    def test_run_suite_alone_sweeps_a_parent_range(self):
        # a sweep over the parents up to a bound is a row of run_suite's table,
        # not a public function of its own
        verify = collatz_arbor.verify
        public = {name: getattr(verify, name) for name in verify.__all__}
        assert {name for name, value in public.items() if callable(value)
                and "parent_bound" in inspect.signature(value).parameters} == {"run_suite"}


class TestLazyAttributes:
    def test_every_public_name_resolves(self):
        for name in collatz_arbor.__all__:
            value = getattr(collatz_arbor, name)
            assert getattr(value, "__name__", name) == name

    def test_star_import(self):
        namespace = {}
        exec("from collatz_arbor import *", namespace)
        assert set(collatz_arbor.__all__) <= set(namespace)
        assert namespace["build"] is build

    def test_dir_lists_names_and_modules(self):
        listed = dir(collatz_arbor)
        assert set(collatz_arbor.__all__) <= set(listed)
        assert set(MODULES) <= set(listed)

    def test_modules_are_attributes(self):
        assert collatz_arbor.verify.VerificationReport is VerificationReport

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            collatz_arbor.nonesuch
        assert not hasattr(collatz_arbor, "dataclasses")


def _report():
    return coverage(build(TruncationConfig(max_depth=2, value_bound=60)), 25)


# one valid instance of each record type, the three test oracles included
RECORDS = {
    "OddInteger": lambda: OddInteger(7, 1, 2),
    "BaseSequences": lambda: BaseSequences({1: 1}, {1: 0}),
    "TrajectoryRecord": lambda: TrajectoryRecord(5, (5, 1), (4,), True),
    "TrajectorySummary": lambda: TrajectorySummary(5, 1, 5, True),
    "SiblingSet": lambda: SiblingSet(5, count=3),
    "MultiplesSequence": lambda: multiples_sequence(5, 4),
    "TruncationConfig": lambda: TruncationConfig(max_depth=3, value_bound=100),
    "CoverageReport": _report,
    "VerificationReport": lambda: VerificationReport("x", {"u": 5}, True, None, {"cases": 1}),
    "CollisionProbe": lambda: CollisionProbe(1, 1, same_class=False),
}


class TestRecords:
    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_fields_reject_assignment(self, make):
        record = make()
        field = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_equality_copy_and_pickle(self, make):
        record = make()
        assert record == make()
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        assert record != tuple(getattr(record, f) for f in record.__slots__)

    @pytest.mark.parametrize("make, bad", [
        (lambda: OddInteger(7, 1, 3), ValueError),
        (lambda: TrajectoryRecord(9, (9, 7), (2,), converged=True), ValueError),
        (lambda: SiblingSet(5, count=3, bound=100), ValueError),
        (lambda: SiblingSet(9, count=3), ValueError),
        (lambda: TruncationConfig(max_depth=3), ValueError),
        (lambda: TruncationConfig(max_depth=3, value_bound=10, max_nodes=0), ValueError),
        (lambda: VerificationReport("x", {}, False, None), ValueError),
        (lambda: CollisionProbe(1, 2, same_class=False), ValueError),
        (lambda: OddInteger(7, 1), TypeError),
        (lambda: OddInteger(7, 1, 2, 0), TypeError),
        (lambda: OddInteger(7, 1, multiple=2, residue=1), TypeError),
        (lambda: SiblingSet(5, cont=3), TypeError),
        (lambda: TruncationConfig(max_depth=2.5, value_bound=100), TypeError),
        (lambda: TruncationConfig(max_depth=2, value_bound=100.5), TypeError),
        (lambda: TruncationConfig(max_depth=2, sibling_cap=2.0), TypeError),
        (lambda: TruncationConfig(max_depth=True, value_bound=100), TypeError),
        (lambda: TruncationConfig(value_bound=100, max_nodes=False), TypeError),
        (lambda: siblings(5, count=2.5), TypeError),
        (lambda: siblings(5, count=True), TypeError),
        (lambda: SiblingSet(5, bound=100.0), TypeError),
    ])
    def test_constructor_checks_stay(self, make, bad):
        with pytest.raises(bad):
            make()

    def test_keyword_defaults(self):
        config = TruncationConfig(value_bound=10)
        assert (config.max_depth, config.sibling_cap, config.max_nodes) == (None, None, 10**7)
        assert SiblingSet(5, bound=100).count is None
        first, second = (VerificationReport("x", {}, True, None) for _ in range(2))
        assert first.statistics == {} and first.statistics is not second.statistics

    def test_equality_and_hash_follow_the_fields(self):
        assert OddInteger(7, 1, 2) != OddInteger(5, 2, 1)
        assert TruncationConfig(max_depth=2, value_bound=9) != TruncationConfig(max_depth=2,
                                                                               value_bound=10)
        assert hash(OddInteger(7, 1, 2)) == hash(OddInteger(7, 1, 2))
        assert len({TruncationConfig(max_depth=2, value_bound=9)} | {
            TruncationConfig(max_depth=2, value_bound=9)}) == 1

    def test_repr(self):
        assert repr(OddInteger(7, 1, 2)) == "OddInteger(value=7, residue=1, multiple=2)"
        shown = repr(_report())
        assert shown.startswith("CoverageReport(bound=25, covered_count=")
        assert "first_depth" not in shown and "level_sizes=" in shown

    def test_other_types_compare_unequal(self):
        assert TrajectorySummary(5, 1, 5, True) != TrajectoryRecord(5, (5, 1), (4,), True)
        assert isinstance(multiples_sequence(5, 2), MultiplesSequence)
        assert isinstance(_report(), CoverageReport)
