"""The reachability gate's walker and checker (benchmarks/reachability.py)
on a fixture package, and the reasons of its real allowlist."""

import importlib.util
import os
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "reachability", os.path.join(REPO, "benchmarks", "reachability.py"))
reachability = importlib.util.module_from_spec(spec)
sys.modules["reachability"] = reachability
spec.loader.exec_module(reachability)

FIXTURE = textwrap.dedent('''
    def used():
        def inner():
            return 1
        return inner()


    def unreached():
        def closure():
            return 2
        return closure()


    def allowed():
        return 3


    def stale():
        return 4


    class Box:
        @property
        def value(self):
            return 5

        @value.setter
        def value(self, new):
            pass
''')


@pytest.fixture
def fixture_findings(tmp_path, monkeypatch):
    package = tmp_path / "fixturepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    monkeypatch.syspath_prepend(str(tmp_path))
    recorder = reachability.Recorder()
    with recorder.recording():
        from fixturepkg import mod

        mod.used()
        mod.stale()
        assert mod.Box().value == 5
    sys.modules.pop("fixturepkg.mod")
    sys.modules.pop("fixturepkg")
    functions = reachability.walk(str(tmp_path), "fixturepkg")
    allowlist = {"fixturepkg/mod.py::allowed": "item 1",
                 "fixturepkg/mod.py::stale": "item 1",
                 "fixturepkg/mod.py::gone": "item 1"}
    return reachability.check(functions, recorder.entered, allowlist)


class TestChecker:
    def test_reports_unreached_once_under_the_outermost(self,
                                                       fixture_findings):
        """``unreached`` is reported and its closure is not; neither
        are the allowlisted function nor the reached ``inner``."""
        assert [f.name for f in fixture_findings.unreached] == [
            "fixturepkg/mod.py::unreached",
            "fixturepkg/mod.py::Box.value.setter",
        ]

    def test_reports_stale_and_vanished_entries(self, fixture_findings):
        assert fixture_findings.stale == ["fixturepkg/mod.py::stale"]
        assert fixture_findings.vanished == ["fixturepkg/mod.py::gone"]
        assert not fixture_findings.ok


class TestAllowlistReasons:
    def test_real_allowlist_names_live_tests_and_open_items(self):
        assert len(reachability.ALLOWLIST) <= 30
        assert reachability.reason_problems(reachability.ALLOWLIST,
                                            REPO) == []

    def test_bad_reasons_are_reported(self):
        bad = {"a": "error: ValueError, driven by "
                    "tests/test_operators.py::TestOpValidation::test_nope",
               "b": "error: ValueError, driven by tests/test_nope.py::t",
               "c": "item 99",
               "d": "kept just in case"}
        problems = reachability.reason_problems(bad, REPO)
        assert [p.split(":")[0] for p in problems] == ["a", "b", "c", "d"]

    def test_entry_points_read_from_ci(self):
        commands = reachability.ci_commands(
            os.path.join(REPO, ".github", "workflows", "ci.yml"))
        assert ["plan", "internal-352b", "1440", "h800"] in commands
        assert ["verify", "--smoke"] in commands
