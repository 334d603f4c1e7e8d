"""Tests for the ``repro-lint`` model-compliance static analyzer.

One fixture protocol per rule code under ``tests/fixtures/lint/``, each
deliberately violating exactly one rule; a clean fixture proving the
analyzer stays silent on well-formed protocols; the self-check over the
repo's own five protocol implementations; and the reporter/CLI contract
(file:line anchors, JSON schema, exit codes).
"""

import json
from pathlib import Path

import pytest

from repro.lint import RULES, analyze_path, analyze_paths, analyze_source
from repro.lint.analyzer import helper_requirements, protocols_dir
from repro.lint.cli import main as lint_main
from repro.lint.reporters import json_payload, render_rules, render_text

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: fixture file -> (expected code, expected line, expected symbol)
VIOLATIONS = {
    "viol_rpr010.py": ("RPR010", 3, ""),
    "viol_rpr100.py": ("RPR100", 6, ""),
    "viol_rpr101.py": ("RPR101", 11, "peeking_agent"),
    "viol_rpr102.py": ("RPR102", 12, "budding_agent"),
    "viol_rpr103.py": ("RPR103", 13, "punctual_agent"),
    "viol_rpr104.py": ("RPR104", 6, ""),
    "viol_rpr110.py": ("RPR110", 12, "scribbling_agent"),
    "viol_rpr120.py": ("RPR120", 11, "chatty_agent"),
    "viol_rpr130.py": ("RPR130", 11, "hoarding_agent"),
    "obs/viol_rpr200.py": ("RPR200", 3, ""),
    "exec/viol_rpr210.py": ("RPR210", 3, ""),
    "fastpath/viol_rpr220.py": ("RPR220", 3, ""),
    "obs/trace.py": ("RPR230", 3, ""),
    "viol_rpr240.py": ("RPR240", 10, "__init__"),
    "determinism/viol_rpr300.py": ("RPR300", 13, "JitteryStrategy.generate"),
    "determinism/viol_rpr310.py": ("RPR310", 12, "StampedStrategy.generate"),
    "determinism/viol_rpr320.py": ("RPR320", 12, "TunedStrategy.generate"),
    "determinism/viol_rpr330.py": ("RPR330", 11, "UnorderedStrategy.generate"),
    "exec/viol_rpr340.py": ("RPR340", 8, "publish_results"),
    "fastpath/viol_rpr350.py": ("RPR350", 9, "publish_blob"),
    "fastpath/compiled.py": ("RPR360", 11, "compiled_schedule"),
}

#: rules that need more than one source file to fire; their catch/pass
#: coverage lives in tests/test_lint_infra.py (baseline round-trips)
NON_FILE_RULES = {"RPR011"}


class TestRegistry:
    def test_every_code_has_a_fixture(self):
        covered = {code for code, _, _ in VIOLATIONS.values()} | NON_FILE_RULES
        assert covered == set(RULES), "each shipped rule needs a violating fixture"

    def test_codes_are_stable(self):
        for code, r in RULES.items():
            assert code == r.code
            # RPR0xx: lint infrastructure; RPR1xx: model-compliance;
            # RPR2xx: layering/import hygiene; RPR3xx: determinism +
            # concurrency safety
            assert code.startswith(("RPR0", "RPR1", "RPR2", "RPR3")) and len(code) == 6

    def test_rules_listing_mentions_every_code(self):
        listing = render_rules()
        for code in RULES:
            assert code in listing

    def test_docs_document_every_code(self):
        docs = (Path(__file__).parent.parent / "docs" / "LINTING.md").read_text()
        for code in RULES:
            assert code in docs, f"{code} missing from docs/LINTING.md"


class TestViolatingFixtures:
    @pytest.mark.parametrize("fixture", sorted(VIOLATIONS))
    def test_exact_code_line_and_symbol(self, fixture):
        code, line, symbol = VIOLATIONS[fixture]
        findings = analyze_path(FIXTURES / fixture)
        assert [f.code for f in findings] == [code], findings
        found = findings[0]
        assert found.line == line
        assert found.column >= 1
        assert found.symbol == symbol
        assert found.path.endswith(fixture)

    @pytest.mark.parametrize("fixture", sorted(VIOLATIONS))
    def test_anchor_format(self, fixture):
        found = analyze_path(FIXTURES / fixture)[0]
        path, line, col = found.anchor().rsplit(":", 2)
        assert path.endswith(fixture)
        assert int(line) == found.line and int(col) == found.column


class TestCleanFixture:
    def test_no_findings(self):
        assert analyze_path(FIXTURES / "clean_fixture.py") == []

    def test_directory_scan_finds_all_and_only_violations(self):
        findings = analyze_paths([FIXTURES])
        by_file = {Path(f.path).name for f in findings}
        assert by_file == {Path(k).name for k in VIOLATIONS}
        assert len(findings) == len(VIOLATIONS)


class TestInference:
    def test_helper_requirements_from_base_ast(self):
        reqs = helper_requirements()
        assert reqs["smaller_all_safe"] == frozenset({"visibility"})
        assert reqs["increment"] == frozenset()
        assert reqs["take_slot"] == frozenset()

    def test_helper_call_propagates_visibility(self):
        source = (
            "from repro.protocols.base import ProtocolModel, smaller_all_safe\n"
            "from repro.sim.agent import Move, WaitUntil\n"
            "MODEL = ProtocolModel()\n"
            "def agent(ctx):\n"
            "    yield WaitUntil(smaller_all_safe(ctx.dimension, ctx.node))\n"
            "    yield Move(ctx.node ^ 1)\n"
        )
        findings = analyze_source(source, "helper_user.py")
        assert [f.code for f in findings] == ["RPR101"]
        assert "smaller_all_safe" in findings[0].message

    def test_module_attribute_helper_call(self):
        source = (
            "from repro.protocols import base\n"
            "MODEL = base.ProtocolModel()\n"
            "def agent(ctx):\n"
            "    yield base.smaller_all_safe(ctx.dimension, ctx.node)\n"
        )
        # resolved through the module alias, same requirement
        assert [f.code for f in analyze_source(source)] == ["RPR101"]

    def test_predicate_neighbor_states_needs_visibility(self):
        source = (
            "MODEL = ProtocolModel()\n"
            "def agent(ctx):\n"
            "    def ready(view):\n"
            "        return bool(view.neighbor_states())\n"
            "    yield WaitUntil(ready)\n"
        )
        assert [f.code for f in analyze_source(source)] == ["RPR101"]

    def test_helper_module_without_behaviours_needs_no_model(self):
        source = (
            "def increment(key):\n"
            "    def mutate(wb):\n"
            "        wb[key] = wb.get(key, 0) + 1\n"
            "        return wb[key]\n"
            "    return mutate\n"
        )
        assert analyze_source(source) == []

    def test_declared_and_used_is_clean(self):
        source = (
            "MODEL = ProtocolModel(visibility=True, cloning=True)\n"
            "def agent(ctx):\n"
            "    states = yield See()\n"
            "    yield CloneSelf(agent)\n"
            "    yield Terminate()\n"
        )
        assert analyze_source(source) == []


class TestSelfCheck:
    def test_own_protocols_are_clean(self):
        assert analyze_paths([protocols_dir()]) == []

    def test_cli_self_strict_exits_zero(self, capsys):
        assert lint_main(["--self", "--strict"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_every_shipped_protocol_declares_a_model(self):
        import repro.protocols as protocols
        from repro.protocols.base import ProtocolModel

        for name in (
            "clean_protocol",
            "visibility_protocol",
            "cloning_protocol",
            "sync_protocol",
            "frontier_protocol",
        ):
            module = __import__(f"repro.protocols.{name}", fromlist=["MODEL"])
            assert isinstance(module.MODEL, ProtocolModel), name
        assert protocols.ProtocolModel is ProtocolModel

    def test_declarations_match_engine_flags(self):
        from repro.protocols import cloning_protocol, sync_protocol, visibility_protocol

        assert visibility_protocol.MODEL.capabilities() == {"visibility"}
        assert cloning_protocol.MODEL.capabilities() == {"visibility", "cloning"}
        assert sync_protocol.MODEL.capabilities() == {"global_clock"}


class TestReporters:
    def test_text_report_has_anchors_and_summary(self):
        findings = analyze_path(FIXTURES / "viol_rpr101.py")
        text = render_text(findings, files_scanned=1)
        assert "viol_rpr101.py:11:" in text
        assert "RPR101" in text and "undeclared-visibility" in text
        assert "1 finding(s) in 1 file" in text

    def test_text_report_clean(self):
        assert "clean: no findings" in render_text([], files_scanned=3)

    def test_json_schema(self):
        findings = analyze_paths([FIXTURES])
        payload = json_payload(findings, files_scanned=9)
        assert payload["version"] == 1
        assert payload["files_scanned"] == 9
        assert payload["summary"]["total"] == len(VIOLATIONS)
        assert payload["summary"]["by_code"] == {
            code: 1 for code, _, _ in VIOLATIONS.values()
        }
        for entry in payload["findings"]:
            assert set(entry) == {
                "code", "rule", "path", "line", "column", "symbol", "message",
            }
            assert isinstance(entry["line"], int) and entry["line"] >= 1
            assert isinstance(entry["column"], int) and entry["column"] >= 1
            assert entry["code"] in RULES
            assert entry["rule"] == RULES[entry["code"]].name
        # round-trips through real JSON
        assert json.loads(json.dumps(payload)) == payload


class TestCli:
    def test_strict_fails_on_violations(self, capsys):
        assert lint_main(["--strict", str(FIXTURES / "viol_rpr102.py")]) == 1
        assert "RPR102" in capsys.readouterr().out

    def test_violations_exit_one_without_strict(self, capsys):
        # exit semantics: findings always fail (1); --strict is a no-op
        assert lint_main([str(FIXTURES / "viol_rpr102.py")]) == 1
        assert "RPR102" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert lint_main(["--format", "json", str(FIXTURES / "viol_rpr120.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_code"] == {"RPR120": 1}

    def test_sarif_format(self, capsys):
        assert lint_main(["--format", "sarif", str(FIXTURES / "viol_rpr120.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["ruleId"] for r in run["results"]] == ["RPR120"]

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        assert "RPR130" in capsys.readouterr().out

    def test_no_paths_is_an_error(self, capsys):
        assert lint_main([]) == 2

    def test_missing_path_is_an_error(self, capsys):
        assert lint_main(["no/such/file.py"]) == 2

    def test_unparseable_input_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert lint_main([str(bad)]) == 2

    def test_repro_search_lint_subcommand(self, capsys):
        from repro.cli import main as search_main

        assert search_main(["lint", "--self", "--strict"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repro_search_lint_violation(self, capsys):
        from repro.cli import main as search_main

        path = str(FIXTURES / "viol_rpr130.py")
        assert search_main(["lint", "--strict", path]) == 1
        assert "RPR130" in capsys.readouterr().out

class TestObsLayering:
    """RPR200: the observability layer must not import the simulation layer."""

    def test_absolute_imports_flagged(self):
        source = (
            "import repro.sim.engine\n"
            "from repro.protocols import base\n"
        )
        findings = analyze_source(source, "src/repro/obs/bad.py")
        assert [f.code for f in findings] == ["RPR200", "RPR200"]
        assert [f.line for f in findings] == [1, 2]

    def test_relative_escape_flagged(self):
        source = "from ..sim import trace\n"
        findings = analyze_source(source, "src/repro/obs/bad.py")
        assert [f.code for f in findings] == ["RPR200"]

    def test_prefix_is_a_package_boundary(self):
        # `repro.simulator` is not `repro.sim`
        source = "import repro.simulator\n"
        assert analyze_source(source, "src/repro/obs/ok.py") == []

    def test_rule_only_applies_inside_obs(self):
        source = "from repro.sim.engine import Engine\n"
        assert analyze_source(source, "src/repro/viz/fine.py") == []

    def test_shipped_obs_package_is_clean(self):
        from repro.lint.analyzer import obs_dir

        assert analyze_paths([obs_dir()]) == []

    def test_self_check_covers_obs(self, tmp_path, capsys):
        assert lint_main(["--self", "--strict"]) == 0
        out = capsys.readouterr().out
        # self scan now includes the obs package's files
        assert "clean" in out


class TestExecLayering:
    """RPR210: the executor layer must not import the CLI/rendering layers."""

    def test_absolute_imports_flagged(self):
        source = (
            "import repro.cli\n"
            "from repro.viz import plots\n"
        )
        findings = analyze_source(source, "src/repro/exec/bad.py")
        assert [f.code for f in findings] == ["RPR210", "RPR210"]
        assert [f.line for f in findings] == [1, 2]

    def test_relative_escape_flagged(self):
        source = "from ..cli import main\n"
        findings = analyze_source(source, "src/repro/exec/bad.py")
        assert [f.code for f in findings] == ["RPR210"]

    def test_prefix_is_a_package_boundary(self):
        # `repro.climate` is not `repro.cli`
        source = "import repro.climate\n"
        assert analyze_source(source, "src/repro/exec/ok.py") == []

    def test_rule_only_applies_inside_exec(self):
        # the CLI importing itself is obviously fine
        source = "from repro.cli import main\n"
        assert analyze_source(source, "src/repro/analysis/fine.py") == []

    def test_exec_may_import_sim_and_analysis(self):
        source = (
            "from repro.analysis.sweeps import run_sweep\n"
            "from repro.sim.engine import Engine\n"
        )
        assert analyze_source(source, "src/repro/exec/tasks.py") == []

    def test_shipped_exec_package_is_clean(self):
        from repro.lint.analyzer import exec_dir

        assert analyze_paths([exec_dir()]) == []


class TestFastpathLayering:
    """RPR220: the fastpath plane imports only core/topology/errors.

    The batch Monte Carlo engine (``batchsim.py``) is the module most
    tempted to cheat — its semantics mirror ``repro.sim.engine`` — so
    its coverage is pinned explicitly.
    """

    def test_shipped_batchsim_is_clean(self):
        from repro.lint.analyzer import fastpath_dir

        assert analyze_path(fastpath_dir() / "batchsim.py") == []

    def test_engine_import_from_batchsim_would_fire(self):
        source = (
            "import repro.sim.engine\n"
            "from repro.analysis.verify import verify_schedule\n"
        )
        findings = analyze_source(source, "src/repro/fastpath/batchsim.py")
        assert [f.code for f in findings] == ["RPR220", "RPR220"]

    def test_core_imports_stay_allowed(self):
        source = (
            "from repro.core.strategy import get_strategy\n"
            "from repro.topology.hypercube import Hypercube\n"
            "from repro.errors import SimulationError\n"
        )
        assert analyze_source(source, "src/repro/fastpath/batchsim.py") == []


class TestTraceLayering:
    """RPR230: the tracing plane must stay layering-terminal."""

    def test_absolute_imports_flagged(self):
        source = (
            "import repro.exec.pool\n"
            "from repro.fastpath import batchsim\n"
        )
        findings = analyze_source(source, "src/repro/obs/trace.py")
        assert [f.code for f in findings] == ["RPR230", "RPR230"]
        assert [f.line for f in findings] == [1, 2]

    def test_relative_escape_flagged(self):
        source = "from ..exec import run_jobs\n"
        findings = analyze_source(source, "src/repro/obs/runlog.py")
        assert [f.code for f in findings] == ["RPR230"]

    def test_sim_import_fires_both_layering_rules(self):
        # a trace module importing the engine breaks RPR200 *and* RPR230
        source = "from repro.sim.engine import Engine\n"
        codes = [f.code for f in analyze_source(source, "src/repro/obs/prom.py")]
        assert codes == ["RPR200", "RPR230"]

    def test_rule_only_applies_to_trace_stems(self):
        # obs modules outside the tracing plane may import exec helpers
        source = "from repro.exec import run_jobs\n"
        assert analyze_source(source, "src/repro/obs/report.py") == []

    def test_rule_only_applies_inside_obs(self):
        source = "import repro.exec.pool\n"
        assert analyze_source(source, "src/repro/analysis/trace.py") == []

    def test_shipped_trace_modules_are_clean(self):
        from repro.lint.analyzer import obs_dir

        for stem in ("trace", "runlog", "prom"):
            assert analyze_path(obs_dir() / f"{stem}.py") == []


#: the layering as docs/LINTING.md states it: covered file -> {code: the
#: ``repro`` packages the file must not import}
_TRACE_RULES = {
    "RPR200": {"sim", "protocols"},
    "RPR230": {"sim", "protocols", "exec", "fastpath", "analysis", "cli", "viz"},
}
LAYERING = {
    "src/repro/obs/x.py": {"RPR200": {"sim", "protocols"}},
    "src/repro/obs/trace.py": _TRACE_RULES,
    "src/repro/obs/runlog.py": _TRACE_RULES,
    "src/repro/obs/prom.py": _TRACE_RULES,
    "src/repro/exec/x.py": {"RPR210": {"cli", "viz"}},
    "src/repro/fastpath/x.py": {
        "RPR220": {"sim", "protocols", "analysis", "exec", "cli", "viz", "obs"}
    },
    "src/repro/analysis/x.py": {},
}

#: import form -> whether it reaches the named ``repro`` package: a
#: single dot stays inside the covered package, and ``from .. import P``
#: imports the package ``P`` (its finding names it ``..P``)
IMPORT_FORMS = {
    "import repro.{}": True,
    "from repro.{} import y": True,
    "from ..{} import y": True,
    "from ...{} import y": True,
    "from .{} import y": False,
    "from .. import {}": True,
}


def _repro_packages():
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    return sorted(
        p.stem
        for p in root.iterdir()
        if not p.name.startswith("_") and (p.suffix == ".py" or (p / "__init__.py").is_file())
    )


class TestLayeringMatrix:
    """RPR200–RPR230 on every covered path, import form and target: each
    ``repro`` package, a submodule of it, and the look-alike
    ``repro.simx``, which is not ``repro.sim``."""

    def test_targets_cover_every_layered_package(self):
        forbidden = {p for rules in LAYERING.values() for ps in rules.values() for p in ps}
        assert forbidden <= set(_repro_packages())

    @pytest.mark.parametrize("path", sorted(LAYERING))
    def test_exact_codes(self, path):
        targets = [*_repro_packages(), "simx"]
        targets += [f"{t}.sub" for t in targets]
        wrong = []
        for form, reaches in IMPORT_FORMS.items():
            for target in targets:
                if "." in target and form.endswith("import {}"):
                    continue  # `from .. import sim.sub` is not Python
                source = form.format(target) + "\n"
                package = target.split(".")[0]
                expected = sorted(
                    code for code, banned in LAYERING[path].items() if reaches and package in banned
                )
                findings = analyze_source(source, path)
                written = source.split()[1]
                if form.endswith("import {}"):
                    written += target  # `from .. import sim` names `..sim`
                if [f.code for f in findings] != expected or any(
                    (f.line, f.column) != (1, 1) or f"`{written}`" not in f.message
                    for f in findings
                ):
                    wrong.append((source, expected, findings))
        assert wrong == []
