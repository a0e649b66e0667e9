"""Tests for ``repro.analysis`` — the repo's own lint pass.

Every rule gets a positive (finding) and negative (clean) fixture;
fixture sources live in string literals and are written to ``tmp_path``
so the repo's own ``repro lint tests`` run never parses them as code.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    ENGINE_RULE,
    Rule,
    UnknownRuleError,
    available_rules,
    get_rule,
    register_rule,
    rules_epilog,
    run_lint,
    scan_suppressions,
)
from repro.analysis.cli import main as analysis_main
from repro.analysis.registry import _REGISTRY
from repro.cli import main as cli_main

BUILTIN_RULES = (
    "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
)


def lint_fixture(tmp_path, files, select=None):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and lint
    the whole tree rooted there."""
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], select=select, root=tmp_path)


def codes(report):
    return [f.rule for f in report.findings]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRuleRegistry:
    def test_builtin_rules_registered(self):
        assert set(BUILTIN_RULES) <= set(available_rules())

    def test_get_rule_returns_registered_object(self):
        rule = get_rule("RPR001")
        assert rule.name == "RPR001"
        assert rule.slug == "unseeded-rng"

    def test_unknown_rule_error_names_available(self):
        with pytest.raises(UnknownRuleError) as excinfo:
            get_rule("RPR999")
        message = str(excinfo.value)
        for code in BUILTIN_RULES:
            assert code in message

    def test_register_rejects_malformed_code(self):
        class BadRule(Rule):
            name = "NOPE1"

        with pytest.raises(ValueError, match="RPR"):
            register_rule(BadRule())

    def test_register_duplicate_requires_replace(self):
        class ProbeRule(Rule):
            name = "RPR998"
            slug = "probe"
            invariant = "probe"

        try:
            register_rule(ProbeRule())
            with pytest.raises(ValueError, match="replace=True"):
                register_rule(ProbeRule())
            register_rule(ProbeRule(), replace=True)
        finally:
            _REGISTRY.entries.pop("RPR998", None)

    def test_epilog_lists_every_rule(self):
        epilog = rules_epilog()
        for code in available_rules():
            assert code in epilog
            assert get_rule(code).slug in epilog

    def test_select_unknown_code_raises(self, tmp_path):
        with pytest.raises(UnknownRuleError):
            lint_fixture(
                tmp_path, {"mod.py": "x = 1\n"}, select=["RPR999"]
            )


# ---------------------------------------------------------------------------
# RPR001 — unseeded RNG
# ---------------------------------------------------------------------------


class TestUnseededRng:
    def test_flags_bare_default_rng(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import numpy as np

            def draw():
                rng = np.random.default_rng()
                return rng.integers(0, 4)
        """}, select=["RPR001"])
        assert codes(report) == ["RPR001"]
        assert "without a seed" in report.findings[0].message

    def test_flags_stdlib_global_rng(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import random

            def draw():
                return random.random()
        """}, select=["RPR001"])
        assert codes(report) == ["RPR001"]
        assert "global RNG" in report.findings[0].message

    def test_flags_legacy_numpy_global(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import numpy as np

            def draw():
                return np.random.rand(3)
        """}, select=["RPR001"])
        assert codes(report) == ["RPR001"]
        assert "legacy global" in report.findings[0].message

    def test_flags_module_level_generator(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import numpy as np

            RNG = np.random.default_rng(0)
        """}, select=["RPR001"])
        assert codes(report) == ["RPR001"]
        assert "module-level" in report.findings[0].message

    def test_seeded_generator_in_function_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.integers(0, 4)
        """}, select=["RPR001"])
        assert report.clean


# ---------------------------------------------------------------------------
# RPR002 — wall-clock reads
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_flags_perf_counter_outside_harness(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import time

            def measure():
                return time.perf_counter()
        """}, select=["RPR002"])
        assert codes(report) == ["RPR002"]

    def test_flags_from_import_and_datetime(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import datetime
            from time import monotonic

            def stamp():
                return monotonic(), datetime.datetime.now()
        """}, select=["RPR002"])
        assert codes(report) == ["RPR002", "RPR002"]

    def test_timing_harness_paths_are_exempt(self, tmp_path):
        source = """\
            import time

            def measure():
                return time.perf_counter()
        """
        report = lint_fixture(tmp_path, {
            "benchmarks/bench_mod.py": source,
            "src/repro/bench/runner.py": source,
        }, select=["RPR002"])
        assert report.clean

    def test_unrelated_attribute_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            def measure(sim):
                return sim.time()
        """}, select=["RPR002"])
        assert report.clean


# ---------------------------------------------------------------------------
# RPR003 — unsorted set iteration
# ---------------------------------------------------------------------------


class TestUnsortedSetIteration:
    def test_flags_for_loop_over_set_literal(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            def collect():
                out = []
                for item in {3, 1, 2}:
                    out.append(item)
                return out
        """}, select=["RPR003"])
        assert codes(report) == ["RPR003"]

    def test_flags_join_over_set_call(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            def label(names):
                return ", ".join(set(names))
        """}, select=["RPR003"])
        assert codes(report) == ["RPR003"]

    def test_flags_list_comprehension_over_set(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            def freeze(names):
                return [n for n in set(names)]
        """}, select=["RPR003"])
        assert codes(report) == ["RPR003"]

    def test_sorted_and_reductions_are_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            def use(names):
                ordered = sorted(set(names))
                total = sum({1, 2, 3})
                hit = "x" in {n for n in names}
                return ordered, total, hit
        """}, select=["RPR003"])
        assert report.clean


# ---------------------------------------------------------------------------
# RPR004 — registry hygiene
# ---------------------------------------------------------------------------


class TestRegistryHygiene:
    def test_flags_computed_key(self, tmp_path):
        report = lint_fixture(tmp_path, {"widgets.py": """\
            def register_widget(name):
                pass

            register_widget("w" + "1")
        """}, select=["RPR004"])
        assert codes(report) == ["RPR004"]
        assert "string literal" in report.findings[0].message

    def test_flags_non_literal_class_name(self, tmp_path):
        report = lint_fixture(tmp_path, {"widgets.py": """\
            PREFIX = "w"

            class Widget:
                name = PREFIX

            def register_widget(obj):
                pass

            register_widget(Widget())
        """}, select=["RPR004"])
        assert codes(report) == ["RPR004"]
        assert "name" in report.findings[0].message

    def test_flags_duplicate_key_across_modules(self, tmp_path):
        registry = """\
            def register_widget(obj):
                pass

            class GpuWidget:
                name = "gpu"

            register_widget(GpuWidget())
        """
        report = lint_fixture(tmp_path, {
            "reg_a.py": registry,
            "reg_b.py": registry,
        }, select=["RPR004"])
        assert codes(report) == ["RPR004"]
        finding = report.findings[0]
        assert "duplicate registry key 'gpu'" in finding.message
        assert "reg_a.py" in finding.message
        assert finding.path == "reg_b.py"

    def test_replace_true_is_sanctioned_shadowing(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "reg_a.py": """\
                def register_widget(name):
                    pass

                register_widget("gpu")
            """,
            "reg_b.py": """\
                def register_widget(name, replace=False):
                    pass

                register_widget("gpu", replace=True)
            """,
        }, select=["RPR004"])
        assert report.clean

    def test_flags_unknown_error_without_available_keys(self, tmp_path):
        report = lint_fixture(tmp_path, {"widgets.py": """\
            class UnknownWidgetError(LookupError):
                pass

            def get_widget(name):
                raise UnknownWidgetError(f"unknown widget {name!r}")
        """}, select=["RPR004"])
        assert codes(report) == ["RPR004"]
        assert "available keys" in report.findings[0].message

    def test_unknown_error_naming_keys_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {"widgets.py": """\
            _REGISTRY = {}

            class UnknownWidgetError(LookupError):
                pass

            def get_widget(name):
                raise UnknownWidgetError(
                    f"unknown widget {name!r}; available: "
                    f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
                )
        """}, select=["RPR004"])
        assert report.clean

    def test_resolves_every_builtin_registration_in_src(self):
        # The duplicate-key check only guards keys it can see: linting
        # src/ must collect exactly the built-ins of all seven registries.
        from repro.analysis.context import discover_files, load_module
        from repro.analysis.rules_registry import RegistryHygieneRule
        from repro.autoscale import available_scalers
        from repro.cluster import available_policies
        from repro.distplan import available_strategies
        from repro.memory import available_cache_policies
        from repro.runtime import available_backends
        from repro.telemetry import available_exporters

        root = Path(__file__).resolve().parent.parent
        rule = RegistryHygieneRule()
        for path in discover_files([str(root / "src")]):
            list(rule.check_module(load_module(path, root)))
        collected = {(site.registry, site.key) for site in rule._sites}
        expected = {
            (registry, key)
            for registry, available in (
                ("register_backend", available_backends),
                ("register_policy", available_policies),
                ("register_scaler", available_scalers),
                ("register_strategy", available_strategies),
                ("register_cache_policy", available_cache_policies),
                ("register_exporter", available_exporters),
                ("register_rule", available_rules),
            )
            for key in available()
        }
        assert collected == expected


# ---------------------------------------------------------------------------
# RPR005 — mutable defaults
# ---------------------------------------------------------------------------


class TestMutableDefault:
    def test_flags_literal_and_constructor_defaults(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            def extend(items=[]):
                return items

            def index(*, table=dict()):
                return table
        """}, select=["RPR005"])
        assert codes(report) == ["RPR005", "RPR005"]

    def test_flags_lambda_default(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            pick = lambda pool=set(): pool
        """}, select=["RPR005"])
        assert codes(report) == ["RPR005"]

    def test_none_and_immutable_defaults_are_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            def extend(items=None, shape=(2, 3), label="x"):
                if items is None:
                    items = []
                return items, shape, label
        """}, select=["RPR005"])
        assert report.clean


# ---------------------------------------------------------------------------
# RPR006 — parity-pair coverage
# ---------------------------------------------------------------------------


class TestParityPair:
    def test_flags_scalar_without_companion(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            def _frob_scalar(xs):
                return [x + 1 for x in xs]
        """}, select=["RPR006"])
        assert codes(report) == ["RPR006"]
        assert "no vectorised companion" in report.findings[0].message

    def test_flags_pair_without_locking_test(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "mod.py": """\
                def _frob_scalar(xs):
                    return [x + 1 for x in xs]

                def frob(xs):
                    return [x + 1 for x in xs]
            """,
            "tests/test_mod.py": """\
                from mod import frob

                def test_frob():
                    assert frob([1]) == [2]
            """,
        }, select=["RPR006"])
        assert codes(report) == ["RPR006"]
        assert "_frob_scalar" in report.findings[0].message

    def test_pair_with_parity_test_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "mod.py": """\
                def _frob_scalar(xs):
                    return [x + 1 for x in xs]

                def frob(xs):
                    return [x + 1 for x in xs]
            """,
            "tests/test_mod.py": """\
                from mod import _frob_scalar, frob

                def test_parity():
                    assert frob([1]) == _frob_scalar([1])
            """,
        }, select=["RPR006"])
        assert report.clean

    def test_coverage_half_skipped_without_test_tree(self, tmp_path):
        # `repro lint src` alone cannot see the tests; only the
        # companion-existence half applies.
        report = lint_fixture(tmp_path, {"mod.py": """\
            def _frob_scalar(xs):
                return [x + 1 for x in xs]

            def frob(xs):
                return [x + 1 for x in xs]
        """}, select=["RPR006"])
        assert report.clean


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


SUPPRESSED_LINE = (
    "t0 = now()  # repro-lint: noqa[RPR002] -- measures real wall clock\n"
)


class TestSuppressions:
    def test_parses_codes_and_justification(self):
        by_line, problems = scan_suppressions(SUPPRESSED_LINE)
        assert problems == []
        suppression = by_line[1]
        assert suppression.codes == ("RPR002",)
        assert suppression.justification == "measures real wall clock"
        assert suppression.covers("RPR002")
        assert not suppression.covers("RPR001")

    def test_multiple_codes(self):
        by_line, problems = scan_suppressions(
            "x = 1  # repro-lint: noqa[RPR001, RPR002] -- fixture\n"
        )
        assert problems == []
        assert by_line[1].codes == ("RPR001", "RPR002")

    def test_missing_justification_is_a_problem(self):
        by_line, problems = scan_suppressions(
            "x = 1  # repro-lint: noqa[RPR002]\n"
        )
        assert by_line == {}
        assert "justification" in problems[0][1]

    def test_malformed_marker_is_a_problem(self):
        by_line, problems = scan_suppressions(
            "x = 1  # repro-lint: skip RPR002\n"
        )
        assert by_line == {}
        assert "malformed" in problems[0][1]

    def test_bad_code_and_engine_code_are_problems(self):
        _, bad_code = scan_suppressions(
            "x = 1  # repro-lint: noqa[RPRX] -- why\n"
        )
        _, engine = scan_suppressions(
            "x = 1  # repro-lint: noqa[RPR000] -- why\n"
        )
        assert "malformed rule code" in bad_code[0][1]
        assert "cannot be suppressed" in engine[0][1]

    def test_suppression_text_inside_string_is_ignored(self):
        by_line, problems = scan_suppressions(
            'msg = "# repro-lint: noqa[RPR002]"\n'
        )
        assert by_line == {} and problems == []

    def test_justified_suppression_waives_finding(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import time

            def measure():
                return time.perf_counter()  # repro-lint: noqa[RPR002] -- fixture measures wall clock
        """}, select=["RPR002"])
        assert report.clean
        assert report.suppressed == 1

    def test_unjustified_suppression_surfaces_both(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """\
            import time

            def measure():
                return time.perf_counter()  # repro-lint: noqa[RPR002]
        """}, select=["RPR002"])
        assert sorted(codes(report)) == [ENGINE_RULE, "RPR002"]
        assert report.suppressed == 0


# ---------------------------------------------------------------------------
# Report determinism
# ---------------------------------------------------------------------------


class TestReportDeterminism:
    FIXTURE = {
        "mod.py": """\
            import time

            def measure(items=[]):
                items.append(time.time())
                return items
        """,
    }

    def test_findings_sorted_by_location(self, tmp_path):
        report = lint_fixture(tmp_path, self.FIXTURE)
        locations = [(f.path, f.line, f.col) for f in report.findings]
        assert locations == sorted(locations)

    def test_json_payload_is_byte_identical_across_runs(self, tmp_path):
        first = lint_fixture(tmp_path, self.FIXTURE)
        second = run_lint([str(tmp_path)], root=tmp_path)
        dump_a = json.dumps(first.as_dict(), indent=2, sort_keys=True)
        dump_b = json.dumps(second.as_dict(), indent=2, sort_keys=True)
        assert dump_a.encode() == dump_b.encode()

    def test_payload_has_schema_and_no_clock_fields(self, tmp_path):
        payload = lint_fixture(tmp_path, self.FIXTURE).as_dict()
        assert payload["schema"] == "repro-lint/v1"
        assert "time" not in payload and "timestamp" not in payload
        for finding in payload["findings"]:
            assert set(finding) == {
                "path", "line", "col", "rule", "message",
            }

    def test_real_tree_json_is_byte_identical(self, capsys):
        # The meta-test CI relies on: linting a real source file twice
        # produces byte-identical --json output.
        target = str(
            Path(__file__).resolve().parent.parent
            / "src" / "repro" / "analysis" / "findings.py"
        )
        assert analysis_main([target, "--json"]) == 0
        first = capsys.readouterr().out
        assert analysis_main([target, "--json"]) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()


# ---------------------------------------------------------------------------
# CLI (python -m repro.analysis and the repro lint verb)
# ---------------------------------------------------------------------------


class TestCli:
    def write_clean(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("def add(a, b):\n    return a + b\n")
        return str(path)

    def write_dirty(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text("def extend(items=[]):\n    return items\n")
        return str(path)

    def test_exit_zero_on_clean_tree(self, capsys, tmp_path):
        assert analysis_main([self.write_clean(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, capsys, tmp_path):
        assert analysis_main([self.write_dirty(tmp_path)]) == 1
        assert "RPR005" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, capsys, tmp_path):
        assert analysis_main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_exit_two_on_unknown_select(self, capsys, tmp_path):
        code = analysis_main(
            [self.write_clean(tmp_path), "--select", "RPR999"]
        )
        assert code == 2
        assert "RPR999" in capsys.readouterr().err

    def test_select_restricts_rules(self, capsys, tmp_path):
        # dirty.py violates RPR005 only; selecting RPR002 is clean.
        code = analysis_main(
            [self.write_dirty(tmp_path), "--select", "RPR002"]
        )
        assert code == 0
        capsys.readouterr()

    def test_json_flag_emits_schema(self, capsys, tmp_path):
        assert analysis_main([self.write_dirty(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-lint/v1"
        assert payload["counts"] == {"RPR005": 1}

    def test_repro_lint_verb_matches_module_cli(self, capsys, tmp_path):
        dirty = self.write_dirty(tmp_path)
        assert cli_main(["lint", dirty, "--json"]) == 1
        via_verb = capsys.readouterr().out
        assert analysis_main([dirty, "--json"]) == 1
        via_module = capsys.readouterr().out
        assert via_verb == via_module

    def test_repro_lint_exit_codes(self, capsys, tmp_path):
        assert cli_main(["lint", self.write_clean(tmp_path)]) == 0
        assert cli_main(["lint", self.write_dirty(tmp_path)]) == 1
        assert cli_main(["lint", str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_repro_lint_help_lists_rules_from_registry(
        self, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "registered lint rules:" in out
        for code in available_rules():
            assert code in out
            assert get_rule(code).slug in out
        assert "repro-lint: noqa[RPR00x]" in out

    def test_repro_info_reports_lint_rules(self, capsys):
        assert cli_main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lint_rules"] == list(available_rules())

    def test_syntax_error_is_a_finding_not_a_crash(
        self, capsys, tmp_path
    ):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert analysis_main([str(path)]) == 1
        assert ENGINE_RULE in capsys.readouterr().out
