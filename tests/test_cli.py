"""The CLI's boundary: finite float flags, and ``main`` as the one place
bad input becomes exit 2 while genuine bugs still traceback."""

import pytest

from repro import cli
from repro.cli import main
from repro.runtime import UnknownBackendError


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "exc",
        [ValueError("bad knob"), UnknownBackendError("bad knob")],
        ids=["ValueError", "UnknownBackendError"],
    )
    def test_bad_input_exits_2_with_its_message(self, monkeypatch, capsys, exc):
        def verb(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_info", verb)
        assert main(["info"]) == 2
        assert capsys.readouterr().err == "bad knob\n"

    @pytest.mark.parametrize("exc", [KeyError("k"), IndexError("i"), TypeError("t")])
    def test_bugs_still_traceback(self, monkeypatch, exc):
        def verb(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_info", verb)
        with pytest.raises(type(exc)):
            main(["info"])

    def test_span_rate_out_of_range_exits_2(self, capsys):
        # SpanRecorder's ValueError used to escape as a traceback.
        argv = ["stats", "small", "--max-rows", "128", "--spans", "--span-rate", "2"]
        assert main(argv) == 2
        assert "sample_rate must be in (0, 1], got 2.0" in capsys.readouterr().err

    def test_negative_bank_count_exits_2(self, capsys):
        # Used to exit 0 with an empty on-chip tier (candidate_count: 0).
        assert main(["plan", "small", "--onchip-banks", "-1"]) == 2
        assert "onchip_banks must be >= 0, got -1" in capsys.readouterr().err


class TestFiniteFloatFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["cluster", "small", "--rate", "inf"], "--rate"),
            (["plan-shards", "small", "--node-gb", "nan"], "--node-gb"),
            (["serve", "small", "--duration-s", "nan"], "--duration-s"),
            (["tiers", "small", "--utilisation", "nan"], "--utilisation"),
            (["fleet", "small", "nan"], "qps"),
        ],
    )
    def test_non_finite_rejected_naming_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err

    def test_malformed_float_message_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "small", "--slo-ms", "abc"])
        assert exc.value.code == 2
        assert "argument --slo-ms: invalid float value: 'abc'" in (
            capsys.readouterr().err
        )
