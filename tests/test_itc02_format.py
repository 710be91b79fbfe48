"""Unit tests for the ITC'02-style SOC file format (repro.soc.itc02)."""

import json

import pytest

from repro.soc.benchmarks import d695, get_benchmark
from repro.soc.constraints import ConstraintSet
from repro.soc.core import Core
from repro.soc.itc02 import (
    SocFormatError,
    format_soc,
    load_soc,
    parse_soc,
    parse_soc_with_constraints,
    save_soc,
)
from repro.soc.soc import Soc
from repro.solvers import ScheduleRequest

SAMPLE = """
# A small example SOC
SocName demo
Core alpha inputs=4 outputs=4 patterns=10 scan=8,8
Core beta  inputs=2 outputs=3 patterns=20 scan=6 power=33
Core gamma inputs=5 outputs=5 patterns=5 scan=10,10,10 bist=engine0
Core delta inputs=6 outputs=2 patterns=30 parent=alpha

PowerMax 120
Precedence alpha delta
Concurrency beta gamma
MaxPreemptions gamma 2
DefaultPreemptions 1
"""


class TestParsing:
    def test_parse_soc_structure(self):
        soc = parse_soc(SAMPLE)
        assert soc.name == "demo"
        assert soc.core_names == ("alpha", "beta", "gamma", "delta")
        assert soc.core("alpha").scan_chains == (8, 8)
        assert soc.core("beta").power == 33
        assert soc.core("gamma").bist_resource == "engine0"
        assert soc.core("delta").parent == "alpha"
        assert soc.core("delta").is_combinational

    def test_parse_constraints(self):
        _, constraints = parse_soc_with_constraints(SAMPLE)
        assert constraints.power_max == 120
        assert ("alpha", "delta") in constraints.precedence
        assert not constraints.allows_concurrent("beta", "gamma")
        assert constraints.preemption_limit("gamma") == 2
        assert constraints.preemption_limit("beta") == 1  # default

    def test_hierarchy_becomes_concurrency_constraint(self):
        _, constraints = parse_soc_with_constraints(SAMPLE)
        assert not constraints.allows_concurrent("alpha", "delta")

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# comment\n\nSocName x\n  # indented comment\n"
            "Core a inputs=1 outputs=1 patterns=1\n"
        )
        soc = parse_soc(text)
        assert soc.name == "x"
        assert len(soc) == 1

    def test_inline_comment(self):
        text = "SocName x\nCore a inputs=1 outputs=1 patterns=2  # two patterns\n"
        assert parse_soc(text).core("a").patterns == 2


class TestParseErrors:
    def test_missing_socname(self):
        with pytest.raises(SocFormatError):
            parse_soc("Core a inputs=1 outputs=1 patterns=1\n")

    def test_no_cores(self):
        with pytest.raises(SocFormatError):
            parse_soc("SocName x\n")

    def test_unknown_keyword(self):
        with pytest.raises(SocFormatError):
            parse_soc("SocName x\nBogus 1\nCore a inputs=1 outputs=1 patterns=1\n")

    def test_core_without_name(self):
        with pytest.raises(SocFormatError):
            parse_soc("SocName x\nCore\n")

    def test_bad_key_value_token(self):
        with pytest.raises(SocFormatError):
            parse_soc("SocName x\nCore a inputs\n")

    def test_unknown_core_attribute(self):
        with pytest.raises(SocFormatError):
            parse_soc("SocName x\nCore a wires=3\n")

    def test_non_integer_value(self):
        with pytest.raises(SocFormatError):
            parse_soc("SocName x\nCore a inputs=three outputs=1 patterns=1\n")

    def test_bad_precedence_arity(self):
        with pytest.raises(SocFormatError):
            parse_soc("SocName x\nCore a inputs=1 outputs=1 patterns=1\nPrecedence a\n")

    def test_bad_powermax_arity(self):
        with pytest.raises(SocFormatError):
            parse_soc("SocName x\nCore a inputs=1 outputs=1 patterns=1\nPowerMax 1 2\n")

    def test_error_message_contains_line_number(self):
        text = "SocName x\nCore a inputs=1 outputs=1 patterns=1\nBogus\n"
        with pytest.raises(SocFormatError, match="line 3"):
            parse_soc(text)


class TestRoundTrip:
    def test_format_then_parse_is_identity(self):
        soc, constraints = parse_soc_with_constraints(SAMPLE)
        text = format_soc(soc, constraints)
        soc2, constraints2 = parse_soc_with_constraints(text)
        assert soc2 == soc
        assert set(constraints2.precedence) == set(constraints.precedence)
        assert set(constraints2.concurrency) == set(constraints.concurrency)
        assert constraints2.power_max == constraints.power_max
        assert dict(constraints2.max_preemptions) == dict(constraints.max_preemptions)
        assert constraints2.default_preemptions == constraints.default_preemptions

    def test_round_trip_d695(self):
        soc = d695()
        assert parse_soc(format_soc(soc)) == soc

    def test_round_trip_fractional_power(self):
        soc = Soc("x", (Core("a", inputs=1, outputs=1, patterns=1, power=1.5),))
        assert parse_soc(format_soc(soc)).core("a").power == 1.5

    def test_save_and_load(self, tmp_path):
        soc, constraints = parse_soc_with_constraints(SAMPLE)
        path = tmp_path / "demo.soc"
        save_soc(soc, path, constraints)
        loaded, loaded_constraints = load_soc(path)
        assert loaded == soc
        assert loaded_constraints.power_max == constraints.power_max

    def test_save_without_constraints(self, tmp_path):
        soc = d695()
        path = tmp_path / "d695.soc"
        save_soc(soc, path)
        loaded, constraints = load_soc(path)
        assert loaded == soc
        assert constraints.power_max is None
        assert constraints.precedence == ()


class TestSpacedCoreNames:
    """ITC'02 core names such as ``Core 1`` survive the text format."""

    @pytest.mark.parametrize("name", ["d695", "p22810", "p34392", "p93791"])
    def test_itc02_socs_round_trip(self, name):
        soc = get_benchmark(name)
        assert parse_soc(format_soc(soc)) == soc

    @pytest.mark.parametrize("name", ["d695", "p22810", "p34392", "p93791"])
    def test_itc02_requests_round_trip(self, name):
        request = ScheduleRequest(soc=get_benchmark(name), total_width=32, solver="paper")
        again = ScheduleRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert again == request
        assert again.fingerprint() == request.fingerprint()

    def test_name_runs_up_to_the_first_key_value(self):
        soc = parse_soc("SocName x\nCore  Core   12  inputs=1 outputs=1 patterns=1\n")
        assert soc.cores[0].name == "Core 12"

    def test_underscore_names_keep_their_text(self):
        soc = Soc("s", (Core("Core_1", inputs=2, outputs=3, patterns=4, scan_chains=(5,)),))
        assert format_soc(soc) == (
            "SocName s\nCore Core_1 inputs=2 outputs=3 bidirs=0 patterns=4 scan=5\n"
        )

    @pytest.mark.parametrize(
        "name", ["a=b", "a#b", " a", "a ", "a  b", "a\tb", "a\nb"]
    )
    def test_uncarriable_core_names_refuse_to_format(self, name):
        soc = Soc("s", (Core(name, inputs=1, outputs=1, patterns=1),))
        with pytest.raises(SocFormatError, match="cannot be written"):
            format_soc(soc)

    def test_uncarriable_soc_name_refuses_to_format(self):
        soc = Soc("my soc", (Core("a", inputs=1, outputs=1, patterns=1),))
        with pytest.raises(SocFormatError, match="cannot be written"):
            format_soc(soc)

    @pytest.mark.parametrize(
        "constraint",
        [
            {"precedence": [("Core 1", "Core 2")]},
            {"concurrency": [("Core 1", "Core 2")]},
            {"max_preemptions": {"Core 1": 2}},
        ],
    )
    def test_spaced_names_refuse_constraint_lines(self, constraint):
        soc = Soc(
            "s",
            (
                Core("Core 1", inputs=1, outputs=1, patterns=1),
                Core("Core 2", inputs=1, outputs=1, patterns=1),
            ),
        )
        assert parse_soc(format_soc(soc)) == soc
        with pytest.raises(SocFormatError, match="cannot be written"):
            format_soc(soc, ConstraintSet.for_soc(soc, **constraint))
