"""Unit tests for the Core data model (repro.soc.core)."""

import pytest

from repro.soc.core import Core, total_test_bits


class TestCoreConstruction:
    def test_basic_fields(self):
        core = Core("c1", inputs=3, outputs=4, bidirs=2, patterns=7, scan_chains=(5, 6))
        assert core.name == "c1"
        assert core.inputs == 3
        assert core.outputs == 4
        assert core.bidirs == 2
        assert core.patterns == 7
        assert core.scan_chains == (5, 6)

    def test_scan_chains_are_normalised_to_tuple(self):
        core = Core("c1", inputs=1, outputs=1, patterns=1, scan_chains=[3, 4])
        assert isinstance(core.scan_chains, tuple)
        assert core.scan_chains == (3, 4)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Core("", inputs=1, outputs=1, patterns=1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            Core("c", inputs=-1, outputs=1, patterns=1)

    def test_negative_outputs_rejected(self):
        with pytest.raises(ValueError):
            Core("c", inputs=1, outputs=-1, patterns=1)

    def test_zero_patterns_rejected(self):
        with pytest.raises(ValueError):
            Core("c", inputs=1, outputs=1, patterns=0)

    def test_non_positive_scan_chain_rejected(self):
        with pytest.raises(ValueError):
            Core("c", inputs=1, outputs=1, patterns=1, scan_chains=(0,))

    def test_core_without_terminals_rejected(self):
        with pytest.raises(ValueError):
            Core("c", inputs=0, outputs=0, bidirs=0, patterns=1, scan_chains=())

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Core("c", inputs=1, outputs=1, patterns=1, power=-2.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scan_chains", (2.7, 3)),
            ("scan_chains", ("4",)),
            ("inputs", 2.5),
            ("outputs", 3.0),
            ("bidirs", "1"),
            ("patterns", 1.5),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        # A float chain length used to be truncated and a float count used
        # to crash the wrapper kernel; both now fail at construction.
        fields = dict(inputs=1, outputs=1, patterns=1, scan_chains=(5,))
        fields[field] = value
        with pytest.raises(TypeError):
            Core("c", **fields)

    def test_integer_likes_are_normalised_to_int(self):
        class Count:
            def __index__(self):
                return 4

        core = Core("c", inputs=Count(), outputs=1, patterns=Count(),
                    scan_chains=(Count(),))
        assert (core.inputs, core.patterns, core.scan_chains) == (4, 4, (4,))
        assert type(core.inputs) is int and type(core.scan_chains[0]) is int

    def test_core_is_hashable_and_frozen(self):
        core = Core("c", inputs=1, outputs=1, patterns=1)
        assert hash(core) == hash(Core("c", inputs=1, outputs=1, patterns=1))
        with pytest.raises(AttributeError):
            core.inputs = 5  # type: ignore[misc]


class TestDerivedQuantities:
    def test_scan_cells(self):
        core = Core("c", inputs=1, outputs=1, patterns=1, scan_chains=(5, 7, 9))
        assert core.scan_cells == 21
        assert core.num_scan_chains == 3

    def test_combinational_detection(self):
        comb = Core.combinational("c", inputs=3, outputs=3, patterns=4)
        assert comb.is_combinational
        seq = Core("s", inputs=3, outputs=3, patterns=4, scan_chains=(2,))
        assert not seq.is_combinational

    def test_wrapper_cell_counts_include_bidirs(self):
        core = Core("c", inputs=3, outputs=4, bidirs=2, patterns=1, scan_chains=(5,))
        assert core.wrapper_input_cells == 5
        assert core.wrapper_output_cells == 6

    def test_test_bits_per_pattern(self):
        core = Core("c", inputs=3, outputs=4, bidirs=2, patterns=1, scan_chains=(5,))
        # stimulus = 3 + 2 + 5, response = 4 + 2 + 5
        assert core.test_bits_per_pattern == 10 + 11

    def test_total_test_bits_scales_with_patterns(self):
        core = Core("c", inputs=3, outputs=4, patterns=10, scan_chains=(5,))
        assert core.total_test_bits == core.test_bits_per_pattern * 10

    def test_default_power_is_bits_per_pattern(self):
        core = Core("c", inputs=3, outputs=4, patterns=10, scan_chains=(5,))
        assert core.test_power == float(core.test_bits_per_pattern)

    def test_explicit_power_overrides_default(self):
        core = Core("c", inputs=3, outputs=4, patterns=10, power=123.0)
        assert core.test_power == 123.0

    def test_with_power_returns_new_core(self):
        core = Core("c", inputs=3, outputs=4, patterns=10)
        powered = core.with_power(9.0)
        assert powered.test_power == 9.0
        assert core.power is None
        assert powered.name == core.name


class TestConstructors:
    def test_balanced_scan_splits_evenly(self):
        core = Core.balanced_scan("c", inputs=1, outputs=1, patterns=1, scan_cells=10, num_chains=4)
        assert sorted(core.scan_chains, reverse=True) == [3, 3, 2, 2]
        assert core.scan_cells == 10

    def test_balanced_scan_exact_division(self):
        core = Core.balanced_scan("c", inputs=1, outputs=1, patterns=1, scan_cells=12, num_chains=4)
        assert core.scan_chains == (3, 3, 3, 3)

    def test_balanced_scan_rejects_more_chains_than_cells(self):
        with pytest.raises(ValueError):
            Core.balanced_scan("c", inputs=1, outputs=1, patterns=1, scan_cells=2, num_chains=4)

    def test_balanced_scan_rejects_zero_chains(self):
        with pytest.raises(ValueError):
            Core.balanced_scan("c", inputs=1, outputs=1, patterns=1, scan_cells=2, num_chains=0)

    def test_replace(self):
        core = Core("c", inputs=3, outputs=4, patterns=10)
        other = core.replace(patterns=20)
        assert other.patterns == 20
        assert other.inputs == 3

    def test_describe_mentions_name_and_patterns(self):
        core = Core("mycore", inputs=3, outputs=4, patterns=10, scan_chains=(5, 5))
        text = core.describe()
        assert "mycore" in text
        assert "10 patterns" in text
        assert "2 scan chains" in text

    def test_describe_combinational(self):
        core = Core.combinational("comb", inputs=3, outputs=4, patterns=10)
        assert "combinational" in core.describe()


def test_total_test_bits_helper():
    cores = [
        Core("a", inputs=1, outputs=1, patterns=2),
        Core("b", inputs=2, outputs=2, patterns=3),
    ]
    assert total_test_bits(cores) == sum(c.total_test_bits for c in cores)
