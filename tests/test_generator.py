"""Tests for the seeded synthetic SOC generator (repro.soc.generator)."""

import pytest

from repro.core.lower_bounds import lower_bound
from repro.core.scheduler import run_paper_scheduler
from repro.soc.generator import GeneratorProfile, generate_soc, generate_soc_family


class TestGeneratorProfile:
    def test_defaults_valid(self):
        profile = GeneratorProfile()
        assert profile.min_cores <= profile.max_cores

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_cores": 0},
            {"min_cores": 10, "max_cores": 5},
            {"min_patterns": 0},
            {"max_scan_chains": 0},
            {"min_io": 0},
            {"bidir_fraction": 1.5},
            {"hierarchy_fraction": -0.1},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorProfile(**kwargs)


class TestGenerateSoc:
    def test_deterministic_for_seed(self):
        assert generate_soc(7) == generate_soc(7)

    def test_different_seeds_differ(self):
        assert generate_soc(1) != generate_soc(2)

    def test_respects_core_count_bounds(self):
        profile = GeneratorProfile(min_cores=3, max_cores=5)
        for seed in range(10):
            soc = generate_soc(seed, profile=profile)
            assert 3 <= len(soc) <= 5

    def test_scan_cells_within_bounds(self):
        profile = GeneratorProfile(max_scan_cells=500, combinational_fraction=0.0)
        for seed in range(5):
            soc = generate_soc(seed, profile=profile)
            for core in soc.cores:
                assert core.scan_cells <= 500

    def test_custom_name(self):
        assert generate_soc(3, name="mysoc").name == "mysoc"

    def test_hierarchy_and_bist_fractions(self):
        profile = GeneratorProfile(
            min_cores=12, max_cores=12, hierarchy_fraction=0.6, bist_fraction=0.6
        )
        soc = generate_soc(11, profile=profile)
        assert any(core.parent is not None for core in soc.cores)
        assert any(core.bist_resource is not None for core in soc.cores)

    def test_generated_socs_are_schedulable(self):
        profile = GeneratorProfile(min_cores=4, max_cores=6, max_scan_cells=800, max_patterns=60)
        for seed in range(3):
            soc = generate_soc(seed, profile=profile)
            schedule = run_paper_scheduler(soc, 16)
            schedule.validate(soc)
            assert schedule.makespan >= lower_bound(soc, 16)


class TestGenerateFamily:
    def test_family_size_and_names(self):
        family = generate_soc_family(range(3), name_prefix="fam")
        assert len(family) == 3
        assert [soc.name for soc in family] == ["fam-0", "fam-1", "fam-2"]

    def test_family_shares_profile(self):
        profile = GeneratorProfile(min_cores=2, max_cores=2)
        family = generate_soc_family(range(4), profile=profile)
        assert all(len(soc) == 2 for soc in family)
