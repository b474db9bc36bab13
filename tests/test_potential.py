"""Random potentials: models, counter-addressed sampling, reindexing.

The sampler must be a pure function of (model seed, draw, index): the
value at height index k never depends on the window it was requested
through.  The frozen arrays below pin the exact stream so that an
accidental change to the keying or counter layout shows up as a test
failure rather than as silently different experiments.
"""

import numpy as np
import pytest

from randomsurfaces.potential import (
    Potential,
    PotentialModel,
    c_omega,
    enumerate_potentials,
    parse_model,
    sample_potential,
    shift_even,
)

# Frozen output of sample_potential(uniform b=1, seed=7, draw=5) on
# [-3, 3]; regression anchor for the counter-addressed stream.
UNIFORM_7_5 = np.array(
    [
        0.9188122916787134,
        0.2365847643329253,
        -0.31423329982813497,
        -0.6357046218384086,
        -0.1203911369602002,
        0.8403832270234208,
        -0.034295473883585226,
    ]
)

# Frozen signs of sample_potential(twopoint a=1, seed=0, draw=0) on [-3, 3].
TWOPOINT_0_0 = np.array([-1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


class TestPotential:
    def test_window_and_values(self):
        p = Potential(-1, 1, np.array([0.5, -0.25, 1.5]))
        assert p.window == (-1, 1)
        assert p.value(-1) == 0.5
        assert p.value(1) == 1.5

    def test_values_at_vectorized(self):
        p = Potential(0, 3, np.arange(4.0))
        got = p.values_at(np.array([[3, 0], [1, 1]]))
        assert got.tolist() == [[3.0, 0.0], [1.0, 1.0]]

    def test_out_of_window_rejected(self):
        p = Potential(0, 1, np.zeros(2))
        with pytest.raises(IndexError):
            p.value(2)
        with pytest.raises(IndexError):
            p.values_at(np.array([-1]))

    def test_covers(self):
        p = Potential(-2, 5, np.zeros(8))
        assert p.covers(-2, 5)
        assert p.covers(0, 0)
        assert not p.covers(-3, 0)
        assert not p.covers(0, 6)

    def test_values_are_read_only(self):
        p = Potential(0, 1, np.zeros(2))
        with pytest.raises(ValueError):
            p.values[0] = 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Potential(0, 2, np.zeros(2))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Potential(1, 0, np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN would make every heat-bath comparison u >= P(up) false and
        # poison the log weights; an infinity overflows them
        values = [0.0, 1.0, 2.0, 3.0]
        values[2] = bad
        with pytest.raises(ValueError, match=r"window \[0, 3\].* at index 2"):
            Potential(0, 3, values)
        with pytest.raises(ValueError, match=r"window \[-1, 2\]"):
            Potential(-1, 2, [bad, 0.0, 1.0, 2.0])


class TestPotentialModel:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            PotentialModel("gauss", 1.0)

    def test_zero_takes_no_parameter(self):
        with pytest.raises(ValueError):
            PotentialModel("zero", 0.5)

    def test_positive_parameter_required(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                PotentialModel("uniform", bad)

    def test_bound(self):
        assert PotentialModel("zero").bound == 0.0
        assert PotentialModel("uniform", 2.5).bound == 2.5
        assert PotentialModel("twopoint", 0.3).bound == 0.3

    def test_with_seed(self):
        m = PotentialModel("twopoint", 1.0, 0)
        assert m.with_seed(9) == PotentialModel("twopoint", 1.0, 9)

    def test_spec_string_round_trip(self):
        for m in (
            PotentialModel("zero"),
            PotentialModel("uniform", 0.5, 3),
            PotentialModel("twopoint", 1.0, 3),
        ):
            assert parse_model(m.spec_string(), seed=m.seed) == m

    def test_parse_model_forms(self):
        assert parse_model("zero") == PotentialModel("zero")
        assert parse_model("uniform:b=2") == PotentialModel("uniform", 2.0)
        assert parse_model("twopoint:a=0.5", seed=4) == PotentialModel(
            "twopoint", 0.5, 4
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "gauss:s=1", "uniform", "uniform:a=1", "twopoint:b=1",
         "zero:a=1", "twopoint:a=", "twopoint:a=x"],
    )
    def test_parse_model_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_model(bad)


class TestSampling:
    def test_zero_model(self):
        p = sample_potential(PotentialModel("zero"), (-4, 4), draw=3)
        assert p.window == (-4, 4)
        assert not p.values.any()

    def test_uniform_range(self):
        m = PotentialModel("uniform", 0.25, 1)
        p = sample_potential(m, (0, 499), draw=0)
        assert np.all(np.abs(p.values) <= 0.25)
        # both signs occur over 500 draws
        assert (p.values > 0).any() and (p.values < 0).any()

    def test_twopoint_support(self):
        m = PotentialModel("twopoint", 0.7, 1)
        p = sample_potential(m, (0, 199), draw=0)
        assert set(np.unique(p.values)) == {-0.7, 0.7}

    def test_deterministic(self):
        m = PotentialModel("uniform", 1.0, 12)
        a = sample_potential(m, (-5, 5), draw=9)
        b = sample_potential(m, (-5, 5), draw=9)
        assert a == b

    def test_draws_differ(self):
        m = PotentialModel("uniform", 1.0, 12)
        a = sample_potential(m, (0, 20), draw=0)
        b = sample_potential(m, (0, 20), draw=1)
        assert not np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        a = sample_potential(PotentialModel("uniform", 1.0, 0), (0, 20))
        b = sample_potential(PotentialModel("uniform", 1.0, 1), (0, 20))
        assert not np.array_equal(a.values, b.values)

    def test_window_extension_is_consistent(self):
        # the value at index k does not depend on the requested window
        m = PotentialModel("uniform", 1.0, 7)
        small = sample_potential(m, (0, 3), draw=5)
        for lo, hi in [(-5, 5), (-1, 3), (0, 40), (-129, 130)]:
            big = sample_potential(m, (lo, hi), draw=5)
            for k in range(max(lo, 0), min(hi, 3) + 1):
                assert big.value(k) == small.value(k)

    def test_frozen_uniform_stream(self):
        m = PotentialModel("uniform", 1.0, 7)
        p = sample_potential(m, (-3, 3), draw=5)
        assert np.array_equal(p.values, UNIFORM_7_5)

    def test_frozen_twopoint_stream(self):
        m = PotentialModel("twopoint", 1.0, 0)
        p = sample_potential(m, (-3, 3), draw=0)
        assert np.array_equal(p.values, TWOPOINT_0_0)

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            sample_potential(PotentialModel("uniform", 1.0), (0, 1), draw=-1)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            sample_potential(PotentialModel("zero"), (2, 1))


class TestReindexing:
    def test_shift_even_semantics(self):
        # (shift_even(p, z))(k) == p(k + z)
        p = Potential(-2, 3, np.arange(6.0))
        q = shift_even(p, 2)
        assert q.window == (-4, 1)
        for k in range(-4, 2):
            assert q.value(k) == p.value(k + 2)

    def test_negative_even_shift(self):
        p = Potential(0, 1, np.array([1.0, 2.0]))
        q = shift_even(p, -2)
        assert q.window == (2, 3)
        assert q.value(2) == p.value(0)

    def test_odd_shift_rejected(self):
        with pytest.raises(ValueError):
            shift_even(Potential(0, 1, np.zeros(2)), 1)

    def test_c_omega_floor_is_one(self):
        assert c_omega(Potential(0, 2, np.array([0.2, -0.5, 0.1]))) == 1.0
        assert c_omega(Potential(0, 1, np.array([3.0, -4.0]))) == 4.0


class TestEnumeratePotentials:
    def test_twopoint_outcomes(self):
        m = PotentialModel("twopoint", 0.5)
        out = enumerate_potentials(m, (0, 1))
        assert len(out) == 4
        assert sum(w for _, w in out) == pytest.approx(1.0)
        patterns = {tuple(p.values.tolist()) for p, _ in out}
        assert patterns == {
            (-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)
        }

    def test_zero_single_outcome(self):
        out = enumerate_potentials(PotentialModel("zero"), (-1, 1))
        assert len(out) == 1
        assert out[0][1] == 1.0
        assert not out[0][0].values.any()

    def test_uniform_not_enumerable(self):
        with pytest.raises(ValueError):
            enumerate_potentials(PotentialModel("uniform", 1.0), (0, 1))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_potentials(PotentialModel("twopoint", 1.0), (0, 16))
