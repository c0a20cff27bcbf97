"""Unit tests for the truncated-Fock and Crank-Nicolson grid oracles."""

import math

import numpy as np
import pytest

from quadprop.errors import BoundaryLeakError
from quadprop.lie_core import QuadraticGenerator
from quadprop.oracle import (
    FockTruncation,
    Grid,
    fock_unitary_direct,
    fock_unitary_ordered,
    _hamiltonian_bands,
    grid_evolve,
    ldu,
    uld,
)
from quadprop.propagator import (
    GaussianWavepacket,
    convolve,
    kernel_from_abcd,
    named_generator,
)
from quadprop.symplectic import abcd_from_generator
from quadprop.verify import random_generators


def _banded_substeps(schedule, grid, steps):
    """Cayley stepping that solves the banded system afresh on every sub-step.

    Yields the state after each sub-step.
    """
    from scipy.linalg import solve_banded

    ds = 1.0 / steps
    psi = grid.amplitudes.copy()
    for g in schedule:
        diag, upper = _hamiltonian_bands(g, grid.x, grid.spacing)
        lower = upper.conjugate()
        ab = np.zeros((3, psi.size), dtype=complex)
        ab[0, 1:] = 0.5j * ds * upper
        ab[1, :] = 1.0 + 0.5j * ds * diag
        ab[2, :-1] = 0.5j * ds * lower
        for _ in range(steps):
            rhs = (1.0 - 0.5j * ds * diag) * psi
            rhs[:-1] -= 0.5j * ds * upper * psi[1:]
            rhs[1:] -= 0.5j * ds * lower * psi[:-1]
            psi = solve_banded((1, 1), ab, rhs)
            yield psi


def _banded_reference(schedule, grid, steps):
    """The state after the last sub-step of ``_banded_substeps``."""
    psi = grid.amplitudes
    for psi in _banded_substeps(schedule, grid, steps):
        pass
    return psi


class TestFockTruncation:
    def test_ladder_matrix_elements(self):
        fock = FockTruncation.build(16)
        for n in range(1, 16):
            assert fock.a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(fock.a) == 15

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            FockTruncation.build(8)


class TestFockUnitaries:
    def test_zero_generator_is_identity(self):
        for build in (fock_unitary_direct, fock_unitary_ordered):
            u = build(QuadraticGenerator(0.0, 0.0, 0.0), dim=32)
            np.testing.assert_allclose(u, np.eye(32), atol=1e-14)

    def test_isotropic_generator_is_diagonal_phase(self):
        theta = 0.7
        g = QuadraticGenerator(theta, 0.0, theta)
        n = np.arange(9)
        ref = np.exp(-1j * theta * (n + 0.5))
        direct = fock_unitary_direct(g, dim=60)
        ordered = fock_unitary_ordered(g, dim=60)
        off_diag = direct[:9, :9] - np.diag(np.diag(direct[:9, :9]))
        assert np.abs(off_diag).max() < 1e-10
        np.testing.assert_allclose(np.diag(direct[:9, :9]), ref, atol=1e-8)
        np.testing.assert_allclose(np.diag(ordered[:9, :9]), ref, atol=1e-8)

    def test_vacuum_squeeze_amplitude(self):
        g = QuadraticGenerator(0.0, math.log(2.0), 0.0)
        u = fock_unitary_direct(g, dim=60)
        # 1/sqrt(cosh(ln 2)), same number the coherent-state route gives
        assert u[0, 0] == pytest.approx(0.8944271909999159, abs=1e-9)


class TestGrid:
    def test_validates_point_count(self):
        with pytest.raises(ValueError):
            Grid(-10.0, 10.0, 500, np.zeros(500, dtype=complex))
        with pytest.raises(ValueError):
            Grid(-10.0, 10.0, 1000, np.zeros(1000, dtype=complex))

    def test_sampled_packet_is_normalized(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0))
        assert grid.norm() == pytest.approx(1.0, abs=1e-10)


class TestGridEvolve:
    def test_zero_generator_is_identity(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0))
        out = grid_evolve([QuadraticGenerator(0.0, 0.0, 0.0)], grid, steps=100)
        np.testing.assert_allclose(out.amplitudes, grid.amplitudes, atol=1e-12)

    def test_empty_schedule_is_identity(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0))
        out = grid_evolve([], grid, steps=100)
        np.testing.assert_allclose(out.amplitudes, grid.amplitudes, atol=0.0)

    def test_harmonic_quarter_period_rotation(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(1.0, 0.0, 1.0))
        g = named_generator("harmonic", 1.0, 1.0, np.pi / 2)
        out = grid_evolve([g], grid, steps=2000)
        # agrees with the closed-form convolution route
        state = convolve(kernel_from_abcd(abcd_from_generator(g)),
                         GaussianWavepacket(1.0, 0.0, 1.0))
        diff = out.amplitudes - state.evaluate(out.x)
        assert np.sqrt(np.sum(np.abs(diff) ** 2) * out.spacing) < 1e-3

    def test_boundary_leak_detected(self):
        narrow = Grid.from_wavepacket(
            GaussianWavepacket(0.0, 3.0, 1.0), x_min=-5.0, x_max=5.0, n_points=512
        )
        with pytest.raises(BoundaryLeakError):
            grid_evolve([named_generator("free", 1.0, 0.0, 1.0)], narrow, steps=500)

    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_matches_banded_solve_after_odd_substep_counts(self, steps):
        # an odd count ends each entry in the other carried state
        schedule = [QuadraticGenerator(0.8, 0.3, 1.2), QuadraticGenerator(1.0, -0.4, 0.5),
                    QuadraticGenerator(0.6, 0.1, 0.9)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0), n_points=1024)
        out = grid_evolve(schedule, grid, steps=steps)
        assert np.abs(out.amplitudes - _banded_reference(schedule, grid, steps)).max() <= 1e-14

    @pytest.mark.parametrize("center_p, steps", [(3.0, 20), (3.0, 50), (-3.0, 20), (-3.0, 50)],
                             ids=["right-edge-sub-step-9", "right-edge-sub-step-22",
                                  "left-edge-sub-step-9", "left-edge-sub-step-22"])
    def test_boundary_leak_caught_at_the_substep_it_occurs(self, center_p, steps):
        # The packet first leaks after sub-step 9 of 20, when grid_evolve
        # carries p = U~^-1 psi, and after sub-step 22 of 50, when it carries
        # w = L^-1 psi. The message must show psi's own edge amplitude there.
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, center_p, 0.7),
                                    x_min=-6.0, x_max=6.0, n_points=512)
        schedule = [named_generator("free", 1.0, 0.0, 1.0)]
        for k, psi in enumerate(_banded_substeps(schedule, grid, steps), 1):
            edge = max(abs(psi[0]), abs(psi[-1]))
            if edge > 1e-6:
                break
        assert k == (9 if steps == 20 else 22)
        with pytest.raises(BoundaryLeakError, match=f"^edge amplitude {edge:.3e} exceeds"):
            grid_evolve(schedule, grid, steps=steps)

    def test_matches_banded_solve_per_substep(self):
        schedule = [QuadraticGenerator(0.8, 0.3, 1.2), QuadraticGenerator(1.0, -0.4, 0.5)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0), n_points=1024)
        out = grid_evolve(schedule, grid, steps=100)
        assert np.abs(out.amplitudes - _banded_reference(schedule, grid, 100)).max() <= 1e-14

    @pytest.mark.parametrize(
        "g, n_points",
        [((0.0, 0.5, 0.0), 512), ((3.0, 0.0, 0.0), 4096)],
        ids=["pure-squeeze", "stiff-free"],
    )
    def test_matches_banded_solve_where_pivoting_could_occur(self, g, n_points):
        # the squeeze's edge off-diagonals exceed its unit diagonal, where a
        # partial-pivoting LU (zgttrf) exchanges rows; the free particle has
        # ds H/2 of about 400
        schedule = [QuadraticGenerator(*g)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0), n_points=n_points)
        out = grid_evolve(schedule, grid, steps=10)
        assert np.abs(out.amplitudes - _banded_reference(schedule, grid, 10)).max() <= 1e-12

    def test_cayley_pivots_have_real_part_at_least_one(self):
        rng = np.random.default_rng(5)
        for g in random_generators(rng, 100, scale=3.0):
            n = int(rng.choice([512, 1024, 4096]))
            steps = int(rng.choice([1, 10, 100, 1000]))
            x = np.linspace(-40.0, 40.0, n)
            diag, upper = _hamiltonian_bands(g, x, x[1] - x[0])
            for factor in (ldu, uld):
                pivots, _, _ = factor(diag, upper, 1.0 / steps)
                assert pivots.real.min() >= 1.0

    def test_cayley_factorizations_reproduce_the_matrix(self):
        x = np.linspace(-5.0, 5.0, 64)
        diag, upper = _hamiltonian_bands(QuadraticGenerator(0.8, 0.3, 1.2), x, x[1] - x[0])
        ds = 0.01
        a = (np.diag(1.0 + 0.5j * ds * diag) + np.diag(0.5j * ds * upper, 1)
             + np.diag(0.5j * ds * upper.conjugate(), -1))
        one = np.eye(x.size)
        d, l, u = ldu(diag, upper, ds)
        product = (one + np.diag(l, -1)) @ np.diag(d) @ (one + np.diag(u, 1))
        assert np.abs(product - a).max() <= 1e-15
        d, l, u = uld(diag, upper, ds)
        product = (one + np.diag(u, 1)) @ np.diag(d) @ (one + np.diag(l, -1))
        assert np.abs(product - a).max() <= 1e-15

    def test_nan_amplitude_rejected(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0), n_points=512)
        amplitudes = grid.amplitudes.copy()
        amplitudes[200] = np.nan
        bad = Grid(grid.x_min, grid.x_max, grid.n_points, amplitudes)
        with pytest.raises(ValueError):
            grid_evolve([QuadraticGenerator(1.0, 0.0, 0.0)], bad, steps=10)

    def test_schedule_composition_matches_single_step(self):
        # two half-time free entries equal one full-time entry
        packet = GaussianWavepacket(0.0, 1.0, 1.0)
        grid = Grid.from_wavepacket(packet)
        half = named_generator("free", 1.0, 0.0, 0.5)
        full = named_generator("free", 1.0, 0.0, 1.0)
        out2 = grid_evolve([half, half], grid, steps=500)
        out1 = grid_evolve([full], grid, steps=1000)
        diff = out2.amplitudes - out1.amplitudes
        assert np.sqrt(np.sum(np.abs(diff) ** 2) * grid.spacing) < 1e-6

