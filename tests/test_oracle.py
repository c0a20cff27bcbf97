"""Unit tests for the truncated-Fock and Crank-Nicolson grid oracles."""

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from quadprop import lie_core, oracle
from quadprop.errors import MAX_GRID_STEPS, BoundaryLeakError, GridWorkLimitError
from quadprop.lie_core import QuadraticGenerator, normal_order, to_su11
from quadprop.oracle import (
    FOCK_DIM,
    Grid,
    fock_unitary_direct,
    fock_unitary_ordered,
    _hamiltonian_bands,
    _ladder,
    grid_evolve,
)
from quadprop.propagator import (
    GaussianWavepacket,
    convolve,
    kernel_from_abcd,
    named_generator,
)
from quadprop.symplectic import _expm, abcd_from_generator, compose_schedule, matrix_exp_oracle
from quadprop.verify import random_generators

# the Pade (4,4) shifts, minus the roots of 1680 P(z) = z^4 + 20 z^3 +
# 180 z^2 + 840 z + 1680 (exp(z) ~ P(z) / P(-z)), found here by numpy and
# two Newton steps so that the references do not share the oracle's
# constant: two conjugate pairs, the larger real part first, each pair's
# negative imaginary part first
_P = np.array([1.0, 20.0, 180.0, 840.0, 1680.0])
_ROOTS = np.roots(_P)
for _ in range(2):
    _ROOTS -= np.polyval(_P, _ROOTS) / np.polyval(np.polyder(_P), _ROOTS)
_PAIRS = [(s.conjugate(), s) for s in sorted(-_ROOTS[_ROOTS.imag < 0], key=lambda s: -s.real)]


def _entry_steps(g, steps):
    """Pade steps of one entry: steps per unit of |(alpha, beta, gamma)|, at least one."""
    return max(1, math.ceil(steps * math.sqrt(g.alpha ** 2 + g.beta ** 2 + g.gamma ** 2)))


def _banded_substeps(schedule, grid, steps):
    """Pade (4,4) Cayley stepping that solves the banded system afresh on every sub-step.

    Entry g takes n = ``_entry_steps(g, steps)`` steps of tau = 1/n. Its
    sub-steps psi' = (s - i tau H) (s + i tau H)^-1 psi take the two shifts
    of the first pair in ``_PAIRS`` in turn, n times, and then those of the
    second pair, n times: 4 n sub-steps. Yields the state after each one.
    """
    from scipy.linalg import solve_banded

    psi = grid.amplitudes.copy()
    for g in schedule:
        n_e = _entry_steps(g, steps)
        tau = 1.0 / n_e
        diag, up1, up2 = _hamiltonian_bands(g, grid.x, grid.spacing)
        for pair in _PAIRS:
            shifted = []
            for s in pair:
                # M = s + i tau H, two bands each side in solve_banded storage
                ab = np.zeros((5, psi.size), dtype=complex)
                ab[0, 2:] = 1j * tau * up2
                ab[1, 1:] = 1j * tau * up1
                ab[2, :] = s + 1j * tau * diag
                ab[3, :-1] = 1j * tau * up1.conjugate()
                ab[4, :-2] = 1j * tau * up2.conjugate()
                shifted.append(ab)
            for _ in range(n_e):
                for s, ab in zip(pair, shifted):
                    # (s - i tau H) psi = 2 s psi - M psi
                    rhs = (2.0 * s - ab[2]) * psi
                    for j in (1, 2):
                        rhs[:-j] -= ab[2 - j, j:] * psi[j:]
                        rhs[j:] -= ab[2 + j, :-j] * psi[:-j]
                    psi = solve_banded((2, 2), ab, rhs)
                    yield psi


def _two_entry_case():
    """A two-entry schedule, its packet and the closed-form evolved state."""
    schedule = [QuadraticGenerator(1.0, 0.05, 0.9), QuadraticGenerator(0.8, -0.03, 1.1)]
    packet = GaussianWavepacket(0.3, 0.2, 1.0)
    return schedule, packet, convolve(kernel_from_abcd(compose_schedule(schedule)), packet)


def _banded_reference(schedule, grid, steps):
    """The state after the last sub-step of ``_banded_substeps``."""
    psi = grid.amplitudes
    for psi in _banded_substeps(schedule, grid, steps):
        pass
    return psi


class TestScipyWrappers:
    def test_missing_module_names_the_directory_searched(self):
        with pytest.raises(ImportError, match=r"no compiled module _absent in .*linalg"):
            oracle._scipy_linalg_wrappers("_absent")


class TestFockTruncation:
    def test_ladder_matrix_elements(self):
        a = _ladder()[0]
        assert a.shape == (FOCK_DIM, FOCK_DIM) == (60, 60)
        for n in range(1, 60):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 59


class TestFockUnitaries:
    def test_zero_generator_is_identity(self):
        for build in (fock_unitary_direct, fock_unitary_ordered):
            u = build(QuadraticGenerator(0.0, 0.0, 0.0))
            np.testing.assert_allclose(u, np.eye(60), atol=1e-14)

    def test_isotropic_generator_is_diagonal_phase(self):
        theta = 0.7
        g = QuadraticGenerator(theta, 0.0, theta)
        n = np.arange(9)
        ref = np.exp(-1j * theta * (n + 0.5))
        direct = fock_unitary_direct(g)
        ordered = fock_unitary_ordered(g)
        off_diag = direct[:9, :9] - np.diag(np.diag(direct[:9, :9]))
        assert np.abs(off_diag).max() < 1e-10
        np.testing.assert_allclose(np.diag(direct[:9, :9]), ref, atol=1e-8)
        np.testing.assert_allclose(np.diag(ordered[:9, :9]), ref, atol=1e-8)

    def test_exponentials_match_scipy_expm(self):
        # scipy's Pade expm as an outside reference for the Taylor routine,
        # on the direct generator and on both nilpotent ordered factors
        from scipy.linalg import expm

        _, k_plus, k_zero, k_minus = _ladder()
        for g in random_generators(np.random.default_rng(11), 5, scale=0.5):
            p, f = to_su11(g), normal_order(g)
            for m in (
                p.tau * k_plus + 1j * p.sigma * k_zero - p.tau.conjugate() * k_minus,
                -(f.r / f.s) * k_plus,
                (f.r.conjugate() / f.s) * k_minus,
            ):
                assert np.abs(_expm(m)[:9, :9] - expm(m)[:9, :9]).max() <= 1e-12
            u = fock_unitary_direct(g)
            assert np.abs(u @ u.conj().T - np.eye(60)).max() <= 1e-12

    def test_oracles_never_reach_the_flow(self, monkeypatch):
        # the brute-force routes read only the generator: with the closed
        # forms' long-double flow broken they return the same bits, and only
        # the normal-ordered product, which needs (s, r), fails
        schedule = [QuadraticGenerator(0.9, 0.2, 1.1), QuadraticGenerator(0.5, 0.0, -0.3)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.3, -0.2, 1.0), -20.0, 20.0, 512)

        def routes():
            out = [fock_unitary_direct(g) for g in schedule]
            out += [np.array(astuple(matrix_exp_oracle(g))) for g in schedule]
            return out + [grid_evolve(schedule, grid, 2).amplitudes]

        unpatched = routes()

        def broken(g):
            raise AssertionError("the flow was reached")

        monkeypatch.setattr(lie_core, "_flow", broken)
        assert [u.tobytes() for u in routes()] == [u.tobytes() for u in unpatched]
        with pytest.raises(AssertionError, match="the flow was reached"):
            fock_unitary_ordered(schedule[0])

    def test_vacuum_squeeze_amplitude(self):
        g = QuadraticGenerator(0.0, math.log(2.0), 0.0)
        u = fock_unitary_direct(g)
        # 1/sqrt(cosh(ln 2)), same number the coherent-state route gives
        assert u[0, 0] == pytest.approx(0.8944271909999159, abs=1e-9)


class TestGrid:
    def test_validates_point_count(self):
        # the point count is the size of the amplitudes, which must be one-dimensional
        assert Grid(-10.0, 10.0, np.zeros(512)).n_points == 512
        for amplitudes in (np.zeros(500), np.zeros(1000), np.zeros((2, 512))):
            with pytest.raises(ValueError, match="^(n_points must be|amplitudes have shape)"):
                Grid(-10.0, 10.0, amplitudes)

    def test_sampled_packet_is_normalized(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0))
        assert grid.norm() == pytest.approx(1.0, abs=1e-10)


class TestGridEvolve:
    def test_zero_generator_is_identity(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0))
        out = grid_evolve([QuadraticGenerator(0.0, 0.0, 0.0)], grid, steps=20)
        np.testing.assert_allclose(out.amplitudes, grid.amplitudes, atol=1e-12)

    def test_empty_schedule_is_identity(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0))
        out = grid_evolve([], grid, steps=20)
        np.testing.assert_allclose(out.amplitudes, grid.amplitudes, atol=0.0)

    def test_harmonic_quarter_period_rotation(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(1.0, 0.0, 1.0))
        g = named_generator("harmonic", 1.0, 1.0, np.pi / 2)
        out = grid_evolve([g], grid, steps=20)
        # agrees with the closed-form convolution route
        state = convolve(kernel_from_abcd(abcd_from_generator(g)),
                         GaussianWavepacket(1.0, 0.0, 1.0))
        assert out.distance(state.evaluate(out.x)) < 1e-3

    def test_boundary_leak_detected(self):
        narrow = Grid.from_wavepacket(
            GaussianWavepacket(0.0, 3.0, 1.0), x_min=-5.0, x_max=5.0, n_points=512
        )
        with pytest.raises(BoundaryLeakError):
            grid_evolve([named_generator("free", 1.0, 0.0, 1.0)], narrow, steps=100)

    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_matches_banded_solve_after_odd_substep_counts(self, steps):
        schedule = [QuadraticGenerator(0.8, 0.3, 1.2), QuadraticGenerator(1.0, -0.4, 0.5),
                    QuadraticGenerator(0.6, 0.1, 0.9)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0), n_points=1024)
        out = grid_evolve(schedule, grid, steps=steps)
        # The gap is both solvers' rounding: 3.9e-15, 6.3e-15 and 5.7e-15 at
        # steps 1/3/7 per unit of generator norm (2/2/2, 5/4/4 and 11/9/8
        # steps per entry, so 24, 52 and 112 sub-steps, tau up to 1/2). Any
        # one shift whose real part is off by 1e-12 reads 1.0e-13 to 1.3e-13.
        assert np.abs(out.amplitudes - _banded_reference(schedule, grid, steps)).max() <= 1e-14

    @pytest.mark.parametrize("center_p, steps", [(3.0, 2), (3.0, 5), (-3.0, 2), (-3.0, 5)],
                             ids=["right-edge-sub-steps-8", "right-edge-sub-steps-20",
                                  "left-edge-sub-steps-8", "left-edge-sub-steps-20"])
    def test_boundary_leak_caught_at_the_substep_it_occurs(self, center_p, steps):
        # The message must show psi's edge amplitude after the first
        # Cayley sub-step of the reference stepping whose edge passes 1e-6.
        # The free entry (1, 0, 0) has norm 1, so it takes ``steps`` steps of
        # four sub-steps. The leak shows after sub-step 3 of 8 and 7 of 20,
        # each between the two shifted solves of a step of the first pair.
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, center_p, 0.7),
                                    x_min=-6.0, x_max=6.0, n_points=512)
        schedule = [named_generator("free", 1.0, 0.0, 1.0)]
        n_e = _entry_steps(schedule[0], steps)
        for k, psi in enumerate(_banded_substeps(schedule, grid, steps), 1):
            edge = max(abs(psi[0]), abs(psi[-1]))
            if edge > 1e-6:
                break
        assert 1 < k < 4 * n_e
        with pytest.raises(BoundaryLeakError, match=f"^edge amplitude {edge:.3e} exceeds"):
            grid_evolve(schedule, grid, steps=steps)

    def test_matches_banded_solve_per_substep(self, record):
        # no factorization of either entry exchanges rows, so every sub-step
        # solves by the two band sweeps and none by zgbtrs; 14 steps per unit
        # of generator norm are 21 and 17 steps, 152 sub-steps, and the gap
        # reads 4.8e-15
        solves = record(oracle, "zgbtrs")
        schedule = [QuadraticGenerator(0.8, 0.3, 1.2), QuadraticGenerator(1.0, -0.4, 0.5)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0), n_points=1024)
        out = grid_evolve(schedule, grid, steps=14)
        assert solves == []
        assert np.abs(out.amplitudes - _banded_reference(schedule, grid, 14)).max() <= 1e-14

    @pytest.mark.parametrize(
        "g, n_points",
        [((0.0, 0.5, 0.0), 512), ((3.0, 0.0, 0.0), 4096)],
        ids=["pure-squeeze", "stiff-free"],
    )
    def test_matches_banded_solve_where_pivoting_could_occur(self, g, n_points, record):
        # both sides pivot: the squeeze's edge off-diagonals exceed its
        # diagonal, so the band LU exchanges rows there on all four shifts;
        # the free particle's tau H reaches about 3500 in its 6 steps, and
        # the shift 4.21 - 5.31i pivots. No band sweep undoes row exchanges,
        # so these sub-steps solve by zgbtrs.
        solves = record(oracle, "zgbtrs")
        schedule = [QuadraticGenerator(*g)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0), n_points=n_points)
        out = grid_evolve(schedule, grid, steps=2)
        assert solves
        assert np.abs(out.amplitudes - _banded_reference(schedule, grid, 2)).max() <= 1e-12

    def test_both_solve_paths_in_one_call(self, record):
        # at 2 steps per unit of generator norm (3, 6 and 3 steps) only the
        # shift 4.21 - 5.31i of the second and third entries exchanges rows,
        # so one call solves by both paths over the same storage: 6 + 3
        # sub-steps by zgbtrs, the other 39 of the 48 by two sweeps
        solves = record(oracle, "zgbtrs")
        sweeps = record(oracle, "ztbsv")
        schedule = [QuadraticGenerator(0.8, 0.3, 1.2), QuadraticGenerator(3.0, 0.0, 0.0),
                    QuadraticGenerator(1.0, -0.4, 0.5)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0))
        out = grid_evolve(schedule, grid, steps=2)
        assert (len(solves), len(sweeps)) == (9, 78)
        # the gap reads 1.7e-13, under the bound of the pivoting cases above
        assert np.abs(out.amplitudes - _banded_reference(schedule, grid, 2)).max() <= 1e-12

    def test_factorizations_overwrite_the_per_call_buffer(self, record):
        # each entry's LU lands in the bands of the one per-call buffer, and
        # the sweeps read L and U there; an f2py copy, or a factor copied
        # out, would allocate fresh bands per entry
        factorizations = record(oracle, "zgbtrf")
        sweeps = record(oracle, "ztbsv")
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0), n_points=512)
        grid_evolve([QuadraticGenerator(0.8, 0.3, 1.2)] * 2, grid, steps=2)
        # 2 entries x 2 pairs x 2 shifts, each pair's two shifts in the same
        # two stores
        assert len(factorizations) == 8
        for (ab, *_), _, (lu, _, _) in factorizations:
            assert np.shares_memory(lu, ab)
        bands = [args[0] for args, _, _ in factorizations]
        for k, ab in enumerate(bands):
            assert np.shares_memory(ab, bands[k % 2])
            assert not np.shares_memory(ab, bands[1 - k % 2])
        # norm 1.47 at 2 steps per unit is 3 steps: 2 entries x 2 pairs x 3
        # steps x 2 shifts, with no row exchanged; the upper sweep reads U's
        # two superdiagonals, as the fill-in rows are zero
        lowers = [args for args, kwargs, _ in sweeps if kwargs.get("lower")]
        uppers = [args for args, kwargs, _ in sweeps if not kwargs.get("lower")]
        assert len(lowers) == len(uppers) == 24
        for j, ((k_lower, lower, b), (k_upper, upper, _)) in enumerate(zip(lowers, uppers)):
            assert k_lower == k_upper == 2
            # Fortran-ordered with leading dimension 7, so f2py passes it as
            # is; each view lies in its own shift's storage, clear of the
            # other shift's band and of the vector the sweeps overwrite
            for view in (lower, upper):
                assert view.shape[0] == 7 and view.flags.f_contiguous
                assert np.shares_memory(view, bands[j % 2])
                assert not np.shares_memory(view, bands[1 - j % 2])
                assert not np.shares_memory(view, b)

    def test_hamiltonian_built_once_per_entry(self, record):
        # all four Pade shifts factor the same H, so each entry builds its bands once
        calls = record(oracle, "_hamiltonian_bands")
        schedule = [QuadraticGenerator(0.8, 0.3, 1.2), QuadraticGenerator(1.0, -0.4, 0.5)]
        grid = Grid.from_wavepacket(GaussianWavepacket(0.5, 1.0, 1.0), n_points=512)
        grid_evolve(schedule, grid, steps=2)
        assert [args[0] for args, _, _ in calls] == schedule

    def test_singular_factorization_raises(self, monkeypatch):
        # zgbtrf's info = k > 0 reports U[k-1, k-1] = 0
        def singular(ab, kl, ku, overwrite_ab):
            return ab, np.zeros(ab.shape[1], dtype=np.int32), 1

        monkeypatch.setattr(oracle, "zgbtrf", singular)
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0), n_points=512)
        with pytest.raises(np.linalg.LinAlgError, match="zero or non-finite pivot"):
            grid_evolve([QuadraticGenerator(1.0, 0.0, 1.0)], grid, steps=2)

    def test_rejects_zero_steps(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0), n_points=512)
        with pytest.raises(ValueError, match="^steps must be >= 1, got 0$"):
            grid_evolve([QuadraticGenerator(1.0, 0.0, 0.0)], grid, steps=0)

    def test_nan_amplitude_rejected(self):
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0), n_points=512)
        amplitudes = grid.amplitudes.copy()
        amplitudes[200] = np.nan
        bad = Grid(grid.x_min, grid.x_max, amplitudes)
        with pytest.raises(ValueError):
            grid_evolve([QuadraticGenerator(1.0, 0.0, 0.0)], bad, steps=2)

    def test_schedule_composition_matches_single_step(self, monkeypatch):
        # Two half-time free entries equal one full-time entry. Steps follow
        # the generator's norm, so each half takes 50 of the whole's 100
        # steps, of the same tau H. The halves apply the commuting pair
        # factors in another order, so the states agree to rounding (7.0e-15).
        shifts = []
        real = oracle._cayley_lu

        def counting_lu(*args):
            solve = real(*args)
            return lambda b: (shifts.append(args[3]), solve(b))[1]

        monkeypatch.setattr(oracle, "_cayley_lu", counting_lu)
        packet = GaussianWavepacket(0.0, 1.0, 1.0)
        grid = Grid.from_wavepacket(packet)
        half = named_generator("free", 1.0, 0.0, 0.5)
        full = named_generator("free", 1.0, 0.0, 1.0)
        out2 = grid_evolve([half, half], grid, steps=100)
        substeps = sorted(shifts, key=lambda s: (s.real, s.imag))
        shifts.clear()
        out1 = grid_evolve([full], grid, steps=100)
        assert len(substeps) == 4 * 100
        assert sorted(shifts, key=lambda s: (s.real, s.imag)) == substeps
        assert out2.distance(out1.amplitudes) < 1e-13

    def test_planned_work_limit_fires_before_any_allocation(self, record):
        # 1e-4 0 1e4 is a 1-rad rotation, but its norm of 1e4 plans 4e4
        # steps at 4 steps per unit; the call is refused before the buffer
        # or any band is built
        bands = record(oracle, "_hamiltonian_bands")
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(GridWorkLimitError, match=f"more than {MAX_GRID_STEPS} Pade steps"):
                grid_evolve([QuadraticGenerator(1e-4, 0.0, 1e4)], grid, steps=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bands == []
        # the buffer alone would be 16 n complex entries (1 MB at 4096
        # points); a sixteenth of that is allowed
        assert peak < 16 * grid.n_points

    def test_planned_work_limit_counts_steps_over_the_schedule(self, monkeypatch):
        # the limit bounds the sum of the entries' steps, each at least one;
        # an infinite steps x norm is refused, not passed to ceil
        monkeypatch.setattr(oracle, "MAX_GRID_STEPS", 12)
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0), n_points=512)
        free = QuadraticGenerator(1.0, 0.0, 0.0)
        grid_evolve([free] * 3, grid, steps=4)
        for schedule in ([free] * 3 + [QuadraticGenerator(0.0, 0.0, 0.0)],
                         [QuadraticGenerator(1e308, 1e308, 0.0)]):
            with pytest.raises(GridWorkLimitError, match="more than 12 Pade steps"):
                grid_evolve(schedule, grid, steps=4)

    def test_steps_beyond_the_float_range(self, record):
        # 10^400 steps per unit, beyond the float range: a nonzero entry,
        # however small, plans more than the limit, and a zero entry still
        # takes one step, as at one step per unit
        grid = Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0), n_points=512)
        zero = QuadraticGenerator(0.0, 0.0, 0.0)
        for beta in (5e-324, 1.0):
            with pytest.raises(GridWorkLimitError, match=f"more than {MAX_GRID_STEPS} Pade steps"):
                grid_evolve([zero, QuadraticGenerator(0.0, beta, 0.0)], grid, steps=10**400)
        sweeps = record(oracle, "ztbsv")
        one = grid_evolve([zero] * 2, grid, steps=1)
        assert len(sweeps) == 16
        huge = grid_evolve([zero] * 2, grid, steps=10**400)
        assert len(sweeps) == 32
        assert np.array_equal(huge.amplitudes, one.amplitudes)

    def test_error_falls_as_h_to_the_fourth(self):
        # 20 steps per unit of generator norm (27 per entry) keep the time
        # error far below the spatial error at 2048 points; h^4 predicts 16x
        # per halving
        schedule, packet, state = _two_entry_case()
        outs = [grid_evolve(schedule, Grid.from_wavepacket(packet, n_points=n), steps=20)
                for n in (512, 1024, 2048)]
        errors = [out.distance(state.evaluate(out.x)) for out in outs]
        assert errors[0] / errors[1] >= 12.0 and errors[1] / errors[2] >= 12.0

    def test_error_falls_as_tau_to_the_eighth(self):
        # Against the same grid at 60 steps per unit of generator norm (81
        # steps per entry), whose own time error is below rounding, the
        # difference is the time error alone; the closed form would add the
        # spatial error of 1.3e-8. At 2 and 4 steps per unit both entries
        # (norms 1.35 and 1.36) take 3 and then 6 steps, so tau halves, and
        # tau^8 predicts 256x; the ratio reads 202.
        schedule, packet, _ = _two_entry_case()
        grid = Grid.from_wavepacket(packet)
        assert [[_entry_steps(g, steps) for g in schedule] for steps in (2, 4)] == [[3, 3], [6, 6]]
        reference = grid_evolve(schedule, grid, steps=60).amplitudes
        errors = [grid_evolve(schedule, grid, steps=steps).distance(reference) for steps in (2, 4)]
        assert errors[0] / errors[1] >= 128.0
