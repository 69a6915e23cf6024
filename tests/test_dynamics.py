"""Leapfrog stepping, diagnostics, and the potential-form oracle."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmx import dynamics, fiber
from cmx.dec import FormField, Mesh, difference_symbol, exterior_derivative
from cmx.dynamics import (
    CFLError,
    NonFiniteStateError,
    SchemeConfig,
    cfl_limit,
    evolve_potential,
    poynting_report,
    run_scenario,
    solve_vector_potential,
    step_induction,
    step_intensity,
)
from cmx.fiber import (
    MaxwellState,
    MediumProfile,
    Orientation,
    contact_hamiltonian_density,
    energy_density,
    functional,
    induction_from_intensity,
    intensity_from_induction,
)
from cmx.scenarios import gaussian_pulse_state, plane_wave_state


@pytest.fixture
def mesh():
    return Mesh((8, 8, 8))


@pytest.fixture
def vacuum(mesh):
    return MediumProfile.vacuum(mesh)


def uniform_crossed_state(mesh, medium, e_vals, h_vals):
    e = FormField(mesh, 1, np.stack([np.full(mesh.dims, v) for v in e_vals]))
    h = FormField(mesh, 1, np.stack([np.full(mesh.dims, v) for v in h_vals]),
                  dual=True)
    D, B = induction_from_intensity(e, h, medium)
    return MaxwellState(D=D, B=B, e=e, h=h,
                        energy=energy_density(D, B, medium))


class TestSchemeConfig:
    def test_cfl_window_enforced(self, mesh, vacuum):
        with pytest.raises(CFLError):
            SchemeConfig.from_cfl(mesh, vacuum, cfl=1.2)
        with pytest.raises(CFLError):
            SchemeConfig(dt=0.1, cfl=0.0)

    def test_from_cfl_sets_consistent_dt(self, mesh, vacuum):
        # the (2,4) symbol peaks at 7/6 of the two-point one, so the bound
        # is 6/7 of the two-point scheme's h / sqrt(3)
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5)
        assert cfg.dt == pytest.approx(0.5 * 6.0 / (7.0 * np.sqrt(3.0)))

    def test_limit_reads_the_media_minima(self, mesh):
        rng = np.random.default_rng(3)
        medium = MediumProfile(mesh, 1.0 + rng.random(mesh.dims),
                               0.5 + rng.random(mesh.dims))
        peak = float(np.abs(difference_symbol(np.pi, mesh.spacing)))
        expected = float(2.0 * np.sqrt(medium.eps.min() * medium.mu.min())
                         / (np.sqrt(3.0) * peak))
        assert cfl_limit(mesh, medium) == expected

    def test_step_rejects_oversized_dt(self, mesh, vacuum):
        cfg = SchemeConfig(dt=2 * cfl_limit(mesh, vacuum), cfl=0.5)
        state = MaxwellState.zero(mesh)
        with pytest.raises(CFLError):
            step_induction(state, vacuum, cfg)

    def test_orientation_guard(self, mesh, vacuum):
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5)
        state = MaxwellState.zero(mesh)
        with pytest.raises(ValueError):
            step_intensity(state, vacuum, cfg)


class TestStability:
    @pytest.mark.parametrize("dims", [(8, 8, 8), (2, 2, 2), (16, 2, 3)])
    def test_no_energy_growth_just_below_the_limit(self, dims):
        # the leapfrog keeps a modified energy between (1 - nu^2) E and E
        # for nu = 0.99 of the stable step, so the energy stays below
        # E0 / (1 - nu^2) however long the run; an unstable mode would grow
        # geometrically past it.  In a uniform medium on axes that carry
        # the Nyquist mode, cfl_limit is the exact bound, not a margin.
        rng = np.random.default_rng(9)
        mesh = Mesh(dims)
        medium = MediumProfile.uniform(mesh, 2.0, 3.0)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.99)
        D = FormField(mesh, 2, rng.standard_normal((3, *dims)), dual=True)
        B = FormField(mesh, 2, rng.standard_normal((3, *dims)))
        state = MaxwellState.from_induction(D, B, medium)
        e0 = functional(energy_density(state.D, state.B, medium))
        worst = 0.0
        for _ in range(400):
            state = step_induction(state, medium, cfg)
            worst = max(worst, functional(energy_density(state.D, state.B, medium)))
        assert worst <= e0 / (1.0 - 0.99**2)


class TestSteppers:
    def test_uniform_fields_are_stationary(self, mesh):
        medium = MediumProfile.uniform(mesh, 2.0, 3.0)
        state = uniform_crossed_state(mesh, medium, [0.3, 0.7, 0.1],
                                      [0.2, 0.0, 0.4])
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5)
        after = step_induction(state, medium, cfg)
        # curls of constants vanish, so the evolved fields are untouched;
        # the slaved pair is recomputed through the constitutive division
        # and may move by an ulp
        for name in ("D", "B", "energy"):
            np.testing.assert_array_equal(getattr(after, name).data,
                                          getattr(state, name).data)
        for name in ("e", "h"):
            np.testing.assert_allclose(getattr(after, name).data,
                                       getattr(state, name).data,
                                       rtol=4e-16, atol=0)
        assert after.time == pytest.approx(cfg.dt)

        cfg_eh = SchemeConfig.from_cfl(mesh, medium, cfl=0.5,
                                       orientation=Orientation.EH)
        after_eh = step_intensity(state, medium, cfg_eh)
        for name in ("e", "h", "energy"):
            np.testing.assert_array_equal(getattr(after_eh, name).data,
                                          getattr(state, name).data)
        for name in ("D", "B"):
            np.testing.assert_allclose(getattr(after_eh, name).data,
                                       getattr(state, name).data,
                                       rtol=4e-16, atol=0)

    def test_zero_state_stays_zero(self, mesh, vacuum):
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5)
        after = step_induction(MaxwellState.zero(mesh), vacuum, cfg)
        assert not after.field_scale()

    def test_orientations_agree_after_one_step(self):
        mesh = Mesh((16, 8, 8))
        medium = MediumProfile.uniform(mesh, 2.0, 3.0)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5)
        cfg_eh = SchemeConfig.from_cfl(mesh, medium, cfl=0.5,
                                       orientation=Orientation.EH)
        state = plane_wave_state(mesh, medium, cfg.dt, axis=0, wavelength=16.0,
                                 polarization=1)
        a = step_induction(state, medium, cfg)
        b = step_intensity(state, medium, cfg_eh)
        scale = state.field_scale()
        for name in ("D", "B", "e", "h", "energy"):
            gap = np.abs((getattr(a, name) - getattr(b, name)).data).max()
            assert gap <= 1e-12 * scale

    def test_divergence_constraints_preserved(self):
        mesh = Mesh((16, 8, 8))
        medium = MediumProfile.vacuum(mesh)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5)
        state = plane_wave_state(mesh, medium, cfg.dt, axis=0, wavelength=16.0,
                                 polarization=1)
        for _ in range(50):
            state = step_induction(state, medium, cfg)
        assert np.abs(exterior_derivative(state.D).data).max() <= 1e-12
        assert np.abs(exterior_derivative(state.B).data).max() <= 1e-12

    def test_time_reversal_recovers_initial_state(self):
        mesh = Mesh((16, 8, 8))
        medium = MediumProfile.uniform(mesh, 1.5, 2.0)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.4, steps=40)
        s0 = plane_wave_state(mesh, medium, cfg.dt, axis=0, wavelength=16.0,
                              polarization=1)
        fw = s0
        for _ in range(40):
            fw = step_induction(fw, medium, cfg)
        bw = fw
        rcfg = cfg.reversed()
        for _ in range(40):
            bw = step_induction(bw, medium, rcfg)
        scale = s0.field_scale()
        for name in ("D", "B", "e", "h", "energy"):
            gap = np.abs((getattr(bw, name) - getattr(s0, name)).data).max()
            assert gap <= 1e-10 * scale


class TestPoyntingReport:
    def test_static_crossed_fields_balance(self, mesh, vacuum):
        state = uniform_crossed_state(mesh, vacuum, [0.0, 0.5, 0.0],
                                      [0.0, 0.0, 0.25])
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5)
        after = step_induction(state, vacuum, cfg)
        rep = poynting_report(state, after, vacuum)
        assert rep.poynting_balance_residual == pytest.approx(0.0, abs=1e-13)
        assert rep.div_D_max == 0.0 and rep.div_B_max == 0.0

    def test_zero_state_gives_zero_report(self, mesh, vacuum):
        state = MaxwellState.zero(mesh)
        rep = poynting_report(state, state, vacuum)
        for name in rep.FIELDS:
            assert getattr(rep, name) == 0.0

    def test_box_region_flux_accounting(self):
        mesh = Mesh((16, 8, 8))
        medium = MediumProfile.vacuum(mesh)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5)
        state = gaussian_pulse_state(mesh, medium, center=4.0, width=1.0)
        after = step_induction(state, medium, cfg)
        from cmx.dec import Region
        rep = poynting_report(state, after, medium,
                              region=Region(lo=(0, 0, 0), hi=(8, 8, 8)))
        # drift through the box boundary is balanced by the flux integral
        # to the second-order accuracy of the centered pairing
        assert abs(rep.poynting_balance_residual) < 1e-3 * rep.psi_total


class TestRunScenario:
    def test_zero_steps_echoes_initial(self, mesh, vacuum):
        state = MaxwellState.zero(mesh)
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5, steps=0)
        final, reports = run_scenario(state, vacuum, cfg)
        assert final is state
        assert len(reports) == 1

    def test_sink_invocations_and_cadence(self, mesh, vacuum):
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5, steps=10, cadence=5)
        seen = []
        run_scenario(MaxwellState.zero(mesh), vacuum, cfg,
                     sinks=[lambda s, k: seen.append(k)])
        assert seen == [0, 5, 10]

    def test_sech_slab_scenario_conserves_constraints(self):
        mesh = Mesh((16, 4, 16))
        medium = MediumProfile.sech_slab(mesh, 1.0, 4.0, 1.0)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=60, cadence=10)
        state = gaussian_pulse_state(mesh, medium, center=8.0, width=2.0)
        final, reports = run_scenario(state, medium, cfg)
        worst = max(max(r.div_D_max, r.div_B_max) for r in reports)
        assert worst <= 1e-12 * state.field_scale() / mesh.spacing
        assert final.time == pytest.approx(60 * cfg.dt)


def copied(state):
    return replace(state, **{name: getattr(state, name).copy() for name in STATE_FIELDS})


def reported_run(initial, medium, cfg):
    """run_scenario's rows and copies of the states it reported them on
    (a sink is handed the run's live state)."""
    seen = []
    final, reports = run_scenario(initial, medium, cfg,
                                  sinks=[lambda state, k: seen.append(copied(state))])
    return final, reports, seen


def row_bits(report):
    return [getattr(report, name).hex() for name in report.FIELDS]


class TestReportReuse:
    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    def test_rows_equal_reports_recomputed(self, orientation):
        mesh = Mesh((12, 8, 10), spacing=0.5)
        if orientation is Orientation.DB:
            medium = MediumProfile.sech_slab(mesh, 2.0, 1.5, 1.3)
            cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.7, steps=20, cadence=3,
                                        kappa=1.5)
            initial = gaussian_pulse_state(mesh, medium, center=3.0, width=1.0)
        else:
            medium = MediumProfile.uniform(mesh, 2.0, 3.0)
            cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=7,
                                        orientation=orientation, kappa=0.5)
            initial = plane_wave_state(mesh, medium, cfg.dt, axis=2, wavelength=2.5,
                                       polarization=0)
        _, reports, seen = reported_run(initial, medium, cfg)
        pairs = zip([seen[0]] + seen[:-1], seen)
        oracle = [poynting_report(a, b, medium, kappa=cfg.kappa, orientation=cfg.orientation)
                  for a, b in pairs]
        assert len(reports) == len(oracle) == len(seen)
        for row, expected in zip(reports, oracle):
            assert row_bits(row) == row_bits(expected)

    def test_each_quantity_evaluated_once_per_report(self, monkeypatch):
        mesh = Mesh((8, 6, 4))
        medium = MediumProfile.sech_slab(mesh, 2.0, 1.0, 1.0)
        initial = gaussian_pulse_state(mesh, medium, center=3.0, width=1.0)
        # the preset slaves D = eps e and h = B / mu, so row 0 may carry a
        # rounding-level residual in one field pair; each nonzero one costs a curl
        row0_curls = {}
        for orientation in (Orientation.DB, Orientation.EH):
            res = fiber.phase_residuals(initial, medium, orientation)
            row0_curls[orientation] = int(res.delta_De.data.any()) + int(res.delta_Bh.data.any())
        counts = {}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        names = ("energy_density", "coenergy_density", "phase_residuals",
                 "intensity_from_induction")
        for name in names:
            original = getattr(fiber, name)
            for module in (fiber, dynamics):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        for module in (fiber, dynamics):
            monkeypatch.setattr(module, "exterior_derivative",
                                counting("exterior_derivative", exterior_derivative))

        for orientation in (Orientation.DB, Orientation.EH):
            cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=6, cadence=2,
                                        orientation=orientation)
            counts.clear()
            _, reports = run_scenario(initial, medium, cfg)
            # a step curls twice once the first has handed its last curl on;
            # a report measured in the run's own orientation sees exactly
            # zero constitutive residuals after row 0 and curls only D and B
            once = ("coenergy_density", "phase_residuals")
            if orientation is Orientation.DB:
                once += ("energy_density", "intensity_from_induction")
            assert counts == {
                **dict.fromkeys(once, len(reports)),
                "exterior_derivative": 2 * cfg.steps + 1 + 2 * len(reports)
                + row0_curls[orientation],
            }


def random_medium(mesh, rng):
    return MediumProfile(mesh, 0.5 + rng.random(mesh.dims), 0.7 + rng.random(mesh.dims))


def random_state(mesh, medium, rng, orientation):
    """An on-shell state drawn from random evolved fields (not closed)."""
    shape = (3, *mesh.dims)
    if orientation is Orientation.DB:
        D = FormField(mesh, 2, rng.standard_normal(shape), dual=True)
        B = FormField(mesh, 2, rng.standard_normal(shape))
        return MaxwellState.from_induction(D, B, medium)
    e = FormField(mesh, 1, rng.standard_normal(shape))
    h = FormField(mesh, 1, rng.standard_normal(shape), dual=True)
    D, B = induction_from_intensity(e, h, medium)
    return MaxwellState(D=D, B=B, e=e, h=h, energy=energy_density(D, B, medium))


STATE_FIELDS = ("D", "B", "e", "h", "energy")


class TestCarriedCurl:
    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    @pytest.mark.parametrize("dims", [(12, 8, 10), (2, 2, 2), (16, 2, 3)])
    def test_run_equals_public_steps_and_recomputed_reports(self, dims, orientation):
        rng = np.random.default_rng(sum(dims))
        mesh = Mesh(dims, spacing=0.7)
        medium = random_medium(mesh, rng)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.9, steps=7, cadence=2,
                                    orientation=orientation, kappa=1.5)
        initial = random_state(mesh, medium, rng, orientation)
        final, reports, seen = reported_run(initial, medium, cfg)

        stepper = step_induction if orientation is Orientation.DB else step_intensity
        state = initial
        for _ in range(cfg.steps):
            state = stepper(state, medium, cfg)
        for name in STATE_FIELDS:
            assert getattr(final, name).data.tobytes() == getattr(state, name).data.tobytes()
        assert final.time == state.time
        # the slaved pair obeys the written-out constitutive law, bit for bit
        if orientation is Orientation.DB:
            slaved = [(final.e, final.D.data / medium.eps_edge),
                      (final.h, final.B.data / medium.mu_face)]
        else:
            slaved = [(final.D, final.e.data * medium.eps_edge),
                      (final.B, final.h.data * medium.mu_face)]
        for field, expected in slaved:
            assert field.data.tobytes() == expected.tobytes()

        pairs = zip([seen[0]] + seen[:-1], seen)
        oracle = [poynting_report(a, b, medium, kappa=cfg.kappa, orientation=cfg.orientation)
                  for a, b in pairs]
        assert [row_bits(r) for r in reports] == [row_bits(r) for r in oracle]

    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    def test_zero_state_keeps_positive_zero_bits(self, mesh, vacuum, orientation):
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.9, steps=3, orientation=orientation,
                                    kappa=1.5)
        final, reports = run_scenario(MaxwellState.zero(mesh), vacuum, cfg)
        zero = (0.0).hex()
        for row in reports:
            assert row_bits(row)[1:] == [zero] * (len(row.FIELDS) - 1)  # all but time
        density = contact_hamiltonian_density(final, vacuum, orientation, 1.5)
        assert not density.data.any()
        assert not np.signbit(density.data).any()


def state_arrays(state):
    return [getattr(state, name).data for name in STATE_FIELDS]


def random_setup(dims, orientation):
    rng = np.random.default_rng(sum(dims))
    mesh = Mesh(dims, spacing=0.7)
    medium = random_medium(mesh, rng)
    cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.9, steps=5, orientation=orientation,
                                kappa=1.5)
    return medium, cfg, random_state(mesh, medium, rng, orientation)


class TestInPlaceStep:
    @pytest.mark.parametrize("layout", ["own", "turned"])
    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    @pytest.mark.parametrize("dims", [(12, 8, 10), (2, 2, 2), (16, 2, 3)])
    def test_steps_into_the_input_equal_allocated_steps(self, dims, orientation, layout):
        # "own": each array in its own place, e apart in a second buffer that
        # takes turns with it; "turned": e and its slaved partner trade
        # arrays, as in run_scenario.  Three steps, the curl handed on.
        medium, cfg, initial = random_setup(dims, orientation)
        expected = initial
        for _ in range(3):
            expected, expected_curl = dynamics._leapfrog(expected, medium, cfg)
        state, curl = copied(initial), None
        spare = np.empty_like(initial.e.data)
        work = np.empty((7, *dims))
        for _ in range(3):
            if layout == "own":
                into = state_arrays(state)
                into[2], spare = spare, state.e.data
            else:
                into = dynamics._turned(state, orientation)
            state, curl = dynamics._leapfrog(state, medium, cfg, curl, out=work, into=into)
            assert all(new is old for new, old in zip(state_arrays(state), into))
        for name in STATE_FIELDS:
            assert getattr(state, name).data.tobytes() == getattr(expected, name).data.tobytes()
        assert curl.data.tobytes() == expected_curl.data.tobytes()
        assert state.time == expected.time

    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    def test_run_leaves_the_initial_state_unchanged(self, orientation):
        medium, cfg, initial = random_setup((12, 8, 10), orientation)
        before = [a.tobytes() for a in state_arrays(initial)]
        final, _ = run_scenario(initial, medium, cfg)
        assert [a.tobytes() for a in state_arrays(initial)] == before
        assert not any(np.shares_memory(a, b) for a in state_arrays(final)
                       for b in state_arrays(initial))

    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    def test_public_steppers_return_fresh_arrays(self, orientation):
        medium, cfg, state = random_setup((12, 8, 10), orientation)
        before = [a.tobytes() for a in state_arrays(state)]
        stepper = step_induction if orientation is Orientation.DB else step_intensity
        new = stepper(state, medium, cfg)
        assert [a.tobytes() for a in state_arrays(state)] == before
        arrays = state_arrays(new) + state_arrays(state)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])


def modified_energy(state, medium, dt):
    """w = psi - (dt^2 / 8) mean((d e)^2 / mu) per cell: twice the energy
    density of B = d e alone is the face mean of (d e)^2 / mu."""
    curl = exterior_derivative(state.e)
    zero = FormField.zeros(state.mesh, 2, dual=True)
    return (energy_density(state.D, state.B, medium).data
            - 0.25 * dt * dt * energy_density(zero, curl, medium).data)


class TestExactEnergyBalance:
    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    @pytest.mark.parametrize("cfl", [0.5, 0.95])
    def test_energy_minus_modified_energy_is_constant_per_cell(self, orientation, cfl):
        # the Yee energy identity: E_n - E_0 = w_n - w_0 in every cell, to
        # rounding, on random media and rough divergence-free data
        rng = np.random.default_rng(11)
        mesh = Mesh((20, 16, 24), spacing=0.5)
        medium = MediumProfile(mesh, 1.0 + 2.0 * rng.random(mesh.dims),
                               1.0 + rng.random(mesh.dims))
        shape = (3, *mesh.dims)
        D = exterior_derivative(FormField(mesh, 1, rng.standard_normal(shape), dual=True))
        B = exterior_derivative(FormField(mesh, 1, rng.standard_normal(shape)))
        initial = MaxwellState.from_induction(D, B, medium)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=cfl, steps=200, cadence=40,
                                    orientation=orientation)
        w0 = modified_energy(initial, medium, cfg.dt)
        gap0 = initial.energy.data - w0
        _, _, seen = reported_run(initial, medium, cfg)
        assert len(seen) == 6
        for state in seen:
            drift = state.energy.data - modified_energy(state, medium, cfg.dt) - gap0
            assert np.abs(drift).max() <= 1e-14 * np.abs(w0).max()


class TestRunMemory:
    """Traced peak of a whole run, in whole field arrays."""

    DIMS = (32, 32, 32)

    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    def test_run_peak_stays_pinned(self, orientation, peak_arrays):
        # one state (13 arrays), stepped in place, the run's (12, N1, N2, N3)
        # workspace and exterior_derivative's per-call scratch (about 2.9
        # arrays at 32^3): 27.9 measured; nothing else of field size lives
        # across a step or a report
        mesh = Mesh(self.DIMS)
        medium = MediumProfile.uniform(mesh, 2.0, 3.0)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=8, cadence=1,
                                    orientation=orientation)
        initial = plane_wave_state(mesh, medium, cfg.dt, axis=0, wavelength=16.0,
                                   polarization=1)
        assert peak_arrays(lambda: run_scenario(initial, medium, cfg), self.DIMS) <= 28.5


class TestNonFiniteState:
    def nan_run(self, sinks):
        mesh = Mesh((8, 6, 4))
        medium = MediumProfile.sech_slab(mesh, 2.0, 1.0, 1.0)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=1, cadence=1)
        initial = gaussian_pulse_state(mesh, medium, center=3.0, width=1.0)
        with pytest.raises(NonFiniteStateError) as info:
            run_scenario(initial, medium, cfg, sinks=sinks)
        return info.value, initial, medium, cfg

    def test_names_the_first_bad_entry_after_a_step(self):
        cell = (2, 5, 3, 1)

        def plant(state, k):  # after the first report, which saw finite fields
            state.B.data[cell] = np.nan

        error, initial, medium, cfg = self.nan_run([plant])
        after = step_induction(initial, medium, cfg)
        name = next(n for n in STATE_FIELDS
                    if not np.isfinite(getattr(after, n).data).all())
        data = getattr(after, name).data
        first = np.unravel_index(np.flatnonzero(~np.isfinite(data))[0], data.shape)
        assert (error.step, error.field, error.component, error.cell) == (
            1, name, first[0], tuple(first[1:]))
        assert name == "D"

    def test_names_a_bad_initial_entry(self):
        mesh = Mesh((8, 6, 4))
        medium = MediumProfile.vacuum(mesh)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=1)
        state = MaxwellState.zero(mesh)
        state.energy.data[4, 0, 3] = np.inf
        with pytest.raises(NonFiniteStateError) as info:
            run_scenario(state, medium, cfg)
        error = info.value
        assert (error.step, error.field, error.component, error.cell) == (
            0, "energy", None, (4, 0, 3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", [0, 1])
    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    @pytest.mark.parametrize("name", STATE_FIELDS)
    def test_names_a_planted_entry(self, monkeypatch, name, orientation, step, value):
        # the entry is planted in the state reported at ``step``, along with
        # a later one in C order; the error names the earlier
        mesh = Mesh((8, 6, 4))
        medium = MediumProfile.sech_slab(mesh, 2.0, 1.0, 1.0)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, orientation=orientation,
                                    steps=2, cadence=1)
        initial = gaussian_pulse_state(mesh, medium, center=3.0, width=1.0)
        first, later = ((4, 0, 3), (5, 1, 0)) if name == "energy" else (
            (1, 6, 2, 3), (2, 0, 0, 0))

        def plant(state):
            for cell in (later, first):
                getattr(state, name).data[cell] = value
            return state

        if step == 0:
            initial = plant(initial)
        else:
            leapfrog = dynamics._leapfrog

            def planted_leapfrog(*args, **kwargs):
                new, curl = leapfrog(*args, **kwargs)
                return plant(new), curl

            monkeypatch.setattr(dynamics, "_leapfrog", planted_leapfrog)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as info:
            run_scenario(initial, medium, cfg)
        error = info.value
        expected = (name, None, first) if name == "energy" else (name, first[0], first[1:])
        assert (error.step, error.field, error.component, error.cell) == (step, *expected)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    @pytest.mark.parametrize("name", ["D", "e"])
    def test_a_planted_entry_raises_only_the_typed_error(self, name, orientation, value):
        # the report that meets the bad entry emits no numpy warning on the way
        mesh = Mesh((8, 6, 4))
        medium = MediumProfile.sech_slab(mesh, 2.0, 1.0, 1.0)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, orientation=orientation,
                                    steps=2, cadence=1)
        initial = gaussian_pulse_state(mesh, medium, center=3.0, width=1.0)
        getattr(initial, name).data[1, 6, 2, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as info:
                run_scenario(initial, medium, cfg)
        assert (info.value.step, info.value.field) == (0, name)

    def test_an_overflowing_initial_energy_raises_only_the_typed_error(self):
        mesh = Mesh((8, 6, 4))
        medium = MediumProfile.vacuum(mesh)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            initial = plane_wave_state(mesh, medium, cfg.dt, axis=0, wavelength=8.0,
                                       polarization=1, amplitude=1e160)
            with pytest.raises(NonFiniteStateError) as info:
                run_scenario(initial, medium, cfg)
        assert (info.value.step, info.value.field) == (0, "energy")

    @pytest.mark.parametrize("orientation", [Orientation.DB, Orientation.EH])
    def test_finite_state_with_overflowing_diagnostics(self, orientation):
        # every entry is finite, but the energy density of 1e200 overflows:
        # the report's own ValueError stands
        mesh = Mesh((8, 6, 4))
        medium = MediumProfile.vacuum(mesh)
        D, B = FormField.zeros(mesh, 2, dual=True), FormField.zeros(mesh, 2)
        D.data[0, 2, 3, 1] = 1e200
        e, h = intensity_from_induction(D, B, medium)
        state = MaxwellState(D=D, B=B, e=e, h=h, energy=FormField.zeros(mesh, 0, dual=True))
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, orientation=orientation)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            run_scenario(state, medium, cfg)

    def test_potential_run_names_the_bad_entry(self, mesh, vacuum):
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5, steps=3)
        Adot0 = FormField.zeros(mesh, 1)
        Adot0.data[1, 6, 2, 7] = np.nan
        with pytest.raises(NonFiniteStateError) as info:
            evolve_potential(FormField.zeros(mesh, 1), Adot0, vacuum, cfg)
        error = info.value
        assert (error.step, error.field, error.component, error.cell) == (
            1, "A", 1, (6, 2, 7))


class TestPotentialOracle:
    def test_constant_potential_is_static(self, mesh, vacuum):
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5, steps=10)
        A0 = FormField(mesh, 1, np.ones((3, *mesh.dims)))
        traj = evolve_potential(A0, FormField.zeros(mesh, 1), vacuum, cfg)
        for n in range(11):
            assert not traj.e[n].data.any()
            assert not traj.B_half[n].data.any()

    def test_derived_induction_is_exactly_closed(self, mesh, vacuum):
        rng = np.random.default_rng(0)
        cfg = SchemeConfig.from_cfl(mesh, vacuum, cfl=0.5, steps=20)
        A0 = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
        Adot0 = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
        traj = evolve_potential(A0, Adot0, vacuum, cfg)
        for B in traj.B_half:
            dB = exterior_derivative(B)
            assert np.abs(dB.data).max() <= 64 * np.finfo(float).eps \
                * max(np.abs(B.data).max(), 1.0)

    def test_matches_field_stepper_for_plane_wave(self):
        mesh = Mesh((16, 4, 4))
        medium = MediumProfile.vacuum(mesh)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=0.5, steps=120)
        s0 = plane_wave_state(mesh, medium, cfg.dt, axis=0, wavelength=16.0,
                              polarization=1)
        B_half0 = s0.B - (0.5 * cfg.dt) * exterior_derivative(s0.e)
        traj = evolve_potential(solve_vector_potential(B_half0), -1.0 * s0.e,
                                medium, cfg)
        yee = s0
        for n in range(1, cfg.steps + 1):
            yee = step_induction(yee, medium, cfg)
            assert np.abs((traj.e[n] - yee.e).data).max() < 1e-11
            assert np.abs((traj.B_sync(n) - yee.B).data).max() < 1e-11


class TestVectorPotentialSolver:
    def test_reconstructs_exact_derivative(self, mesh):
        rng = np.random.default_rng(1)
        alpha = FormField(mesh, 1, rng.standard_normal((3, *mesh.dims)))
        B = exterior_derivative(alpha)
        A = solve_vector_potential(B)
        np.testing.assert_allclose(exterior_derivative(A).data, B.data,
                                   rtol=0, atol=1e-12)

    def test_rejects_non_closed_input(self, mesh):
        rng = np.random.default_rng(2)
        B = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)))
        with pytest.raises(ValueError):
            solve_vector_potential(B)

    def test_rejects_mean_component(self, mesh):
        B = FormField(mesh, 2, np.zeros((3, *mesh.dims)))
        B.data[0] += 1.0  # constant flux has no periodic potential
        with pytest.raises(ValueError):
            solve_vector_potential(B)


@st.composite
def layered_media(draw):
    """A small mesh and a medium that varies along a random subset of axes,
    smoothly or piecewise-constantly along each, given only along those."""
    dims = tuple(draw(st.integers(2, 7), label=f"n{ax}") for ax in range(3))
    mesh = Mesh(dims, spacing=draw(st.sampled_from([0.5, 0.7, 1.0]), label="spacing"))

    def profile(name):
        values = np.full((1, 1, 1), draw(st.floats(0.5, 3.0), label=f"{name} scale"))
        for ax in sorted(draw(st.sets(st.integers(0, 2)), label=f"{name} axes")):
            n = dims[ax]
            if draw(st.booleans(), label=f"{name} smooth along {ax}"):
                amp = draw(st.floats(0.05, 0.6))
                phase = draw(st.floats(0.0, 2.0 * np.pi))
                line = 1.0 + amp * np.sin(2.0 * np.pi * np.arange(n) / n + phase)
            else:
                levels = draw(st.lists(st.floats(0.3, 3.0), min_size=1, max_size=3))
                cuts = sorted(draw(st.lists(st.integers(0, n), min_size=len(levels) - 1,
                                            max_size=len(levels) - 1)))
                line = np.array(levels)[np.searchsorted(cuts, np.arange(n), side="right")]
            shape = [1, 1, 1]
            shape[ax] = n
            values = values * line.reshape(shape)
        return values

    return mesh, MediumProfile(mesh, profile("eps"), profile("mu"))


class TestLayeredMedia:
    """Invariants of short runs in media that vary along some axes only,
    at the bounds `cmx.verify` and the benchmark apply to them."""

    @given(drawn=layered_media(), seed=st.integers(0, 2**32 - 1),
           cfl=st.floats(0.3, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_divergence_reversal_and_orientation_agreement(self, drawn, seed, cfl):
        mesh, medium = drawn
        rng = np.random.default_rng(seed)
        shape = (3, *mesh.dims)
        # divergence-free inductions: exterior derivatives of random 1-forms
        D = exterior_derivative(FormField(mesh, 1, rng.standard_normal(shape), dual=True))
        B = exterior_derivative(FormField(mesh, 1, rng.standard_normal(shape)))
        initial = MaxwellState.from_induction(D, B, medium)
        scale = initial.field_scale()
        div_bound = 1e-12 * scale / mesh.spacing
        finals = []
        for orientation, stepper in ((Orientation.DB, step_induction),
                                     (Orientation.EH, step_intensity)):
            cfg = SchemeConfig.from_cfl(mesh, medium, cfl=cfl, steps=4, cadence=1,
                                        orientation=orientation)
            final, reports = run_scenario(initial, medium, cfg)
            for r in reports:
                assert r.div_D_max <= div_bound and r.div_B_max <= div_bound
            back = final
            for _ in range(cfg.steps):
                back = stepper(back, medium, cfg.reversed())
            for name in STATE_FIELDS:
                gap = np.abs((getattr(back, name) - getattr(initial, name)).data).max()
                assert gap <= 1e-10 * scale, (orientation, name)
            finals.append(final)
        db, eh = finals
        gap = max(np.abs((getattr(db, name) - getattr(eh, name)).data).max()
                  for name in STATE_FIELDS)
        assert gap / scale <= 1e-10


class TestSteppedEigenmode:
    """The plane-wave preset stepped 400 times against Re(e_hat lambda^n e^{ikx}),
    lambda the forward eigenvalue of the one-step map of its Fourier mode."""

    @staticmethod
    def forward_eigenvalue(dt, eps, mu, k, spacing):
        """The forward eigenvalue of the leapfrog's 2x2 map on the (e, b)
        amplitudes of one mode: a half kick of b, a full one of e, a half of b.
        The orientation sign of the curl cancels from the eigenvalues."""
        ktilde = difference_symbol(k * spacing, spacing)
        half = np.array([[1.0, 0.0], [-0.5 * dt * ktilde, 1.0]])
        full = np.array([[1.0, -dt / (eps * mu) * ktilde], [0.0, 1.0]])
        values = np.linalg.eigvals(half @ full @ half)
        return values[np.argmin(values.imag)]  # e^{-i w dt}, w > 0: right-moving

    @pytest.mark.parametrize("dims, orientation, eps, mu, cfl", [
        ((32, 4, 4), Orientation.DB, 1.0, 1.0, 0.5),
        ((4, 24, 6), Orientation.EH, 2.0, 3.0, 0.95),
        ((6, 4, 40), Orientation.DB, 1.5, 1.0, 0.9),
        ((16, 4, 4), Orientation.EH, 2.0, 3.0, 0.3),
    ])
    def test_e_follows_lambda_to_the_n(self, dims, orientation, eps, mu, cfl):
        mesh = Mesh(dims)
        medium = MediumProfile.uniform(mesh, eps, mu)
        cfg = SchemeConfig.from_cfl(mesh, medium, cfl=cfl, orientation=orientation)
        axis = int(np.argmax(dims))
        polarization = (axis + 1) % 3
        wavelength = mesh.extent[axis]
        state = plane_wave_state(mesh, medium, cfg.dt, axis, wavelength, polarization)
        stepper = step_induction if orientation is Orientation.DB else step_intensity
        k = 2.0 * np.pi / wavelength
        lam = self.forward_eigenvalue(cfg.dt, eps, mu, k, mesh.spacing)
        assert abs(abs(lam) - 1.0) <= 4 * np.finfo(float).eps
        x = mesh.coords(state.e.offsets()[polarization])[axis]
        steps = 400
        for _ in range(steps):
            state = stepper(state, medium, cfg)
        expected = np.zeros((3, *dims))  # e_hat is 1: the preset's unit intensity amplitude
        expected[polarization] = np.real(lam ** steps * np.exp(1j * k * x))
        assert np.abs(state.e.data - expected).max() <= 1e-12
