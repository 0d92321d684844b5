"""Equivalence comparisons and detuning sweeps."""

from __future__ import annotations

import pytest

from photon_work.analysis import (
    REL_ERR_FLOOR,
    compare_equivalences,
    detuning_scan,
)
from photon_work.dynamics import peak_population
from photon_work.model import make_pulse
from photon_work.thermo import photon_report


def test_regime_flags_narrowband(equivalence_pair):
    reports, _ = equivalence_pair
    rep = reports[0.01]
    assert rep.regime.in_regime
    assert rep.regime.delta_over_gamma0 == pytest.approx(0.01)
    assert rep.regime.max_pop_quantum < 0.02
    assert rep.regime.max_pop_semiclassical < 0.02


def test_equivalence_values_at_narrowband_point(equivalence_pair):
    reports, _ = equivalence_pair
    rep = reports[0.01]
    assert rep.photon.W1 == pytest.approx(1.0430793233841935e-3, rel=1e-6)
    assert rep.photon.W1 > 0.0 and rep.drive.W_reac > 0.0
    assert rep.photon.Q1_abs > 0.0 > rep.photon.Q1_em
    assert rep.rel_err_work_reactive == pytest.approx(2.2162e-2, rel=1e-3)
    assert rep.rel_err_heat_absorbed == pytest.approx(1.6351e-2, rel=1e-3)
    assert rep.rel_err_heat_emitted == pytest.approx(1.6351e-2, rel=1e-3)
    for err in (
        rep.rel_err_work_reactive,
        rep.rel_err_heat_absorbed,
        rep.rel_err_heat_emitted,
    ):
        assert err <= 0.05


def test_equivalence_tightens_one_decade_down(equivalence_pair):
    reports, _ = equivalence_pair
    wide, narrow = reports[0.01], reports[0.001]
    assert narrow.rel_err_work_reactive < wide.rel_err_work_reactive
    assert narrow.rel_err_heat_absorbed < wide.rel_err_heat_absorbed
    assert narrow.rel_err_heat_emitted < wide.rel_err_heat_emitted
    assert narrow.rel_err_work_reactive == pytest.approx(2.3712e-3, rel=1e-3)


def test_relative_errors_fall_monotonically_with_bandwidth(sys1, equivalence_pair):
    """Four-point ladder across one and a half decades of bandwidth: all
    three pairings converge, which is what makes the narrowband
    equivalence a limit statement rather than a coincidence."""
    reports, _ = equivalence_pair
    extra = {
        delta: compare_equivalences(sys1, make_pulse(delta, 0.2))
        for delta in (10.0**-1.5, 10.0**-2.5)
    }
    assert not extra[10.0**-1.5].regime.in_regime
    ladder = [extra[10.0**-1.5], reports[0.01], extra[10.0**-2.5], reports[0.001]]
    for attr in (
        "rel_err_work_reactive",
        "rel_err_heat_absorbed",
        "rel_err_heat_emitted",
    ):
        errs = [getattr(rep, attr) for rep in ladder]
        assert all(a > b for a, b in zip(errs, errs[1:])), (attr, errs)


def test_zero_detuning_pair_uses_error_floor(sys1):
    # Both members of the work pair vanish identically on resonance, so
    # the floor keeps the relative error at zero instead of 0/0.
    rep = compare_equivalences(sys1, make_pulse(0.01))
    assert rep.photon.W1 == 0.0
    assert rep.drive.W_reac == 0.0
    assert rep.rel_err_work_reactive == 0.0
    assert REL_ERR_FLOOR > 0.0
    assert rep.rel_err_heat_absorbed < 0.05


def test_detuning_scan_values_and_antisymmetry(sys1):
    scan = detuning_scan(sys1, 0.1, [-1.0, -0.5, -0.2, 0.2, 0.5, 1.0])
    assert scan.deltaL.tolist() == [-1.0, -0.5, -0.2, 0.2, 0.5, 1.0]
    w = {d: rep.W1 for d, rep in zip(scan.deltaL.tolist(), scan.reports)}
    assert w[0.2] == pytest.approx(0.0077567182726277634, rel=1e-4)
    assert w[1.0] == pytest.approx(0.019536285176090691, rel=1e-4)
    # Mirrored detunings take conjugate closed forms, so the antisymmetry
    # defect is a pure physics statement and sits at rounding level.
    assert [d for d, _ in scan.antisymmetry] == [0.2, 0.5, 1.0]
    for _, defect in scan.antisymmetry:
        assert defect < 1e-16
    for rep in scan.reports:
        assert abs(rep.W1 + rep.Q1) < 1e-6
        for res in (rep.residual_first_law, rep.residual_Q_split, rep.residual_W_split):
            assert abs(res) < 1e-10
        assert rep.Q1_abs > 0.0 > rep.Q1_em


def test_scan_antisymmetry_is_exact_far_from_resonance(sys1):
    # Mirrored detunings take conjugate closed forms, so W1(-deltaL) is
    # exactly -W1(deltaL), 40 included.
    scan = detuning_scan(sys1, 0.5, [-40.0, -1.0, 1.0, 40.0])
    assert [d for d, _ in scan.antisymmetry] == [1.0, 40.0]
    assert [defect for _, defect in scan.antisymmetry] == [0.0, 0.0]


def test_scan_points_are_photon_reports(sys1):
    scan = detuning_scan(sys1, 0.3, [-0.7, 2.0])
    for d, rep in zip(scan.deltaL.tolist(), scan.reports):
        assert rep == photon_report(sys1, make_pulse(0.3, d))


def test_equivalence_photon_side_is_grid_free(sys1):
    # The drive's head grid leaves the photon's side alone.
    pulse = make_pulse(0.1, 0.2)
    rep = compare_equivalences(sys1, pulse)
    assert rep.photon == photon_report(sys1, pulse)
    assert rep.regime.max_pop_quantum == peak_population(sys1, pulse)
