"""Calibrated roofline cost model: feature extraction, prediction, and
the planted-roofline calibration recovery gate (fit error < 10% on
synthetic measurements generated by a known model).
"""

import numpy as np
import pytest

from repro.core.costmodel import (
    BatchFeatures,
    CalibrationSample,
    CostModel,
    batch_features,
    calibrate,
)

#: a plausible planted ground truth; serial_frac sits on the calibration
#: grid so exact recovery is possible (the grid is how calibrate searches)
PLANTED = CostModel(
    overhead_s=2.0e-4,
    block_overhead_s=4.0e-6,
    inv_peak=1.5e-9,
    inv_bw=2.5e-10,
    serial_frac=0.2,
)


def _feature_grid(radius=2, grid_shape=(48, 48)):
    """A knob/batch spread wide enough to condition the 5-parameter fit."""
    feats = []
    for batch in (1, 2, 4, 8):
        for threads in (1, 2, 4, 8):
            for width in (64, 1024):
                for mode, steps in (("exact", 1), ("exact", 3), ("fused", 3)):
                    feats.append(
                        batch_features(
                            radius,
                            grid_shape,
                            batch,
                            steps=steps,
                            temporal_mode=mode,
                            mac_threads=threads,
                            mac_col_block=width,
                        )
                    )
    return feats


# ----------------------------------------------------------------------
# features
# ----------------------------------------------------------------------


def test_batch_features_validation():
    with pytest.raises(ValueError, match="batch"):
        batch_features(2, (32, 32), 0)
    with pytest.raises(ValueError, match="steps"):
        batch_features(2, (32, 32), 1, steps=0)


def test_batch_features_scale_with_batch_and_steps():
    f1 = batch_features(2, (48, 48), 1)
    f4 = batch_features(2, (48, 48), 4)
    assert f4.ops > f1.ops and f4.bytes_moved > f1.bytes_moved
    # exact temporal mode pays the per-sweep overhead `steps` times
    f_exact = batch_features(2, (48, 48), 2, steps=4, temporal_mode="exact")
    assert f_exact.batch_overheads == 4
    assert f_exact.ops == pytest.approx(4 * batch_features(2, (48, 48), 2).ops)
    # a fused super-sweep pays it once (on the self-convolved kernel)
    f_fused = batch_features(2, (48, 48), 2, steps=4, temporal_mode="fused")
    assert f_fused.batch_overheads == 1
    assert f_fused.intensity > 0


def test_batch_features_parallel_tracks_threads():
    serial = batch_features(2, (96, 96), 4, mac_threads=1)
    threaded = batch_features(2, (96, 96), 4, mac_threads=4, mac_col_block=64)
    assert serial.parallel == 1
    assert threaded.parallel > 1
    assert threaded.parallel <= 4
    # more effective ways can only add dispatch blocks, never remove them
    assert threaded.n_blocks >= serial.n_blocks


# ----------------------------------------------------------------------
# model + calibration
# ----------------------------------------------------------------------


def test_cost_model_predict_and_bound():
    f_compute = BatchFeatures(
        ops=1e9, bytes_moved=1e3, n_blocks=4, parallel=1, batch_overheads=1
    )
    f_memory = BatchFeatures(
        ops=1e3, bytes_moved=1e9, n_blocks=4, parallel=1, batch_overheads=1
    )
    assert PLANTED.bound(f_compute) == "compute"
    assert PLANTED.bound(f_memory) == "memory"
    assert PLANTED.predict_ms(f_compute) == pytest.approx(
        1e3 * PLANTED.predict_s(f_compute)
    )
    # Amdahl: threads only help the parallel fraction
    par = BatchFeatures(
        ops=1e9, bytes_moved=1e3, n_blocks=4, parallel=8, batch_overheads=1
    )
    assert PLANTED.predict_s(par) < PLANTED.predict_s(f_compute)
    floor = PLANTED.predict_s(f_compute) * PLANTED.serial_frac
    assert PLANTED.predict_s(par) > floor


def test_cost_model_dict_round_trip():
    assert CostModel.from_dict(PLANTED.to_dict()) == PLANTED


def test_calibrate_needs_four_samples():
    f = batch_features(2, (32, 32), 1)
    with pytest.raises(ValueError, match=">= 4"):
        calibrate([CalibrationSample(f, 1e-3)] * 3)


def test_calibration_recovers_planted_roofline():
    """The satellite gate: synthetic measurements generated by a known
    roofline are recovered with < 10% fit error, and the recovered model
    predicts held-in samples within the same band."""
    samples = [
        CalibrationSample(f, PLANTED.predict_s(f), label=f"s{i}")
        for i, f in enumerate(_feature_grid())
    ]
    result = calibrate(samples)
    assert result.n_samples == len(samples)
    assert result.rel_rmse < 0.10, result
    for s in samples:
        pred = result.model.predict_s(s.features)
        assert pred == pytest.approx(s.measured_s, rel=0.10)
    # serial_frac is grid-searched, so exact recovery is expected here
    assert result.model.serial_frac == pytest.approx(PLANTED.serial_frac)


def test_calibration_survives_measurement_noise():
    """5% multiplicative noise (deterministic seed) must not push the fit
    past the 10% gate — real probe measurements are never noise-free."""
    rng = np.random.default_rng(7)
    samples = [
        CalibrationSample(
            f, PLANTED.predict_s(f) * float(rng.uniform(0.95, 1.05))
        )
        for f in _feature_grid()
    ]
    result = calibrate(samples)
    assert result.rel_rmse < 0.10, result


def test_calibration_memory_bound_workload():
    """A pure-memory planted model must not get stuck at inv_bw=0 (the
    all-compute-start failure mode the multi-start fit exists to avoid)."""
    mem = CostModel(
        overhead_s=1e-4,
        block_overhead_s=1e-6,
        inv_peak=1e-12,
        inv_bw=5e-10,
        serial_frac=0.0,
    )
    samples = [CalibrationSample(f, mem.predict_s(f)) for f in _feature_grid()]
    result = calibrate(samples)
    assert result.rel_rmse < 0.10
    assert result.model.inv_bw > 0
