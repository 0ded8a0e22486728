"""End-to-end acceptance checks, one test per contract item.

Each test states its runtime budget and asserts it; the terminal summary
(see conftest) prints one PASS/FAIL line per item.  Tolerances and sizes
here are frozen -- relaxing them to make a failing build pass defeats the
point of the suite.
"""

import math
import time

import numpy as np
import pytest

from fvfseg.brainmap import cc_to_cm, pearson_cc, posterior_triple, spatial_prior
from fvfseg.brainmap import ProbabilisticAtlas
from fvfseg.cli import EXIT_NO_CANDIDATE, EXIT_OK, main
from fvfseg.errors import NumericalInstabilityError
from fvfseg.fvf3d import (
    EvolutionParams,
    LevelSetField,
    evolve,
    reinitialize,
    signed_distance_init,
    zero_level_mask,
)
from fvfseg.metrics import tanimoto
from fvfseg.mvol import decode, encode, read_volume, write_volume
from fvfseg.ngmm import (
    TissueMixtureModel,
    _log_normalize,
    _log_weighted_densities,
    fit_em,
    gaussian_pdf,
)
from fvfseg.phantom import PATIENT_FILE, TRUTH_FILE
from fvfseg.pipeline import REPORT_FILE
from fvfseg.volume import (
    BinaryMask,
    ScalarVolume,
    largest_component,
    morphology,
)

from .oracles import (
    dilate_oracle,
    erode_oracle,
    largest_component_oracle,
    mp_cc_to_cm,
    mp_gaussian_pdf,
    mp_mixture_density,
    mp_pearson,
    mp_posterior,
    mp_spatial_prior,
    rel_close,
    tanimoto_oracle,
)

UNIT = (1.0, 1.0, 1.0)

MODEL = TissueMixtureModel(
    weights=(0.2, 0.5, 0.3), means=(0.6, 1.0, 1.3), stds=(0.08, 0.10, 0.12)
)


def _report(path):
    return dict(
        line.split("=", 1) for line in path.read_text().strip().splitlines()
    )


def _run_case(tmp, shape, radii, offset, tumor_seed):
    case = tmp / "case"
    out = tmp / "out"
    code = main(
        [
            "phantom",
            "--output-dir", str(case),
            "--dims", "64",
            "--shape", shape,
            "--radii", radii,
            "--offset", str(offset),
            "--seed", "0",
            "--tumor-seed", str(tumor_seed),
        ]
    )
    assert code == EXIT_OK
    code = main(
        [
            "pipeline",
            "--input", str(case / PATIENT_FILE),
            "--atlas-dir", str(case),
            "--output-dir", str(out),
            "--ground-truth", str(case / TRUTH_FILE),
        ]
    )
    return code, case, out


def test_formula_oracles_match_high_precision():
    """Every closed-form scalar (density, prior, posterior, correlation,
    conflict mapping) agrees with a 50-digit reference on 1000+ inputs to
    1e-12 relative, and the conflict mapping keeps its jump at zero.
    Budget: 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240816)

    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0)
        mean = rng.uniform(-2.0, 2.0)
        std = rng.uniform(0.05, 3.0)
        assert rel_close(gaussian_pdf(x, mean, std), mp_gaussian_pdf(x, mean, std))

    # the mixture density as EM evaluates it, through its log-domain terms
    xs = np.array([rng.uniform(0.0, 2.0) for _ in range(1000)])
    terms = _log_weighted_densities(
        xs, np.array(MODEL.weights), np.array(MODEL.means), np.array(MODEL.stds),
        out=np.empty((3, xs.size)),
    )
    log_z = _log_normalize(terms, np.empty(xs.size), np.empty(xs.size))
    for x, got in zip(xs, np.exp(log_z)):
        want = mp_mixture_density(MODEL.weights, MODEL.means, MODEL.stds, x)
        assert rel_close(got, want)

    # one 10x10x10 atlas = 1000 prior evaluations, with a few uninformative
    # all-zero voxels thrown in
    dims = (10, 10, 10)
    raw = rng.random((3, *dims))
    raw /= raw.sum(axis=0) * 1.05
    raw[:, 0, 0, :] = 0.0
    atlas = ProbabilisticAtlas(
        template=ScalarVolume(np.ones(dims), UNIT),
        prob_csf=ScalarVolume(raw[0], UNIT),
        prob_gm=ScalarVolume(raw[1], UNIT),
        prob_wm=ScalarVolume(raw[2], UNIT),
        brain_mask=BinaryMask(np.ones(dims, dtype=bool), UNIT),
    )
    prior = spatial_prior(np.stack([atlas.prob_csf.data, atlas.prob_gm.data, atlas.prob_wm.data]))
    for i in range(10):
        for j in range(10):
            for k in range(10):
                want = mp_spatial_prior(raw[:, i, j, k])
                assert all(rel_close(g, w) for g, w in zip(prior[:, i, j, k], want))

    # the remaining formulas run once over 1000 stacked inputs, as in the map
    priors, xs = [], []
    for _ in range(1000):
        p = rng.random(3) + 1e-3
        priors.append(p / p.sum())
        xs.append(rng.uniform(0.2, 1.8))
    got = posterior_triple(MODEL, np.array(priors).T, np.array(xs))
    for n, (prior, x) in enumerate(zip(priors, xs)):
        want = mp_posterior(prior, MODEL.means, MODEL.stds, x)
        assert all(rel_close(g, w) for g, w in zip(got[:, n], want))

    pairs = [(rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)) for _ in range(1000)]
    got = pearson_cc(np.array([a for a, _ in pairs]).T, np.array([b for _, b in pairs]).T)
    for cc, (a, b) in zip(got, pairs):
        assert rel_close(cc, mp_pearson(a, b))

    ccs = np.array([rng.uniform(-1.0, 1.0) for _ in range(1000)])
    for cm, cc in zip(cc_to_cm(ccs), ccs):
        assert rel_close(cm, mp_cc_to_cm(cc))

    for i in range(1000):
        p = 0.05 + 0.9 * (i / 999.0)
        xd = rng.random((6, 6, 6)) < p
        gd = rng.random((6, 6, 6)) < p
        got = tanimoto(BinaryMask(xd, UNIT), BinaryMask(gd, UNIT)).tanimoto
        assert rel_close(got, tanimoto_oracle(xd, gd))
    empty = np.zeros((6, 6, 6), dtype=bool)
    assert tanimoto(BinaryMask(empty, UNIT), BinaryMask(empty, UNIT)).tanimoto == 1.0
    assert tanimoto(BinaryMask(empty, UNIT), BinaryMask(~empty, UNIT)).tanimoto == 0.0

    # the deliberate discontinuity: 0 maps to 0, 0+ maps to essentially 1
    assert cc_to_cm(0.0) == 0.0
    assert cc_to_cm(1e-9) >= 0.999
    assert cc_to_cm(1e-15) > 0.999
    assert cc_to_cm(-1e-15) == pytest.approx(1e-15)
    assert cc_to_cm(1.0) == 0.0
    assert cc_to_cm(-1.0) == 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"formula-oracle budget exceeded: {elapsed:.2f}s"


def test_em_recovers_reference_mixture():
    """200k samples from the reference three-component mixture: means back
    within 0.02, stds within 0.02, weights within 0.03, log-likelihood
    trace non-decreasing.  Budget: 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 200_000
    comps = rng.choice(3, size=n, p=[0.2, 0.5, 0.3])
    x = rng.normal(
        np.array([0.6, 1.0, 1.3])[comps], np.array([0.08, 0.10, 0.12])[comps]
    )

    model = fit_em(x)
    assert np.allclose(model.means, (0.6, 1.0, 1.3), atol=0.02)
    assert np.allclose(model.stds, (0.08, 0.10, 0.12), atol=0.02)
    assert np.allclose(model.weights, (0.2, 0.5, 0.3), atol=0.03)
    trace = model.loglik_trace
    assert len(trace) >= 2
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"EM budget exceeded: {elapsed:.2f}s"


def test_morphology_exact_on_100_random_masks():
    """Erosion, dilation and largest-component against brute-force oracles
    on 100 seeded 16^3 masks across densities: results must be exact.
    Budget: 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    for i in range(100):
        p = 0.2 + 0.6 * (i / 99.0)
        data = rng.random((16, 16, 16)) < p
        mask = BinaryMask(data, UNIT)
        assert np.array_equal(morphology(mask, "erode").data, erode_oracle(data))
        assert np.array_equal(morphology(mask, "dilate").data, dilate_oracle(data))
        if data.any():
            for conn in (6, 26):
                got = largest_component(mask, conn).data
                assert np.array_equal(got, largest_component_oracle(data, conn))

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"morphology budget exceeded: {elapsed:.2f}s"


def test_levelset_numerics():
    """Three level-set guarantees on a 48^3 grid: reinitialization restores
    a unit gradient (median | |grad phi| - 1 | < 0.05 in a 3-voxel band),
    pure curvature flow takes a radius-10 sphere to radius 5 within 10%
    (alpha=1, dt=0.15), and a 10x time step raises the instability error.
    Budget: 30 s."""
    t0 = time.perf_counter()
    dims = (48, 48, 48)
    center = tuple((d - 1) / 2.0 for d in dims)
    idx = np.indices(dims).astype(np.float64)
    r = np.sqrt(sum((idx[ax] - center[ax]) ** 2 for ax in range(3)))
    sphere = BinaryMask(r <= 10.0, UNIT)

    # (a) gradient restoration from a badly scaled field
    base = signed_distance_init(sphere)
    scaled = LevelSetField(ScalarVolume(3.0 * base.phi.data, UNIT))
    out = reinitialize(scaled)
    gx, gy, gz = np.gradient(out.phi.data)
    norm = np.sqrt(gx**2 + gy**2 + gz**2)
    band = np.abs(out.phi.data) <= 3.0
    median_defect = float(np.median(np.abs(norm[band] - 1.0)))
    assert median_defect < 0.05, f"gradient defect {median_defect:.4f}"

    # (b) curvature-driven collapse follows dR/dt = -alpha/R, i.e.
    # R(t) = sqrt(R0^2 - 2 alpha t); checked every 50 steps down to R=5
    chunk = EvolutionParams(
        alpha=1.0, beta=0.0, dt=0.15, max_iters=50, reinit_every=25, stop_tol=0.0
    )
    field = base
    for _ in range(5):
        field = evolve(field, None, chunk)
        inside = zero_level_mask(field).count()
        measured_r = (3.0 * inside / (4.0 * math.pi)) ** (1.0 / 3.0)
        t = chunk.dt * field.iteration
        predicted_r = math.sqrt(10.0**2 - 2.0 * chunk.alpha * t)
        assert abs(measured_r - predicted_r) / predicted_r < 0.10, (
            f"iter {field.iteration}: radius {measured_r:.2f}"
            f" vs predicted {predicted_r:.2f}"
        )
    assert field.iteration == 250
    assert predicted_r == pytest.approx(5.0)

    # (c) ten times the stable step must be caught, not overflow silently
    bound = EvolutionParams(alpha=1.0, beta=0.0).stability_bound(UNIT)
    bad = EvolutionParams(
        alpha=1.0, beta=0.0, dt=10.0 * bound, max_iters=300, stop_tol=0.0
    )
    with pytest.raises(NumericalInstabilityError) as err:
        evolve(signed_distance_init(sphere), None, bad)
    assert err.value.iteration >= 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"level-set budget exceeded: {elapsed:.2f}s"


def test_end_to_end_sphere(tmp_path):
    """64^3 sphere lesion (radius 8, +4 sigma): full pipeline reaches
    Tanimoto >= 0.85 against ground truth.  Budget: 60 s."""
    t0 = time.perf_counter()
    code, _, out = _run_case(tmp_path, "sphere", "8", 4.0, tumor_seed=1)
    assert code == EXIT_OK
    report = _report(out / REPORT_FILE)
    assert report["status"] == "ok"
    assert float(report["tm"]) >= 0.85, f"tm={report['tm']}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sphere budget exceeded: {elapsed:.2f}s"


def test_end_to_end_ellipsoid(tmp_path):
    """64^3 ellipsoid lesion (radii 10,7,5, +4 sigma): Tanimoto >= 0.75.
    Budget: 60 s."""
    t0 = time.perf_counter()
    code, _, out = _run_case(tmp_path, "ellipsoid", "10,7,5", 4.0, tumor_seed=2)
    assert code == EXIT_OK
    report = _report(out / REPORT_FILE)
    assert report["status"] == "ok"
    assert float(report["tm"]) >= 0.75, f"tm={report['tm']}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"ellipsoid budget exceeded: {elapsed:.2f}s"


def test_end_to_end_control(tmp_path):
    """64^3 null case (offset 0): the run must end in a clean no-candidate
    outcome -- distinct exit code, report written, no crash.  Budget: 60 s."""
    t0 = time.perf_counter()
    code, _, out = _run_case(tmp_path, "sphere", "8", 0.0, tumor_seed=3)
    assert code == EXIT_NO_CANDIDATE
    report = _report(out / REPORT_FILE)
    assert report["status"] == "no-candidate"
    assert report["candidate_voxels"] == "0"
    assert float(report["tm"]) == 0.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"control budget exceeded: {elapsed:.2f}s"


def test_pipeline_is_deterministic(tmp_path):
    """Two runs of the same configuration produce byte-identical artifacts,
    report.txt included (wall time is printed, never written)."""
    code, case, out1 = _run_case(tmp_path, "sphere", "8", 4.0, tumor_seed=1)
    assert code == EXIT_OK
    out2 = tmp_path / "out2"
    code = main(
        [
            "pipeline",
            "--input", str(case / PATIENT_FILE),
            "--atlas-dir", str(case),
            "--output-dir", str(out2),
            "--ground-truth", str(case / TRUTH_FILE),
        ]
    )
    assert code == EXIT_OK

    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_mvol_round_trip_is_bit_exact(tmp_path):
    """Randomized volumes (including zeros, negative zero and float32
    denormals) survive encode/decode and a file round trip without a
    single bit changing."""
    rng = np.random.default_rng(99)
    specials = np.array([0.0, -0.0, 1e-40, -1e-40, 3.4e38, -3.4e38], dtype=np.float32)
    for i in range(100):
        dims = tuple(int(rng.integers(1, 7)) for _ in range(3))
        spacing = tuple(float(rng.uniform(0.25, 3.0)) for _ in range(3))
        if i % 2 == 0:
            data = rng.uniform(-1e6, 1e6, dims).astype(np.float32)
            flat = data.ravel()
            take = rng.integers(0, flat.size, size=min(3, flat.size))
            flat[take] = rng.choice(specials, size=take.size)
            vol = ScalarVolume(data, spacing)
        else:
            vol = BinaryMask(rng.random(dims) < 0.5, spacing)

        blob = encode(vol)
        back = decode(blob)
        assert type(back) is type(vol)
        assert back.dims == vol.dims
        assert back.spacing == vol.spacing
        # bit-pattern comparison (catches -0.0 vs 0.0, denormal munging)
        want = vol.data.astype(back.data.dtype).tobytes(order="F")
        assert back.data.tobytes(order="F") == want
        assert encode(back) == blob

        path = tmp_path / f"v{i}.mvol"
        write_volume(vol, path)
        assert path.read_bytes() == blob
        again = read_volume(path)
        assert again.data.tobytes(order="F") == want
