"""Tests of the benchmark's oracles, generator and tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import cmath
import io
import json
import math
import random
import sys

import pytest

import gen
import oracles
import zetadet as zd
from tracing import LAYERS, Tracer
from worker import Loop
from zetadet import cli


def _run(tmp_path, job: gen.Job) -> tuple[int, str]:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job.config))
    real = sys.stdout
    sys.stdout = buf = io.StringIO()
    try:
        rc = cli.main([job.command, "--config", str(path), "--format", job.fmt])
    finally:
        sys.stdout = real
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# hand values


def test_rank1_hand_values():
    assert abs(oracles.circle_torsion(oracles.rank1_monodromy(0.25)) - (1 - 1j)) < 1e-15
    m = oracles.rank1_monodromy(0.5)
    assert abs(oracles.circle_torsion(m) - 2.0) < 1e-15
    assert abs(oracles.circle_ray_singer(m) - 2.0) < 1e-15
    assert oracles.circle_im_eta(oracles.rank1_monodromy(0.3 + 0.2j)) == pytest.approx(-0.2)


def test_lattice_zeta_hand_value_at_minus_twelve():
    # sum_n (0.3 + n)^12 continues to -(B_13(0.3) + B_13(0.7)) / 13 = 0
    value = oracles.lattice_zeta(0.3, 1, -math.pi / 4, -12.0)
    assert abs(value) < 1e-12


@pytest.mark.parametrize("a", [0.3, 0.7 - 0.4j, 0.15 + 0.6j])
@pytest.mark.parametrize("theta", [-0.5, -2.0, 1.0])
def test_lattice_zeta_at_two_is_the_cosecant_sum(a, theta):
    # the branch does not matter at an integer: sum (a + n)^-2 = pi^2 / sin^2(pi a)
    want = math.pi ** 2 / cmath.sin(math.pi * a) ** 2
    assert abs(oracles.lattice_zeta(a, 1, theta, 2.0) - want) < 1e-12 * abs(want)


def test_finite_hand_values():
    eigs = [(2.0 + 0j, 1), (-1.0 + 0j, 2), (1j, 1)]
    # window (-pi/4, 7pi/4): arg(-1) = pi, arg(i) = pi/2
    want = math.log(2.0) + 2j * math.pi + 0.5j * math.pi
    assert abs(oracles.finite_ldet(eigs, -math.pi / 4) - want) < 1e-15
    assert oracles.finite_eta(eigs) == 0.5 * (1 - 2 + 1)
    assert oracles.finite_zeta0_square(eigs) == 4


def test_window_log_stays_in_its_window():
    rng = random.Random(5)
    for _ in range(500):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        theta = rng.uniform(-7, 7)
        lg = oracles.window_log(z, theta)
        assert theta < lg.imag < theta + 2 * math.pi
        assert abs(cmath.exp(lg) - z) < 1e-13 * abs(z)


# ---------------------------------------------------------------------------
# oracles against the program, on inputs inside the method's hypotheses


def test_circle_closed_forms_match_the_program():
    rng = random.Random(1)
    for _ in range(20):
        a = complex(rng.uniform(0.1, 0.9), rng.uniform(-1.5, 1.5))
        rep = zd.refined_torsion(zd.build_rank1(a))
        m = oracles.rank1_monodromy(a)
        assert abs(rep.torsion - oracles.circle_torsion(m)) < 1e-12 * abs(rep.torsion)
        assert rep.ray_singer == pytest.approx(oracles.circle_ray_singer(m), rel=1e-12)
        assert rep.im_eta == pytest.approx(oracles.circle_im_eta(m), abs=1e-12)


def test_lattice_det_and_eta_match_the_program():
    for a, theta in ((0.3 + 0.2j, -0.8), (0.7 - 0.4j, -2.5), (0.3 + 0.2j, 2.0), (1.6 + 0.1j, 0.5)):
        spec = zd.Lattice(a, 2)
        got = zd.ldet(spec, theta).det
        want = oracles.lattice_det(a, 2, theta)
        assert abs(got - want) < 1e-10 * abs(want)
        assert abs(zd.eta_invariant(spec) - oracles.lattice_eta(a, 2)) < 1e-12


def test_lattice_zeta_matches_the_program_where_the_workload_samples_s():
    rng = random.Random(2)
    for (re_lo, re_hi), (im_lo, im_hi) in gen.ZETA_S_BOXES * 2:
        a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.8, 0.8))
        theta = rng.choice((-1.0, -2.2, 0.7))
        s = complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
        res = zd.spectral_zeta(zd.Lattice(a), theta, s)
        want = oracles.lattice_zeta(a, 1, theta, s)
        assert abs(res.value - want) <= res.error_estimate + oracles.ZETA_FLOOR * max(1, abs(want))


def test_monodromy_oracle_bounds_the_rk4_error():
    fam = {"kind": "rank1", "a": {"re": 0.3, "im": 0.2}}
    want = oracles.exact_monodromy(fam, 0.1)
    assert abs(want[0, 0] - cmath.exp(-2j * math.pi * (0.4 + 0.2j))) < 1e-12
    phi = zd.monodromy(zd.ConnectionFamily.rank1_path(0.3 + 0.2j), 64, 0.1)
    bound = oracles.rk4_error_bound([1j * (0.4 + 0.2j)], 1.0, 64)
    err = abs(phi[0, 0] - want[0, 0])
    # for one eigenvalue the bound is nearly the error itself; the check allows 4x
    assert 0.5 * bound < err <= 4 * bound


def test_check_output_rejects_a_wrong_value(tmp_path):
    job = gen.make_round("model_jobs", 3)[0]
    rc, text = _run(tmp_path, job)
    assert rc == 0 and oracles.check_output(job.config, text) == []
    out = json.loads(text)
    out["results"]["torsion"]["re"] += 1e-6
    assert oracles.check_output(job.config, json.dumps(out))


@pytest.mark.parametrize("workload", ["model_jobs", "finite_verify"])
def test_a_round_passes_its_oracles(tmp_path, workload):
    for job in gen.make_round(workload, 11):
        rc, text = _run(tmp_path, job)
        assert rc == 0
        problems = oracles.check_output(job.config, text, job.fmt)
        assert bool(problems) == job.known_fault, (job.config, problems)


def test_scan_jobs_pass_their_oracles_in_both_formats(tmp_path):
    jobs = gen.make_round("scan_grid", 11)
    for job in (jobs[0], jobs[1], jobs[-1]):
        rc, text = _run(tmp_path, job)
        assert rc == 0 and oracles.check_output(job.config, text, job.fmt) == []
    assert {job.fmt for job in jobs} == {"json", "csv"}


# ---------------------------------------------------------------------------
# generator


def test_rounds_are_seeded():
    for workload in gen.WORKLOADS:
        a = [j.config for j in gen.make_round(workload, 4)]
        assert a == [j.config for j in gen.make_round(workload, 4)]
        assert a != [j.config for j in gen.make_round(workload, 5)]
        assert len(a) == len(gen.make_round(workload, 5))


def test_known_fault_jobs_do_not_depend_on_the_seed():
    faults = [[j.config for j in gen.make_round("model_jobs", s) if j.known_fault] for s in (0, 9)]
    assert faults[0] == faults[1] and len(faults[0]) == len(gen.KNOWN_FAULT_ZETA)


def test_uniform_lattice_verify_draws_are_rejected_as_the_program_rejects_them():
    rng = random.Random(0)
    rejected = 0
    for _ in range(30):
        a = complex(rng.uniform(0.05, 0.95), rng.uniform(-1, 1))
        try:
            gen.check_sectors(gen.lattice_points(a), -math.pi / 4, margin=0.0)
        except gen.HypothesisError:
            rejected += 1
            with pytest.raises(zd.HypothesisViolatedError):
                zd.verify_det_eta(zd.Lattice(a), -math.pi / 4)
    assert rejected >= 10


def test_naive_conjugate_closure_is_rejected():
    theta = -math.pi / 4
    eigs = gen._finite_asym(random.Random(3), 12, theta)
    closed = eigs + [(v.conjugate(), m) for v, m in eigs]
    with pytest.raises(gen.HypothesisError):
        gen.check_finite(closed, theta)


def test_symmetric_draws_are_conjugation_closed():
    eigs = gen._finite_sym(random.Random(3), 27, -0.5)
    assert len(eigs) == 27 and oracles.is_conjugation_closed(eigs)


# ---------------------------------------------------------------------------
# tracer and loop


def test_tracer_counts_calls_through_imported_names(tmp_path):
    job = gen.make_round("model_jobs", 1)[0]   # a rank-1 torsion job
    tracer = Tracer()
    tracer.install()
    try:
        rc, _ = _run(tmp_path, job)
    finally:
        tracer.uninstall()
    assert rc == 0
    per_job = tracer.per_job(1)
    assert set(per_job) == {f"{n}.{k}" for n in LAYERS for k in ("calls", "self_ms")} | {
        "spectrum.points_scanned", "kernels.em_terms"}
    assert per_job["circle.refined_torsion.calls"] == 1
    # certify_agmon is reached through the names zetafun imported
    assert per_job["spectrum.certify_agmon.calls"] == 3
    assert per_job["kernels.em_terms"] > 0
    assert zd.zetafun.certify_agmon is zd.spectrum.certify_agmon
    assert not hasattr(zd.spectrum.Lattice.points_within, "__wrapped__")


def test_loop_times_whole_rounds_and_compares_outputs():
    calls = []

    def fake_main(argv):
        calls.append(argv)
        changed = len(calls) == 200 and argv == ["b"]
        sys.stdout.write('{"x":%d,"wallTimeSeconds":%r}' % (changed, len(calls)))
        return 0

    loop = Loop(fake_main, [["a"], ["b"], ["c"]])
    loop.warm_up()
    walls = loop.timed(0.0)
    assert len(walls) * 3 >= 100 and loop.mismatches == 0
    assert len(loop.latencies) == len(walls) * 3
    loop.timed(0.0)
    assert loop.mismatches == 1
