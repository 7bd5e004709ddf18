"""Each checker accepts real program output and rejects a corrupted copy."""

import csv
import json
import math

import numpy as np
import pytest

import checks
from dpms.cli import main as dpms_main


def _bounded_data(tmp_path, n, p, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.45, 0.45, size=(n, p))
    beta = np.zeros(p)
    beta[:2] = [0.3, -0.25]
    y = x @ beta + rng.uniform(-0.15, 0.15, size=n)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
               header=",".join([f"x{j}" for j in range(p)] + ["y"]), comments="")
    return path, x, y


def _run(argv):
    assert dpms_main(argv) == 0


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + edit(rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path, edit):
    rec = json.loads(path.read_text())
    edit(rec)
    path.write_text(json.dumps(rec))


# --------------------------------------------------------------------------- select

@pytest.fixture(scope="module", params=["zs", "g"])
def select_out(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(f"select-{request.param}")
    path, _, _ = _bounded_data(tmp, 5_000, 4)
    out = tmp / "out"
    _run(["select", "--input", str(path), "--response", "y", "--x", "x0,x1,x2,x3",
          "--epsilon", "1", "--data-entry-bound", "0.5", "--threshold",
          "--prior", request.param, "--synthetic-n", "200", "--seed", "5", "--out", str(out)])
    spec = dict(mechanism="laplace", prior=request.param, n=5_000, p=4, epsilon=1.0, delta=0.0,
                synthetic_n=200, sample_seed=5)
    return out, spec


def test_select_accepts_program_output(select_out):
    out, spec = select_out
    assert checks.check_select(out, spec) == []


def test_select_rejects_permuted_posterior_rows(select_out, tmp_path):
    out, spec = select_out
    bad = _copy(out, tmp_path)
    _rewrite_csv(bad / "posterior.csv", lambda rows: rows[1:] + rows[:1])
    assert checks.check_select(bad, spec)


def test_select_rejects_permuted_posterior_column(select_out, tmp_path):
    out, spec = select_out
    bad = _copy(out, tmp_path)

    def permute(rows):
        post = [r[2] for r in rows]
        order = np.argsort([float(v) for v in post])[::-1]
        for r, i in zip(rows, order):
            r[2] = post[i]
        return rows

    _rewrite_csv(bad / "posterior.csv", permute)
    assert checks.check_select(bad, spec)


def test_select_rejects_scaled_beta_avg(select_out, tmp_path):
    out, spec = select_out
    bad = _copy(out, tmp_path)
    _edit_json(bad / "selection.json",
               lambda rec: rec.update(beta_avg=[1.01 * b for b in rec["beta_avg"]]))
    assert any("beta_avg" in p for p in checks.check_select(bad, spec))


def _copy(out, tmp_path):
    import shutil

    dest = tmp_path / "copy"
    shutil.copytree(out, dest)
    return dest


# --------------------------------------------------------------------------- region

@pytest.fixture(scope="module")
def region_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("region")
    return (tmp,) + _bounded_data(tmp, 300, 3, seed=1)


@pytest.mark.parametrize("mechanism", ["laplace", "none"])
def test_region_accepts_output_and_rejects_counts_off_by_one(region_data, mechanism, tmp_path):
    tmp, path, x, y = region_data
    out = tmp / f"out-{mechanism}"
    argv = ["region", "--input", str(path), "--response", "y", "--x", "x0,x1,x2",
            "--nsamples", "100", "--functional", "beta:0", "--prior", "g", "--seed", "3",
            "--out", str(out)]
    argv += ["--no-noise"] if mechanism == "none" else ["--epsilon", "1",
                                                        "--data-entry-bound", "0.5"]
    _run(argv)
    spec = dict(mechanism=mechanism, functional="beta:0", prior="g", nsamples=100)
    data = dict(x=x, y=y)
    assert checks.check_region(out, spec, data) == []

    bad = _copy(out, tmp_path)

    def bump(rows):
        rows[0][2] = str(int(rows[0][2]) + 1)
        return rows

    _rewrite_csv(bad / "histogram.csv", bump)
    assert any("counts" in p for p in checks.check_region(bad, spec, data))


@pytest.mark.parametrize("functional", ["beta:1", "inclusion:2"])
def test_region_rejects_no_noise_mean_off_the_oracle(region_data, functional, tmp_path):
    tmp, path, x, y = region_data
    out = tmp / f"out-oracle-{functional.replace(':', '')}"
    _run(["region", "--input", str(path), "--response", "y", "--x", "x0,x1,x2",
          "--functional", functional, "--prior", "bic", "--no-noise", "--seed", "3",
          "--out", str(out)])
    spec = dict(mechanism="none", functional=functional, prior="bic", nsamples=1000)
    assert checks.check_region(out, spec, dict(x=x, y=y)) == []
    _edit_json(out / "region.json", lambda rec: rec.update(mean=rec["mean"] + 1e-6))
    assert any("oracle" in p for p in checks.check_region(out, spec, dict(x=x, y=y)))


def test_region_rejects_inclusion_bins_not_spanning_unit_interval(tmp_path):
    edges = np.linspace(0.02, 1.0, 51)
    with open(tmp_path / "histogram.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_edge_lo", "bin_edge_hi", "count"])
        for i in range(50):
            w.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), 2 if i == 49 else 0])
    (tmp_path / "region.json").write_text(json.dumps(
        dict(mean=0.99, accepted=2, rejected_non_pd=98, functional="inclusion:0",
             mechanism="laplace")))
    spec = dict(mechanism="laplace", functional="inclusion:0", prior="g", nsamples=100)
    assert any("span" in p for p in checks.check_region(tmp_path, spec))


# --------------------------------------------------------------------------- simulate

@pytest.fixture(scope="module")
def sim_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "out"
    _run(["simulate", "--p", "3", "--n", "500", "--snr", "1", "--n-active", "2",
          "--n-datasets", "2", "--epsilon", "1", "--prior", "g", "--seed", "4",
          "--out", str(out)])
    return out, dict(n_datasets=2, snr=1.0, epsilon=1.0)


def test_simulate_accepts_output_and_rejects_flipped_relative_mse(sim_out, tmp_path):
    out, spec = sim_out
    assert checks.check_simulate(out, spec) == []
    bad = _copy(out, tmp_path)

    def flip(rows):
        rows[1][6] = repr(-float(rows[1][6]))
        return rows

    _rewrite_csv(bad / "mse_table.csv", flip)
    assert any("relative_mse" in p for p in checks.check_simulate(bad, spec))


def test_simulate_rejects_a_summary_mean_off_the_table(sim_out, tmp_path):
    out, spec = sim_out
    bad = _copy(out, tmp_path)
    _edit_json(bad / "sim_summary.json", lambda rec: rec["cells"].update(O=rec["cells"]["O"] * 1.001))
    assert any("sim_summary" in p for p in checks.check_simulate(bad, spec))


# --------------------------------------------------------------------------- test

@pytest.fixture(scope="module")
def test_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("test")
    rng = np.random.default_rng(2)
    n = 3_000
    z = rng.standard_normal((n, 2))
    x = rng.standard_normal((n, 2))
    y = z @ [0.3, -0.2] + x @ [0.08, 0.0] + rng.standard_normal(n)
    path = tmp / "test.csv"
    np.savetxt(path, np.column_stack([y, z, x]), fmt="%.17g", delimiter=",",
               header="y,z1,z2,x1,x2", comments="")
    return tmp, path, dict(y=y, x0=z, x=x)


@pytest.mark.parametrize("prior", ["zs", "g", "bic"])
def test_test_oracle_matches_least_squares(test_data, prior, tmp_path):
    tmp, path, data = test_data
    out = tmp / f"oracle-{prior}"
    _run(["test", "--input", str(path), "--response", "y", "--x0", "z1,z2", "--x", "x1,x2",
          "--M", "1", "--epsilon", "1", "--prior", prior, "--no-noise", "--L=-1e6",
          "--U=1e6", "--seed", "1", "--out", str(out)])
    spec = dict(M=1, prior=prior, delta=0.0, oracle=True, L=-1e6, U=1e6)
    assert checks.check_test(out, spec, data) == []
    bad = _copy(out, tmp_path)
    _edit_json(bad / "test_result.json", lambda rec: rec.update(log_bstar=rec["log_bstar"] + 1e-4))
    assert any("full-data" in p for p in checks.check_test(bad, spec, data))


def test_test_private_identities(test_data, tmp_path):
    tmp, path, data = test_data
    out = tmp / "private"
    _run(["test", "--input", str(path), "--response", "y", "--x0", "z1,z2", "--x", "x1,x2",
          "--M", "10", "--epsilon", "1", "--delta", "1e-5", "--prior", "zs", "--seed", "1",
          "--out", str(out)])
    spec = dict(M=10, prior="zs", delta=1e-5, oracle=False, L=-math.log(99.0), U=math.log(99.0))
    assert checks.check_test(out, spec, data) == []
    for edit in (lambda r: r.update(p_h0=r["p_h0"] + 1e-6, p_h1=r["p_h1"] - 1e-6),
                 lambda r: r.update(log_bstar_censored=r["log_bstar_censored"] + 0.01),
                 lambda r: r.update(per_subset_logs=[0.0] * 10)):
        bad = tmp_path / f"bad{id(edit)}"
        _copy(out, bad)
        _edit_json(bad / "copy" / "test_result.json", edit)
        assert checks.check_test(bad / "copy", spec, data)


# --------------------------------------------------------------------------- calibrate

LRT_SPEC = dict(statistic="lrt", df=3, M=50, L=0.0, U=4.0, delta=0.0, epsilon=1.0,
                alpha=0.05, nsim=100_000, observed=3.5)


@pytest.fixture(scope="module")
def calibrate_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("calibrate") / "out"
    _run(["calibrate", "--statistic", "lrt", "--df", "3", "--M", "50", "--L", "0", "--U", "4",
          "--epsilon", "1", "--nsim", "100000", "--observed", "3.5", "--alpha", "0.05",
          "--seed", "8", "--out", str(out)])
    return out


def test_calibrate_accepts_output(calibrate_out):
    assert checks.check_calibrate(calibrate_out, LRT_SPEC, np.random.default_rng(0)) == []


@pytest.mark.parametrize("factor", [1.05, 0.95])
def test_calibrate_rejects_critical_value_moved_5_percent(calibrate_out, tmp_path, factor):
    bad = _copy(calibrate_out, tmp_path)
    _edit_json(bad / "calibration.json",
               lambda rec: rec.update(critical_value=rec["critical_value"] * factor))
    problems = checks.check_calibrate(bad, LRT_SPEC, np.random.default_rng(0))
    assert any("0.95" in p for p in problems)


def test_calibrate_rejects_a_moved_quantile_and_p_value(calibrate_out, tmp_path):
    bad = _copy(calibrate_out, tmp_path)

    def move(rows):
        rows[3][1] = repr(float(rows[3][1]) * 1.05)   # the median
        return rows

    _rewrite_csv(bad / "null_quantiles.csv", move)
    _edit_json(bad / "calibration.json", lambda rec: rec.update(p_value=rec["p_value"] + 0.03))
    problems = checks.check_calibrate(bad, LRT_SPEC, np.random.default_rng(0))
    assert any("quantile 0.5" in p for p in problems)
    assert any("p_value" in p for p in problems)


def test_calibrate_gaussian_bf_null(tmp_path):
    spec = dict(statistic="bf", prior="zs", M=10, L=-15.0, U=5.0, delta=1e-5, epsilon=1.0,
                n=10 * 800, p=2, p0=3, alpha=0.05, nsim=20_000, observed=-6.0)
    out = tmp_path / "out"
    _run(["calibrate", "--statistic", "bf", "--prior", "zs", "--M", "10", "--L=-15",
          "--U=5", "--epsilon", "1", "--delta", "1e-5", "--n", "8000", "--p", "2",
          "--p0", "3", "--nsim", "20000", "--observed=-6", "--seed", "2", "--out", str(out)])
    assert checks.check_calibrate(out, spec, np.random.default_rng(1)) == []
    _edit_json(out / "calibration.json",
               lambda rec: rec.update(critical_value=rec["critical_value"] + 1.0))
    assert checks.check_calibrate(out, spec, np.random.default_rng(1))
