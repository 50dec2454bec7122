import re

import numpy as np
import pytest

from coupledrec.cli import main, random_fourier_mask
from coupledrec.fileio import read_mfi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- sampling masks -----------------------------------------------------------


def test_random_mask_fraction_and_dc():
    mask = random_fourier_mask((64, 64), 0.25, seed=3)
    frac = mask.mean()
    assert 0.2 < frac < 0.3
    assert mask.flat[0]


def test_random_mask_center_bias_prefers_low_frequencies():
    dims = (64, 64)
    biased = random_fourier_mask(dims, 0.25, seed=3, center_bias=0.08)
    freqs = np.meshgrid(*[np.fft.fftfreq(n) for n in dims], indexing="ij")
    radius = np.sqrt(sum(f**2 for f in freqs))
    low = radius < 0.1
    assert biased[low].mean() > 2 * biased[~low].mean()


def test_random_mask_deterministic_and_validated():
    a = random_fourier_mask((32, 32), 0.5, seed=11)
    b = random_fourier_mask((32, 32), 0.5, seed=11)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        random_fourier_mask((8, 8), 0.0, seed=0)


# --- subcommands --------------------------------------------------------------


def test_phantom_command_writes_outputs(tmp_path, capsys):
    code, out, _ = run(
        capsys, "phantom", "shared_edges_disc", "64", "64", "2", "--out-dir", str(tmp_path)
    )
    assert code == 0
    img = read_mfi(tmp_path / "phantom.mfi")
    assert img.values.shape == (64, 64, 2)
    pg1 = (tmp_path / "phantom_ch1.pgm").read_bytes()
    pg2 = (tmp_path / "phantom_ch2.pgm").read_bytes()
    assert pg1.startswith(b"P5")
    # shared-support phantom: the two channels have edges at the same pixels,
    # so their binarized PGM renderings agree
    assert (np.frombuffer(pg1.split(b"\n", 4)[-1], np.uint8) > 0).tolist() == (
        np.frombuffer(pg2.split(b"\n", 4)[-1], np.uint8) > 0
    ).tolist()


def test_phantom_command_rejects_bad_sizes(capsys):
    code, _, err = run(capsys, "phantom", "smooth_bump", "0", "8", "1")
    assert code == 1


def test_adjoint_check_default_suite(capsys):
    code, out, _ = run(capsys, "adjoint-check", "--seed", "0")
    assert code == 0
    assert "PASS" in out
    assert "radon" in out and "fourier_masked" in out


def test_solve_matches_closed_form(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 24 24\n"
        "channels = 2\n"
        "phantom.kind = smooth_bump\n"
        "channel.1.lam = 0.5\n"
        "channel.2.lam = 2.0\n"
        "regularizer.kind = quadratic\n"
        "regularizer.weight = 1.0\n"
        "solver.max_iters = 4000\n"
        "solver.tol = 1e-13\n"
    )
    code, out, _ = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert "# resolved config" in out
    line = next(l for l in out.splitlines() if l.startswith("closed-form"))
    assert float(line.split("=")[1]) < 1e-6
    recon = read_mfi(tmp_path / "recon.mfi")
    assert recon.values.shape == (24, 24, 2)
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "iteration,energy,rel_change"
    assert len(diag) > 2


def test_solve_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 16 16\n"
        "channels = 1\n"
        "channel.1.noise = gaussian\n"
        "channel.1.noise_level = 0.1\n"
        "channel.1.lam = 1.0\n"
        "regularizer.kind = quadratic\n"
        "solver.max_iters = 200\n"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "solve", str(cfg), "--seed", "5", "--out-dir", str(a))[0] == 0
    assert run(capsys, "solve", str(cfg), "--seed", "5", "--out-dir", str(b))[0] == 0
    assert (a / "recon.mfi").read_bytes() == (b / "recon.mfi").read_bytes()
    assert (a / "diagnostics.csv").read_text() == (b / "diagnostics.csv").read_text()


def test_solve_diagnostics_csv_counts_iterations_from_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "regularizer.kind = quadratic\n"
        "solver.max_iters = 5\n"
        "solver.tol = 0\n"
    )
    code, out, _ = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert "iterations = 5, energy = " in out
    # one identity channel under a quadratic penalty: ||T|| = 1, inflated by 1%
    steps = r"sigma = r1:0\.980198, tau = u1:0\.980198"
    summary = r"^iterations = 5, energy = \S+, converged = False, " + steps + "$"
    assert re.search(summary, out, re.M)
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [1, 2, 3, 4, 5]


def test_rates_command_writes_csv_and_gates(tmp_path, capsys):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "channel.1.kind = l2\n"
        "rates.rule = two_norm\n"
        "rates.mu = 1.0\n"
        "rates.levels = 5\n"
        "rates.seeds = 2\n"
        "rates.gate.data_1 = 1.5\n"
        "regularizer.kind = quadratic\n"
        "regularizer.weight = 0.05\n"
        "solver.max_iters = 1200\n"
        "solver.tol = 1e-11\n"
    )
    code, out, _ = run(capsys, "rates", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert "PASS  data slope channel 1" in out
    csv1 = (tmp_path / "rates.csv").read_text()
    assert csv1.splitlines()[0].startswith("level,delta")
    # byte-identical on rerun
    assert run(capsys, "rates", str(cfg), "--out-dir", str(tmp_path))[0] == 0
    assert (tmp_path / "rates.csv").read_text() == csv1


def test_rates_command_reports_unconverged_solves(tmp_path, capsys):
    cfg = tmp_path / "rates.cfg"
    body = (
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "rates.rule = two_norm\n"
        "rates.mu = 1.0\n"
        "rates.levels = 5\n"
        "rates.seeds = 2\n"
        "regularizer.kind = quadratic\n"
        "regularizer.weight = 0.05\n"
        "solver.tol = 1e-11\n"
    )
    cfg.write_text(body + "solver.max_iters = 1200\n")
    code, out, _ = run(capsys, "rates", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert "unconverged solves: 0 of 10" in out
    assert "WARN" not in out
    cfg.write_text(body + "solver.max_iters = 5\n")
    code, out, _ = run(capsys, "rates", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0  # a warning, not a failed gate
    assert "unconverged solves: 10 of 10" in out
    assert "WARN" in out


def test_rates_command_rejects_an_empty_seed_list(tmp_path, capsys):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "rates.rule = two_norm\n"
        "rates.mu = 1.0\n"
        "rates.levels = 5\n"
        "rates.seeds = 0\n"
        "regularizer.kind = quadratic\n"
    )
    code, _, err = run(capsys, "rates", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert "at least one seed" in err
    assert not (tmp_path / "rates.csv").exists()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schema = 1\ngrid.dims = 8 8\n")  # missing `channels`
    code, _, err = run(capsys, "solve", str(cfg))
    assert code == 1
    assert "config error" in err
    assert run(capsys, "solve", str(tmp_path / "absent.cfg"))[0] == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("regularizer.alpha0 = nan", "positive and finite"),
        ("grid.spacing = inf 1", "positive and finite"),
        ("solver.tol = nan", "tol must be finite"),
        ("channel.1.background = 3", "KL channels only"),
    ],
)
def test_bad_setting_exits_as_configuration_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "regularizer.kind = tgv2\n"
        "solver.max_iters = 5\n" + line + "\n"
    )
    code, _, err = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert message in err


def test_removed_step_policy_key_exits_as_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "solver.max_iters = 5\n"
        "solver.step_policy = constant\n"
    )
    code, _, err = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert "line 5: solver.step_policy was removed" in err
    assert not (tmp_path / "recon.mfi").exists()


def _diag_every_config(tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 2\n"
        "channel.1.op = fourier\n"
        "channel.1.mask_fraction = 0.5\n"
        "channel.2.op = radon\n"
        "channel.2.angles = 4\n"
        "channel.2.kind = kl\n"
        "regularizer.kind = tgv2\n"
        "solver.max_iters = 23\n"
        "solver.tol = 0\n"
        f"solver.diag_every = {value}\n"
    )
    return cfg


def test_solve_records_every_diag_every_th_iteration(tmp_path, capsys):
    cfg = _diag_every_config(tmp_path, 5)
    code, out, _ = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [5, 10, 15, 20]
    # the summary names each block's step: TGV duals p, q, then r1, r2; u1, u2, then v
    line = next(l for l in out.splitlines() if l.startswith("iterations = 23"))
    assert re.search(r"sigma = p:\S+ q:\S+ r1:\S+ r2:\S+, tau = u1:\S+ u2:\S+ v:\S+$", line)


@pytest.mark.parametrize("value, message", [("0", "diag_every"), ("2.5", "not an integer")])
def test_bad_diag_every_exits_as_configuration_error(tmp_path, capsys, value, message):
    cfg = _diag_every_config(tmp_path, value)
    code, _, err = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert message in err


def test_info_command(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert "coupledrec" in out and "MFI1" in out
