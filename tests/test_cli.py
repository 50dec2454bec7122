import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coupledrec
from coupledrec.cli import _build_problem, _build_solver_config, main, random_fourier_mask
from coupledrec.config import RunConfig, load_config, parse_config
from coupledrec.fileio import read_mfi
from coupledrec.forward import default_n_bins
from coupledrec.problem import TGV2
from coupledrec.solver import primal_energy, solve


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


def test_adjoint_check_of_a_config_covers_the_regularizer_maps(tmp_path, capsys):
    # a length-1 axis: grad/div and sym_grad/sym_div must stay exact transposes
    cfg = tmp_path / "run.cfg"
    cfg.write_text("schema = 1\ngrid.dims = 1 16\nchannels = 2\nchannel.2.op = conv\n")
    code, out, _ = run(capsys, "adjoint-check", str(cfg))
    assert code == 0
    assert "PASS" in out
    for name in ("channel.1", "channel.2", "gradient", "sym_gradient"):
        assert re.search(rf"^\s*{name}  max rel error \S+  ok$", out, re.M)


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
    assert csv1.splitlines()[0].startswith("level,seed,delta")
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
        ("channel.1.op = conv\nchannel.1.kernel_sigma = -1.5", "line 7: channel.1.kernel_sigma"),
        ("channel.1.op = conv\nchannel.1.kernel_sigma = 0", "line 7: channel.1.kernel_sigma"),
        ("channel.1.op = conv\nchannel.1.kernel_sigma = nan", "line 7: channel.1.kernel_sigma"),
        ("regularizer.alpha1 = 0", "config error: line 6: regularizer.alpha1"),
        ("channel.1.lam = -1", "config error: line 6: channel.1.lam"),
        ("channel.1.noise = poisson\nchannel.1.counts = 0", "config error: line 7: channel.1.counts"),
        (
            "channel.1.op = fourier\nchannel.1.mask_fraction = 0",
            "config error: line 7: channel.1.mask_fraction",
        ),
        (
            "channel.1.noise = gaussian\nchannel.1.noise_level = -1",
            "config error: line 7: channel.1.noise_level",
        ),
        (
            "channel.1.noise = gaussian\nchannel.1.noise_level = inf",
            "config error: line 7: channel.1.noise_level",
        ),
        ("channel.1.op = radon\nchannel.1.angles = 0", "config error: line 7: channel.1.angles"),
        ("solver.tol = -1", "config error: line 6: solver.tol"),
        ("solver.tol = inf", "config error: line 6: solver.tol"),
        ("solver.diag_every = -1", "config error: line 6: solver.diag_every"),
        ("grid.spacing = 1.0 0", "config error: line 6: grid.spacing = 1.0 0 must"),
        ("grid.spacing = 1.0", "config error: line 6: grid.spacing"),
        ("grid.spacing = 1 1 1", "config error: line 6: grid.spacing"),
        ("grid.spacing = 1 nan", "config error: line 6: grid.spacing"),
        ("grid.dims = 0 16", "config error: line 6: grid.dims = 0 16 must"),
        ("grid.dims = 8 -8", "config error: line 6: grid.dims"),
        ("grid.dims = 4 4 4 4", "config error: line 6: grid.dims"),
    ],
)
def test_bad_setting_exits_as_configuration_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    # a bad grid.dims replaces the valid one; the blank line keeps the numbering
    dims = "" if line.startswith("grid.dims") else "grid.dims = 8 8"
    cfg.write_text(
        "schema = 1\n"
        f"{dims}\n"
        "channels = 1\n"
        "regularizer.kind = tgv2\n"
        "solver.max_iters = 5\n" + line + "\n"
    )
    code, out, err = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    # a message that names the config line must open stderr
    assert err.startswith(message) if message.startswith("config error: ") else message in err
    assert out == ""
    assert not (tmp_path / "recon.mfi").exists()


def _assert_removed_key_is_a_configuration_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "solver.max_iters = 5\n"
        f"{key} = {value}\n"
    )
    code, _, err = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert f"line 5: {key} was removed" in err
    assert not (tmp_path / "recon.mfi").exists()


def test_removed_step_policy_key_exits_as_configuration_error(tmp_path, capsys):
    _assert_removed_key_is_a_configuration_error(tmp_path, capsys, "solver.step_policy", "constant")


def test_removed_warm_start_key_exits_as_configuration_error(tmp_path, capsys):
    _assert_removed_key_is_a_configuration_error(tmp_path, capsys, "solver.warm_start", "true")


def test_tgv_solve_on_a_grid_with_a_length_one_axis(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 1 32\n"
        "channels = 1\n"
        "regularizer.kind = tgv2\n"
        "solver.max_iters = 20\n"
    )
    code, out, _ = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert read_mfi(tmp_path / "recon.mfi").values.shape == (1, 32, 1)


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


@pytest.mark.parametrize("every, recorded", [(5, [5, 10, 15, 20]), (0, [])], ids=["5", "0"])
def test_solve_records_every_diag_every_th_iteration(tmp_path, capsys, every, recorded):
    # diag_every = 0 switches the rows off: the CSV keeps its header, the energy is still printed
    cfg = _diag_every_config(tmp_path, every)
    code, out, _ = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    header, *rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert header == "iteration,energy,rel_change"
    assert [int(r.split(",")[0]) for r in rows] == recorded
    # the summary names each block's step: TGV duals p, q, then r1, r2; u1, u2, then v
    line = next(l for l in out.splitlines() if l.startswith("iterations = 23"))
    assert ", energy = " in line
    assert re.search(r"sigma = p:\S+ q:\S+ r1:\S+ r2:\S+, tau = u1:\S+ u2:\S+ v:\S+$", line)


def test_solve_prints_the_energy_of_the_iterate_it_writes(tmp_path, capsys):
    # 23 iterations recorded every 5th: the last row is iteration 20, not the written iterate
    cfg_path = _diag_every_config(tmp_path, 5)
    code, out, _ = run(capsys, "solve", str(cfg_path), "--out-dir", str(tmp_path))
    assert code == 0
    cfg = load_config(cfg_path)
    spec, _ = _build_problem(cfg, cfg.get_int("seed", 0))
    result = solve(spec, _build_solver_config(cfg))
    np.testing.assert_array_equal(read_mfi(tmp_path / "recon.mfi").values, result.u.values)
    energy = format(primal_energy(spec, result.u, result.v), ".12g")
    assert f"iterations = 23, energy = {energy}, " in out


_THREAD_CONFIGS = {
    # an identity channel: only the noise scaling takes a norm of the data
    "identity_128": (
        "schema = 1\n"
        "grid.dims = 128 128\n"
        "channels = 1\n"
        "channel.1.noise = gaussian\n"
        "regularizer.kind = quadratic\n"
        "solver.max_iters = 3\n"
    ),
    # the power iteration's norms of 256 x 256 images and their sinograms
    "conv_fourier_radon_256": (
        "schema = 1\n"
        "grid.dims = 256 256\n"
        "channels = 3\n"
        "channel.1.op = conv\n"
        "channel.1.noise = gaussian\n"
        "channel.2.op = fourier\n"
        "channel.2.mask_fraction = 0.25\n"
        "channel.2.noise = gaussian\n"
        "channel.3.op = radon\n"
        "channel.3.angles = 8\n"
        "channel.3.kind = kl\n"
        "channel.3.noise = poisson\n"
        "regularizer.kind = quadratic\n"
        "solver.max_iters = 3\n"
    ),
}


def test_solve_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a dot of a long vector across its threads, so a norm
    # taken by a BLAS dot, of the noise or in the power iteration, could
    # differ in its last digit between the two runs; the library's norms are
    # pairwise sums, which do not.  On a 1-core host both runs use one
    # thread, and the test passes without showing anything.
    src = str(Path(coupledrec.__file__).resolve().parent.parent)
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )
    command = [sys.executable, "-m", "coupledrec.cli", "solve"]
    for name, text in _THREAD_CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_threads_{threads}"
            env["OPENBLAS_NUM_THREADS"] = threads
            argv = [*command, str(cfg), "--out-dir", str(out)]
            subprocess.run(argv, env=env, check=True, capture_output=True)
            written.append([(out / f).read_bytes() for f in ("recon.mfi", "diagnostics.csv")])
        assert written[0] == written[1], name


@pytest.mark.parametrize("value, message", [("-1", "diag_every"), ("2.5", "not an integer")])
def test_bad_diag_every_exits_as_configuration_error(tmp_path, capsys, value, message):
    cfg = _diag_every_config(tmp_path, value)
    code, _, err = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert message in err


@pytest.mark.parametrize("command", ["solve", "rates", "adjoint-check"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_channel_count_below_one_is_a_configuration_error(tmp_path, capsys, command, count):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        f"channels = {count}\n"
        "rates.rule = two_norm\n"
        "rates.mu = 1.0\n"
    )
    code, _, err = run(capsys, command, str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("config error: line 3: channels")


@pytest.mark.parametrize("dims", ["8 8 8", "16"], ids=["3d", "1d"])
def test_radon_channel_on_a_grid_that_is_not_2d_exits_with_one_line(tmp_path, capsys, dims):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        f"grid.dims = {dims}\n"
        "channels = 1\n"
        "channel.1.op = radon\n"
        "channel.1.kind = kl\n"
        "regularizer.kind = tgv2\n"
        "solver.max_iters = 5\n"
    )
    code, _, err = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert err == "error: radon_op requires a 2D grid\n"  # one line, no traceback


def test_readme_example_config_builds_the_documented_problem():
    # unknown keys are ignored, so a key renamed in the code but not in the README shows here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cfg = parse_config(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    spec, _ = _build_problem(cfg, 0)
    fourier, radon = spec.channels
    assert (fourier.op.kind, fourier.kind, fourier.lam) == ("masked_fourier", "l2", 50.0)
    assert (radon.op.kind, radon.kind, radon.lam) == ("radon", "kl", 20.0)
    assert radon.op.codomain_dim == 12 * default_n_bins(spec.grid)
    assert spec.regularizer == TGV2(2.0, 1.0, "nuclear")
    solve_cfg = _build_solver_config(cfg)
    assert (solve_cfg.max_iters, solve_cfg.tol) == (3000, 1e-10)


def test_info_command(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert "coupledrec" in out and "MFI1" in out


# --- configuration read before anything runs ----------------------------------

_CHOICE_CONFIG = {
    "schema": "1",
    "grid.dims": "8 8",
    "channels": "2",
    "channel.1.op": "radon",
    "channel.1.angles": "4",
    "channel.2.op": "identity",
    "channel.2.kind": "l2",
    "channel.2.noise": "gaussian",
    "phantom.kind": "smooth_bump",
    "regularizer.kind": "tgv2",
    "regularizer.coupling": "nuclear",
    "solver.max_iters": "3",
    "rates.rule": "two_norm",
    "rates.mu": "1.0 1.0",
    "rates.levels": "5",
    "rates.seeds": "1",
}

_CHOICES = {
    "channel.2.op": ("mri", "identity, conv, fourier, radon"),
    "channel.2.kind": ("l1", "l2, kl"),
    "channel.2.noise": ("salt", "none, gaussian, poisson"),
    "regularizer.kind": ("tv", "tgv2, wavelet, quadratic"),
    "regularizer.coupling": ("spectral", "frobenius, nuclear"),
    "phantom.kind": ("shepp_logan", "affine_blocks, shared_edges_disc, smooth_bump"),
    "rates.rule": ("discrepancy", "two_norm, mixed_nkl, general"),
}

# the choice keys each command reads
_COMMAND_CHOICES = {
    "solve": [k for k in _CHOICES if k != "rates.rule"],
    "rates": [k for k in _CHOICES if k != "channel.2.noise"],
    "adjoint-check": ["channel.2.op", "channel.2.kind"],
}


def _write_config(path, settings):
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return path


@pytest.mark.parametrize(
    "command, key", [(c, k) for c, keys in _COMMAND_CHOICES.items() for k in keys]
)
def test_bad_choice_is_a_configuration_error_before_anything_runs(
    tmp_path, capsys, monkeypatch, command, key
):
    # channel 1's Radon operator comes first: building it, or the phantom, is already too late
    def must_not_run(*args, **kwargs):
        raise AssertionError("built before the whole config was read")

    for name in ("identity_op", "convolution_op", "masked_fourier_op", "radon_op", "phantom"):
        monkeypatch.setattr(f"coupledrec.cli.{name}", must_not_run)
    value, choices = _CHOICES[key]
    settings = dict(_CHOICE_CONFIG, **{key: value})
    cfg = _write_config(tmp_path / "run.cfg", settings)
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, err = run(capsys, command, str(cfg), "--out-dir", str(out))
    line = list(settings).index(key) + 1
    assert code == 1
    assert err == f"config error: line {line}: {key} = {value!r} is not one of {choices}\n"
    assert stdout == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "setting, message",
    [
        ("rates.gate.data_1 = abc", "rates.gate.data_1 = 'abc' is not a number"),
        ("rates.gate.bregman = 0.9", "rates.gate.bregman = '0.9' is not two numbers"),
        ("rates.gate.bregman = 0.5 1 2", "rates.gate.bregman = '0.5 1 2' is not two numbers"),
        ("rates.gate.bregman = low 1", "rates.gate.bregman = 'low 1' is not a list of numbers"),
    ],
    ids=["data_1", "bregman_one_number", "bregman_three_numbers", "bregman_not_numbers"],
)
def test_bad_rates_gate_is_a_configuration_error_before_the_sweep(
    tmp_path, capsys, monkeypatch, setting, message
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sweep ran before the gates were read")

    monkeypatch.setattr("coupledrec.cli.run_rate_experiment", must_not_run)
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "rates.rule = two_norm\n"
        "rates.mu = 1.0\n"
        "rates.levels = 5\n"
        "regularizer.kind = quadratic\n" + setting + "\n"
    )
    code, out, err = run(capsys, "rates", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert err == f"config error: line 8: {message}\n"
    assert out == ""
    assert not (tmp_path / "rates.csv").exists()


@pytest.mark.parametrize("command", ["solve", "rates"])
@pytest.mark.parametrize(
    "key, value", [("solver.max_iters", "0"), ("solver.tol", "nan"), ("solver.diag_every", "-2")]
)
def test_bad_solver_setting_is_a_configuration_error_at_its_line(
    tmp_path, capsys, command, key, value
):
    settings = {
        "schema": "1",
        "grid.dims": "8 8",
        "channels": "1",
        "regularizer.kind": "quadratic",
        key: value,
        "rates.rule": "two_norm",
        "rates.mu": "1.0",
        "rates.levels": "5",
        "rates.seeds": "1",
    }
    cfg = _write_config(tmp_path / "run.cfg", settings)
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, err = run(capsys, command, str(cfg), "--out-dir", str(out))
    assert code == 1
    assert err.startswith(f"config error: line 5: {key} = ")
    assert stdout == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "rates"])
@pytest.mark.parametrize(
    "kind, key, value",
    [("wavelet", "regularizer.levels", "5"), ("quadratic", "regularizer.weight", "0")],
    ids=["levels", "weight"],
)
def test_bad_regularizer_setting_is_a_configuration_error_at_its_line(
    tmp_path, capsys, command, kind, key, value
):
    # 2^5 does not divide the 16-point axes
    settings = {
        "schema": "1",
        "grid.dims": "16 16",
        "channels": "1",
        "regularizer.kind": kind,
        key: value,
        "solver.max_iters": "3",
        "rates.rule": "two_norm",
        "rates.mu": "1.0",
        "rates.levels": "5",
        "rates.seeds": "1",
    }
    cfg = _write_config(tmp_path / "run.cfg", settings)
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, err = run(capsys, command, str(cfg), "--out-dir", str(out))
    assert code == 1
    assert err.startswith(f"config error: line 5: {key} = ")
    assert stdout == ""
    assert list(out.iterdir()) == []


def test_echo_names_the_keys_a_run_never_read(tmp_path, capsys):
    # a typo for solver.max_iters: the solve runs under the default and says so
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        "grid.dims = 8 8\n"
        "channels = 1\n"
        "regularizer.kind = quadratic\n"
        "solver.max_iter = 3\n"
    )
    code, out, _ = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert "# seed = 0\n# not read: line 5: solver.max_iter\n" in out
    assert out.count("# not read:") == 1
    # info echoes the config but reads none of it
    code, out, _ = run(capsys, "info", str(cfg))
    assert code == 0
    assert "# resolved config" in out and "# not read:" not in out


def test_solve_reads_every_key_of_the_readme_example(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    # the echo precedes the solve, which a shorter budget keeps fast
    monkeypatch.setattr(
        "coupledrec.cli.solve", lambda spec, c: solve(spec, dataclasses.replace(c, max_iters=2))
    )
    code, out, _ = run(capsys, "solve", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert "# resolved config" in out and "# not read:" not in out


@pytest.mark.parametrize("dims", [(16,), (8, 8, 8)], ids=["1d", "3d"])
def test_solve_and_phantom_write_no_previews_off_a_2d_grid(tmp_path, capsys, dims):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = 1\n"
        f"grid.dims = {' '.join(map(str, dims))}\n"
        "channels = 1\n"
        "regularizer.kind = quadratic\n"
        "solver.max_iters = 3\n"
    )
    solved, drawn = tmp_path / "solve", tmp_path / "phantom"
    code, out, _ = run(capsys, "solve", str(cfg), "--out-dir", str(solved))
    assert code == 0
    assert sorted(p.name for p in solved.iterdir()) == ["diagnostics.csv", "recon.mfi"]
    assert read_mfi(solved / "recon.mfi").values.shape == dims + (1,)
    assert f"wrote recon.mfi, diagnostics.csv to {solved}\n" in out
    numbers = [str(d) for d in dims] + ["2"]
    code, out, _ = run(capsys, "phantom", "smooth_bump", *numbers, "--out-dir", str(drawn))
    assert code == 0
    assert [p.name for p in drawn.iterdir()] == ["phantom.mfi"]
    assert read_mfi(drawn / "phantom.mfi").values.shape == dims + (2,)
    assert out == f"wrote phantom.mfi and 0 PGM file(s) to {drawn}\n"


# --- ranges checked at the key's line -----------------------------------------

_RANGE_BASE = {
    "schema": "1",
    "grid.dims": "8 8",
    "channels": "1",
    "regularizer.kind": "quadratic",
    "solver.max_iters": "3",
    "rates.rule": "two_norm",
    "rates.mu": "1.0",
    "rates.levels": "5",
    "rates.seeds": "1",
}

# key (as the README's range table names it), a value out of its range, and
# the settings under which a run reads the key
_RANGE_CASES = [
    ("seed", "-1", {}),
    ("grid.dims", "0 8", {}),
    ("grid.spacing", "1 0", {}),
    ("channels", "0", {}),
    ("channel.i.lam", "0", {}),
    ("channel.i.counts", "-3", {"channel.1.noise": "poisson"}),
    ("channel.i.kernel_sigma", "inf", {"channel.1.op": "conv"}),
    ("channel.i.noise_level", "nan", {"channel.1.noise": "gaussian"}),
    ("channel.i.background", "-1", {"channel.1.kind": "kl"}),
    ("channel.i.background", "nan", {"channel.1.kind": "kl"}),
    ("channel.i.background", "2", {"channel.1.kind": "l2"}),
    ("channel.i.mask_fraction", "1.5", {"channel.1.op": "fourier"}),
    ("channel.i.angles", "0", {"channel.1.op": "radon"}),
    ("regularizer.alpha0", "0", {"regularizer.kind": "tgv2"}),
    ("regularizer.alpha1", "-1", {"regularizer.kind": "tgv2"}),
    ("regularizer.weight", "nan", {}),
    ("regularizer.levels", "4", {"regularizer.kind": "wavelet"}),
    ("solver.max_iters", "0", {}),
    ("solver.tol", "-1", {}),
    ("solver.diag_every", "-1", {}),
    ("rates.mu", "0.5", {}),
    ("rates.mu", "1 2", {}),
    ("rates.mu", "2", {}),
    ("rates.mu", "inf", {"rates.rule": "mixed_nkl"}),
    ("rates.nu", "1.5", {"rates.rule": "general"}),
    ("rates.nu", "0.5 0.5", {"rates.rule": "general"}),
    ("rates.start", "0", {}),
    ("rates.start", "inf", {}),
    ("rates.ratio", "1", {}),
    ("rates.ratio", "0", {}),
    ("rates.levels", "4", {}),
    ("rates.seeds", "0", {}),
    ("rates.gate.data_i", "nan", {}),
    ("rates.gate.data_i", "inf", {}),
    ("rates.gate.bregman", "1.2 0.85", {}),
    ("rates.gate.bregman", "nan 1", {}),
]


@pytest.mark.parametrize(
    "key, value, context", _RANGE_CASES, ids=[f"{k}={v}" for k, v, _ in _RANGE_CASES]
)
def test_out_of_range_value_is_a_configuration_error_at_its_line(
    tmp_path, capsys, monkeypatch, key, value, context
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the whole config was read")

    for name in ("solve", "run_rate_experiment", "phantom"):
        monkeypatch.setattr(f"coupledrec.cli.{name}", must_not_run)
    name = key.replace("channel.i.", "channel.1.").replace("data_i", "data_1")
    settings = dict(_RANGE_BASE, **context)
    settings[name] = value
    cfg = _write_config(tmp_path / "run.cfg", settings)
    out = tmp_path / "out"
    out.mkdir()
    command = "rates" if key.startswith("rates.") else "solve"
    code, stdout, err = run(capsys, command, str(cfg), "--out-dir", str(out))
    assert code == 1
    assert err.startswith(f"config error: line {list(settings).index(name) + 1}: {name} = {value}")
    assert stdout == ""
    assert list(out.iterdir()) == []


def _readme_range_keys():
    """The keys of the README's range table, as it names them."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = readme.split("| key | range |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    # a row's first cell lists its keys, then any note in parentheses
    cells = [row.split("|")[1].split(" (")[0] for row in rows.splitlines()]
    return {key for cell in cells for key in re.findall(r"`([\w.]+)`", cell)}


def test_readme_range_table_lists_every_key_read_under_a_range(tmp_path, capsys, monkeypatch):
    table = _readme_range_keys()
    assert table == {key for key, _, _ in _RANGE_CASES}
    checked = set()
    get = RunConfig._get

    def recording_get(self, key, default, parse, what="", must=None):
        if must is not None:
            checked.add(re.sub(r"\.\d+\b", ".i", re.sub(r"data_\d+", "data_i", key)))
        return get(self, key, default, parse, what, must)

    class AllRead(Exception):
        pass

    def stop(*args, **kwargs):
        raise AllRead

    monkeypatch.setattr(RunConfig, "_get", recording_get)
    monkeypatch.setattr("coupledrec.cli._echo", stop)
    # between them these configs take every branch that reads a key
    channels = {
        "channels": "3",
        "channel.1.op": "conv",
        "channel.1.noise": "gaussian",
        "channel.2.op": "fourier",
        "channel.2.noise": "poisson",
        "channel.3.op": "radon",
        "channel.3.kind": "kl",
        "channel.3.background": "0.5",
    }
    rates = {"rates.rule": "general", "rates.mu": "1 1 1", "rates.nu": "1 1 1"}
    gates = {"rates.gate.data_1": "1", "rates.gate.bregman": "0.5 1.5", "seed": "2"}
    configs = [
        ("solve", {**_RANGE_BASE, **channels, "regularizer.kind": "tgv2", "seed": "2"}),
        ("solve", {**_RANGE_BASE, "regularizer.kind": "wavelet"}),
        ("solve", _RANGE_BASE),
        ("rates", {**_RANGE_BASE, **channels, **rates, **gates}),
    ]
    for command, settings in configs:
        cfg = _write_config(tmp_path / "run.cfg", settings)
        with pytest.raises(AllRead):
            run(capsys, command, str(cfg), "--out-dir", str(tmp_path))
    assert checked <= table


def test_rates_does_not_read_nu_under_a_rule_without_it(tmp_path, capsys):
    cfg = _write_config(tmp_path / "rates.cfg", dict(_RANGE_BASE, **{"rates.nu": "0.5"}))
    code, out, _ = run(capsys, "rates", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert f"# not read: line {len(_RANGE_BASE) + 1}: rates.nu\n" in out


@pytest.mark.parametrize(
    "numbers, message",
    [
        (["0", "8", "1"], "grid dims must be positive integers, got (0, 8)"),
        (["8", "8", "0"], "channels must be >= 1"),
    ],
)
def test_phantom_command_reports_what_is_out_of_range(tmp_path, capsys, numbers, message):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "phantom", "smooth_bump", *numbers, "--out-dir", str(out))
    assert code == 1
    assert (stdout, err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_info_prints_the_schema_version_it_reads(capsys, monkeypatch):
    monkeypatch.setattr("coupledrec.cli.SCHEMA_VERSION", 7)
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert "config schema version 7 (" in out
