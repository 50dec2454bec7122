"""Command-line front end.

Subcommands: phantom, solve, adjoint-check, rates, info. Every command takes
--seed and --out-dir. Exit codes: 0 success, 1 validation failure, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .diffops import adjoint_check, grad_linear_op, sym_grad_linear_op
from .discrepancy import add_gaussian_noise, add_poisson_noise
from .fileio import read_mask, write_mfi, write_pgm
from .forward import (
    ForwardOp,
    convolution_op,
    default_n_bins,
    identity_op,
    masked_fourier_op,
    radon_op,
)
from .grids import Grid, MultiImage
from .problem import ChannelSpec, ProblemSpec, Quadratic, TGV2, WaveletL21
from .rates import (
    RateChannel,
    RateExperiment,
    RateRule,
    geometric_deltas,
    phantom,
    run_rate_experiment,
)
from .solver import SolveConfig, SolverError, block_names, solve


def _gaussian_kernel(sigma: float, ndim: int) -> np.ndarray:
    radius = max(1, int(np.ceil(3 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(x**2) / (2 * sigma**2))
    k1 /= k1.sum()
    k = k1
    for _ in range(ndim - 1):
        k = np.multiply.outer(k, k1)
    return k


def random_fourier_mask(
    dims: tuple[int, ...], fraction: float, seed: int, center_bias: float = 0.08
) -> np.ndarray:
    """Random frequency mask keeping about the given fraction.

    With a positive ``center_bias`` low frequencies are favored (they carry
    most of the image energy), the standard undersampling pattern for
    compressed-sensing tests; ``center_bias <= 0`` draws uniformly.
    """
    if not 0 < fraction <= 1:
        raise ValueError("mask fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    score = rng.random(dims)
    if center_bias > 0:
        freqs = np.meshgrid(*[np.fft.fftfreq(n) for n in dims], indexing="ij")
        radius = np.sqrt(sum(f**2 for f in freqs))
        score = score * (1.0 + (radius / center_bias) ** 2)
    k = max(1, int(round(fraction * score.size)))
    thresh = np.partition(score.ravel(), k - 1)[k - 1]
    mask = score <= thresh
    mask.flat[0] = True  # always keep the mean
    return mask


def _build_grid(cfg: RunConfig) -> Grid:
    dims = cfg.get_ints("grid.dims")
    spacing = cfg.get_floats("grid.spacing", tuple(1.0 for _ in dims))
    return Grid(dims, spacing)


def _build_op(cfg: RunConfig, grid: Grid, i: int, seed: int) -> ForwardOp:
    kind = cfg.get_str(f"channel.{i}.op", "identity")
    if kind == "identity":
        return identity_op(grid)
    if kind == "conv":
        sigma = cfg.get_float(f"channel.{i}.kernel_sigma", 1.0)
        return convolution_op(grid, _gaussian_kernel(sigma, grid.ndim))
    if kind == "fourier":
        if cfg.has(f"channel.{i}.mask"):
            mask = read_mask(cfg.get_str(f"channel.{i}.mask"), grid)
        else:
            frac = cfg.get_float(f"channel.{i}.mask_fraction", 1.0)
            mask = random_fourier_mask(grid.dims, frac, seed + 7919 * i)
        return masked_fourier_op(grid, mask)
    if kind == "radon":
        n_ang = cfg.get_int(f"channel.{i}.angles", 16)
        angles = np.arange(n_ang) * np.pi / n_ang
        return radon_op(grid, angles, default_n_bins(grid))
    raise ConfigError(f"channel.{i}.op = {kind!r} is not a known operator")


def _build_regularizer(cfg: RunConfig):
    kind = cfg.get_str("regularizer.kind", "tgv2")
    if kind == "quadratic":
        return Quadratic(cfg.get_float("regularizer.weight", 1.0))
    if kind == "tgv2":
        return TGV2(
            alpha0=cfg.get_float("regularizer.alpha0", 2.0),
            alpha1=cfg.get_float("regularizer.alpha1", 1.0),
            coupling=cfg.get_str("regularizer.coupling", "frobenius"),
        )
    if kind == "wavelet":
        return WaveletL21(levels=cfg.get_int("regularizer.levels", 2))
    raise ConfigError(f"regularizer.kind = {kind!r} is not known")


def _build_solver_config(cfg: RunConfig) -> SolveConfig:
    if cfg.has("solver.step_policy"):
        raise ConfigError(
            "solver.step_policy was removed: the steps are set per block of K from its "
            "block norms",
            cfg.lines.get("solver.step_policy"),
        )
    return SolveConfig(
        max_iters=cfg.get_int("solver.max_iters", 2000),
        tol=cfg.get_float("solver.tol", 1e-10),
        warm_start=cfg.get_bool("solver.warm_start", False),
        diag_every=cfg.get_int("solver.diag_every", 1),
    )


def _make_channel_data(cfg: RunConfig, op: ForwardOp, truth: np.ndarray, i: int, seed: int):
    clean = op.apply(truth)
    noise = cfg.get_str(f"channel.{i}.noise", "none")
    if noise == "none":
        return clean, 0.0
    if noise == "gaussian":
        level = cfg.get_float(f"channel.{i}.noise_level", 0.05)
        nz = add_gaussian_noise(clean, level * float(np.linalg.norm(clean)), seed + 104729 * i)
        return nz.data, nz.delta
    if noise == "poisson":
        counts = cfg.get_float(f"channel.{i}.counts", 1000.0)
        nz = add_poisson_noise(np.maximum(clean, 0.0), counts, seed + 104729 * i)
        return nz.data, nz.delta
    raise ConfigError(f"channel.{i}.noise = {noise!r} is not known")


def _build_problem(cfg: RunConfig, seed: int):
    grid = _build_grid(cfg)
    n = cfg.get_int("channels")
    if n < 1:
        raise ConfigError("channels must be >= 1")
    truth = phantom(cfg.get_str("phantom.kind", "smooth_bump"), grid, n)
    channels = []
    for i in range(1, n + 1):
        op = _build_op(cfg, grid, i, seed)
        data, _ = _make_channel_data(cfg, op, truth.channel(i - 1), i, seed)
        kind = cfg.get_str(f"channel.{i}.kind", "l2")
        if kind == "kl":
            data = np.maximum(data, 0.0)
        channels.append(
            ChannelSpec(
                op=op,
                data=data,
                lam=cfg.get_float(f"channel.{i}.lam", 1.0),
                kind=kind,
                background=(
                    np.full(op.codomain_dim, cfg.get_float(f"channel.{i}.background"))
                    if cfg.has(f"channel.{i}.background")
                    else None
                ),
            )
        )
    spec = ProblemSpec(grid=grid, channels=tuple(channels), regularizer=_build_regularizer(cfg))
    return spec, truth


def _echo(cfg: RunConfig, seed: int, out):
    print("# resolved config", file=out)
    for line in cfg.dump().splitlines():
        print(f"#   {line}", file=out)
    print(f"# seed = {seed}", file=out)


def cmd_phantom(args) -> int:
    *dims, n = args.numbers
    if n < 1 or any(d < 1 for d in dims):
        print("error: dims and channel count must be positive", file=sys.stderr)
        return 1
    grid = Grid(tuple(dims))
    img = phantom(args.kind, grid, n)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_mfi(out / "phantom.mfi", img)
    for i in range(n):
        write_pgm(out / f"phantom_ch{i + 1}.pgm", img.channel(i).reshape(grid.dims))
    print(f"wrote phantom.mfi and {n} PGM file(s) to {out}")
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
    solve_cfg = _build_solver_config(cfg)
    spec, truth = _build_problem(cfg, seed)
    _echo(cfg, seed, sys.stdout)
    result = solve(spec, solve_cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_mfi(out / "recon.mfi", result.u)
    for i in range(result.u.channels):
        write_pgm(out / f"recon_ch{i + 1}.pgm", result.u.channel(i).reshape(spec.grid.dims))
    diag = result.diagnostics
    with open(out / "diagnostics.csv", "w", newline="") as fh:
        fh.write("iteration,energy,rel_change\n")
        for it, en in zip(diag.iterations, diag.energy):
            fh.write(f"{it},{en:.12g},{diag.rel_change[it - 1]:.12g}\n")
    energy = f", energy = {diag.energy[-1]:.12g}" if diag.energy else ""
    steps = [
        " ".join(f"{name}:{step:.6g}" for name, step in zip(names, values))
        for names, values in zip(block_names(spec), (result.sigma, result.tau))
    ]
    print(
        f"iterations = {result.state.iteration}{energy}, "
        f"converged = {result.converged}, sigma = {steps[0]}, tau = {steps[1]}"
    )
    closed = _closed_form(spec)
    if closed is not None:
        rel = float(
            np.linalg.norm(result.u.values - closed) / max(np.linalg.norm(closed), 1e-300)
        )
        print(f"closed-form relative error = {rel:.3e}")
    print(f"wrote recon.mfi, PGM channels, diagnostics.csv to {out}")
    return 0


def _closed_form(spec: ProblemSpec):
    """Exact minimizer for quadratic R + identity ops + squared-norm data.

    Channelwise: min lam*||u - f||^2 + (w/2)||u||^2 has u = 2*lam*f/(2*lam + w).
    """
    if not isinstance(spec.regularizer, Quadratic):
        return None
    if any(c.kind != "l2" or c.op.kind != "identity" for c in spec.channels):
        return None
    w = spec.regularizer.weight
    cols = [
        (2 * c.lam / (2 * c.lam + w)) * c.data for c in spec.channels
    ]
    return np.stack(cols, axis=-1).reshape(spec.grid.dims + (len(cols),))


def cmd_adjoint_check(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
        grid = _build_grid(cfg)
        n = cfg.get_int("channels")
        ops = {f"channel.{i}": _build_op(cfg, grid, i, seed).as_linear_op() for i in range(1, n + 1)}
    else:
        seed = args.seed if args.seed is not None else 0
        grid = Grid((16, 16))
        ops = {
            "identity": identity_op(grid).as_linear_op(),
            "gradient": grad_linear_op(grid, 1),
            "sym_gradient": sym_grad_linear_op(grid, 1),
            "convolution": convolution_op(grid, _gaussian_kernel(1.0, 2)).as_linear_op(),
            "fourier_full": masked_fourier_op(grid, np.ones(grid.dims, bool)).as_linear_op(),
            "fourier_masked": masked_fourier_op(
                grid, random_fourier_mask(grid.dims, 0.25, seed)
            ).as_linear_op(),
            "radon": radon_op(grid, np.arange(8) * np.pi / 8, default_n_bins(grid)).as_linear_op(),
        }
    worst = 0.0
    for name, op in ops.items():
        err = adjoint_check(op, trials=10, seed=seed)
        worst = max(worst, err)
        status = "ok" if err <= 1e-8 else "FAIL"
        print(f"{name:>16s}  max rel error {err:.3e}  {status}")
    if worst > 1e-8:
        print(f"FAIL  worst adjoint error {worst:.3e} exceeds 1e-8", file=sys.stderr)
        return 1
    print(f"PASS  worst adjoint error {worst:.3e}")
    return 0


def cmd_rates(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
    _echo(cfg, seed, sys.stdout)
    grid = _build_grid(cfg)
    n = cfg.get_int("channels")
    truth = phantom(cfg.get_str("phantom.kind", "smooth_bump"), grid, n)
    kinds = [cfg.get_str(f"channel.{i}.kind", "l2") for i in range(1, n + 1)]
    rule = RateRule(
        kind=cfg.get_str("rates.rule"),
        mu=cfg.get_floats("rates.mu"),
        nu=cfg.get_floats("rates.nu") if cfg.has("rates.nu") else None,
    )
    deltas = geometric_deltas(
        start=cfg.get_float("rates.start", 0.1),
        ratio=cfg.get_float("rates.ratio", 0.5),
        levels=cfg.get_int("rates.levels", 8),
    )
    n_seeds = cfg.get_int("rates.seeds", 5)
    exp = RateExperiment(
        grid=grid,
        u_true=truth,
        channels=[
            RateChannel(op=_build_op(cfg, grid, i, seed), kind=kinds[i - 1])
            for i in range(1, n + 1)
        ],
        rule=rule,
        deltas=deltas,
        seeds=tuple(seed + k for k in range(n_seeds)),
        regularizer=_build_regularizer(cfg),
        solve_cfg=_build_solver_config(cfg),
    )
    table = run_rate_experiment(exp)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rates.csv").write_text(table.to_csv())
    print(f"wrote rates.csv to {out}")
    unconverged = sum(not r.converged for r in table.rows)
    print(f"unconverged solves: {unconverged} of {len(table.rows)}")
    if unconverged:
        print("WARN  slopes rest on solves that stopped at solver.max_iters before converging")
    ok = True
    for i in range(n):
        slope = table.data_slopes[i]
        print(f"data slope channel {i + 1}: {slope:.3f}")
        key = f"rates.gate.data_{i + 1}"
        if cfg.has(key):
            gate = cfg.get_float(key)
            passed = slope >= gate
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'}  data slope channel {i + 1} >= {gate}")
    if table.bregman_slope is not None:
        print(f"bregman slope: {table.bregman_slope:.3f}")
        if cfg.has("rates.gate.bregman"):
            lo, hi = cfg.get_floats("rates.gate.bregman")
            passed = lo <= table.bregman_slope <= hi
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'}  bregman slope in [{lo}, {hi}]")
    return 0 if ok else 1


def cmd_info(args) -> int:
    print(f"coupledrec {__version__}")
    print("config schema version 1 (flat key = value, dotted sections, '#' comments)")
    print("image format MFI1: magic 'MFI1', u32 d, u32 dims[d], u32 N, float64 LE site-major")
    print("subcommands: phantom, solve, adjoint-check, rates, info")
    if args.config:
        cfg = load_config(args.config)
        _echo(cfg, args.seed if args.seed is not None else cfg.get_int("seed", 0), sys.stdout)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-dir", default=".", help="directory for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coupledrec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="write a synthetic test image")
    p.add_argument("kind", choices=("affine_blocks", "shared_edges_disc", "smooth_bump"))
    p.add_argument("numbers", type=int, nargs="+", metavar="DIM... N")
    _add_common(p)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("solve", help="solve the problem described by a config file")
    p.add_argument("config")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("adjoint-check", help="verify operator/adjoint pairs")
    p.add_argument("config", nargs="?", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_adjoint_check)

    p = sub.add_parser("rates", help="run a convergence-rate sweep")
    p.add_argument("config")
    _add_common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("info", help="print version and format summary")
    p.add_argument("config", nargs="?", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (SolverError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
