"""Command-line front end.

Subcommands: phantom, solve, adjoint-check, rates, info. Every command takes
--seed and --out-dir. Exit codes: 0 success, 1 validation failure, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .config import SCHEMA_VERSION, ConfigError, RunConfig, load_config
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
from .grids import MAX_NDIM, Grid, MultiImage, l2_norm
from .problem import COUPLINGS, DATA_KINDS, ChannelSpec, ProblemSpec, Quadratic, TGV2, WaveletL21
from .rates import (
    PHANTOM_KINDS,
    RULE_KINDS,
    RateChannel,
    RateExperiment,
    RateRule,
    geometric_deltas,
    phantom,
    run_rate_experiment,
)
from .solver import SolveConfig, SolverError, block_names, primal_energy, solve


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


# a ``must`` rule of the typed config accessors
_POSITIVE = (lambda x: 0 < x < np.inf, "be positive and finite")


def _read_op(cfg: RunConfig, grid: Grid, i: int, seed: int) -> Callable[[], ForwardOp]:
    """Read channel i's operator keys and mask; return the function that builds the operator."""
    kind = cfg.get_choice(f"channel.{i}.op", ("identity", "conv", "fourier", "radon"), "identity")
    if kind == "identity":
        return lambda: identity_op(grid)
    if kind == "conv":
        sigma = cfg.get_float(f"channel.{i}.kernel_sigma", 1.0, must=_POSITIVE)
        return lambda: convolution_op(grid, _gaussian_kernel(sigma, grid.ndim))
    if kind == "fourier":
        if cfg.has(f"channel.{i}.mask"):
            mask = read_mask(cfg.get_str(f"channel.{i}.mask"), grid)
        else:
            in_range = (lambda f: 0 < f <= 1, "lie in (0, 1]")
            frac = cfg.get_float(f"channel.{i}.mask_fraction", 1.0, must=in_range)
            mask = random_fourier_mask(grid.dims, frac, seed + 7919 * i)
        return lambda: masked_fourier_op(grid, mask)
    n_ang = cfg.get_int(f"channel.{i}.angles", 16, must=(lambda n: n >= 1, "be >= 1"))
    return lambda: radon_op(grid, np.arange(n_ang) * np.pi / n_ang, default_n_bins(grid))


def _build_regularizer(cfg: RunConfig, grid: Grid):
    kind = cfg.get_choice("regularizer.kind", ("tgv2", "wavelet", "quadratic"), "tgv2")
    if kind == "quadratic":
        return Quadratic(cfg.get_float("regularizer.weight", 1.0, must=_POSITIVE))
    if kind == "tgv2":
        return TGV2(
            alpha0=cfg.get_float("regularizer.alpha0", 2.0, must=_POSITIVE),
            alpha1=cfg.get_float("regularizer.alpha1", 1.0, must=_POSITIVE),
            coupling=cfg.get_choice("regularizer.coupling", COUPLINGS, "frobenius"),
        )
    # no axis has 2^64 sites, and the bound spares building 2^k of a huge k
    divides = lambda k: 1 <= k < 64 and all(n % 2**k == 0 for n in grid.dims)
    rule = "be >= 1, with 2^levels dividing every axis of grid.dims"
    return WaveletL21(levels=cfg.get_int("regularizer.levels", 2, must=(divides, rule)))


# Keys that configured removed features, each with why it went.
_REMOVED_KEYS = {
    "solver.step_policy": "the steps are set per block of K from its block norms",
    "solver.warm_start": "every solve starts from zero",
}


def _build_solver_config(cfg: RunConfig) -> SolveConfig:
    for key, reason in _REMOVED_KEYS.items():
        if cfg.has(key):
            raise ConfigError(f"{key} was removed: {reason}", cfg.lines.get(key))
    values = {
        "max_iters": cfg.get_int("solver.max_iters", 2000),
        "tol": cfg.get_float("solver.tol", 1e-10),
        "diag_every": cfg.get_int("solver.diag_every", 1),
    }
    # each key alone against SolveConfig's own ranges, so a bad one is named at its line
    for name, value in values.items():
        try:
            SolveConfig(**{name: value})
        except ValueError as e:
            key = f"solver.{name}"
            raise ConfigError(f"{key} = {value}: {e}", cfg.lines.get(key)) from None
    return SolveConfig(**values)


def _read_channel_data(cfg: RunConfig, i: int, make_op: Callable, kind: str, seed: int) -> Callable:
    """Read channel i's noise, weight and background; return the function that
    builds the channel from its true image."""
    noise = cfg.get_choice(f"channel.{i}.noise", ("none", "gaussian", "poisson"), "none")
    if noise == "gaussian":
        in_range = (lambda x: 0 <= x < np.inf, "be finite and >= 0")
        level = cfg.get_float(f"channel.{i}.noise_level", 0.05, must=in_range)
    elif noise == "poisson":
        counts = cfg.get_float(f"channel.{i}.counts", 1000.0, must=_POSITIVE)
    lam = cfg.get_float(f"channel.{i}.lam", 1.0, must=_POSITIVE)
    key = f"channel.{i}.background"
    on_kl = (lambda c: kind == "kl" and 0 <= c < np.inf, "be finite and >= 0, on KL channels only")
    background = cfg.get_float(key, must=on_kl) if cfg.has(key) else None
    seed += 104729 * i

    def build(truth: np.ndarray) -> ChannelSpec:
        op = make_op()
        data = op.apply(truth)
        if noise == "gaussian":
            data = add_gaussian_noise(data, level * l2_norm(data), seed).data
        elif noise == "poisson":
            data = add_poisson_noise(np.maximum(data, 0.0), counts, seed).data
        if kind == "kl":
            data = np.maximum(data, 0.0)
        bg = None if background is None else np.full(op.codomain_dim, background)
        return ChannelSpec(op=op, data=data, lam=lam, kind=kind, background=bg)

    return build


def _read_channels(cfg: RunConfig, seed: int) -> tuple[Grid, list[tuple[Callable, str]]]:
    """The grid, and each channel's operator builder and data-term kind."""
    shape = (lambda d: 0 < len(d) <= MAX_NDIM and min(d) >= 1, f"be 1 to {MAX_NDIM} integers >= 1")
    dims = cfg.get_ints("grid.dims", must=shape)
    in_range = (
        lambda s: len(s) == len(dims) and all(0 < h < np.inf for h in s),
        "be positive and finite, one number per axis",
    )
    grid = Grid(dims, cfg.get_floats("grid.spacing", (1.0,) * len(dims), must=in_range))
    n = cfg.get_int("channels", must=(lambda n: n >= 1, "be >= 1"))
    return grid, [
        (_read_op(cfg, grid, i, seed), cfg.get_choice(f"channel.{i}.kind", DATA_KINDS, "l2"))
        for i in range(1, n + 1)
    ]


def _build_problem(cfg: RunConfig, seed: int):
    """Read every key of the problem, then build it; return it and its true image."""
    grid, ops = _read_channels(cfg, seed)
    truth_kind = cfg.get_choice("phantom.kind", PHANTOM_KINDS, "smooth_bump")
    builds = [_read_channel_data(cfg, i, *op, seed) for i, op in enumerate(ops, 1)]
    regularizer = _build_regularizer(cfg, grid)
    truth = phantom(truth_kind, grid, len(ops))
    channels = tuple(build(truth.channel(i)) for i, build in enumerate(builds))
    return ProblemSpec(grid=grid, channels=channels, regularizer=regularizer), truth


def _config(args) -> tuple[RunConfig | None, int]:
    """The config named on the command line, if any, and the seed: ``--seed``,
    else the config's, else 0."""
    cfg = load_config(args.config) if args.config else None
    if args.seed is not None or cfg is None:
        return cfg, args.seed or 0
    return cfg, cfg.get_int("seed", 0, must=(lambda s: s >= 0, "be >= 0"))


def _echo(cfg: RunConfig, seed: int, unread: bool = True):
    """Print the resolved config and the seed, then, if ``unread``, each key
    that no accessor has read."""
    print("# resolved config")
    for line in cfg.dump().splitlines():
        print(f"#   {line}")
    print(f"# seed = {seed}")
    for key in sorted(cfg.values.keys() - cfg.read, key=cfg.lines.get) if unread else ():
        print(f"# not read: line {cfg.lines[key]}: {key}")


def _write_image(out: Path, stem: str, img: MultiImage) -> int:
    """Write ``stem.mfi`` to ``out`` and, on a 2-D grid, a PGM preview of each
    channel; return the number of previews written."""
    out.mkdir(parents=True, exist_ok=True)
    write_mfi(out / f"{stem}.mfi", img)
    if img.grid.ndim != 2:
        return 0
    for i in range(img.channels):
        write_pgm(out / f"{stem}_ch{i + 1}.pgm", img.channel(i))
    return img.channels


def cmd_phantom(args) -> int:
    *dims, n = args.numbers
    out = Path(args.out_dir)
    previews = _write_image(out, "phantom", phantom(args.kind, Grid(tuple(dims)), n))
    print(f"wrote phantom.mfi and {previews} PGM file(s) to {out}")
    return 0


def cmd_solve(args) -> int:
    cfg, seed = _config(args)
    solve_cfg = _build_solver_config(cfg)
    spec, _ = _build_problem(cfg, seed)
    _echo(cfg, seed)
    result = solve(spec, solve_cfg)
    out = Path(args.out_dir)
    previews = "PGM channels, " if _write_image(out, "recon", result.u) else ""
    diag = result.diagnostics
    with open(out / "diagnostics.csv", "w", newline="") as fh:
        fh.write("iteration,energy,rel_change\n")
        for it, en in zip(diag.iterations, diag.energy):
            fh.write(f"{it},{en:.12g},{diag.rel_change[it - 1]:.12g}\n")
    steps = [
        " ".join(f"{name}:{step:.6g}" for name, step in zip(names, values))
        for names, values in zip(block_names(spec), (result.state.sigma, result.state.tau))
    ]
    print(
        f"iterations = {result.state.iteration}, "
        f"energy = {primal_energy(spec, result.u, result.v):.12g}, "
        f"converged = {result.converged}, sigma = {steps[0]}, tau = {steps[1]}"
    )
    closed = _closed_form(spec)
    if closed is not None:
        rel = l2_norm(result.u.values - closed) / max(l2_norm(closed), 1e-300)
        print(f"closed-form relative error = {rel:.3e}")
    print(f"wrote recon.mfi, {previews}diagnostics.csv to {out}")
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
    cfg, seed = _config(args)
    if cfg is not None:
        grid, channels = _read_channels(cfg, seed)
        ops = {f"channel.{i}": make().as_linear_op() for i, (make, _) in enumerate(channels, 1)}
        ops["gradient"] = grad_linear_op(grid, len(channels))
        ops["sym_gradient"] = sym_grad_linear_op(grid, len(channels))
    else:
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
    cfg, seed = _config(args)
    grid, channels = _read_channels(cfg, seed)
    n = len(channels)
    truth_kind = cfg.get_choice("phantom.kind", PHANTOM_KINDS, "smooth_bump")
    rule_kind = cfg.get_choice("rates.rule", RULE_KINDS)
    two_norm = rule_kind == "two_norm"  # which needs a 1 among mu
    in_range = (
        lambda m: len(m) == n and all(1 <= x < np.inf for x in m) and (1 in m or not two_norm),
        "be finite and >= 1, one per channel" + (", the least of them 1" if two_norm else ""),
    )
    mu = cfg.get_floats("rates.mu", must=in_range)
    in_range = (
        lambda v: len(v) == n and all(0 < x <= 1 for x in v),
        "lie in (0, 1], one per channel",
    )
    nu = cfg.get_floats("rates.nu", must=in_range) if rule_kind == "general" else None
    deltas = geometric_deltas(
        start=cfg.get_float("rates.start", 0.1, must=_POSITIVE),
        ratio=cfg.get_float("rates.ratio", 0.5, must=(lambda r: 0 < r < 1, "lie in (0, 1)")),
        levels=cfg.get_int("rates.levels", 8, must=(lambda k: k >= 5, "be >= 5")),
    )
    n_seeds = cfg.get_int("rates.seeds", 5, must=(lambda k: k >= 1, "be >= 1: at least one seed"))
    regularizer, solve_cfg = _build_regularizer(cfg, grid), _build_solver_config(cfg)
    finite = (np.isfinite, "be finite")
    keys = [f"rates.gate.data_{i}" for i in range(1, n + 1)]
    gates = [cfg.get_float(key, must=finite) if cfg.has(key) else None for key in keys]
    key = "rates.gate.bregman"
    # a count other than two passes here, to be reported in its own words below
    in_range = (lambda w: np.isfinite(w).all() and list(w) == sorted(w), "be finite, with lo <= hi")
    window = cfg.get_floats(key, must=in_range) if cfg.has(key) else None
    if window is not None and len(window) != 2:
        raise ConfigError(f"{key} = {cfg.values[key]!r} is not two numbers", cfg.lines.get(key))
    exp = RateExperiment(
        grid=grid,
        u_true=phantom(truth_kind, grid, n),
        channels=[RateChannel(op=make(), kind=kind) for make, kind in channels],
        rule=RateRule(rule_kind, mu, nu),
        deltas=deltas,
        seeds=tuple(seed + k for k in range(n_seeds)),
        regularizer=regularizer,
        solve_cfg=solve_cfg,
    )
    _echo(cfg, seed)
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
    for i, (slope, gate) in enumerate(zip(table.data_slopes, gates), 1):
        print(f"data slope channel {i}: {slope:.3f}")
        if gate is not None:
            passed = slope >= gate
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'}  data slope channel {i} >= {gate}")
    if table.bregman_slope is not None:
        print(f"bregman slope: {table.bregman_slope:.3f}")
        if window is not None:
            lo, hi = window
            passed = lo <= table.bregman_slope <= hi
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'}  bregman slope in [{lo}, {hi}]")
    return 0 if ok else 1


def cmd_info(args) -> int:
    print(f"coupledrec {__version__}")
    schema = f"config schema version {SCHEMA_VERSION}"
    print(f"{schema} (flat key = value, dotted sections, '#' comments)")
    print("image format MFI1: magic 'MFI1', u32 d, u32 dims[d], u32 N, float64 LE site-major")
    print("subcommands: phantom, solve, adjoint-check, rates, info")
    cfg, seed = _config(args)
    if cfg is not None:
        _echo(cfg, seed, unread=False)
    return 0


# name, function, whether the config file is optional, help
_CONFIG_COMMANDS = (
    ("solve", cmd_solve, False, "solve the problem described by a config file"),
    ("adjoint-check", cmd_adjoint_check, True, "verify operator/adjoint pairs"),
    ("rates", cmd_rates, False, "run a convergence-rate sweep"),
    ("info", cmd_info, True, "print version and format summary"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coupledrec")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("phantom", help="write a synthetic test image")
    p.add_argument("kind", choices=PHANTOM_KINDS)
    p.add_argument("numbers", type=int, nargs="+", metavar="DIM... N")
    p.set_defaults(func=cmd_phantom)
    for name, func, optional, text in _CONFIG_COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("config", nargs="?" if optional else None, default=None)
        p.set_defaults(func=func)
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=".", help="directory for output files")
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
