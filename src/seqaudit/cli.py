"""Command-line front end.

Subcommands: simulate, test, mi-scan, overshoot, analytic, oracle, reproduce.
Configuration is a flat INI file with one section per concern ([experiment],
[model], [device], plus command-specific sections).  Each command returns its
outputs and the values it ran with; ``main`` alone makes the output
directory, reads the clock and writes the manifest next to the outputs.

Exit codes: 0 success, 2 configuration error, 3 records-schema error,
4 statistical precondition or regime failure.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .analytic import (
    ContinuousLLRParams,
    RegimeError,
    decision_time_density,
    error_probs_continuous,
    mean_decision_times,
    mutual_info_continuous,
    mutual_info_discretized,
)
from .core import (
    EmptyCellError,
    ErrorSpec,
    SchemaError,
    Thresholds,
    ValidationError,
    read_records_csv,
    thresholds_from_alphas,
    write_records_csv,
    write_table,
)
from .models import DriftDiffusionModel, GaussianIIDModel, MarkovGaussianModel
from .oracle import LatticeBernoulliModel, enumerate_exact_law
from .overshoot import condition51_flatness, overshoot_profile
from .simulate import ExperimentConfig, run_experiment, write_metadata
from .stats import (
    conditional_mi_plugin,
    optimality_test_known_h,
    optimality_test_unknown_h,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_STATS = 4


class ConfigError(ValidationError):
    """Bad or missing configuration; message names the offending key."""


MODEL_CLASSES = {
    "gaussian_iid": GaussianIIDModel,
    "markov_gaussian": MarkovGaussianModel,
    "drift_diffusion": DriftDiffusionModel,
    "lattice": LatticeBernoulliModel,
}
CASTS = {"float": float, "int": int, "bool": bool}
# kind -> {field: cast}, the cast read from the dataclass annotation
MODEL_FIELDS = {
    kind: {f.name: CASTS[f.type] for f in fields(cls)} for kind, cls in MODEL_CLASSES.items()
}
# the [experiment] keys: ExperimentConfig's scalar fields, required where they have no default
EXPERIMENT_FIELDS = {f.name: f for f in fields(ExperimentConfig) if f.type in CASTS}


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return parser


def _get(section, key, cast=float, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing key '{key}' in section [{section.name}]")
        return default
    raw = section[key]
    try:
        return section.getboolean(key) if cast is bool else cast(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in [{section.name}]: {exc}") from exc


def _check_keys(cfg: configparser.ConfigParser, kind: str) -> None:
    """Every section, and every key a section sets itself (not from [DEFAULT]), is read."""
    known = {
        "experiment": set(EXPERIMENT_FIELDS),
        "model": {"kind", *MODEL_FIELDS[kind]},
        "device": {*MODEL_FIELDS[kind], "l1", "l2", "dt"},
        "scan": {"parameter", "values", "start", "stop", "points"},
        "overshoot": {"estimator", "mass_threshold"},
    }
    for name in cfg.sections():
        if name not in known:
            raise ConfigError(f"unknown section [{name}]; expected one of {sorted(known)}")
        unknown = sorted(set(cfg[name]) - set(cfg.defaults()) - known[name])
        if unknown:
            raise ConfigError(f"unknown key(s) {unknown} in section [{name}]")


def build_model(cfg: configparser.ConfigParser):
    if "model" not in cfg:
        raise ConfigError("missing [model] section")
    section = cfg["model"]
    kind = section.get("kind")
    if kind not in MODEL_FIELDS:
        raise ConfigError(
            f"unknown model kind {kind!r}; expected one of {sorted(MODEL_FIELDS)}"
        )
    _check_keys(cfg, kind)
    values = {
        name: _get(section, name, cast=cast, required=True)
        for name, cast in MODEL_FIELDS[kind].items()
    }
    return kind, MODEL_CLASSES[kind](**values)


def build_device(cfg: configparser.ConfigParser, kind: str, model):
    """World model and thresholds from [device].

    The world model is None (matched) when no belief is overridden.  A
    lattice device without l1/l2 takes its on-lattice thresholds; every
    other device needs both.
    """
    wm = th = None
    if "device" in cfg:
        section = cfg["device"]
        overrides = {
            name: _get(section, name, cast=cast)
            for name, cast in MODEL_FIELDS[kind].items()
            if name in section
        }
        wm = replace(model, **overrides) if overrides else None
        l1 = _get(section, "l1", cast=float)
        l2 = _get(section, "l2", cast=float)
        if l1 is not None or l2 is not None:
            if l1 is None or l2 is None:
                raise ConfigError("thresholds need both l1 and l2")
            th = Thresholds(l1, l2)
    if th is None:
        if kind != "lattice":
            raise ConfigError("missing [device] l1/l2 thresholds")
        th = model.thresholds
    return wm, th


def build_experiment(cfg: configparser.ConfigParser, seed_override=None) -> ExperimentConfig:
    kind, model = build_model(cfg)
    wm, th = build_device(cfg, kind, model)
    if "experiment" not in cfg:
        raise ConfigError("missing [experiment] section")
    section = cfg["experiment"]
    values = {} if seed_override is None else {"seed": seed_override}
    values |= {
        name: _get(section, name, cast=CASTS[f.type], required=True)
        for name, f in EXPERIMENT_FIELDS.items()
        if name not in values and (name in section or f.default is MISSING)
    }
    dt = _get(cfg["device"], "dt", cast=float) if "device" in cfg else None
    return ExperimentConfig(model=model, thresholds=th, world_model=wm, dt=dt, **values)


def write_manifest(out_dir: Path, command: str, payload: Dict, outputs: List[str], t0: float):
    manifest = {
        "command": command,
        "toolkit_version": __version__,
        "outputs": sorted(outputs),
        "wall_clock_seconds": round(time.time() - t0, 3),
        **payload,
    }
    path = out_dir / f"manifest_{command.replace('-', '_')}.json"
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return str(path)


def _config_payload(cfg: configparser.ConfigParser, seed) -> Dict:
    return {
        "config": {name: dict(cfg[name]) for name in cfg.sections()},
        "seed": seed,
    }


def cmd_simulate(args, out_dir: Path):
    cfg = load_config(args.config)
    exp = build_experiment(cfg, seed_override=args.seed)
    result = run_experiment(exp, threads=args.threads)
    records_path = out_dir / "records.csv"
    meta_path = out_dir / "records.meta"
    write_records_csv(records_path, result.records)
    write_metadata(meta_path, result)
    print(
        f"simulated {exp.trials} trials: {len(result.records)} decided, "
        f"{result.truncated_count} truncated"
    )
    print(f"alpha1_hat={result.alpha1_hat:.6g} alpha2_hat={result.alpha2_hat:.6g}")
    print(f"records -> {records_path}")
    return [str(records_path), str(meta_path)], _config_payload(cfg, exp.seed)


def _print_report(label: str, rep) -> None:
    print(
        f"{label}: method={rep.method} statistic={rep.statistic:.6g} "
        f"p_value={rep.p_value:.6g} n1={rep.n1} n2={rep.n2}"
    )
    for level in (0.01, 0.05):
        verdict = "reject optimality" if rep.p_value < level else "no rejection"
        print(f"  at level {level}: {verdict}")


def cmd_test(args, out_dir: Path):
    batch = read_records_csv(args.records, time_kind=args.time_type)
    if args.mode == "known-h":
        rep1, rep2 = optimality_test_known_h(batch)
        _print_report("decision-1 cells (H=1 vs H=2)", rep1)
        _print_report("decision-2 cells (H=1 vs H=2)", rep2)
        reports = [("d1_cells", rep1), ("d2_cells", rep2)]
    else:
        print(
            "note: the unknown-hypothesis test assumes involution-symmetric "
            "observations and symmetric error constraints (l1 = -l2); this is "
            "a caller assertion that cannot be checked from records alone"
        )
        rep = optimality_test_unknown_h(batch)
        _print_report("decision-1 vs decision-2 times", rep)
        reports = [("d1_vs_d2", rep)]
    path = write_table(
        out_dir / "test_report.csv",
        "comparison,method,statistic,p_value,n1,n2",
        [(name, r.method, r.statistic, r.p_value, r.n1, r.n2) for name, r in reports],
    )
    return [path], {
        "records": str(args.records), "mode": args.mode, "time_kind": batch.time_kind, "seed": None
    }


def _clamped_error_spec(alpha1: float, alpha2: float, n: int) -> ErrorSpec:
    floor = 0.5 / max(n, 2)
    clamp = lambda a: min(max(a if math.isfinite(a) else floor, floor), 0.4999)
    return ErrorSpec(clamp(alpha1), clamp(alpha2))


class ScanRow(NamedTuple):
    """One grid point of a belief scan; the fields are the columns of ``mi_scan.csv``."""

    value: float
    mi_bits: float
    mean_time: float
    mean_time_ref: float
    time_ratio_minus_one: float
    alpha1_hat: float
    alpha2_hat: float
    truncated_fraction: float


def mi_scan_rows(
    base: ExperimentConfig, parameter: str, values: Sequence[float], threads: int = 1
) -> List[ScanRow]:
    """One simulate-and-estimate cycle per device-belief grid point.

    The reference mean time comes from a matched device whose thresholds
    are rebuilt from the error probabilities the scanned device actually
    achieved, mirroring the divergence-to-optimality diagnostic.  Every run
    reuses the master seed (common random numbers), so differences across
    grid points and against the reference reflect the device change rather
    than fresh sampling noise.
    """
    rows = []
    wm_base = base.device
    for i, value in enumerate(values):
        wm = replace(wm_base, **{parameter: float(value)})
        cfg = replace(base, world_model=wm)
        res = run_experiment(cfg, threads=threads)
        est = conditional_mi_plugin(res.records)
        mean_time = float(res.records.time.mean())
        spec = _clamped_error_spec(res.alpha1_hat, res.alpha2_hat, len(res.records))
        ref_cfg = replace(
            base,
            world_model=None,
            thresholds=thresholds_from_alphas(spec),
        )
        ref = run_experiment(ref_cfg, threads=threads)
        mean_time_ref = float(ref.records.time.mean())
        rows.append(
            ScanRow(
                value=float(value),
                mi_bits=est.value_bits,
                mean_time=mean_time,
                mean_time_ref=mean_time_ref,
                time_ratio_minus_one=mean_time / mean_time_ref - 1.0,
                alpha1_hat=res.alpha1_hat,
                alpha2_hat=res.alpha2_hat,
                truncated_fraction=res.truncated_count / cfg.trials,
            )
        )
    return rows


def mi_scan_table(column: str, rows: Sequence[ScanRow]):
    """The scan's CSV header and rows, the scanned value under ``column``."""
    return ",".join((column, *ScanRow._fields[1:])), rows


def cmd_mi_scan(args, out_dir: Path):
    cfg = load_config(args.config)
    base = build_experiment(cfg, seed_override=args.seed)
    if "scan" not in cfg:
        raise ConfigError("missing [scan] section")
    section = cfg["scan"]
    parameter = section.get("parameter")
    kind = cfg["model"]["kind"]
    if parameter not in MODEL_FIELDS[kind]:
        raise ConfigError(f"scan parameter {parameter!r} is not a field of {kind}")
    if "values" in section:
        values = _get(section, "values", cast=lambda raw: [float(v) for v in raw.split(",")])
    else:
        start = _get(section, "start", required=True)
        stop = _get(section, "stop", required=True)
        points = _get(section, "points", cast=int, required=True)
        if points < 1:
            raise ConfigError(f"[scan] points must be >= 1, got {points}")
        values = np.linspace(start, stop, points).tolist()
    rows = mi_scan_rows(base, parameter, values, threads=args.threads)
    path = write_table(out_dir / "mi_scan.csv", *mi_scan_table(parameter, rows))
    print(f"mi-scan over {len(rows)} points -> {path}")
    return [path], _config_payload(cfg, base.seed)


def cmd_overshoot(args, out_dir: Path):
    cfg = load_config(args.config)
    exp = build_experiment(cfg, seed_override=args.seed)
    # without an [overshoot] section both keys take their defaults
    section = cfg["overshoot"] if "overshoot" in cfg else cfg[cfg.default_section]
    estimator = section.get("estimator", "direct")
    mass_threshold = _get(section, "mass_threshold", default=0.9)
    series = overshoot_profile(exp, estimator=estimator, threads=args.threads)
    flatness = condition51_flatness(series, mass_threshold=mass_threshold)
    path = write_table(
        out_dir / "overshoot.csv",
        "k,value,count,pmf",
        zip(series.k.tolist(), series.value.tolist(), series.count.tolist(), series.pmf.tolist()),
    )
    print(f"flatness ratio over {mass_threshold:.0%} mass range: {flatness:.4f}")
    print(f"profile -> {path}")
    return [path], _config_payload(cfg, exp.seed)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        if ":" in spec:
            start, stop, n = spec.split(":")
            grid = np.linspace(float(start), float(stop), int(n))
        else:
            grid = np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: use start:stop:points or a comma list") from exc
    if grid.size == 0:
        raise ConfigError(f"grid {spec!r} has no points")
    if not np.isfinite(grid).all():
        raise ConfigError(f"grid {spec!r} has a non-finite point")
    return grid


def cmd_analytic(args, out_dir: Path):
    p = ContinuousLLRParams(a1=args.a1, a2=args.a2, b=args.b)
    if args.quantity in ("error-probs", "mean-times", "density"):
        if args.l2 is None:
            raise ConfigError(f"--quantity {args.quantity} needs --l2")
        th = Thresholds(args.l1, args.l2)
    if args.quantity == "error-probs":
        header, rows = "alpha1,alpha2", [error_probs_continuous(p, th)]
    elif args.quantity == "mean-times":
        header, rows = "cell,mean_time", asdict(mean_decision_times(p, th)).items()
    elif args.quantity == "density":
        grid = _parse_grid(args.grid)
        header = "t,d,h,density"
        rows = [
            (t, d, h, v)
            for d in (1, 2)
            for h in (1, 2)
            for t, v in zip(grid.tolist(), decision_time_density(grid, d, h, p, th).tolist())
        ]
    elif args.quantity == "mi-continuous":
        header, rows = "l1,mi_bits", [(args.l1, mutual_info_continuous(p, args.l1))]
    else:  # mi-discretized
        grid = _parse_grid(args.grid).tolist()
        header = "t_r,mi_bits"
        rows = [(tr, mutual_info_discretized(p, args.l1, tr)) for tr in grid]
    path = write_table(out_dir / f"analytic_{args.quantity.replace('-', '_')}.csv", header, rows)
    print(f"{args.quantity} -> {path}")
    parameters = {k: v for k, v in vars(args).items() if k != "func"}
    return [path], {"parameters": parameters, "seed": None}


def cmd_oracle(args, out_dir: Path):
    model = LatticeBernoulliModel(p=args.p, m1=args.m1, m2=args.m2)
    law = enumerate_exact_law(model, k_max=args.k_max)
    path = write_table(out_dir / "exact_law.csv", "k,d,h,probability", law.to_rows())
    print(
        f"enumerated up to k={law.k_max}; surviving mass "
        f"H1={law.surviving[0]:.3g} H2={law.surviving[1]:.3g}"
    )
    print(f"law -> {path}")
    parameters = {"p": args.p, "m1": args.m1, "m2": args.m2, "k_max": law.k_max}
    return [path], {"parameters": parameters, "seed": None}


def cmd_reproduce(args, out_dir: Path):
    from . import reproduce

    seed = args.seed if args.seed is not None else 20180115
    scale = args.scale if args.scale is not None else reproduce.FIGURES[args.figure].scale
    outputs = reproduce.run_figure(
        args.figure, out_dir, scale=scale, seed=seed, threads=args.threads
    )
    print(f"{args.figure}: wrote {len(outputs)} file(s) to {out_dir}")
    return outputs, {"figure": args.figure, "scale": scale, "seed": seed}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqaudit",
        description="Simulate binary sequential decision devices and audit their optimality.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for trials")
    parser.add_argument("--out-dir", default=".", help="directory for outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured experiment, write records CSV")
    p_sim.add_argument("config")
    p_sim.set_defaults(func=cmd_simulate)

    p_test = sub.add_parser("test", help="run an optimality test on a records CSV")
    p_test.add_argument("records")
    p_test.add_argument("--mode", choices=["known-h", "unknown-h"], default="known-h")
    p_test.add_argument(
        "--time-type",
        choices=["steps", "seconds"],
        default=None,
        help="time representation; inferred from the file when omitted",
    )
    p_test.set_defaults(func=cmd_test)

    p_scan = sub.add_parser("mi-scan", help="scan a device belief, estimating MI per point")
    p_scan.add_argument("config")
    p_scan.set_defaults(func=cmd_mi_scan)

    p_over = sub.add_parser("overshoot", help="estimate the exponentiated-overshoot profile")
    p_over.add_argument("config")
    p_over.set_defaults(func=cmd_overshoot)

    p_ana = sub.add_parser("analytic", help="tabulate continuous-case closed forms")
    p_ana.add_argument(
        "--quantity",
        required=True,
        choices=["error-probs", "density", "mean-times", "mi-continuous", "mi-discretized"],
    )
    p_ana.add_argument("--a1", type=float, required=True)
    p_ana.add_argument("--a2", type=float, required=True)
    p_ana.add_argument("--b", type=float, required=True)
    p_ana.add_argument("--l1", type=float, required=True)
    p_ana.add_argument("--l2", type=float, default=None)
    p_ana.add_argument("--grid", default="1:1000:200", help="start:stop:points or comma list")
    p_ana.set_defaults(func=cmd_analytic)

    p_or = sub.add_parser("oracle", help="enumerate the exact lattice law")
    p_or.add_argument("--p", type=float, required=True)
    p_or.add_argument("--m1", type=int, required=True)
    p_or.add_argument("--m2", type=int, required=True)
    p_or.add_argument("--k-max", type=int, default=None)
    p_or.set_defaults(func=cmd_oracle)

    p_rep = sub.add_parser("reproduce", help="rebuild a figure's data at desk scale")
    p_rep.add_argument(
        "figure", choices=["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"]
    )
    p_rep.add_argument("--scale", type=float, default=None, help="trial-count multiplier")
    p_rep.set_defaults(func=cmd_reproduce)

    args = parser.parse_args(argv)
    t0 = time.time()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        outputs, payload = args.func(args, out_dir)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (EmptyCellError, RegimeError) as exc:
        print(f"statistical precondition failed: {exc}", file=sys.stderr)
        return EXIT_STATS
    name = f"reproduce-{args.figure}" if args.command == "reproduce" else args.command
    write_manifest(out_dir, name, payload, outputs, t0)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
