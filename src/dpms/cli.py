"""Batch command line: test, calibrate, select, region, simulate.

Every option is declared once, in ``OPTIONS``: its flag, the commands that
read it, its default (or ``REQUIRED``) and its argparse settings.  The
parser, the defaults, the required checks and each artifact's ``config``
block all come from that table.  A run's configuration is an optional
JSON file (or, for ``run_command``, a dict), then the flags (flags win),
then the table's defaults; a key the command does not read is a
configuration error.  Every artifact embeds the options the command
read, so a run can be reproduced from its own output.  Exit codes: 0
success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import math
import sys
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .calibration import (
    NullSimConfig,
    critical_value,
    p_value,
    quantile_table,
    simulate_null_bf,
    simulate_null_lrt,
    simulate_null_pvalue,
)
from .datagen import SimStudyConfig
from .errors import ConfigError, DataError, DpmsError, NumericError
from .gram import build_gram, pd_repair, privatize_gram, threshold_offdiagonal
from .harness import mse_study_cell
from .io import ingest_csv, posterior_csv_rows, write_csv, write_json_record
from .linmodel import GPriorSpec, InfoCriterionSpec, reparametrize
from .mechanisms import RELEASE, PrivacyBudget, Sensitivity, child_rng, gram_law
from .regions import Functional, RegionConfig, map_functional, sample_region
from .split_aggregate import (
    CensorBounds,
    aggregate_private,
    default_bounds,
    make_split,
    per_subset_log_stats,
    split_sizes,
)

__all__ = ["OPTIONS", "main", "run_command"]

REQUIRED = "required"

_PRIORS = {
    "g": GPriorSpec.sample_size,
    "zs": GPriorSpec.zellner_siow,
    "bic": InfoCriterionSpec.bic,
    "aic": InfoCriterionSpec.aic,
    "lrt": InfoCriterionSpec.lrt,
}


class Option(NamedTuple):
    """One row of the option table.

    ``readers`` names the commands that read the option; a reader
    ``calibrate[s]`` reads it only under ``--statistic s``.  ``dest`` is
    the option's key in config files and ``config`` blocks.
    """

    flag: str
    dest: str
    readers: tuple[str, ...]
    default: object
    help: str | None
    argparse: dict


def _opt(flag, readers, default, help=None, **argparse_settings) -> Option:
    dest = argparse_settings.get("dest", flag[2:].replace("-", "_"))
    return Option(flag, dest, tuple(readers.split()), default, help, argparse_settings)


def _declared(owner, name):
    """The default that a library type or function declares for ``name``."""
    return inspect.signature(owner).parameters[name].default


_DATA = "test select region"
_GRAM = "select region"
_SCORED = "test select region simulate calibrate[bf]"

OPTIONS = (
    _opt("--seed", "test calibrate select region simulate", REQUIRED, type=int),
    _opt("--out", "test calibrate select region simulate", "dpms-out", "output directory",
         type=str),
    _opt("--epsilon", "test calibrate simulate", REQUIRED, type=float),
    _opt("--epsilon", _GRAM, None, "required without --no-noise", type=float),
    _opt("--delta", "test calibrate select region", 0.0, "0 gives Laplace noise", type=float),
    _opt("--delta", "simulate", _declared(mse_study_cell, "delta_wishart"),
         "delta of the Wishart methods (> 0)", type=float, dest="delta_wishart"),
    _opt("--prior", _SCORED, "g", choices=tuple(_PRIORS)),
    _opt("--g", _SCORED, None, "fixed g (default: sample size)", type=float, dest="g_value"),
    _opt("--input", _DATA, REQUIRED, "CSV with one header row", type=str),
    _opt("--response", _DATA, REQUIRED, type=str),
    _opt("--x0", "test", None, "comma-separated common predictor columns"),
    _opt("--x", _DATA, REQUIRED, "comma-separated (test: tested) predictor columns"),
    _opt("--no-noise", _DATA, False, "oracle mode, output NOT private", action="store_true"),
    _opt("--diagnostics", "test", False, "per-subset values, NOT private", action="store_true"),
    _opt("--pi0", "test", 0.5, "prior probability of the null", type=float),
    _opt("--M", "test calibrate", REQUIRED, "number of subsets", type=int),
    _opt("--L", "test calibrate", None, "lower censoring bound (default -log 99)", type=float),
    _opt("--U", "test calibrate", None, "upper censoring bound (default log 99)", type=float),
    _opt("--statistic", "calibrate", "lrt", choices=("lrt", "bf", "pvalue")),
    _opt("--nsim", "calibrate", _declared(NullSimConfig, "nsim"), type=int),
    _opt("--alpha", "calibrate region", 0.05, type=float),
    _opt("--observed", "calibrate", None, "statistic to convert to a p-value", type=float),
    _opt("--df", "calibrate[lrt]", REQUIRED, "likelihood-ratio degrees of freedom", type=int),
    _opt("--n", "calibrate[bf] simulate", REQUIRED, "rows (calibrate: in total)", type=int),
    _opt("--p", "calibrate[bf] simulate", REQUIRED, "(tested) predictors", type=int),
    _opt("--p0", "calibrate[bf]", 1, "common predictors, the intercept included", type=int),
    _opt("--data-entry-bound", _GRAM, _declared(Sensitivity, "l1"), type=float),
    _opt("--row-norm-bound", _GRAM, _declared(Sensitivity, "l2"), type=float),
    _opt("--threshold", "select", False, "threshold small off-diagonals", action="store_true"),
    _opt("--lambda", "select simulate", 99.0, "cut percentile", type=float, dest="lambda_pct"),
    _opt("--r", "select", None, "fixed ridge repair (default: auto)", type=float, dest="r_fixed"),
    _opt("--synthetic-n", "select", None, "also emit this many synthetic rows", type=int),
    _opt("--model-prior", _GRAM, "hierarchical", choices=("uniform", "hierarchical")),
    _opt("--nsamples", "region", _declared(RegionConfig, "nsamples"), type=int),
    _opt("--functional", "region", "inclusion:0", "inclusion:J or beta:J (predictor index J)"),
    _opt("--snr", "simulate", REQUIRED, type=float),
    _opt("--n-active", "simulate", REQUIRED, type=int),
    _opt("--n-datasets", "simulate", REQUIRED, type=int),
    _opt("--beta-sd", "simulate", _declared(SimStudyConfig, "beta_sd"), type=float),
)


def _build_parser(named) -> argparse.ArgumentParser:
    """The command-line parser, with the options of the commands in ``named``
    (every command has a subparser, so help and errors list them all)."""
    parser = argparse.ArgumentParser(
        prog="dpms",
        description="Differentially private model uncertainty for linear regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        # Absent flags stay absent, so the config file and the table fill them.
        sp = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON configuration file; flags override it")
        for option in OPTIONS if command in named else ():
            tags = [r.partition("[")[2][:-1] for r in option.readers
                    if r.partition("[")[0] == command]
            if tags:
                notes = [option.help, None if option.default is None else f"[{option.default}]",
                         *(f"(--statistic {tag} only)" for tag in tags if tag)]
                sp.add_argument(option.flag, help=" ".join(filter(None, notes)), **option.argparse)
    return parser


def _resolved(option: Option, value, label: str):
    """``value`` checked against the option's type (a float must be finite)
    and choices, or its default."""
    if value is None:
        if option.default == REQUIRED:
            raise ConfigError(f"{label} requires {option.flag}")
        return option.default
    if option.argparse.get("action") == "store_true" and not isinstance(value, bool):
        raise ConfigError(f"{option.flag} takes true or false, got {value!r}")
    kind, choices = option.argparse.get("type"), option.argparse.get("choices")
    if kind is not None:
        try:
            value = kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{option.flag} takes a {kind.__name__}, got {value!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{option.flag} takes a finite number, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{option.flag} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _resolve(given: dict) -> dict:
    """The configuration ``given["command"]`` runs with: every option it
    reads, from ``given`` or else from the table.  A key of ``given`` that
    the command does not read is a configuration error."""
    command = given.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = {"command": command}

    def take(reader: str, label: str) -> None:
        for option in OPTIONS:
            if reader in option.readers:
                cfg[option.dest] = _resolved(option, given.get(option.dest), label)

    label = command
    take(command, label)
    if command == "calibrate":
        label = f"calibrate --statistic {cfg['statistic']}"
        take(f"calibrate[{cfg['statistic']}]", label)
    unread = sorted(set(given) - set(cfg))
    if unread:
        flags = {option.dest: option.flag for option in OPTIONS}
        raise ConfigError(f"{label} does not read " + ", ".join(flags.get(k, k) for k in unread))
    return cfg


def _resolve_argv(argv) -> dict:
    """The configuration a command line runs with: its config file, then
    its flags, then the table's defaults.  Only the commands that argv
    names get their options: adding every command's takes about 1 ms more
    a call."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = vars(_build_parser(set(argv)).parse_args(argv))
    given = {}
    if "config" in args:
        path = Path(args.pop("config"))
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            given = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
        given.pop("generated_at", None)  # run_config.json replays as it is
    given.update(args)
    return _resolve(given)


def _columns(value) -> tuple[str, ...]:
    if not value:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return tuple(s.strip() for s in str(value).split(",") if s.strip())


def _bounds(cfg: dict) -> CensorBounds:
    if cfg["L"] is None and cfg["U"] is None:
        return default_bounds()
    if cfg["L"] is None or cfg["U"] is None:
        raise ConfigError("censor bounds need both --L and --U")
    return CensorBounds(cfg["L"], cfg["U"])


def _stat(cfg: dict):
    if cfg["prior"] == "g" and cfg["g_value"] is not None:
        return GPriorSpec.fixed(cfg["g_value"])
    return _PRIORS[cfg["prior"]]()


def _private(cfg: dict) -> bool | None:
    """None for a command that reads no data, else true unless --no-noise or --diagnostics."""
    return None if "no_noise" not in cfg else not (cfg["no_noise"] or cfg.get("diagnostics"))


def _write_record(path: Path, cfg: dict, fields: dict | None = None, law=None,
                  non_private: dict | None = None) -> None:
    """Write one JSON artifact of a run; no other code writes one.  A field's
    privacy class is the argument it comes in: ``cfg`` (the ``config`` block;
    alone, with the time, when ``fields`` is None), ``fields`` (the release
    and its post-processing), a Gram ``law`` (mechanism, stream and budget)
    and ``non_private``, written only when :func:`_private` is false."""
    config = {k: v for k, v in sorted(cfg.items()) if v is not None}
    if fields is None:
        record = dict(config, generated_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    else:
        record = dict(fields, config=config)
        if law is not None:
            record.update(mechanism=law.name, calibration_stream=law.calibration_stream,
                          **{k: getattr(law.budget, k, None) for k in ("epsilon", "delta")})
        private = _private(cfg)
        if private is not None:
            record.update(seed=cfg["seed"], private=private)
            if not private:
                record.update(non_private or {})
    write_json_record(path, record)


def _cmd_test(cfg: dict, out: Path) -> None:
    data = ingest_csv(cfg["input"], cfg["response"], _columns(cfg["x0"]),
                      _columns(cfg["x"]))
    budget = PrivacyBudget(cfg["epsilon"], cfg["delta"])
    bounds = _bounds(cfg)
    stat = _stat(cfg)
    plan = make_split(data.n, cfg["M"], data.p + data.p0 + 1, cfg["seed"])
    logs = per_subset_log_stats(data, plan, stat)
    result = aggregate_private(logs, bounds, budget, child_rng(cfg["seed"], RELEASE),
                               with_noise=not cfg["no_noise"])
    _write_record(out / "test_result.json", cfg, result.to_record(cfg["pi0"]),
                  non_private={"per_subset_logs": result.per_subset_logs})


def _cmd_calibrate(cfg: dict, out: Path) -> None:
    statistic = cfg["statistic"]
    null_cfg = partial(NullSimConfig, M=cfg["M"], bounds=_bounds(cfg),
                       budget=PrivacyBudget(cfg["epsilon"], cfg["delta"]), nsim=cfg["nsim"])
    rng = child_rng(cfg["seed"], 1)
    if statistic == "lrt":
        null = simulate_null_lrt(null_cfg(df=cfg["df"]), rng)
    elif statistic == "bf":
        sizes = tuple(split_sizes(cfg["n"], cfg["M"]).tolist())
        null = simulate_null_bf(null_cfg(subset_sizes=sizes), _stat(cfg), cfg["p"],
                                cfg["p0"], rng)
    else:
        null = simulate_null_pvalue(null_cfg(), rng)
    write_csv(out / "null_quantiles.csv", ["prob", "value"],
              quantile_table(null))
    record = {"statistic": statistic, "alpha": cfg["alpha"],
              "critical_value": critical_value(null, cfg["alpha"]), "nsim": null.nsim}
    if cfg["observed"] is not None:
        record["observed"] = cfg["observed"]
        record["p_value"] = p_value(null, cfg["observed"])
    _write_record(out / "calibration.json", cfg, record)


def _release_gram(cfg: dict):
    """Ingest, build and release (or, with --no-noise, keep) the Gram
    matrix under the command's one law: the data, the released chain and
    the stream that continues after the release."""
    if not cfg["no_noise"] and cfg["epsilon"] is None:
        raise ConfigError(f"{cfg['command']} requires --epsilon unless --no-noise is set")
    data = ingest_csv(cfg["input"], cfg["response"], (), _columns(cfg["x"]),
                      warn_unit_box=True)
    chain = build_gram(reparametrize(data))
    rng = child_rng(cfg["seed"], RELEASE)
    if not cfg["no_noise"]:
        budget = PrivacyBudget(cfg["epsilon"], cfg["delta"])
        sens = Sensitivity(l1=cfg["data_entry_bound"], l2=cfg["row_norm_bound"])
        chain = privatize_gram(chain, gram_law(data.p, budget, sens, cfg["seed"]), rng)
    return data, chain, rng


def _cmd_select(cfg: dict, out: Path) -> None:
    from .gram import enumerate_posterior, synthetic_dataset

    data, chain, rng = _release_gram(cfg)
    if cfg["threshold"]:
        chain = threshold_offdiagonal(chain, cfg["lambda_pct"])
    chain = pd_repair(chain, r=cfg["r_fixed"])
    post = enumerate_posterior(chain.g, _stat(cfg), cfg["model_prior"], n=chain.n)
    write_csv(out / "posterior.csv", ["model", "log_marginal", "posterior"],
              posterior_csv_rows(post))
    _write_record(out / "selection.json", cfg, {
        "inclusion": post.inclusion,
        "beta_avg": post.beta_avg,
        "top_model": format(post.top_model(), f"0{post.p}b")[::-1],
        "r": chain.r,
        "e_lambda": chain.e_lambda,
        "r2_clamps": post.r2_clamps,
        "n": data.n, "p": data.p,
    }, chain.law)
    if cfg["synthetic_n"]:
        d_star = synthetic_dataset(chain.g, cfg["synthetic_n"], rng)
        header = [f"v{j + 1}" for j in range(data.p)] + ["z"]
        write_csv(out / "synthetic.csv", header, d_star.tolist())


def _parse_functional(raw: str, p: int) -> Functional:
    kind, _, idx = str(raw).partition(":")
    try:
        j = int(idx)
    except ValueError:
        raise ConfigError(f"functional index must be an integer, got {raw!r}") from None
    if kind not in ("inclusion", "beta") or not 0 <= j < p:
        raise ConfigError(f"functional must be inclusion:J or beta:J with 0 <= J < {p}")
    return Functional.inclusion(j) if kind == "inclusion" else Functional.beta(j)


def _cmd_region(cfg: dict, out: Path) -> None:
    # The region reads only G* and its law, so the release is not repaired.
    data, chain, rng = _release_gram(cfg)
    functional = _parse_functional(cfg["functional"], data.p)
    region_cfg = RegionConfig(alpha=cfg["alpha"], nsamples=cfg["nsamples"])
    samples = sample_region(chain, region_cfg, rng)
    hist = map_functional(samples, functional, _stat(cfg), cfg["model_prior"])
    write_csv(
        out / "histogram.csv",
        ["bin_edge_lo", "bin_edge_hi", "count"],
        zip(hist.bin_edges[:-1].tolist(), hist.bin_edges[1:].tolist(), hist.counts.tolist()),
    )
    _write_record(out / "region.json", cfg, {
        "mean": hist.mean, "accepted": hist.accepted, "rejected_non_pd": hist.rejected_non_pd,
        "alpha": region_cfg.alpha, "functional": cfg["functional"]}, chain.law)


def _cmd_simulate(cfg: dict, out: Path) -> None:
    # A zero delta would give WM and WMT a pure budget, so a Laplace law
    # under a Wishart label.
    if not cfg["delta_wishart"] > 0:
        raise ConfigError(f"simulate --delta must be > 0, got {cfg['delta_wishart']!r}")
    sim_cfg = SimStudyConfig(
        p=cfg["p"], n=cfg["n"], snr=cfg["snr"], n_active=cfg["n_active"],
        n_datasets=cfg["n_datasets"], beta_sd=cfg["beta_sd"], seed=cfg["seed"],
    )
    records, laws = mse_study_cell(
        sim_cfg, cfg["epsilon"], delta_wishart=cfg["delta_wishart"],
        stat=_stat(cfg), lambda_pct=cfg["lambda_pct"],
    )
    write_csv(
        out / "mse_table.csv",
        ["snr", "epsilon", "replication", "method", "mse", "mse_full",
         "relative_mse", "inclusion_l2"],
        [[rec.snr, rec.epsilon, rec.replication, rec.method, rec.mse, rec.mse_full,
          rec.relative_mse, rec.inclusion_l2] for rec in records],
    )
    methods = sorted({rec.method for rec in records})
    means = {method: float(np.mean([r.mse for r in records if r.method == method]))
             for method in methods}
    for method, mean in means.items():
        if method != "O" and mean < means.get("O", 0.0):
            logging.getLogger(__name__).warning(
                "mean MSE of %s (%.3e) fell below the oracle's (%.3e) in this "
                "run; expected only as a small-sample fluctuation", method, mean,
                means["O"],
            )
    calibration = {name: {"r": law.repair_shift} for name, law in laws.items()}
    calibration["wishart"]["e_lambda"] = laws["wishart"].offdiag_abs_quantile(
        cfg["lambda_pct"] / 100.0)
    _write_record(out / "sim_summary.json", cfg, {
        "cells": means, "delta_wishart": cfg["delta_wishart"],
        "calibration": dict(calibration, stream=laws["wishart"].calibration_stream)})


_COMMANDS = {
    "test": (_cmd_test, "private hypothesis test on a CSV"),
    "calibrate": (_cmd_calibrate, "simulate a null distribution"),
    "select": (_cmd_select, "model selection from a private Gram matrix"),
    "region": (_cmd_region, "confidence-region histogram for a summary"),
    "simulate": (_cmd_simulate, "replicated simulation study cell"),
}


def _run(cfg: dict) -> int:
    out = Path(cfg["out"])
    _write_record(out / "run_config.json", cfg)
    _COMMANDS[cfg["command"]][0](cfg, out)
    return 0


def run_command(cfg: dict) -> int:
    """Run ``cfg["command"]`` with the options in ``cfg`` (by config key),
    the table's defaults filling the rest; a key the command does not read
    is a ``ConfigError``, as on the command line.  Returns the process exit
    code."""
    return _run(_resolve(cfg))


def main(argv=None) -> int:
    cfg = {}
    try:
        cfg = _resolve_argv(argv)
        return _run(cfg)
    except DpmsError as exc:
        code = 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DataError) else 4
        record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        # A private run's diagnostics may hold raw-data values (one subset's R^2).
        if isinstance(exc, NumericError) and exc.diagnostics and not _private(cfg):
            record["diagnostics"] = exc.diagnostics
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
