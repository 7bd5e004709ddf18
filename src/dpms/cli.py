"""Batch command line: test, calibrate, select, region, simulate.

Configuration comes from an optional JSON file plus flag overrides (flags
win); a file key that is not an option of the command is a configuration
error.  Every artifact embeds the resolved configuration and seed, so a
run can be reproduced from its own output.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path

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
from .gram import build_gram, oracle_chain, pd_repair, privatize_gram, threshold_offdiagonal
from .harness import mse_study_cell
from .io import ingest_csv, posterior_csv_rows, write_csv, write_json_record
from .linmodel import GPriorSpec, InfoCriterionSpec, reparametrize
from .mechanisms import PrivacyBudget, Sensitivity, child_rng
from .regions import Functional, RegionConfig, map_functional, sample_region
from .split_aggregate import (
    CensorBounds,
    aggregate_private,
    default_bounds,
    make_split,
    per_subset_log_stats,
    split_sizes,
)

__all__ = ["main", "run_command"]

_DEFAULTS = {
    "delta": 0.0,
    "pi0": 0.5,
    "lambda_pct": 99.0,
    "alpha": 0.05,
    "nsim": 100_000,
    "nsamples": 1000,
    "prior": "g",
    "out": "dpms-out",
}

# Options that some commands read and others do not.
_SHARED = {
    "M": dict(type=int, help="number of subsets"),
    "L": dict(type=float, help="lower censoring bound"),
    "U": dict(type=float, help="upper censoring bound"),
    "alpha": dict(type=float),
    "lambda": dict(type=float, dest="lambda_pct", help="hard-threshold percentile"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpms",
        description="Differentially private model uncertainty for linear regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *shared):
        """The options every command reads, then the named ``_SHARED`` ones."""
        sp.add_argument("--config", help="JSON configuration file; flags override it")
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--prior", choices=["g", "zs", "bic", "aic", "lrt"])
        sp.add_argument("--g", type=float, dest="g_value",
                        help="fixed g for the g-prior (default: sample size)")
        sp.add_argument("--seed", type=int, help="mandatory; no wall-clock default")
        sp.add_argument("--out", help="output directory")
        for name in shared:
            sp.add_argument(f"--{name}", **_SHARED[name])

    t = sub.add_parser("test", help="private hypothesis test on a CSV")
    add_common(t, "M", "L", "U")
    t.add_argument("--input")
    t.add_argument("--response")
    t.add_argument("--x0", help="comma-separated common predictor columns")
    t.add_argument("--x", help="comma-separated tested predictor columns")
    t.add_argument("--pi0", type=float)
    t.add_argument("--no-noise", action="store_true", dest="no_noise",
                   help="oracle mode: skip the privacy noise (output is NOT private)")
    t.add_argument("--diagnostics", action="store_true",
                   help="include per-subset statistics (output is NOT private)")

    c = sub.add_parser("calibrate", help="simulate a null distribution")
    add_common(c, "M", "L", "U", "alpha")
    c.add_argument("--nsim", type=int)
    c.add_argument("--statistic", choices=["lrt", "bf", "pvalue"], default="lrt")
    c.add_argument("--df", type=int)
    c.add_argument("--n", type=int, help="total rows; subset sizes derive from M")
    c.add_argument("--p", type=int)
    c.add_argument("--p0", type=int)
    c.add_argument("--observed", type=float, help="statistic to convert to a p-value")

    s = sub.add_parser("select", help="model selection from a private Gram matrix")
    add_common(s, "lambda")
    s.add_argument("--input")
    s.add_argument("--response")
    s.add_argument("--x", help="comma-separated predictor columns")
    s.add_argument("--data-entry-bound", type=float, dest="data_entry_bound")
    s.add_argument("--row-norm-bound", type=float, dest="row_norm_bound")
    s.add_argument("--threshold", action="store_true",
                   help="hard-threshold small off-diagonal entries")
    s.add_argument("--r", type=float, dest="r_fixed",
                   help="fixed ridge repair (default: simulated auto policy)")
    s.add_argument("--synthetic-n", type=int, dest="synthetic_n",
                   help="also emit a synthetic dataset with this many rows")
    s.add_argument("--model-prior", choices=["uniform", "hierarchical"],
                   dest="model_prior")
    s.add_argument("--no-noise", action="store_true", dest="no_noise")

    r = sub.add_parser("region", help="confidence-region histogram for a summary")
    add_common(r, "alpha")
    r.add_argument("--input")
    r.add_argument("--response")
    r.add_argument("--x")
    r.add_argument("--data-entry-bound", type=float, dest="data_entry_bound")
    r.add_argument("--row-norm-bound", type=float, dest="row_norm_bound")
    r.add_argument("--nsamples", type=int)
    r.add_argument("--functional", help="inclusion:J or beta:J (predictor index J)")
    r.add_argument("--model-prior", choices=["uniform", "hierarchical"],
                   dest="model_prior")
    r.add_argument("--no-noise", action="store_true", dest="no_noise")

    m = sub.add_parser("simulate", help="replicated simulation study cell")
    add_common(m, "lambda")
    m.add_argument("--p", type=int)
    m.add_argument("--n", type=int)
    m.add_argument("--snr", type=float)
    m.add_argument("--n-active", type=int, dest="n_active")
    m.add_argument("--n-datasets", type=int, dest="n_datasets")
    m.add_argument("--beta-sd", type=float, dest="beta_sd")
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(vars(args)))
        if unknown:
            raise ConfigError(f"config file keys not read by {args.command}: "
                              + ", ".join(unknown))
    for key, value in vars(args).items():
        if key == "config" or value is None or value is False:
            continue
        cfg[key] = value
    for key, value in _DEFAULTS.items():
        if key in vars(args):
            cfg.setdefault(key, value)
    if cfg.get("seed") is None:
        raise ConfigError("a seed is mandatory (pass --seed or set it in the config)")
    cfg["command"] = args.command
    return cfg


def _columns(value) -> tuple[str, ...]:
    if not value:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return tuple(s.strip() for s in str(value).split(",") if s.strip())


def _bounds(cfg: dict) -> CensorBounds:
    if cfg.get("L") is None and cfg.get("U") is None:
        return default_bounds()
    if cfg.get("L") is None or cfg.get("U") is None:
        raise ConfigError("censor bounds need both L and U")
    return CensorBounds(float(cfg["L"]), float(cfg["U"]))


def _budget(cfg: dict) -> PrivacyBudget:
    if cfg.get("epsilon") is None:
        raise ConfigError("epsilon is required")
    return PrivacyBudget(float(cfg["epsilon"]), float(cfg.get("delta", 0.0)))


def _stat(cfg: dict):
    prior = cfg.get("prior", "g")
    if prior == "g":
        if cfg.get("g_value") is not None:
            return GPriorSpec.fixed(float(cfg["g_value"]))
        return GPriorSpec.sample_size()
    if prior == "zs":
        return GPriorSpec.zellner_siow()
    if prior == "bic":
        return InfoCriterionSpec.bic()
    if prior == "aic":
        return InfoCriterionSpec.aic()
    if prior == "lrt":
        return InfoCriterionSpec.lrt()
    raise ConfigError(f"unknown prior {prior!r}")


def _public_config(cfg: dict) -> dict:
    return {k: v for k, v in sorted(cfg.items()) if v is not None}


def _cmd_test(cfg: dict, out: Path) -> None:
    for key in ("input", "response", "x"):
        if not cfg.get(key):
            raise ConfigError(f"test requires --{key}")
    if cfg.get("M") is None:
        raise ConfigError("test requires --M (number of subsets)")
    data = ingest_csv(cfg["input"], cfg["response"], _columns(cfg.get("x0")),
                      _columns(cfg["x"]))
    budget = _budget(cfg)
    bounds = _bounds(cfg)
    stat = _stat(cfg)
    seed = int(cfg["seed"])
    plan = make_split(data.n, int(cfg["M"]), data.p + data.p0 + 1, seed)
    logs = per_subset_log_stats(data, plan, stat)
    rng = child_rng(seed, 1)
    noise_value = 0.0 if cfg.get("no_noise") else None
    result = aggregate_private(logs, bounds, budget, rng, noise_value=noise_value)
    private = not (cfg.get("no_noise") or cfg.get("diagnostics"))
    record = result.to_record(pi0=float(cfg["pi0"]), seed=seed, private=private)
    record["private"] = private
    record["config"] = _public_config(cfg)
    write_json_record(out / "test_result.json", record)


def _cmd_calibrate(cfg: dict, out: Path) -> None:
    if cfg.get("M") is None:
        raise ConfigError("calibrate requires --M")
    budget = _budget(cfg)
    bounds = _bounds(cfg)
    seed = int(cfg["seed"])
    statistic = cfg.get("statistic", "lrt")
    subset_sizes = None
    if statistic == "bf":
        if cfg.get("n") is None or cfg.get("p") is None:
            raise ConfigError("calibrate for Bayes factors needs --n and --p")
        subset_sizes = tuple(split_sizes(int(cfg["n"]), int(cfg["M"])).tolist())
    null_cfg = NullSimConfig(
        M=int(cfg["M"]),
        bounds=bounds,
        budget=budget,
        nsim=int(cfg["nsim"]),
        seed=seed,
        df=int(cfg["df"]) if cfg.get("df") is not None else None,
        subset_sizes=subset_sizes,
    )
    rng = child_rng(seed, 1)
    if statistic == "lrt":
        null = simulate_null_lrt(null_cfg, rng)
    elif statistic == "bf":
        null = simulate_null_bf(null_cfg, _stat(cfg), int(cfg["p"]),
                                int(cfg.get("p0", 1)), rng)
    else:
        null = simulate_null_pvalue(null_cfg, rng)
    write_csv(out / "null_quantiles.csv", ["prob", "value"],
              [[repr(q), repr(v)] for q, v in quantile_table(null)])
    alpha = float(cfg["alpha"])
    record = {
        "statistic": statistic,
        "alpha": alpha,
        "critical_value": critical_value(null, alpha),
        "nsim": null.nsim,
        "config": _public_config(cfg),
    }
    if cfg.get("observed") is not None:
        record["observed"] = float(cfg["observed"])
        record["p_value"] = p_value(null, float(cfg["observed"]))
    write_json_record(out / "calibration.json", record)


def _select_chain(cfg: dict):
    for key in ("input", "response", "x"):
        if not cfg.get(key):
            raise ConfigError(f"{cfg['command']} requires --{key}")
    data = ingest_csv(cfg["input"], cfg["response"], (), _columns(cfg["x"]),
                      warn_unit_box=True)
    gram = build_gram(reparametrize(data))
    seed = int(cfg["seed"])
    rng = child_rng(seed, 1)
    if cfg.get("no_noise"):
        chain = oracle_chain(gram)
    else:
        budget = _budget(cfg)
        sens = Sensitivity(l1=float(cfg.get("data_entry_bound") or 0.0),
                           l2=float(cfg.get("row_norm_bound") or 0.0))
        chain = privatize_gram(gram, budget, sens, rng)
    if cfg.get("threshold"):
        chain = threshold_offdiagonal(chain, float(cfg["lambda_pct"]), rng)
    chain = pd_repair(chain, rng, r=cfg.get("r_fixed"))
    return data, chain, rng


def _cmd_select(cfg: dict, out: Path) -> None:
    from .gram import enumerate_posterior, synthetic_dataset

    data, chain, rng = _select_chain(cfg)
    stat = _stat(cfg)
    prior_kind = cfg.get("model_prior", "hierarchical")
    post = enumerate_posterior(chain, stat, prior_kind)
    budget = chain.law.budget
    write_csv(out / "posterior.csv", ["model", "log_marginal", "posterior"],
              posterior_csv_rows(post))
    summary = {
        "inclusion": post.inclusion,
        "beta_avg": post.beta_avg,
        "top_model": format(post.top_model(), f"0{post.p}b")[::-1],
        "r": chain.r,
        "e_lambda": chain.e_lambda,
        "r2_clamps": post.r2_clamps,
        "mechanism": chain.law.name,
        "epsilon": budget.epsilon if budget else None,
        "delta": budget.delta if budget else None,
        "seed": int(cfg["seed"]),
        "n": data.n,
        "p": data.p,
        "config": _public_config(cfg),
    }
    write_json_record(out / "selection.json", summary)
    if cfg.get("synthetic_n"):
        d_star = synthetic_dataset(chain.released, int(cfg["synthetic_n"]), rng)
        header = [f"v{j + 1}" for j in range(data.p)] + ["z"]
        write_csv(out / "synthetic.csv", header,
                  [[repr(float(v)) for v in row] for row in d_star])


def _parse_functional(cfg: dict, p: int) -> Functional:
    raw = cfg.get("functional") or "inclusion:0"
    kind, _, idx = str(raw).partition(":")
    try:
        j = int(idx)
    except ValueError:
        raise ConfigError(f"functional index must be an integer, got {raw!r}") from None
    if kind not in ("inclusion", "beta") or not 0 <= j < p:
        raise ConfigError(f"functional must be inclusion:J or beta:J with 0 <= J < {p}")
    return Functional.inclusion(j) if kind == "inclusion" else Functional.beta(j)


def _cmd_region(cfg: dict, out: Path) -> None:
    data, chain, rng = _select_chain(cfg)
    functional = _parse_functional(cfg, data.p)
    region_cfg = RegionConfig(alpha=float(cfg["alpha"]), nsamples=int(cfg["nsamples"]),
                              seed=int(cfg["seed"]))
    samples = sample_region(chain, region_cfg, rng)
    hist = map_functional(samples, functional, _stat(cfg),
                          cfg.get("model_prior", "hierarchical"))
    write_csv(
        out / "histogram.csv",
        ["bin_edge_lo", "bin_edge_hi", "count"],
        [[repr(float(hist.bin_edges[i])), repr(float(hist.bin_edges[i + 1])),
          int(hist.counts[i])] for i in range(hist.counts.shape[0])],
    )
    write_json_record(out / "region.json", {
        "mean": hist.mean,
        "accepted": hist.accepted,
        "rejected_non_pd": hist.rejected_non_pd,
        "alpha": region_cfg.alpha,
        "functional": cfg.get("functional") or "inclusion:0",
        "mechanism": chain.law.name,
        "seed": int(cfg["seed"]),
        "config": _public_config(cfg),
    })


def _cmd_simulate(cfg: dict, out: Path) -> None:
    for key in ("p", "n", "snr", "n_active", "n_datasets"):
        if cfg.get(key) is None:
            raise ConfigError(f"simulate requires --{key.replace('_', '-')}")
    if cfg.get("epsilon") is None:
        raise ConfigError("epsilon is required")
    sim_cfg = SimStudyConfig(
        p=int(cfg["p"]), n=int(cfg["n"]), snr=float(cfg["snr"]),
        n_active=int(cfg["n_active"]), n_datasets=int(cfg["n_datasets"]),
        beta_sd=float(cfg.get("beta_sd", 0.13)), seed=int(cfg["seed"]),
    )
    delta_wishart = float(cfg["delta"]) if cfg.get("delta") else math.exp(-10.0)
    records = mse_study_cell(
        sim_cfg, float(cfg["epsilon"]), delta_wishart=delta_wishart,
        stat=_stat(cfg), lambda_pct=float(cfg["lambda_pct"]),
    )
    write_csv(
        out / "mse_table.csv",
        ["snr", "epsilon", "replication", "method", "mse", "mse_full",
         "relative_mse", "inclusion_l2"],
        [[rec.snr, rec.epsilon, rec.replication, rec.method, repr(rec.mse),
          repr(rec.mse_full), repr(rec.relative_mse), repr(rec.inclusion_l2)]
         for rec in records],
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
    summary = {"cells": means, "delta_wishart": delta_wishart, "config": _public_config(cfg)}
    write_json_record(out / "sim_summary.json", summary)


_COMMANDS = {
    "test": _cmd_test,
    "calibrate": _cmd_calibrate,
    "select": _cmd_select,
    "region": _cmd_region,
    "simulate": _cmd_simulate,
}


def run_command(cfg: dict) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(cfg.get("out", _DEFAULTS["out"]))
    out.mkdir(parents=True, exist_ok=True)
    run_record = dict(_public_config(cfg))
    run_record["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    write_json_record(out / "run_config.json", run_record)
    _COMMANDS[command](cfg, out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return run_command(cfg)
    except DpmsError as exc:
        code = 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DataError) else 4
        record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        if isinstance(exc, NumericError) and exc.diagnostics:
            record["diagnostics"] = exc.diagnostics
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
