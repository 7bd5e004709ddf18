"""Per-layer tracing from outside the program.

The tracer replaces public (and a few private) functions of the ``dpms``
modules with timing wrappers, at the names where their callers look them
up: a module that did ``from .gram import enumerate_posterior`` holds its
own reference, so that reference is wrapped there too.  Each call
records a span (name, start, end, parent) in flat arrays; counts taken
from arguments and results are added up per name.  Nothing in ``src/``
changes, and spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "io", "linmodel", "mechanisms", "gram", "regions", "split_aggregate",
          "calibration", "harness", "datagen")


def _written_bytes(args, kwargs, result):
    return {"io.bytes_written": os.path.getsize(args[0])}


def _null_draws(args, kwargs, result):
    cfg = args[0]
    return {"calibration.null_draws": cfg.nsim * cfg.M}


def _candidates(args, kwargs, result):
    accepted = len(result.candidates)
    return {"regions.candidates_accepted": accepted,
            "regions.candidates_drawn": accepted + result.rejected_non_pd}


# (module, attribute, span name, counter).  The span name's prefix is the
# layer the function belongs to, whichever module calls it.
SITES = (
    ("dpms.cli", "main", "cli.main", None),
    ("dpms.cli", "ingest_csv", "io.ingest_csv", lambda a, k, r: {"io.ingest_rows": r.n}),
    ("dpms.cli", "write_csv", "io.write_csv", _written_bytes),
    ("dpms.cli", "write_json_record", "io.write_json_record", _written_bytes),
    ("dpms.cli", "posterior_csv_rows", "io.posterior_csv_rows", None),
    ("dpms.cli", "reparametrize", "linmodel.reparametrize", None),
    ("dpms.cli", "build_gram", "gram.build_gram", None),
    ("dpms.cli", "privatize_gram", "gram.privatize_gram", None),
    ("dpms.cli", "threshold_offdiagonal", "gram.threshold_offdiagonal", None),
    ("dpms.cli", "pd_repair", "gram.pd_repair", None),
    ("dpms.cli", "sample_region", "regions.sample_region", _candidates),
    ("dpms.cli", "map_functional", "regions.map_functional", None),
    ("dpms.cli", "mse_study_cell", "harness.mse_study_cell", None),
    ("dpms.cli", "make_split", "split_aggregate.make_split", None),
    ("dpms.cli", "per_subset_log_stats", "split_aggregate.per_subset_log_stats",
     lambda a, k, r: {"split_aggregate.subsets": r.shape[0]}),
    ("dpms.cli", "aggregate_private", "split_aggregate.aggregate_private", None),
    ("dpms.cli", "simulate_null_lrt", "calibration.simulate_null", _null_draws),
    ("dpms.cli", "simulate_null_bf", "calibration.simulate_null", _null_draws),
    ("dpms.cli", "simulate_null_pvalue", "calibration.simulate_null", _null_draws),
    ("dpms.cli", "critical_value", "calibration.quantiles", None),
    ("dpms.cli", "p_value", "calibration.quantiles", None),
    ("dpms.cli", "quantile_table", "calibration.quantiles", None),
    # _cmd_select imports these two from dpms.gram when it runs.
    ("dpms.gram", "enumerate_posterior", "gram.enumerate_posterior",
     lambda a, k, r: {"gram.models": r.posterior.shape[0]}),
    ("dpms.gram", "synthetic_dataset", "gram.synthetic_dataset", None),
    ("dpms.gram", "r2_gamma", "gram.r2_gamma", None),
    ("dpms.gram", "model_averaged_beta", "gram.model_averaged_beta", None),
    ("dpms.gram", "_draw_error", "gram.draw_error", None),
    ("dpms.gram", "log_bayes_factor", "linmodel.log_bayes_factor", None),
    ("dpms.gram", "log_info_criterion", "linmodel.log_info_criterion", None),
    ("dpms.gram", "zs_shrinkage", "linmodel.zs_shrinkage", None),
    ("dpms.gram", "laplace_gram_error", "mechanisms.laplace_gram_error", None),
    ("dpms.gram", "wishart_gram_error", "mechanisms.wishart_gram_error", None),
    ("dpms.linmodel", "_zs_quadrature", "linmodel.zs_quadrature", None),
    ("dpms.mechanisms", "analytic_gaussian_sigma", "mechanisms.analytic_gaussian_sigma", None),
    ("dpms.regions", "enumerate_posterior", "gram.enumerate_posterior",
     lambda a, k, r: {"gram.models": r.posterior.shape[0]}),
    ("dpms.harness", "generate_sim_dataset", "datagen.generate_sim_dataset",
     lambda a, k, r: {"datagen.rows": r[0].n}),
    ("dpms.harness", "reparametrize", "linmodel.reparametrize", None),
    ("dpms.harness", "build_gram", "gram.build_gram", None),
    ("dpms.harness", "privatize_gram", "gram.privatize_gram", None),
    ("dpms.harness", "threshold_offdiagonal", "gram.threshold_offdiagonal", None),
    ("dpms.harness", "pd_repair", "gram.pd_repair", None),
    ("dpms.harness", "enumerate_posterior", "gram.enumerate_posterior",
     lambda a, k, r: {"gram.models": r.posterior.shape[0]}),
    ("dpms.harness", "zs_shrinkage", "linmodel.zs_shrinkage", None),
    ("dpms.split_aggregate", "reparametrize", "linmodel.reparametrize", None),
    ("dpms.split_aggregate", "r_squared", "linmodel.r_squared", None),
    ("dpms.split_aggregate", "log_bayes_factor", "linmodel.log_bayes_factor", None),
    ("dpms.split_aggregate", "log_info_criterion", "linmodel.log_info_criterion", None),
    ("dpms.calibration", "log_bayes_factor", "linmodel.log_bayes_factor",
     lambda a, k, r: {"calibration.zs_table_evals": 1}),
)


class Tracer:
    """Records spans of the wrapped calls into flat in-memory arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, counter):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self):
        for module_name, attr, name, counter in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counter))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def save(self, path):
        """Write the spans (and the name table) as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end))

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        name_id = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        self_s = np.bincount(name_id, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}


def layer_metrics(totals, counts, rounds, r2_clamps, wall_s):
    """The per-layer metrics of one traced run, per round of operations.

    Seconds are inclusive of the calls a layer makes into other layers,
    except ``<layer>.self_s``; a rate divides two per-round totals.
    """
    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names) / rounds

    def secs(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / rounds

    def count(name):
        return counts.get(name, 0.0) / rounds

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m = {}
    m["io.ingest_s"] = secs("io.ingest_csv")
    m["io.ingest_calls"] = calls("io.ingest_csv")
    m["io.ingest_rows"] = count("io.ingest_rows")
    m["io.ingest_rows_per_s"] = ratio(m["io.ingest_rows"], m["io.ingest_s"])
    m["io.write_s"] = secs("io.write_csv", "io.write_json_record", "io.posterior_csv_rows")
    m["io.bytes_written"] = count("io.bytes_written")
    m["linmodel.reparametrize_s"] = secs("linmodel.reparametrize")
    m["linmodel.r_squared_s"] = secs("linmodel.r_squared")
    m["linmodel.log_stat_calls"] = calls("linmodel.log_bayes_factor", "linmodel.log_info_criterion")
    m["linmodel.log_stat_s"] = secs("linmodel.log_bayes_factor", "linmodel.log_info_criterion")
    m["linmodel.zs_calls"] = calls("linmodel.zs_quadrature")
    m["linmodel.zs_s"] = secs("linmodel.zs_quadrature")
    m["mechanisms.wishart_draws"] = calls("mechanisms.wishart_gram_error")
    m["mechanisms.wishart_s"] = secs("mechanisms.wishart_gram_error")
    m["mechanisms.sigma_s"] = secs("mechanisms.analytic_gaussian_sigma")
    m["gram.build_s"] = secs("gram.build_gram")
    m["gram.privatize_s"] = secs("gram.privatize_gram")
    m["gram.threshold_s"] = secs("gram.threshold_offdiagonal")
    m["gram.pd_repair_calls"] = calls("gram.pd_repair")
    m["gram.pd_repair_s"] = secs("gram.pd_repair")
    m["gram.enumerations"] = calls("gram.enumerate_posterior")
    m["gram.enumerate_s"] = secs("gram.enumerate_posterior")
    m["gram.models"] = count("gram.models")
    m["gram.models_per_s"] = ratio(m["gram.models"], m["gram.enumerate_s"])
    m["gram.r2_calls"] = calls("gram.r2_gamma")
    m["gram.r2_calls_per_model"] = ratio(m["gram.r2_calls"], m["gram.models"])
    m["gram.average_s"] = secs("gram.model_averaged_beta")
    m["gram.r2_clamps"] = r2_clamps / rounds
    m["gram.synthetic_s"] = secs("gram.synthetic_dataset")
    m["regions.sample_s"] = secs("regions.sample_region")
    m["regions.candidates_drawn"] = count("regions.candidates_drawn")
    m["regions.candidates_accepted"] = count("regions.candidates_accepted")
    m["regions.accept_ratio"] = ratio(m["regions.candidates_accepted"],
                                      m["regions.candidates_drawn"])
    m["regions.map_s"] = secs("regions.map_functional")
    m["regions.candidates_per_s"] = ratio(m["regions.candidates_accepted"], m["regions.map_s"])
    m["split_aggregate.make_split_s"] = secs("split_aggregate.make_split")
    m["split_aggregate.per_subset_s"] = secs("split_aggregate.per_subset_log_stats")
    m["split_aggregate.subsets"] = count("split_aggregate.subsets")
    m["split_aggregate.subsets_per_s"] = ratio(m["split_aggregate.subsets"],
                                               m["split_aggregate.per_subset_s"])
    m["split_aggregate.aggregate_s"] = secs("split_aggregate.aggregate_private")
    m["calibration.simulate_s"] = secs("calibration.simulate_null")
    m["calibration.null_draws"] = count("calibration.null_draws")
    m["calibration.null_draws_per_s"] = ratio(m["calibration.null_draws"],
                                              m["calibration.simulate_s"])
    m["calibration.zs_table_evals"] = count("calibration.zs_table_evals")
    m["calibration.quantile_s"] = secs("calibration.quantiles")
    m["harness.cell_s"] = secs("harness.mse_study_cell")
    m["harness.replications"] = calls("datagen.generate_sim_dataset")
    m["datagen.generate_s"] = secs("datagen.generate_sim_dataset")
    m["datagen.rows"] = count("datagen.rows")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t[2] for name, t in totals.items()
                                   if name.split(".")[0] == layer) / rounds
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = sum(t[0] for t in totals.values()) / rounds
    return m
