"""Span tracer for the traced benchmark run.

Public functions of the measured modules are wrapped where they are looked
up: every ``mestcert`` module attribute bound to a traced function is
replaced, so ``glm.certify`` calling ``solve_linear`` through ``glm``'s
globals, or ``cli`` calling its imported ``read_csv``, is caught as well as
the benchmark's own calls. Families, links and weight callbacks the
benchmark builds are wrapped with ``dataclasses.replace``; the ``cli`` ones
are wrapped as ``cli.make_family`` and ``nls.logistic_link`` return them.

Spans ``(name, start, end, parent, job)`` are kept in flat in-memory arrays
with integer nanosecond times and written out at the end. A span's self time
is its duration minus its children's; calls nest on one stack, so children
never overlap and that difference is exactly the part they do not cover.
Per-row callbacks are counted, not spanned: a span per row would cost more
than the work it measures.
"""

import collections
import dataclasses
import os
import sys
import time
from array import array

import numpy as np

#: (module, attribute, span name) of every traced public function
TRACED = [
    ("numkit", "solve_linear", "numkit.factor"),
    ("numkit", "solve_linear_many", "numkit.factor"),
    ("numkit", "op_norm", "numkit.op_norm"),
    ("glm", "score", "glm.score"),
    ("glm", "hessian", "glm.hessian"),
    ("glm", "objective", "glm.objective"),
    ("glm", "certify", "glm.certify"),
    ("glm", "fit", "glm.fit"),
    ("glm", "hessian_holder_constant", "glm.hessian_holder_constant"),
    ("resample", "loo_sweep", "resample.loo_sweep"),
    ("resample", "screen_marginal", "resample.screen_marginal"),
    ("resample", "posi_sweep", "resample.posi_sweep"),
    ("cox", "cox_score", "cox.cox_score"),
    ("cox", "cox_jacobian", "cox.cox_jacobian"),
    ("cox", "cox_objective", "cox.cox_objective"),
    ("cox", "mu_profile", "cox.mu_profile"),
    ("cox", "fit_cox", "cox.fit_cox"),
    ("cox", "certify_cox", "cox.certify_cox"),
    ("nls", "nls_constants", "nls.nls_constants"),
    ("nls", "certify_nls", "nls.certify_nls"),
    ("nls", "fit_nls", "nls.fit_nls"),
    ("constrained", "kkt_solve", "constrained.kkt_solve"),
    ("constrained", "certify_constrained", "constrained.certify_constrained"),
    ("cli", "read_csv", "cli.read_csv"),
    ("cli", "dump_json", "cli.dump_json"),
    ("cli", "run", "cli.run"),
    ("cli", "main", "cli.main"),
]

#: the eight measured modules; each gets a ``<module>.errors`` count
MODULES = ("numkit", "losses", "glm", "resample", "cox", "nls",
           "constrained", "cli")

ROOT = "bench.job"


class Tracer:
    """Records spans and counts; ``install`` patches the library,
    ``uninstall`` restores it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.name = array("i")
        self.counts = collections.Counter()
        self.errors = collections.Counter()
        self.job_id = -1
        self._stack = []
        self._undo = []
        self._root = self.span(ROOT, lambda fn, *args: fn(*args))

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe(args,
        result)`` may add counts after the span closes."""
        nid = self._name_id(name)
        module = name.split(".")[0]
        clock = time.perf_counter_ns
        start, end, parent, job, names = (self.start, self.end, self.parent,
                                          self.job, self.name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            names.append(nid)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        """Wrap a per-row callback so its calls are counted under ``name``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def run_job(self, job_id, fn, *args):
        """Run one job under a root span tagged with ``job_id``."""
        self.job_id = job_id
        try:
            return self._root(fn, *args)
        finally:
            self.job_id = -1

    # -------------------------------------------------------------- #
    # wrapping the library
    # -------------------------------------------------------------- #

    def wrap_family(self, family):
        evals = {k: self.span("losses.family_eval", getattr(family, k))
                 for k in ("eval0", "eval1", "eval2", "cbound")}
        if family.weight is not None:
            evals["weight"] = self.count("losses.weight_fn", family.weight)
        return dataclasses.replace(family, **evals)

    def wrap_link(self, link):
        parts = {k: self.span("nls.link_eval", getattr(link, k))
                 for k in ("g", "g1", "g2")}
        parts.update({k: self.count("nls.link_row_fn", getattr(link, k))
                      for k in ("c0", "c1", "c2")})
        return dataclasses.replace(link, **parts)

    def install(self):
        mods = {name.rpartition(".")[2]: mod for name, mod in
                list(sys.modules.items())
                if name == "mestcert" or name.startswith("mestcert.")}
        counts = self.counts

        def sweep_counts(args, report):
            counts["resample.loo_sweep.folds"] += len(report.entries)
            counts["resample.loo_sweep.certified"] += sum(
                e.certified for e in report.entries)

        observers = {
            "resample.loo_sweep": sweep_counts,
            "cli.read_csv": lambda args, _: counts.update(
                {"cli.read_csv.bytes": os.path.getsize(args[0])}),
            "cli.dump_json": lambda _, text: counts.update(
                {"cli.dump_json.bytes": len(text.encode())}),
        }
        swap = {}
        for mod, attr, name in TRACED:
            orig = getattr(mods[mod], attr)
            swap[id(orig)] = (orig, self.span(name, orig, observers.get(name)))

        lu = mods["numkit"].lu_factorization
        swap[id(lu)] = (lu, self.span(
            "numkit.factor",
            lambda a: self.span("numkit.solve", lu(a))))
        make_family = mods["losses"].make_family
        swap[id(make_family)] = (make_family, lambda *a, **k:
                                 self.wrap_family(make_family(*a, **k)))
        for attr in ("logistic_link", "identity_link"):
            factory = getattr(mods["nls"], attr)
            swap[id(factory)] = (factory, lambda f=factory:
                                 self.wrap_link(f()))

        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                hit = swap.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, hit[1])
        family_cls = mods["losses"].LossFamily
        self._undo.append((family_cls, "row_weights", family_cls.row_weights))
        family_cls.row_weights = self.span("losses.row_weights",
                                           family_cls.row_weights)

    def uninstall(self):
        while self._undo:
            owner, key, val = self._undo.pop()
            setattr(owner, key, val)

    # -------------------------------------------------------------- #
    # analysis
    # -------------------------------------------------------------- #

    def arrays(self):
        return {"start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "name": np.frombuffer(self.name, dtype=np.int32)}

    def self_times(self):
        """Per-span self time in ns (exact: integer-valued floats)."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(float)
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested],
                              minlength=dur.size)
        return dur - covered

    def root_mismatches(self):
        """Jobs whose root span differs from the sum of the self times of
        every span recorded under it."""
        a = self.arrays()
        own = self.self_times()
        roots = np.flatnonzero(a["name"] == self._ids[ROOT])
        total = np.bincount(a["job"][a["job"] >= 0],
                            weights=own[a["job"] >= 0])
        dur = (a["end"] - a["start"])[roots]
        return int(np.sum(total[a["job"][roots]] != dur))

    def layer_metrics(self, cycles):
        """Every per-layer value, per job cycle."""
        a = self.arrays()
        own = self.self_times()
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        busy = np.bincount(a["name"], weights=own, minlength=k)
        out = {}
        for name, i in self._ids.items():
            out[f"{name}.calls"] = calls[i] / cycles
            out[f"{name}.self_s"] = busy[i] / 1e9 / cycles
        for name in {n for _, _, n in TRACED} | {
                "numkit.solve", "losses.family_eval", "losses.row_weights",
                "nls.link_eval"}:
            out.setdefault(f"{name}.calls", 0.0)
            out.setdefault(f"{name}.self_s", 0.0)
        for name in ("losses.weight_fn", "cox.weight_fn", "nls.link_row_fn"):
            out[f"{name}.calls"] = self.counts[name] / cycles
        for name in ("cli.read_csv.bytes", "cli.dump_json.bytes",
                     "resample.loo_sweep.folds"):
            out[name] = self.counts[name] / cycles
        folds = self.counts["resample.loo_sweep.folds"]
        out["resample.loo_sweep.certified_frac"] = (
            self.counts["resample.loo_sweep.certified"] / folds if folds
            else 0.0)
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module] / cycles
        parent_name = np.where(a["parent"] >= 0,
                               a["name"][np.maximum(a["parent"], 0)], -1)

        def under(child, parent):
            if child not in self._ids or parent not in self._ids:
                return 0
            return int(np.sum((a["name"] == self._ids[child])
                              & (parent_name == self._ids[parent])))

        for fit, accepted, tried in (
                ("glm.fit", "glm.hessian", "glm.objective"),
                ("cox.fit_cox", "cox.cox_jacobian", "cox.cox_objective")):
            n_tried = under(tried, fit)
            out[f"{fit}.step_accept_frac"] = (
                under(accepted, fit) / n_tried if n_tried else 0.0)
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
