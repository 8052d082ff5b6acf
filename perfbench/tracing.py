"""In-process span tracing for one rmlab verb process, and the per-layer
metrics derived from the spans.

A traced verb runs under ``traced_verb.py``, which installs a ``Tracer``
before calling ``rmlab.cli.main`` and removes it afterwards. The tracer wraps
the public layer functions listed in ``TARGETS``. rmlab modules import each
other's functions by name (``from .training import train`` in ``cli``,
``from .net import adamw_step`` in ``training``), so wrapping only the
defining module would miss most calls: ``install`` replaces every module
attribute and module-level dict entry in the ``rmlab`` package that refers to
the original function, and ``restore`` puts each one back.

Each span records name, start, end, the span that caused it, and a few
counts (bytes, pairs, mode). Spans stay in memory and are written out once,
when the verb ends. Pool workers forked by ``cli`` inherit the wrappers; a
worker writes its own spans to a sibling file each time a root span in it
ends, with the forking span as the parent.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from functools import wraps


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# (span name, defining module, attribute path, counts(args, kwargs, result))
TARGETS = [
    ("cli.gen", "rmlab.cli", "cmd_gen", None),
    ("cli.train", "rmlab.cli", "cmd_train", None),
    ("cli.matrix", "rmlab.cli", "cmd_matrix", None),
    ("cli.sfd", "rmlab.cli", "cmd_sfd", None),
    ("cli.bon", "rmlab.cli", "cmd_bon", None),
    ("cli.report", "rmlab.cli", "cmd_report", None),
    ("cli.ensure_runs", "rmlab.cli", "_ensure_runs",
     lambda a, k, r: {"keys": [w[0] for w in _arg(a, k, 1, "wanted")]}),
    ("cli.train_one", "rmlab.cli", "_train_one", None),
    ("cli.record", "rmlab.cli", "Workspace.record",
     lambda a, k, r: {"key": _arg(a, k, 1, "key")}),
    ("cli.sha256", "rmlab.cli", "_file_sha256",
     lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))}),
    ("net.adamw_step", "rmlab.net", "adamw_step", None),
    ("net.batch_scores", "rmlab.net", "batch_scores", None),
    ("training.train", "rmlab.training", "train",
     lambda a, k, r: {"mode": _arg(a, k, 0, "config").mode}),
    ("training.batch_pair_grads", "rmlab.training", "batch_pair_grads", None),
    ("training.weighted_grad_step", "rmlab.training", "weighted_grad_step", None),
    ("training.stack_pairs", "rmlab.training", "_stack_pairs", None),
    ("training.TrainRun.save", "rmlab.training", "TrainRun.save", None),
    ("training.TrainRun.load", "rmlab.training", "TrainRun.load", None),
    ("envs.sample_env", "rmlab.envs", "sample_env",
     lambda a, k, r: {"pairs": len(r.samples)}),
    ("envs.write_dataset", "rmlab.envs", "write_dataset",
     lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))}),
    ("envs.read_dataset", "rmlab.envs", "read_dataset",
     lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))}),
    ("evaluation.gen_matrix", "rmlab.evaluation", "gen_matrix", None),
    ("evaluation.accuracy", "rmlab.evaluation", "accuracy", None),
    ("evaluation.sfd_report", "rmlab.evaluation", "sfd_report", None),
    ("bestofn.make_pools", "rmlab.bestofn", "make_pools", None),
    ("bestofn.score_pool", "rmlab.bestofn", "score_pool", None),
    ("bestofn.bon_curve", "rmlab.bestofn", "bon_curve", None),
    ("bestofn.bon_fast", "rmlab.bestofn", "bon_fast", None),
    ("svg.render", "rmlab.svg", "heatmap_svg", None),
    ("svg.render", "rmlab.svg", "line_chart_svg", None),
]


class Tracer:
    """Span recorder plus the patch table that routes calls through it."""

    def __init__(self, out_path: str):
        self.out_path = out_path
        self.pid = os.getpid()
        self.spans = []  # [span_id, parent_id, name, start, end, counts]
        self.stack = []
        self.root_parent = None  # forking span, inside a pool worker
        self.worker = False
        self.flushes = 0
        self.count = 0
        self.patches = []  # (container, key, original, is_dict)

    # -- recording ---------------------------------------------------------

    def _enter_worker(self):
        self.root_parent = self.stack[-1] if self.stack else None
        self.pid = os.getpid()
        self.spans, self.stack = [], []
        self.worker = True

    def _wrap(self, name, fn, counts):
        @wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._enter_worker()
            self.count += 1
            span_id = f"{self.pid}.{self.count}"
            parent = self.stack[-1] if self.stack else self.root_parent
            self.stack.append(span_id)
            start = time.perf_counter()
            extra = None
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    extra = counts(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append([span_id, parent, name, start, end, extra])
                if self.worker and not self.stack:
                    self.flush()

        return traced

    def flush(self):
        """Write the spans recorded so far and start a fresh list."""
        self.flushes += 1
        path = f"{self.out_path}.{self.pid}.{self.flushes}"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "worker": self.worker, "spans": self.spans}, fh)
        self.spans = []

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target under every name the rmlab package binds it to."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rmlab" or n.startswith("rmlab."))]
        for name, module_name, attr, counts in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:  # a method: patch the class attribute itself
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counts))
                else:
                    wrapped = self._wrap(name, raw, counts)
                setattr(owner, leaf, wrapped)
                self.patches.append((owner, leaf, raw, False))
                continue
            original = getattr(owner, leaf)
            wrapped = self._wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self.patches.append((module, key, original, False))
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                value[dkey] = wrapped
                                self.patches.append((value, dkey, original, True))

    def restore(self):
        for container, key, original, is_dict in reversed(self.patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self.patches = []


# -- turning spans into per-layer metrics ----------------------------------

def load_spans(out_path: str) -> list:
    """Every span written by one traced verb: main process plus workers."""
    folder, stem = os.path.split(out_path)
    docs = []
    for fname in sorted(os.listdir(folder or ".")):
        if fname.startswith(os.path.basename(stem) + "."):
            with open(os.path.join(folder, fname), encoding="utf-8") as fh:
                docs.append(json.load(fh))
    return docs


def _root_union(spans) -> float:
    """Seconds covered by root spans, merging any overlap."""
    covered, last_end = 0.0, float("-inf")
    for start, end in sorted((s[3], s[4]) for s in spans if s[1] is None):
        if end <= last_end:
            continue
        covered += end - max(start, last_end)
        last_end = end
    return covered


def _new_total() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0, "counts": {}, "by_mode": {}}


def span_totals(docs: list) -> dict:
    """Per-name totals over span files: calls, seconds, self seconds (minus
    children in the same process), longest span, summed counts and seconds by
    training mode. Span ids are unique per pid, so every verb of an op can be
    totalled in one pass."""
    spans = [s for d in docs for s in d["spans"]]
    by_id = {s[0]: s for s in spans}
    child_s = {}
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None and parent[0].split(".")[0] == s[0].split(".")[0]:
            child_s[s[1]] = child_s.get(s[1], 0.0) + (s[4] - s[3])
    totals = {}
    for s in spans:
        t = totals.setdefault(s[2], _new_total())
        dur = s[4] - s[3]
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child_s.get(s[0], 0.0)
        t["max_s"] = max(t["max_s"], dur)
        for key, val in (s[5] or {}).items():
            if key == "mode":
                t["by_mode"][val] = t["by_mode"].get(val, 0.0) + dur
            elif isinstance(val, int):
                t["counts"][key] = t["counts"].get(key, 0) + val
    return totals


def verb_summary(docs: list, verb_wall_s: float) -> dict:
    """What one traced verb trained and skipped, and its wall time outside
    any root span of its main process."""
    main = [s for d in docs if not d["worker"] for s in d["spans"]]
    # A job is trained when _ensure_runs itself records its result (in the
    # parent process, with or without the pool); a wanted job that is never
    # trained in this verb was skipped as up to date.
    ensure = {s[0]: s for s in main if s[2] == "cli.ensure_runs"}
    trained = [(s[5] or {}).get("key") for s in main
               if s[2] == "cli.record" and s[1] in ensure]
    wanted = {key for s in ensure.values() for key in (s[5] or {}).get("keys", [])}
    return {"jobs_trained": trained, "jobs_wanted": wanted,
            "untraced_s": max(verb_wall_s - _root_union(main), 0.0)}


# (metric, unit, better) for every per-layer metric, in report order
LAYER_METRICS = [
    ("net.adamw_step.calls", "count", "lower"),
    ("net.adamw_step.s", "s", "lower"),
    ("net.adamw_step.us_per_call", "us", "lower"),
    ("net.batch_scores.calls", "count", "lower"),
    ("net.batch_scores.s", "s", "lower"),
    ("training.train.calls", "count", "lower"),
    ("training.train.s.standard", "s", "lower"),
    ("training.train.s.text_only", "s", "lower"),
    ("training.train.s.shortcut_aware", "s", "lower"),
    ("training.train.total_s", "s", "lower"),
    ("training.train.max_job_s", "s", "lower"),
    ("training.batch_pair_grads.calls", "count", "lower"),
    ("training.batch_pair_grads.self_s", "s", "lower"),
    ("training.weighted_grad_step.calls", "count", "lower"),
    ("training.weighted_grad_step.self_s", "s", "lower"),
    ("training.stack_pairs.calls", "count", "lower"),
    ("training.stack_pairs.s", "s", "lower"),
    ("training.TrainRun.save.s", "s", "lower"),
    ("training.TrainRun.load.calls", "count", "lower"),
    ("training.TrainRun.load.s", "s", "lower"),
    ("envs.sample_env.calls", "count", "lower"),
    ("envs.sample_env.s", "s", "lower"),
    ("envs.sample_env.pairs_per_s", "1/s", "higher"),
    ("envs.write_dataset.s", "s", "lower"),
    ("envs.write_dataset.bytes", "B", "lower"),
    ("envs.read_dataset.calls", "count", "lower"),
    ("envs.read_dataset.s", "s", "lower"),
    ("envs.read_dataset.bytes", "B", "lower"),
    ("evaluation.gen_matrix.s", "s", "lower"),
    ("evaluation.accuracy.calls", "count", "lower"),
    ("evaluation.accuracy.s", "s", "lower"),
    ("evaluation.sfd_report.calls", "count", "lower"),
    ("evaluation.sfd_report.s", "s", "lower"),
    ("bestofn.make_pools.calls", "count", "lower"),
    ("bestofn.make_pools.s", "s", "lower"),
    ("bestofn.score_pool.calls", "count", "lower"),
    ("bestofn.score_pool.s", "s", "lower"),
    ("bestofn.bon_curve.s", "s", "lower"),
    ("bestofn.bon_fast.calls", "count", "lower"),
    ("bestofn.bon_fast.us_per_call", "us", "lower"),
    ("svg.render.s", "s", "lower"),
    ("cli.sha256.calls", "count", "lower"),
    ("cli.sha256.bytes", "B", "lower"),
    ("cli.sha256.s", "s", "lower"),
    ("cli.ensure_runs.jobs_trained", "count", "lower"),
    ("cli.ensure_runs.jobs_skipped", "count", "higher"),
    ("cli.pool.critical_path_s", "s", "lower"),
    ("cli.pool.speedup", "x", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
]


def layer_values(totals: dict, trained: list, wanted: set) -> dict:
    """Per-layer metric values from span totals (pool and trace
    metrics need end-to-end timings and are filled in by the caller)."""
    def t(name):
        return totals.get(name) or _new_total()

    def per_call_us(name):
        x = t(name)
        return x["s"] / x["calls"] * 1e6 if x["calls"] else 0.0

    train = t("training.train")
    sample = t("envs.sample_env")
    values = {
        "net.adamw_step.calls": t("net.adamw_step")["calls"],
        "net.adamw_step.s": t("net.adamw_step")["s"],
        "net.adamw_step.us_per_call": per_call_us("net.adamw_step"),
        "net.batch_scores.calls": t("net.batch_scores")["calls"],
        "net.batch_scores.s": t("net.batch_scores")["s"],
        "training.train.calls": train["calls"],
        "training.train.total_s": train["s"],
        "training.train.max_job_s": train["max_s"],
        "training.stack_pairs.calls": t("training.stack_pairs")["calls"],
        "training.stack_pairs.s": t("training.stack_pairs")["s"],
        "training.TrainRun.save.s": t("training.TrainRun.save")["s"],
        "envs.sample_env.pairs_per_s": (sample["counts"].get("pairs", 0) / sample["s"]
                                        if sample["s"] else 0.0),
        "envs.write_dataset.bytes": t("envs.write_dataset")["counts"].get("bytes", 0),
        "envs.read_dataset.bytes": t("envs.read_dataset")["counts"].get("bytes", 0),
        "evaluation.gen_matrix.s": t("evaluation.gen_matrix")["s"],
        "bestofn.bon_curve.s": t("bestofn.bon_curve")["s"],
        "bestofn.bon_fast.calls": t("bestofn.bon_fast")["calls"],
        "bestofn.bon_fast.us_per_call": per_call_us("bestofn.bon_fast"),
        "svg.render.s": t("svg.render")["s"],
        "cli.sha256.bytes": t("cli.sha256")["counts"].get("bytes", 0),
        "cli.ensure_runs.jobs_trained": len(trained),
        "cli.ensure_runs.jobs_skipped": len(set(wanted) - set(trained)),
    }
    for mode in ("standard", "text_only", "shortcut_aware"):
        values[f"training.train.s.{mode}"] = train["by_mode"].get(mode, 0.0)
    for name in ("training.batch_pair_grads", "training.weighted_grad_step"):
        values[f"{name}.calls"] = t(name)["calls"]
        values[f"{name}.self_s"] = t(name)["self_s"]
    for name in ("training.TrainRun.load", "envs.sample_env", "envs.read_dataset",
                 "evaluation.accuracy", "evaluation.sfd_report", "bestofn.make_pools",
                 "bestofn.score_pool", "cli.sha256"):
        values[f"{name}.calls"] = t(name)["calls"]
        values[f"{name}.s"] = t(name)["s"]
    values["envs.write_dataset.s"] = t("envs.write_dataset")["s"]
    return values
