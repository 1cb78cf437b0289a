"""Span tracer that wraps the package's public functions from outside.

The package calls across modules by qualified name (``network.forward_cached``,
``losses.contrastive_margins``) and within a module through its globals, so
replacing a module attribute catches every call, including the call inside
``network.forward``. The two methods that matter, ``ContrastiveDataset.gather``
and ``Adam.update``, are replaced on their classes. Nothing under ``src/`` is
edited.

A span is ``[span_id, parent_id, call_id, name, start, end, counts]``. Spans are
kept in memory; the caller writes them out once the process is done.
"""

import functools
import json
import math
import os
import time
from collections import defaultdict

from pbcurl import bounds, cli, data, divergences, evaluation, losses, network, training


def _gather_rows(args, kwargs, result):
    # one anchor row, b positive rows and k*b negative rows per tuple
    return {"rows": sum(part.size // part.shape[-1] for part in result)}


def _forward_rows(args, kwargs, result):
    x = kwargs["x"] if "x" in kwargs else args[2]
    return {"rows": len(x)}


def _manifest_bytes(args, kwargs, result):
    path = kwargs["json_path"] if "json_path" in kwargs else args[0]
    # the feature matrix file is a 16 byte header plus the float64 payload
    return {"bytes": os.path.getsize(path) + 16 + result.features.nbytes}


def _draws(args, kwargs, result):
    return {"draws": len(result[1])}


def _rejected(args, kwargs, result):
    return {"inf_calls": int(math.isinf(result[0]))}


# (owner, attribute, span name, counter of work done per call)
TRACED = [
    (data.ContrastiveDataset, "gather", "data.gather", _gather_rows),
    (data, "load_contrastive", "data.load_contrastive", _manifest_bytes),
    (data, "save_contrastive", "data.save_contrastive", None),
    (data, "dataset_hash", "data.dataset_hash", None),
    (data, "sample_contrastive_iid", "data.sample_contrastive_iid", None),
    (data, "sample_labeled", "data.sample_labeled", None),
    (data, "gen_sequences", "data.gen_sequences", None),
    (data, "build_noniid_from_sequences", "data.build_noniid_from_sequences", None),
    (data, "load_feature_csv", "data.load_feature_csv", None),
    (data, "save_labeled_csv", "data.save_labeled_csv", None),
    (network, "forward_cached", "network.forward_cached", _forward_rows),
    (network, "backprop", "network.backprop", None),
    (network, "feature_bound", "network.feature_bound", None),
    (network, "sample_eps", "network.sample_eps", None),
    (network, "sample_weights", "network.sample_weights", None),
    (network, "posterior_grads_from_weight_grad", "network.posterior_grads_from_weight_grad", None),
    (network, "init_network", "network.init_network", None),
    (network, "load_checkpoint", "network.load_checkpoint", None),
    (network, "save_checkpoint", "network.save_checkpoint", None),
    (losses, "contrastive_margins", "losses.contrastive_margins", None),
    (losses, "loss_value", "losses.loss_value", None),
    (losses, "loss_margin_grad", "losses.loss_margin_grad", None),
    (losses, "zero_one_risk", "losses.zero_one_risk", None),
    (losses, "loss_range", "losses.loss_range", None),
    (divergences, "kl_gaussian", "divergences.kl_gaussian", None),
    (divergences, "kl_gaussian_grads", "divergences.kl_gaussian_grads", None),
    (divergences, "chi2_gaussian", "divergences.chi2_gaussian", None),
    (divergences, "chi2_log1p_grads", "divergences.chi2_log1p_grads", None),
    (training, "train", "training.train", None),
    (training, "grid_search", "training.grid_search", None),
    (training, "iid_objective", "training.iid_objective", None),
    (training, "noniid_objective", "training.noniid_objective", _rejected),
    (training, "contrastive_loss_and_wgrad", "training.contrastive_loss_and_wgrad", None),
    (training.Adam, "update", "training.Adam.update", None),
    (training, "selection_certificate", "training.selection_certificate", None),
    (training, "loss_certificate", "training.loss_certificate", None),
    (evaluation, "mc_posterior_risk", "evaluation.mc_posterior_risk", _draws),
    (evaluation, "evaluate_representation", "evaluation.evaluate_representation", None),
    (evaluation, "build_mean_classifier", "evaluation.build_mean_classifier", None),
    (evaluation, "avg2_accuracy", "evaluation.avg2_accuracy", None),
    (evaluation, "topk_accuracy", "evaluation.topk_accuracy", None),
    (bounds, "j_index", "bounds.j_index", None),
    (bounds, "selection_bound_iid", "bounds.selection_bound_iid", None),
    (bounds, "selection_bound_noniid", "bounds.selection_bound_noniid", None),
    (bounds, "noniid_bound", "bounds.noniid_bound", None),
    (bounds, "iid_supervised_bound", "bounds.iid_supervised_bound", None),
]


class Tracer:
    """Records spans for the functions in TRACED while a CLI call is open."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._call_id = None
        self._undo = []

    def install(self):
        for owner, attr, name, count in TRACED:
            fn = getattr(owner, attr)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._call_id is None:
                return fn(*args, **kwargs)
            return tracer._span(name, count, fn, args, kwargs)

        return wrapper

    def _span(self, name, count, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self._call_id, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[6] = count(args, kwargs, result)
        return result

    def cli_call(self, call_id, argv):
        """Run ``cli.main(argv)`` as the root span ``cli.main.<command>``."""
        self._call_id = call_id
        try:
            return self._span(f"cli.main.{argv[0]}", None, cli.main, (argv,), {})
        finally:
            self._call_id = None

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        out = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                out[s[1]] -= s[5] - s[4]
        return out

    def summary(self, call_ids, self_times):
        """Per-name calls, self time and counts over the spans of call_ids."""
        stats = defaultdict(lambda: defaultdict(float))
        for s, self_s in zip(self.spans, self_times):
            if s[2] not in call_ids:
                continue
            st = stats[s[3]]
            st["calls"] += 1
            st["self_s"] += self_s
            for key, val in (s[6] or {}).items():
                st[key] += val
        return {name: dict(st) for name, st in stats.items()}

    def call_self_sums(self, self_times):
        """Sum of self times per CLI call; equals the root span's duration."""
        sums = defaultdict(float)
        for s, self_s in zip(self.spans, self_times):
            sums[s[2]] += self_s
        return dict(sums)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[0], "parent": s[1], "call": s[2], "name": s[3],
                    "start": s[4], "end": s[5], "counts": s[6],
                }) + "\n")
