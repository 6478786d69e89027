"""Spans around the public functions of every cogrl module.

``install`` replaces each traced function where its callers look it up (a
module global such as ``cogrl.representation.sgd_update``, or a method on
its class) with a wrapper that records a span: name, start, end, parent
span and the id of the timed command that caused it. Spans are kept in
flat arrays in memory and written out when the round ends; the per-layer
metrics are derived from them afterwards. Private helpers (``_Design``,
``_fit_rows``, ``_cv_fold_worker``) are not wrapped, so their time lands in
the self time of the public function that calls them.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# name -> (where callers look it up, {counter: f(args, result) -> int});
# every layer also counts its calls
LAYERS = {
    "neuralcore.conv_forward": (["cogrl.neuralcore.layers:ConvLayer.forward"], {}),
    "neuralcore.conv_backward": (["cogrl.neuralcore.layers:ConvLayer.backward"], {}),
    "neuralcore.dense_forward": (["cogrl.neuralcore.layers:DenseLayer.forward"], {}),
    "neuralcore.dense_backward": (["cogrl.neuralcore.layers:DenseLayer.backward"], {}),
    "neuralcore.batch_loss_and_grads": (
        ["cogrl.neuralcore.network:Network.batch_loss_and_grads"],
        {"samples": lambda a, r: len(a[1])}),
    "neuralcore.softmax_cross_entropy": (
        ["cogrl.neuralcore.network:softmax_cross_entropy"], {}),
    "neuralcore.sgd_update": (
        ["cogrl.representation:sgd_update", "cogrl.neuralcore.train:sgd_update",
         "cogrl.neuralcore:sgd_update"], {}),
    "neuralcore.lstm_run": (["cogrl.neuralcore.layers:LSTMCell.run"],
                            {"steps": lambda a, r: len(a[1])}),
    "neuralcore.lstm_bptt": (
        ["cogrl.neuralcore.layers:LSTMCell.backward_through_time"], {}),
    "neuralcore.embedding_backward": (
        ["cogrl.neuralcore.layers:EmbeddingTable.backward"], {}),
    "neuralcore.save_checkpoint": (
        ["cogrl.representation:save_checkpoint",
         "cogrl.neuralcore.checkpoint:save_checkpoint",
         "cogrl.neuralcore:save_checkpoint"], {}),
    "representation.train_model": (
        ["cogrl.cli:train_model", "cogrl.representation:train_model"],
        {"epochs": lambda a, r: len(r)}),
    "representation.extract_representations": (
        ["cogrl.cli:extract_representations",
         "cogrl.representation:extract_representations"], {}),
    "representation.training_accuracy": (
        ["cogrl.cli:training_accuracy", "cogrl.representation:training_accuracy"],
        {}),
    "representation.threshold_qmatrix": (
        ["cogrl.cli:threshold_qmatrix", "cogrl.representation:threshold_qmatrix"],
        {}),
    "representation.write_representations": (
        ["cogrl.cli:write_representations",
         "cogrl.representation:write_representations"], {}),
    "ingest.load_transactions": (
        ["cogrl.cli:load_transactions", "cogrl.ingest:load_transactions"],
        {"rows": lambda a, r: len(r)}),
    "ingest.load_images": (["cogrl.cli:load_images", "cogrl.ingest:load_images"],
                           {}),
    "ingest.load_cloze": (["cogrl.cli:load_cloze", "cogrl.ingest:load_cloze"], {}),
    "ingest.read_features": (
        ["cogrl.cli:read_features", "cogrl.ingest:read_features"], {}),
    "afm.TransactionLog": (["cogrl.afm:TransactionLog.__init__"],
                           {"rows": lambda a, r: len(a[0].rows)}),
    "afm.compute_opportunities": (["cogrl.afm:compute_opportunities"],
                                  {"rows": lambda a, r: len(r.rows)}),
    "afm.afm_fit": (
        ["cogrl.cli:afm_fit", "cogrl.afm:afm_fit", "cogrl.apprentice:afm_fit"],
        {"iterations": lambda a, r: r[1].iterations}),
    "afm.item_stratified_cv": (
        ["cogrl.cli:item_stratified_cv", "cogrl.afm:item_stratified_cv"],
        {"folds": lambda a, r: len(r.fold_rmses)}),
    "afm.compare_models": (["cogrl.cli:compare_models", "cogrl.afm:compare_models"],
                           {}),
    "apprentice.fit_decision_tree": (["cogrl.apprentice:fit_decision_tree"],
                                     {"examples": lambda a, r: len(a[0])}),
    "apprentice.tree_predict": (["cogrl.apprentice:tree_predict"], {}),
    "apprentice.simulate_learner": (["cogrl.apprentice:simulate_learner"], {}),
    "apprentice.simulate_and_estimate": (
        ["cogrl.cli:simulate_and_estimate",
         "cogrl.apprentice:simulate_and_estimate"], {}),
    "apprentice.article_human_features": (
        ["cogrl.apprentice:article_human_features",
         "cogrl.ingest:article_human_features"], {}),
    "cogmodel.read_qmatrix": (
        ["cogrl.cli:read_qmatrix", "cogrl.cogmodel:read_qmatrix"], {}),
    "cogmodel.sanitize_qmatrix": (
        ["cogrl.representation:sanitize_qmatrix",
         "cogrl.cogmodel:sanitize_qmatrix"], {}),
    "cli.main": (["cogrl.cli:main"], {}),
}


def _resolve(target):
    module, _, attr = target.partition(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans into flat arrays; ``command`` tags new spans."""

    def __init__(self):
        self.names = list(LAYERS)
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: {} for name in self.names}
        self.command = -1
        self._stack: list[int] = []
        self._active = [0] * len(self.names)

    def _wrap(self, nid, fn, counters):
        name, parent, cmd, nested = self.name, self.parent, self.cmd, self.nested
        start, end, stack, active = self.start, self.end, self._stack, self._active
        counts = self.counts[self.names[nid]]
        counts.setdefault("calls", 0)
        for key in counters:
            counts.setdefault(key, 0)

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            cmd.append(self.command)
            nested.append(active[nid] > 0)
            start.append(0.0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] -= 1
                start[idx] = t0
                end[idx] = t1
            counts["calls"] += 1
            for key, count in counters.items():
                counts[key] += count(args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer in place, for the rest of the process."""
        for nid, (targets, counters) in enumerate(LAYERS.values()):
            wrappers = {}
            for target in targets:
                owner, attr = _resolve(target)
                fn = owner.__dict__[attr]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(nid, fn, counters)
                setattr(owner, attr, wrappers[id(fn)])

    def arrays(self):
        """Span columns as numpy arrays, plus each span's self time."""
        dur = np.array(self.end, dtype=np.float64) \
            - np.array(self.start, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.array(self.name, dtype=np.int64),
                "cmd": np.array(self.cmd, dtype=np.int64),
                "nested": np.array(self.nested, dtype=np.int8) > 0,
                "dur": dur, "self": dur - child}

    def layer_metrics(self):
        """``<layer>.s`` (time inside the outermost calls), ``.self_s`` (that
        minus the time inside wrapped children) and every count."""
        cols = self.arrays()
        out = {}
        for nid, layer in enumerate(self.names):
            mine = cols["name"] == nid
            out[f"{layer}.s"] = float(np.sum(cols["dur"][mine & ~cols["nested"]]))
            out[f"{layer}.self_s"] = float(np.sum(cols["self"][mine]))
            for key, value in self.counts[layer].items():
                out[f"{layer}.{key}"] = value
        return out

    def command_self_sums(self, n_commands):
        """Per timed command, the sum of its spans' self times."""
        cols = self.arrays()
        return [float(np.sum(cols["self"][cols["cmd"] == c]))
                for c in range(n_commands)]

    def write(self, path):
        cols = self.arrays()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span\tname\tparent\tcommand\tstart\tend\tself_s\n")
            for i in range(len(cols["dur"])):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.cmd[i]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{float(cols['self'][i])!r}\n")
