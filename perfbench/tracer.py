"""Span tracer that measures mirec's layers from outside the package.

The tracer replaces module attributes (the names callers look up at call
time, such as `mirec.trainer.compute_batch_losses`) with wrappers that
record a span: name, start, end, parent and optional attributes. Spans stay
in memory and are written once, when the run ends. A wrapped name that no
longer exists is recorded as missing; every metric built from it is then
reported as unmeasured (None) instead of failing the run.

Nothing here changes what the wrapped functions compute: wrappers pass
arguments and results through untouched, so a traced run must produce the
same artifacts, byte for byte, as an untraced one.
"""

import contextlib
import functools
import importlib
import json
import statistics
import time

# Public gradcore ops whose forward calls are counted and timed.
GRADCORE_OPS = (
    "add", "sub", "mul", "div", "neg", "matmul", "tanh", "sqrt",
    "tsum", "reshape", "swapaxes", "concat", "gather_rows", "take_per_row",
    "stop_grad", "softmax", "masked_softmax", "logsumexp", "masked_logsumexp",
    "softplus", "logaddexp",
)

LOSS_TERMS = (
    ("rec", "rec_batch"),
    ("contrast", "recontrast_batch"),
    ("attend", "reattend_batch"),
    ("reconstruct", "reconstruct_batch"),
)


def _active_tape_len():
    """Entries on the innermost active tape, or None if unobservable."""
    gradcore = importlib.import_module("mirec.gradcore")
    tapes = getattr(gradcore, "_TAPES", None)
    if not tapes:
        return None
    return len(tapes[-1].entries)


def _tape_size(args, _result, _before):
    """Entry count and value bytes (sum of out.value.nbytes) of a tape."""
    entries = args[0].entries
    return {"entries": len(entries),
            "bytes": sum(int(entry[0].value.nbytes) for entry in entries)}


def _tape_growth(_args, _result, before):
    after = _active_tape_len()
    if before is None or after is None:
        return None
    return {"entries": after - before}


def _positive_sets(_args, result, _before):
    """Per (example, interest) positive-set sizes from select_positives_batch."""
    pos_mask = result[0]
    sizes = pos_mask.sum(axis=-1)
    return {"pairs": int(sizes.size), "empty": int((sizes == 0).sum()),
            "positives": int(sizes.sum())}


def _kmeans_iterations(_args, result, _before):
    return {"iterations": int(result.iterations)}


def _targets():
    """(span name, module, attribute path, observer, pre-call probe)."""
    targets = [
        ("data.synth", "mirec.cli", "generate_synthetic", None, None),
        ("data.ingest", "mirec.cli", "ingest", None, None),
        ("data.split", "mirec.cli", "split", None, None),
        ("trainer.train", "mirec.cli", "train", None, None),
        ("trainer.batch", "mirec.trainer", "_assemble_batch", None, None),
        ("trainer.forward", "mirec.trainer", "compute_batch_losses", None, None),
        ("trainer.backward", "mirec.gradcore", "Tape.backward", _tape_size, None),
        ("trainer.clip", "mirec.trainer", "clip_global_norm", None, None),
        ("trainer.adam", "mirec.trainer", "adam_step", None, None),
        ("trainer.validation", "mirec.trainer", "evaluate_split", None, None),
        ("trainer.checkpoint", "mirec.trainer", "save_checkpoint", None, None),
        ("losses.oos_sample", "mirec.losses", "sample_out_of_seq_batch", None, None),
        ("losses.select_positives", "mirec.losses", "select_positives_batch",
         _positive_sets, None),
        ("model.interest_forward", "mirec.losses", "interest_forward", None, None),
        ("model.interest_forward", "mirec.model", "interest_forward", None, None),
        ("model.checkpoint_load", "mirec.cli", "load_checkpoint", None, None),
        ("evaluation.evaluate", "mirec.cli", "evaluate_split", None, None),
        ("evaluation.extract", "mirec.evaluation", "user_interests_for_profile",
         None, None),
        ("evaluation.retrieve", "mirec.evaluation", "retrieve_topn", None, None),
        ("evaluation.metrics", "mirec.evaluation", "metric_recall", None, None),
        ("evaluation.metrics", "mirec.evaluation", "metric_ndcg", None, None),
        ("evaluation.metrics", "mirec.evaluation", "metric_hitrate", None, None),
        ("diagnostics.diagnose", "mirec.cli", "diagnose", None, None),
        ("diagnostics.kmeans", "mirec.diagnostics", "kmeans", _kmeans_iterations,
         None),
        ("diagnostics.export", "mirec.cli", "export_embeddings", None, None),
    ]
    for term, attr in LOSS_TERMS:
        targets.append((f"losses.{term}", "mirec.losses", attr, _tape_growth,
                        _active_tape_len))
    for op in GRADCORE_OPS:
        targets.append((f"gradcore.{op}", "mirec.gradcore", op, None, None))
    return targets


class Tracer:
    """In-memory span recorder; install() wraps, restore() unwraps."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, attrs]
        self.missing = set()
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around the body of a `with` statement."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, observe, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = probe() if probe is not None else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                try:
                    self.spans[idx][4] = observe(args, result, before)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.missing.add(name + ".attrs")
            return result

        return traced

    def install(self):
        """Wrap every target; a span name none of whose targets exist is missing."""
        wanted, wrapped = set(), set()
        for name, module_name, path, observe, probe in _targets():
            wanted.add(name)
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe, probe))
            wrapped.add(name)
        self.missing |= wanted - wrapped
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """All spans as JSON: {"names": [...], "spans": [[name_id, start_ns,
        end_ns, parent, attrs], ...], "missing": [...]}."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "missing": sorted(self.missing),
               "spans": [[ids[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------- metrics


def _pct(values, q):
    """Nearest-rank percentile q in [0, 100] of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _Spans:
    """Query helper over one tracer's spans."""

    def __init__(self, tracer):
        self.spans = tracer.spans
        self.missing = tracer.missing
        self._by_name = {}
        for i, span in enumerate(self.spans):
            self._by_name.setdefault(span[0], []).append(i)

    def _ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent != -1:
            yield parent
            parent = self.spans[parent][3]

    def _has_ancestor(self, idx, ancestor):
        return any(self.spans[p][0] == ancestor for p in self._ancestors(idx))

    def select(self, name, under=None):
        return [i for i in self._by_name.get(name, ())
                if under is None or self._has_ancestor(i, under)]

    def ms(self, idx):
        s = self.spans[idx]
        return (s[2] - s[1]) / 1e6

    def attr(self, idx, key):
        attrs = self.spans[idx][4]
        return None if attrs is None else attrs.get(key)


def layer_metrics(tracer, per_layer_names):
    """Per-layer metric values (None = unmeasured) for the given names."""
    q = _Spans(tracer)
    out = {}

    def measured(*names):
        return not any(n in q.missing for n in names)

    def put(key, value, *needs):
        out[key] = value if measured(*needs) else None

    def total_ms(name, under=None):
        return sum(q.ms(i) for i in q.select(name, under))

    def median_ms(name, under=None):
        vals = [q.ms(i) for i in q.select(name, under)]
        return statistics.median(vals) if vals else 0.0

    # data
    put("data.synth_s", total_ms("data.synth") / 1e3, "data.synth")
    put("data.split_s", total_ms("data.split") / 1e3, "data.split")
    put("data.ingest_s", total_ms("data.ingest") / 1e3, "data.ingest")
    put("data.ingest_calls", len(q.select("data.ingest")), "data.ingest")

    # trainer: a step runs from batch assembly to the end of the Adam update
    batches, adams = q.select("trainer.batch"), q.select("trainer.adam")
    steps = [(q.spans[a][2] - q.spans[b][1]) / 1e6 for b, a in zip(batches, adams)]
    put("trainer.steps", len(adams), "trainer.adam")
    step_ok = measured("trainer.batch", "trainer.adam") and len(batches) == len(adams)
    out["trainer.step_ms_p50"] = (_pct(steps, 50) if steps else 0.0) if step_ok else None
    out["trainer.step_ms_p90"] = (_pct(steps, 90) if steps else 0.0) if step_ok else None
    for key, name in (("batch", "batch"), ("forward", "forward"),
                      ("backward", "backward"), ("clip", "clip"), ("adam", "adam")):
        put(f"trainer.{key}_ms", median_ms(f"trainer.{name}"), f"trainer.{name}")
    put("trainer.validation_s", total_ms("trainer.validation") / 1e3,
        "trainer.validation")
    put("trainer.checkpoint_ms", total_ms("trainer.checkpoint"), "trainer.checkpoint")

    # gradcore
    backward = q.select("trainer.backward")
    for key, attr in (("tape_entries_per_step", "entries"),
                      ("tape_bytes_per_step", "bytes")):
        vals = [q.attr(i, attr) for i in backward]
        ok = measured("trainer.backward", "trainer.backward.attrs")
        out[f"gradcore.{key}"] = (statistics.median(vals) if vals else 0) if ok else None
    for op in GRADCORE_OPS:
        name = f"gradcore.{op}"
        put(f"gradcore.fwd_calls.{op}", len(q.select(name)), name)
        put(f"gradcore.fwd_ms.{op}", total_ms(name), name)

    # losses
    for term, _ in LOSS_TERMS:
        name = f"losses.{term}"
        put(f"losses.{term}_ms", median_ms(name), name)
        vals = [q.attr(i, "entries") for i in q.select(name)]
        ok = measured(name, name + ".attrs") and None not in vals
        out[f"losses.{term}_tape_entries"] = (
            (statistics.median(vals) if vals else 0) if ok else None)
    put("losses.oos_sample_ms", median_ms("losses.oos_sample"), "losses.oos_sample")
    selects = q.select("losses.select_positives", under="trainer.forward")
    put("losses.select_positives_ms",
        statistics.median([q.ms(i) for i in selects]) if selects else 0.0,
        "losses.select_positives")
    pairs = sum(q.attr(i, "pairs") or 0 for i in selects)
    empty = sum(q.attr(i, "empty") or 0 for i in selects)
    positives = sum(q.attr(i, "positives") or 0 for i in selects)
    sel_ok = ("losses.select_positives", "losses.select_positives.attrs")
    put("losses.pos_empty_share", empty / pairs if pairs else 0.0, *sel_ok)
    put("losses.pos_mean_size", positives / pairs if pairs else 0.0, *sel_ok)

    # model
    put("model.interest_forward_calls", len(q.select("model.interest_forward")),
        "model.interest_forward")
    put("model.interest_forward_ms", total_ms("model.interest_forward"),
        "model.interest_forward")
    put("model.checkpoint_load_ms", median_ms("model.checkpoint_load"),
        "model.checkpoint_load")

    # evaluation (the eval command, not training-time validation)
    under = "evaluation.evaluate"
    extracts = q.select("evaluation.extract", under)
    retrieves = q.select("evaluation.retrieve", under)
    per_user = [q.ms(e) + q.ms(r) for e, r in zip(extracts, retrieves)]
    user_ok = (measured("evaluation.extract", "evaluation.retrieve") and
               len(extracts) == len(retrieves))
    put("evaluation.users", len(retrieves), "evaluation.retrieve")
    for pct in (50, 99):  # nearest rank, so p99 is defined for any user count
        out[f"evaluation.user_ms_p{pct}"] = (
            (_pct(per_user, pct) if per_user else 0.0) if user_ok else None)
    put("evaluation.extract_ms_p50",
        _pct([q.ms(i) for i in extracts], 50) if extracts else 0.0,
        "evaluation.extract")
    put("evaluation.retrieve_ms_p50",
        _pct([q.ms(i) for i in retrieves], 50) if retrieves else 0.0,
        "evaluation.retrieve")
    put("evaluation.metrics_ms", total_ms("evaluation.metrics", under),
        "evaluation.metrics")

    # diagnostics: the first k-means call of each diagnose is the global one
    diag_global, diag_local = [], []
    kmeans_calls = q.select("diagnostics.kmeans")
    for d in q.select("diagnostics.diagnose"):
        calls = [i for i in kmeans_calls if d in q._ancestors(i)]
        diag_global += calls[:1]
        diag_local += calls[1:]
    put("diagnostics.kmeans_calls", len(diag_global) + len(diag_local),
        "diagnostics.kmeans")
    put("diagnostics.kmeans_global_ms", sum(q.ms(i) for i in diag_global),
        "diagnostics.kmeans")
    put("diagnostics.kmeans_local_ms", sum(q.ms(i) for i in diag_local),
        "diagnostics.kmeans")
    iters = [q.attr(i, "iterations") for i in diag_global]
    put("diagnostics.kmeans_iters_global", sum(iters) if None not in iters else 0,
        "diagnostics.kmeans", "diagnostics.kmeans.attrs")
    put("diagnostics.export_ms", total_ms("diagnostics.export"), "diagnostics.export")

    return {k: out.get(k) for k in per_layer_names if k in out}
