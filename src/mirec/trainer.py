"""Mini-batch Adam training loop.

Decoupled weight decay runs before the Adam update (p <- p - lr*wd*p), then
the bias-corrected moment update. Gradients are clipped by global norm
first; a non-finite gradient is a hard error naming the parameter. All
randomness flows through one generator seeded from the config, so two runs
with the same seed produce bit-identical checkpoints.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import gradcore as gc
from .evaluation import evaluate_split
from .data import write_atomic
from .losses import compute_batch_losses
from .model import pad_sequences, save_checkpoint


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    m: list
    v: list
    step: int
    lr: float
    weight_decay: float

    @classmethod
    def init(cls, params, lr, weight_decay):
        tensors = params.tensors()
        return cls(m=[np.zeros_like(t.value) for t in tensors],
                   v=[np.zeros_like(t.value) for t in tensors],
                   step=0, lr=lr, weight_decay=weight_decay)


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    eval_every: int = 1  # validation cadence in epochs; 0 disables validation
    patience: int = 0  # stop after this many evals without improvement; 0 never
    checkpoint_path: str = ""
    log_path: str = ""
    lr: float = 0.003
    weight_decay: float = 1e-5
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 0 or self.patience < 0:
            raise ValueError("eval_every and patience must be >= 0")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        for name in ("weight_decay", "clip_norm"):  # clip_norm 0 disables clipping
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class TrainResult:
    params: object
    history: list  # per-epoch dicts of mean loss components (+ valid recall)
    log_lines: list
    num_examples: int
    skipped_short: int
    best_epoch: int
    best_valid_recall: float
    stopped_early: bool


def adam_step(params, grads, state):
    """One Adam update over all parameters, in place."""
    named = params.named()
    if len(grads) != len(named):
        raise ValueError(f"got {len(grads)} gradients for {len(named)} parameters")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for (name, tensor), g, m, v in zip(named, grads, state.m, state.v):
        if g.shape != tensor.value.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"parameter {name} {tensor.value.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name}")
        if state.weight_decay != 0.0:
            tensor.value -= state.lr * state.weight_decay * tensor.value
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        tensor.value -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_global_norm(grads, max_norm):
    """(grads, global L2 norm); grads are new arrays scaled to max_norm if above it."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm > 0.0:
        scale = max_norm / total
        grads = [g * scale for g in grads]
    return grads, total


def build_examples(sequences):
    """Sliding next-item pairs: (items[:t], items[t]) for every t >= 1.

    Returns (examples, skipped) where skipped counts length-1 sequences.
    Prefixes are views into the per-user arrays, truncated at batch time.
    """
    examples = []
    skipped = 0
    for user in sorted(sequences):
        items = np.asarray(sequences[user], dtype=np.int64)
        if items.shape[0] < 2:
            skipped += 1
            continue
        for t in range(1, items.shape[0]):
            examples.append((items[:t], int(items[t])))
    return examples, skipped


def _assemble_batch(examples, idx, max_seq_len):
    ids, mask = pad_sequences([examples[j][0] for j in idx], max_seq_len)
    targets = np.array([examples[j][1] for j in idx], dtype=np.int64)
    return ids, mask, targets


def train_epoch(examples, params, hp, state, config, rng):
    """One shuffled pass; returns example-weighted mean loss components.
    A step's ValueError is re-raised as `step S: <message>`, S from 1."""
    if not examples:
        raise ValueError("no training examples")
    order = rng.permutation(len(examples))
    sums = {"total": 0.0, "rec": 0.0, "contrast": 0.0, "attend": 0.0,
            "reconstruct": 0.0}
    for step, start in enumerate(range(0, len(order), config.batch_size), 1):
        idx = order[start : start + config.batch_size]
        ids, mask, targets = _assemble_batch(examples, idx, hp.max_seq_len)
        try:
            tape = gc.Tape()
            with tape:
                total, bundle = compute_batch_losses(ids, mask, targets, params, hp, rng)
            grads = tape.backward(total, params.tensors())
            grads, _ = clip_global_norm(grads, config.clip_norm)
            adam_step(params, grads, state)
        except ValueError as exc:
            raise ValueError(f"step {step}: {exc}") from exc
        for k in sums:
            sums[k] += getattr(bundle, k) * len(idx)
    n = len(order)
    return {k: s / n for k, s in sums.items()}


def _epoch_line(epoch, stats, seconds, valid_recall=None):
    line = (f"epoch {epoch} l_rec {stats['rec']:.6f} l_cl {stats['contrast']:.6f} "
            f"l_att {stats['attend']:.6f} l_ct {stats['reconstruct']:.6f} "
            f"seconds {seconds:.2f}")
    if valid_recall is not None:
        line += f" valid_recall@20 {valid_recall:.6f}"
    return line


def train(split_data, params, hp, config, log=None):
    """Run the full loop; returns a TrainResult holding the best parameters.

    With eval_every > 0 and a non-empty validation part, Recall@20 is tracked
    and the best-scoring parameter snapshot is restored at the end, so the
    result is never worse on validation than anything seen. patience > 0
    additionally stops after that many evaluations without improvement.
    `log` is called with each finished epoch line.
    """
    examples, skipped = build_examples(split_data.train)
    if not examples:
        raise ValueError("training split has no sequences of length >= 2")
    rng = np.random.default_rng(config.seed)
    state = OptimState.init(params, config.lr, config.weight_decay)
    validate = config.eval_every > 0 and bool(split_data.valid)
    history, log_lines = [], []
    best_recall = -1.0
    best_epoch = 0
    best_values = None
    evals_since_best = 0
    stopped = False
    for epoch in range(1, config.epochs + 1):
        t0 = time.monotonic()
        try:
            stats = train_epoch(examples, params, hp, state, config, rng)
        except ValueError as exc:
            raise ValueError(f"epoch {epoch} {exc}") from exc
        seconds = time.monotonic() - t0
        entry = dict(stats, epoch=epoch, seconds=seconds)
        valid_recall = None
        if validate and epoch % config.eval_every == 0:
            report = evaluate_split(params, split_data.valid, hp, cutoffs=(20,))
            valid_recall = report.recall[20]
            entry["valid_recall"] = valid_recall
            if valid_recall > best_recall:
                best_recall = valid_recall
                best_epoch = epoch
                best_values = [t.value.copy() for t in params.tensors()]
                evals_since_best = 0
            else:
                evals_since_best += 1
        history.append(entry)
        line = _epoch_line(epoch, stats, seconds, valid_recall)
        log_lines.append(line)
        if log is not None:
            log(line)
        if config.patience > 0 and evals_since_best >= config.patience:
            stopped = True
            break
    if best_values is not None:
        for tensor, value in zip(params.tensors(), best_values):
            tensor.value = value.copy()
    if config.checkpoint_path:
        save_checkpoint(params, config.checkpoint_path)
    if config.log_path:
        write_atomic(config.log_path, "\n".join(log_lines) + "\n")
    return TrainResult(
        params=params, history=history, log_lines=log_lines,
        num_examples=len(examples), skipped_short=skipped,
        best_epoch=best_epoch if best_values is not None else len(history),
        best_valid_recall=best_recall if best_values is not None else float("nan"),
        stopped_early=stopped,
    )
