import numpy as np
import pytest

from mirec import gradcore as gc
from mirec import trainer as tr
from mirec.data import SyntheticSpec, generate_synthetic, split
from mirec.evaluation import evaluate_split
from mirec.model import HyperParams, ModelParams, load_checkpoint


class FakeParams:
    """Named-tensor container with the same optimizer-facing surface."""

    def __init__(self, arrays):
        self.items = [(n, gc.Tensor(np.asarray(a, dtype=np.float64)))
                      for n, a in arrays]

    def named(self):
        return list(self.items)

    def tensors(self):
        return [t for _, t in self.items]


def test_optim_defaults():
    cfg = tr.TrainConfig()
    assert (cfg.lr, cfg.weight_decay, cfg.clip_norm) == (0.003, 1e-5, 5.0)
    assert (tr.ADAM_BETA1, tr.ADAM_BETA2, tr.ADAM_EPS) == (0.9, 0.99, 1e-8)
    p = FakeParams([("w", np.ones(3))])
    st = tr.OptimState.init(p, cfg.lr, cfg.weight_decay)
    assert (st.lr, st.weight_decay, st.step) == (0.003, 1e-5, 0)
    assert all(np.all(m == 0) for m in st.m)


def test_zero_grad_no_decay_leaves_params_unchanged():
    p = FakeParams([("w", [1.0, -2.0, 3.0])])
    st = tr.OptimState.init(p, lr=0.003, weight_decay=0.0)
    tr.adam_step(p, [np.zeros(3)], st)
    assert np.array_equal(p.tensors()[0].value, [1.0, -2.0, 3.0])
    assert st.step == 1


def test_zero_grad_with_decay_shrinks_exactly():
    p = FakeParams([("w", [2.0])])
    st = tr.OptimState.init(p, lr=0.1, weight_decay=0.01)
    tr.adam_step(p, [np.zeros(1)], st)
    assert p.tensors()[0].value[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01), abs=0)


def test_nonfinite_gradient_is_hard_error():
    p = FakeParams([("item_emb", np.ones(2))])
    st = tr.OptimState.init(p, lr=0.003, weight_decay=1e-5)
    with pytest.raises(ValueError, match="non-finite gradient.*item_emb"):
        tr.adam_step(p, [np.array([1.0, np.nan])], st)


def test_gradient_shape_mismatch_rejected():
    p = FakeParams([("w", np.ones(2))])
    st = tr.OptimState.init(p, lr=0.003, weight_decay=1e-5)
    with pytest.raises(ValueError, match="shape"):
        tr.adam_step(p, [np.ones(3)], st)


def quadratic_trajectory(lr, steps):
    p = FakeParams([("x", [1.0])])
    st = tr.OptimState.init(p, lr=lr, weight_decay=0.0)
    xs = [1.0]
    for _ in range(steps):
        x = p.tensors()[0].value[0]
        tr.adam_step(p, [np.array([2.0 * x])], st)
        xs.append(p.tensors()[0].value[0])
    return np.array(xs)


def test_quadratic_descent_monotone_until_momentum_overshoot():
    # at lr=0.1 the iterate crosses zero near step 10 and momentum carries it
    # below; x is strictly decreasing through step 19, turns at step 20, and
    # ends the 50 steps close to the optimum
    xs = quadratic_trajectory(lr=0.1, steps=50)
    d = np.diff(xs)
    assert np.all(d[:19] < 0)
    assert d[19] > 0
    assert abs(xs[50]) < 0.05


def test_quadratic_descent_monotone_all_50_steps_at_small_lr():
    xs = quadratic_trajectory(lr=0.01, steps=50)
    assert np.all(np.diff(xs) < 0)
    assert xs[50] > 0


def test_clip_noop_below_threshold():
    g = [np.array([3.0]), np.array([4.0])]
    out, norm = tr.clip_global_norm(g, max_norm=6.0)
    assert norm == pytest.approx(5.0)
    assert out is g
    assert g[0][0] == 3.0 and g[1][0] == 4.0


def test_clip_scales_to_max_norm():
    g = [np.array([30.0]), np.array([40.0])]
    out, norm = tr.clip_global_norm(g, max_norm=5.0)
    assert norm == pytest.approx(50.0)
    after = np.sqrt(out[0][0] ** 2 + out[1][0] ** 2)
    assert after == pytest.approx(5.0)
    assert out[0][0] / out[1][0] == pytest.approx(3.0 / 4.0)
    assert g[0][0] == 30.0 and g[1][0] == 40.0  # the input arrays are left as they were


def test_build_examples_sliding_prefixes():
    exs, skipped = tr.build_examples({0: [10, 11, 12], 1: [7]})
    assert skipped == 1
    got = [(list(p), t) for p, t in exs]
    assert got == [([10], 11), ([10, 11], 12)]


def test_build_examples_counting_oracle():
    rng = np.random.default_rng(0)
    seqs = {}
    want = 0
    for u in range(1000):
        length = int(rng.integers(1, 12))
        seqs[u] = rng.integers(0, 100, size=length).tolist()
        want += max(0, length - 1)
    exs, skipped = tr.build_examples(seqs)
    assert len(exs) == want
    assert skipped == sum(1 for s in seqs.values() if len(s) < 2)


def tiny_hp(**kw):
    base = dict(
        embed_dim=8, att_hidden_dim=12, recon_hidden_dim=4,
        num_interests=2, max_seq_len=8, temperature=0.1,
        num_rec_negatives=16,
    )
    base.update(kw)
    return HyperParams(**base)


def tiny_split(seed=0, users=40):
    spec = SyntheticSpec(
        n_clusters=3, items_per_cluster=10, users=users,
        interests_per_user=2, seq_len=10, noise_rate=0.05, seed=seed,
    )
    log, _ = generate_synthetic(spec)
    return split(log, seed=seed), len(log.item_tokens)


def test_rec_only_step_leaves_reconstruction_params_untouched():
    sp, num_items = tiny_split()
    hp = tiny_hp()
    params = ModelParams.init(num_items, hp, np.random.default_rng(0))
    before = {n: t.value.copy() for n, t in params.named()}
    exs, _ = tr.build_examples(sp.train)
    cfg = tr.TrainConfig(epochs=1, batch_size=4, weight_decay=0.0)
    st = tr.OptimState.init(params, lr=cfg.lr, weight_decay=0.0)
    rng = np.random.default_rng(0)
    tr.train_epoch(exs[:4], params, hp, st, cfg, rng)
    for name, t in params.named():
        if name.startswith("recon_"):
            assert np.array_equal(t.value, before[name]), name
        else:
            assert not np.array_equal(t.value, before[name]), name


def test_train_epoch_deterministic():
    sp, num_items = tiny_split(1)
    hp = tiny_hp()
    exs, _ = tr.build_examples(sp.train)
    cfg = tr.TrainConfig(epochs=1, batch_size=16)
    outs = []
    for _ in range(2):
        params = ModelParams.init(num_items, hp, np.random.default_rng(3))
        st = tr.OptimState.init(params, cfg.lr, cfg.weight_decay)
        stats = tr.train_epoch(exs, params, hp, st, cfg, np.random.default_rng(5))
        outs.append((stats, [t.value.copy() for t in params.tensors()]))
    assert outs[0][0] == outs[1][0]
    for a, b in zip(outs[0][1], outs[1][1]):
        assert np.array_equal(a, b)


def clipping_setup(seed=6):
    """A tiny regularized model whose every step clips (clip_norm far below
    any gradient norm), with its examples, config and optimizer state."""
    sp, num_items = tiny_split(seed)
    hp = tiny_hp(lambda_cl=0.1, lambda_att=0.5, lambda_ct=0.1)
    exs, _ = tr.build_examples(sp.train)
    cfg = tr.TrainConfig(epochs=1, batch_size=32, clip_norm=1e-3)
    params = ModelParams.init(num_items, hp, np.random.default_rng(2))
    state = tr.OptimState.init(params, cfg.lr, cfg.weight_decay)
    return exs, params, hp, state, cfg


def test_clip_and_adam_leave_backward_gradients_unchanged(monkeypatch):
    exs, params, hp, state, cfg = clipping_setup()
    produced, norms = [], []
    backward, clip, adam = gc.Tape.backward, tr.clip_global_norm, tr.adam_step

    def recording_backward(tape, loss, wrt):
        grads = backward(tape, loss, wrt)
        produced[:] = [(g, g.tobytes()) for g in grads]
        return grads

    def recording_clip(grads, max_norm):
        grads, norm = clip(grads, max_norm)
        norms.append(norm)
        return grads, norm

    def checked_adam(p, grads, st):
        adam(p, grads, st)
        assert produced
        for g, before in produced:
            assert g.tobytes() == before

    monkeypatch.setattr(gc.Tape, "backward", recording_backward)
    monkeypatch.setattr(tr, "clip_global_norm", recording_clip)
    monkeypatch.setattr(tr, "adam_step", checked_adam)
    tr.train_epoch(exs, params, hp, state, cfg, np.random.default_rng(5))
    assert len(norms) == -(-len(exs) // cfg.batch_size)
    assert all(n > cfg.clip_norm for n in norms)


def test_clipped_steps_match_scaling_copies_in_place():
    """train_epoch equals, bit for bit, a loop that copies each leaf gradient
    and scales the copies in place."""
    exs, params, hp, state, cfg = clipping_setup()
    tr.train_epoch(exs, params, hp, state, cfg, np.random.default_rng(5))

    exs, ref, hp, ref_state, cfg = clipping_setup()
    rng = np.random.default_rng(5)
    order = rng.permutation(len(exs))
    steps = range(0, len(order), cfg.batch_size)
    clipped = 0
    for start in steps:
        ids, mask, targets = tr._assemble_batch(
            exs, order[start : start + cfg.batch_size], hp.max_seq_len)
        with gc.Tape() as tape:
            total, _ = tr.compute_batch_losses(ids, mask, targets, ref, hp, rng)
        grads = [np.array(g, dtype=np.float64)
                 for g in tape.backward(total, ref.tensors())]
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        if norm > cfg.clip_norm:
            clipped += 1
            scale = cfg.clip_norm / norm
            for g in grads:
                g *= scale
        tr.adam_step(ref, grads, ref_state)
    assert clipped == len(steps) > 1
    for (name, got), want in zip(params.named(), ref.tensors()):
        assert got.value.tobytes() == want.value.tobytes(), name


def test_train_writes_bit_identical_checkpoints(tmp_path):
    sp, num_items = tiny_split(2, users=20)
    hp = tiny_hp()
    blobs = []
    for run in range(2):
        path = tmp_path / f"run{run}.ckpt"
        cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=11, eval_every=0,
                             checkpoint_path=str(path))
        params = ModelParams.init(num_items, hp, np.random.default_rng(9))
        tr.train(sp, params, hp, cfg)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    loaded = load_checkpoint(tmp_path / "run0.ckpt")
    assert loaded.num_items == num_items


def test_loss_trajectory_identical_across_runs():
    sp, num_items = tiny_split(3, users=20)
    hp = tiny_hp(lambda_cl=0.1, lambda_att=1.0, lambda_ct=0.1)
    hists = []
    for _ in range(2):
        cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=4, eval_every=0)
        params = ModelParams.init(num_items, hp, np.random.default_rng(4))
        res = tr.train(sp, params, hp, cfg)
        hists.append([{k: v for k, v in h.items() if k != "seconds"}
                      for h in res.history])
    assert hists[0] == hists[1]


def test_training_reduces_rec_loss():
    sp, num_items = tiny_split(4, users=60)
    hp = tiny_hp()
    cfg = tr.TrainConfig(epochs=10, batch_size=32, seed=0, eval_every=0, lr=0.01)
    params = ModelParams.init(num_items, hp, np.random.default_rng(0))
    res = tr.train(sp, params, hp, cfg)
    assert res.history[-1]["rec"] < res.history[0]["rec"]


def test_early_stop_on_flat_validation():
    sp, num_items = tiny_split(5, users=30)
    hp = tiny_hp()
    # lr=0 keeps params frozen, so validation recall never improves after
    # the first evaluation and patience kicks in
    cfg = tr.TrainConfig(epochs=50, batch_size=16, seed=0, eval_every=1,
                         patience=3, lr=0.0, weight_decay=0.0)
    params = ModelParams.init(num_items, hp, np.random.default_rng(1))
    res = tr.train(sp, params, hp, cfg)
    assert res.stopped_early
    assert len(res.history) == 4  # best at epoch 1, then 3 flat evals
    assert res.best_epoch == 1


def test_returned_params_match_best_validation_score():
    sp, num_items = tiny_split(6, users=40)
    hp = tiny_hp()
    cfg = tr.TrainConfig(epochs=6, batch_size=32, seed=2, eval_every=1,
                         patience=0, lr=0.01)
    params = ModelParams.init(num_items, hp, np.random.default_rng(2))
    res = tr.train(sp, params, hp, cfg)
    evals = [h["valid_recall"] for h in res.history]
    assert res.best_valid_recall == max(evals)
    rep = evaluate_split(params, sp.valid, hp, cutoffs=(20,))
    assert rep.recall[20] == res.best_valid_recall


def test_epoch_log_lines_have_all_fields(tmp_path):
    sp, num_items = tiny_split(7, users=20)
    hp = tiny_hp()
    log_path = tmp_path / "train.log"
    cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=0, eval_every=0,
                         log_path=str(log_path))
    params = ModelParams.init(num_items, hp, np.random.default_rng(0))
    seen = []
    res = tr.train(sp, params, hp, cfg, log=seen.append)
    lines = log_path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines == res.log_lines == seen
    for i, line in enumerate(lines, start=1):
        toks = line.split()
        assert toks[0] == "epoch" and toks[1] == str(i)
        for key in ("l_rec", "l_cl", "l_att", "l_ct", "seconds"):
            assert key in toks


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        tr.TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        tr.TrainConfig(batch_size=0)
