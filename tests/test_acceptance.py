"""End-to-end acceptance checks at the tolerances the package promises.

One test per gate so `pytest -v` prints one pass/fail line each:

  1. tape gradients of every loss match finite differences to 1e-4
  2. retrieval, metrics, InfoNCE, and reconstruction match brute-force oracles
  3. training on planted-interest data separates the planted interests
  4. the backward regularizers do not hurt retrieval quality
  5. MovieLens-1M hit rate (skipped unless MIREC_ML1M points at a tsv log)
  6. retraining with the same config and seed is bit-identical

Gates 3 and 4 share ten training runs (5 seeds x {base, regularized}) behind
a module fixture; expect a few minutes of wall clock for the whole file.
"""

import os
import time

import numpy as np
import pytest

from mirec import diagnostics as dg
from mirec import evaluation as ev
from mirec import gradcore as gc
from mirec import losses as ls
from mirec import model as m
from mirec.cli import OUTPUT_ROOT_ENV, main as cli_main
from mirec.data import SyntheticSpec, generate_synthetic, ingest, split
from mirec.gradcore import Tensor
from mirec.trainer import TrainConfig, train


# ------------------------------------------------- 1. finite differences


def fd_instance(seed):
    """Random tiny model + one sequence as a B=1 (ids, mask) batch at the
    reference check dims (d=8, 50 items)."""
    hp = m.HyperParams(embed_dim=8, att_hidden_dim=6, recon_hidden_dim=3,
                       num_interests=3, max_seq_len=5, temperature=0.5,
                       lambda_cl=0.1, lambda_att=1.0, lambda_ct=0.1)
    rng = np.random.default_rng(seed)
    params = m.ModelParams.init(50, hp, rng)
    length = int(rng.integers(2, hp.max_seq_len + 1))
    items = rng.choice(50, size=length, replace=False)
    ids, mask = m.pad_sequences([items], hp.max_seq_len)
    return rng, hp, params, ids, mask


def extract(ids, mask, params):
    x = m.embed_batch(ids, mask, params)
    interests, attention = m.interest_forward(x, mask, params)
    return x, interests, attention


def fd_loss_fn(name, rng, hp, params, ids, mask):
    """Scalar loss closure with all discrete selector state frozen up front."""
    _, z0, a0 = extract(ids, mask, params)
    pos, neg = ls.select_positives_batch(a0.value, mask, "adaptive")
    att_target = Tensor(a0.value.copy())
    complement = np.setdiff1d(np.arange(params.num_items), ids[mask])
    samp_ids = rng.choice(complement, size=(hp.num_interests, 3), replace=True)[None]
    samp_mask = np.ones(samp_ids.shape, dtype=bool)
    target_id = int(rng.integers(0, params.num_items))
    neg_ids = rng.integers(0, params.num_items, size=4)[None]
    selected = ls.select_interest_batch(z0.value, params.item_emb.value[[target_id]])

    def f(_):
        x, z, _ = extract(ids, mask, params)
        if name == "contrast":
            samp = gc.gather_rows(params.item_emb, samp_ids)
            return ls.recontrast_batch(z, x, pos, neg, samp, samp_mask, hp.temperature)
        if name == "attend":
            return ls.reattend_batch(att_target, z, x, mask)
        if name == "reconstruct":
            return ls.reconstruct_batch(z, x, pos, params)
        target_emb = gc.gather_rows(params.item_emb, np.array([target_id]))
        neg_emb = gc.gather_rows(params.item_emb, neg_ids)
        rec = ls.rec_batch(z, target_emb, neg_emb, selected=selected)
        if name == "rec":
            return rec
        samp = gc.gather_rows(params.item_emb, samp_ids)
        cl = ls.recontrast_batch(z, x, pos, neg, samp, samp_mask, hp.temperature)
        att = ls.reattend_batch(att_target, z, x, mask)
        ct = ls.reconstruct_batch(z, x, pos, params)
        total, _ = ls.combine(rec, cl, att, ct, hp)
        return total

    return f


def test_gradients_match_finite_differences():
    start = time.monotonic()
    worst = {}
    for name in ("rec", "contrast", "attend", "reconstruct", "combined"):
        w = 0.0
        for seed in range(20):
            rng, hp, params, ids, mask = fd_instance(seed)
            f = fd_loss_fn(name, rng, hp, params, ids, mask)
            w = max(w, gc.check_gradient(f, params.tensors(), h=1e-4))
        worst[name] = w
    elapsed = time.monotonic() - start
    for name, w in worst.items():
        assert w <= 1e-4, f"{name}: max rel err {w:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"gradients: max rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


# ----------------------------------------------- 2. brute-force oracles


def test_retrieval_metrics_and_losses_match_bruteforce():
    start = time.monotonic()
    rng = np.random.default_rng(11)

    for _ in range(50):
        num_items = int(rng.integers(10, 60))
        d = int(rng.integers(2, 8))
        emb = rng.normal(size=(num_items, d))
        z = rng.normal(size=(int(rng.integers(1, 4)), d))
        n = int(rng.integers(1, num_items + 1))
        n_excl = int(rng.integers(0, num_items // 2 + 1))
        exclude = rng.choice(num_items, size=n_excl, replace=False)
        got = ev.retrieve_topn(z[None], emb, n, [exclude])[0]
        scores = (emb @ z.T).max(axis=1)
        keep = sorted(set(range(num_items)) - set(exclude.tolist()))
        want = sorted(keep, key=lambda i: (-scores[i], i))[: min(n, len(keep))]
        assert got.tolist() == want + [-1] * (n - len(want))  # -1: no candidate left

    for _ in range(50):
        pool = int(rng.integers(10, 80))
        ranked = rng.permutation(pool)[: int(rng.integers(1, pool + 1))]
        relevant = set(rng.choice(pool, size=int(rng.integers(1, 9)),
                                  replace=False).tolist())
        ranks = [r + 1 for r, item in enumerate(ranked) if item in relevant]
        want_recall = len(ranks) / len(relevant)
        want_hit = 1.0 if ranks else 0.0
        if ranks:
            dcg = sum(1.0 / np.log2(r + 1) for r in ranks)
            idcg = sum(1.0 / np.log2(i + 2) for i in range(len(ranks)))
            want_ndcg = dcg / idcg
        else:
            want_ndcg = 0.0
        hits, sizes, _ = ev.hit_matrix([ranked], [relevant], len(ranked))
        assert ev.metric_recall(hits, sizes) == want_recall
        assert ev.metric_hitrate(hits) == want_hit
        assert abs(ev.metric_ndcg(hits) - want_ndcg) <= 1e-10

    for seed in range(50):
        r = np.random.default_rng(seed)
        n_z, n_x, s, d, tau = 3, 5, 4, 6, 0.7
        z = r.normal(size=(n_z, d))
        x = r.normal(size=(n_x, d))
        samp = r.normal(size=(n_z, s, d))
        is_pos = r.random((n_z, n_x)) < 0.5
        got = ls.recontrast_batch(Tensor(z[None]), Tensor(x[None]), is_pos[None],
                                  ~is_pos[None], Tensor(samp[None]),
                                  np.ones((1, n_z, s), dtype=bool), tau)

        def unit(v):
            return v / np.linalg.norm(v)

        want = 0.0
        for k in range(n_z):
            negs = [unit(x[j]) for j in np.flatnonzero(~is_pos[k])]
            negs += [unit(z[kk]) for kk in range(n_z) if kk != k]
            negs += [unit(samp[k, t]) for t in range(s)]
            neg_exp = sum(np.exp(unit(z[k]) @ v / tau) for v in negs)
            for i in np.flatnonzero(is_pos[k]):
                pos_exp = np.exp(unit(z[k]) @ unit(x[i]) / tau)
                want += -np.log(pos_exp / (pos_exp + neg_exp))
        assert abs(got.value - want) <= 1e-10

    for seed in range(50):
        rng_i, hp, params, ids, mask = fd_instance(seed)
        x, z, a = extract(ids, mask, params)
        pos, _ = ls.select_positives_batch(a.value, mask, 1.0 / 32.0)
        got = ls.reconstruct_batch(z, x, pos, params)
        n_x, d_b = hp.max_seq_len, hp.recon_hidden_dim
        want = 0.0
        for k in range(hp.num_interests):
            code = (params.recon_expand.value @ z.value[0, k]).reshape(n_x, d_b)
            logits = np.zeros((n_x, n_x))
            for i in range(n_x):
                for j in range(n_x):
                    logits[i, j] = params.recon_query.value[j] @ np.tanh(
                        params.recon_hidden.value @ code[i])
            beta = np.exp(logits - logits.max(axis=0, keepdims=True))
            beta /= beta.sum(axis=0, keepdims=True)
            for j in np.flatnonzero(pos[0, k]):
                xhat = np.zeros(hp.embed_dim)
                for i in range(n_x):
                    xhat += beta[i, j] * (params.recon_out.value @ code[i])
                want += np.sum((xhat - x.value[0, j]) ** 2)
        assert abs(got.value - want) <= 1e-10

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    print(f"oracles: retrieval, metrics, InfoNCE, reconstruction ok, {elapsed:.1f}s")


# ------------------------------------- 3 + 4. planted-interest training


PLANTED_SEEDS = (0, 1, 2, 3, 4)
REGULARIZERS = dict(lambda_cl=0.10, lambda_att=0.04, lambda_ct=0.01)


def mean_interest_cosine(params, part, hp):
    """Mean over users of the mean pairwise cosine between their interests."""
    vals = []
    profiles = [part[user][0] for user in sorted(part)]
    for z in ev.user_interests_for_profile(profiles, params, hp.max_seq_len)[0]:
        pairs = [float(z[i] @ z[j] / (np.linalg.norm(z[i]) * np.linalg.norm(z[j])))
                 for i in range(len(z)) for j in range(i + 1, len(z))]
        vals.append(np.mean(pairs))
    return float(np.mean(vals))


def planted_run(seed, regularized):
    spec = SyntheticSpec(seed=seed)  # 4 clusters x 50 items, 500 users, len-20 seqs
    log, _ = generate_synthetic(spec)
    sp = split(log, seed=seed)
    hp = m.HyperParams(embed_dim=16, att_hidden_dim=32, recon_hidden_dim=8,
                       num_interests=2, max_seq_len=20, temperature=0.2,
                       num_rec_negatives=64,
                       **(REGULARIZERS if regularized else {}))
    params = m.ModelParams.init(len(log.item_tokens), hp, np.random.default_rng(seed))
    config = TrainConfig(epochs=30, batch_size=128, seed=seed, eval_every=1,
                         patience=30, lr=0.005, clip_norm=25.0)
    train(sp, params, hp, config)
    rep = ev.evaluate_split(params, sp.test, hp, cutoffs=(20,))
    return dict(recall=rep.recall[20], ndcg=rep.ndcg[20],
                cosine=mean_interest_cosine(params, sp.test, hp),
                intra=dg.diagnose(params, sp.test, hp, seed=0).intra)


@pytest.fixture(scope="module")
def planted_medians():
    out = {}
    for arm, regularized in (("base", False), ("full", True)):
        runs = [planted_run(seed, regularized) for seed in PLANTED_SEEDS]
        out[arm] = {k: float(np.median([r[k] for r in runs])) for k in runs[0]}
    return out


def test_planted_interests_are_separated(planted_medians):
    base, full = planted_medians["base"], planted_medians["full"]
    print(f"planted: full recall@20 {full['recall']:.4f}, "
          f"cosine {full['cosine']:.4f} vs base {base['cosine']:.4f}, "
          f"intra {full['intra']:.2f} vs base {base['intra']:.2f}")
    assert full["recall"] >= 0.55
    assert full["cosine"] <= base["cosine"] - 0.1
    assert full["intra"] >= base["intra"]


def test_regularizers_keep_retrieval_quality(planted_medians):
    base, full = planted_medians["base"], planted_medians["full"]
    print(f"ablation: recall@20 full {full['recall']:.4f} vs base {base['recall']:.4f}, "
          f"ndcg@20 full {full['ndcg']:.4f} vs base {base['ndcg']:.4f}")
    assert full["recall"] >= base["recall"] - 0.02
    assert full["ndcg"] >= base["ndcg"]


# --------------------------------------------- 5. MovieLens-1M (optional)


ML1M_ENV = "MIREC_ML1M"


@pytest.mark.skipif(ML1M_ENV not in os.environ,
                    reason=f"set {ML1M_ENV} to a user/item/timestamp tsv of"
                           " MovieLens-1M to run this (takes hours)")
def test_movielens_hitrate():
    log = ingest(os.environ[ML1M_ENV])
    sp = split(log, seed=0)
    hp = m.HyperParams(embed_dim=64, att_hidden_dim=256, recon_hidden_dim=32,
                       num_interests=8, max_seq_len=20, temperature=0.02,
                       lambda_cl=0.1, lambda_att=1.0, lambda_ct=0.1)
    params = m.ModelParams.init(len(log.item_tokens), hp, np.random.default_rng(0))
    config = TrainConfig(epochs=30, batch_size=128, seed=0, eval_every=1,
                         patience=3, lr=0.003)
    train(sp, params, hp, config)
    rep = ev.evaluate_split(params, sp.test, hp, cutoffs=(20,))
    print(f"movielens: hr@20 {rep.hitrate[20]:.4f}")
    assert rep.hitrate[20] >= 0.70


# ------------------------------------------------------- 6. determinism


def test_retraining_is_bit_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli_main(["synth", "--out", "data", "--clusters", "3",
                     "--items-per-cluster", "10", "--users", "60",
                     "--seq-len", "12", "--seed", "5"]) == 0
    pairs = [f"dataset={tmp_path}/data/interactions.tsv", "output_dir=run",
             "embed_dim=8", "att_hidden_dim=8", "recon_hidden_dim=4",
             "num_interests=2", "max_seq_len=8", "num_rec_negatives=8",
             "lambda_cl=0.1", "lambda_att=0.05", "lambda_ct=0.01",
             "temperature=0.2", "epochs=3", "batch_size=32", "seed=9"]
    args = []
    for p in pairs:
        args += ["--set", p]
    blobs, reports = [], []
    for _ in range(2):
        assert cli_main(["train"] + args) == 0
        assert cli_main(["eval"] + args) == 0
        capsys.readouterr()
        blobs.append((tmp_path / "run" / "checkpoint.bin").read_bytes())
        reports.append((tmp_path / "run" / "eval.txt").read_text())
    assert blobs[0] == blobs[1]
    assert reports[0] == reports[1]
