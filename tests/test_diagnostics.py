import numpy as np
import pytest

from mirec import diagnostics as dg
from mirec.data import SyntheticSpec, generate_synthetic, split
from mirec.model import HyperParams, ModelParams


def blobs(rng, centers, per, sigma=0.3):
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(c + sigma * rng.normal(size=(per, len(c))))
        labels += [i] * per
    return np.vstack(pts), np.array(labels)


def rand_index(a, b):
    n = len(a)
    agree = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            agree += (a[i] == a[j]) == (b[i] == b[j])
            pairs += 1
    return agree / pairs


def test_two_separated_pairs_split_two_two():
    v = np.array([[5.0, 0.1], [5.0, -0.1], [-5.0, 0.1], [-5.0, -0.1]])
    a = dg.kmeans(v, 2, seed=0)
    assert a.labels[0] == a.labels[1]
    assert a.labels[2] == a.labels[3]
    assert a.labels[0] != a.labels[2]


def test_k_equals_n_each_point_own_cluster():
    v = 3.0 * np.eye(5)  # self dot 9, cross dots 0
    a = dg.kmeans(v, 5, seed=1)
    assert len(set(a.labels.tolist())) == 5


def test_blob_recovery_matches_multi_restart_oracle():
    rng = np.random.default_rng(0)
    centers = 5.0 * np.array([
        [1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
    v, _ = blobs(rng, centers, per=20)
    oracle = min((dg.kmeans(v, 3, seed=s) for s in range(20)),
                 key=lambda a: a.objective)
    for seed in range(5):
        a = dg.kmeans(v, 3, seed=seed)
        assert rand_index(a.labels, oracle.labels) >= 0.95


def test_objective_non_increasing_in_iteration_budget():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(40, 4)) + 4.0
    objs = [dg.kmeans(v, 4, seed=3, max_iter=m).objective for m in range(1, 8)]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_empty_cluster_reseeded_and_counted():
    rng = np.random.default_rng(3)
    v = np.array([3.0, 0.0]) + 0.1 * rng.normal(size=(10, 2))
    # second seed centroid is anti-aligned with every point, so it starts empty
    init = np.array([[3.0, 0.0], [-3.0, 0.0]])
    a = dg.kmeans(v, 2, init_centroids=init, seed=0)
    assert a.reseeded >= 1
    assert set(np.bincount(a.labels, minlength=2).tolist()) != {0}


def test_user_interests_init_respects_seeds():
    rng = np.random.default_rng(4)
    centers = np.array([[6.0, 0.0], [0.0, 6.0]])
    v, want = blobs(rng, centers, per=10)
    a = dg.kmeans(v, 2, init_centroids=centers)
    assert rand_index(a.labels, want) == 1.0


def test_kmeans_argument_errors():
    v = np.ones((4, 2))
    with pytest.raises(ValueError, match="at least 2"):
        dg.kmeans(v, 1)
    with pytest.raises(ValueError, match="exceeds"):
        dg.kmeans(v, 5)
    with pytest.raises(ValueError, match="does not match"):
        dg.kmeans(v, 2, init_centroids=np.ones((3, 2)))


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(30, 3))
    a = dg.kmeans(v, 4, seed=9)
    b = dg.kmeans(v, 4, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert a.objective == b.objective


class FakeAssignment:
    def __init__(self, labels):
        self.labels = np.asarray(labels)


def test_inter_score_perfect_coclustering():
    a = FakeAssignment([0, 1, 0, 0, 1, 1])
    score, skipped = dg.inter_score(a, {0: [2, 3], 1: [4, 5]})
    assert score == 1.0 and skipped == 0


def test_inter_score_counts_skipped_interests():
    a = FakeAssignment([0, 1, 0, 1])
    score, skipped = dg.inter_score(a, {0: [2], 1: []})
    assert score == 1.0 and skipped == 1


def test_inter_score_error_without_pairs():
    a = FakeAssignment([0, 1])
    with pytest.raises(ValueError, match="no .*pairs"):
        dg.inter_score(a, {0: [], 1: []})


def test_inter_score_random_labels_near_one_over_k():
    rng = np.random.default_rng(6)
    k = 4
    n_interests, n_items = 10, 40
    pairs = {i: list(range(n_interests + i * 4, n_interests + i * 4 + 4))
             for i in range(n_interests)}
    scores = []
    for _ in range(1000):
        labels = rng.integers(0, k, size=n_interests + n_items)
        s, _ = dg.inter_score(FakeAssignment(labels), pairs)
        scores.append(s)
    mean = np.mean(scores)
    sem = np.std(scores) / np.sqrt(len(scores))
    assert abs(mean - 1.0 / k) <= 3 * sem


def test_intra_score_trivials():
    assert dg.intra_score([[0, 0], [1, 1]], 2) == 0.0
    assert dg.intra_score([[0, 1], [1, 0]], 2) == 1.0
    assert dg.intra_score([[0, 1], [0, 0]], 2) == 0.5
    with pytest.raises(ValueError, match="no users"):
        dg.intra_score([], 2)


def _tiny_world(seed=0):
    spec = SyntheticSpec(n_clusters=3, items_per_cluster=10, users=40,
                         interests_per_user=2, seq_len=12, seed=seed)
    log, _ = generate_synthetic(spec)
    sp = split(log, seed=seed)
    hp = HyperParams(embed_dim=8, att_hidden_dim=8, recon_hidden_dim=4,
                     num_interests=2, max_seq_len=10)
    params = ModelParams.init(len(log.item_tokens), hp,
                              np.random.default_rng(seed))
    return sp, hp, params


def test_diagnose_bounds_and_determinism():
    sp, hp, params = _tiny_world()
    a = dg.diagnose(params, sp.test, hp, seed=1)
    b = dg.diagnose(params, sp.test, hp, seed=1)
    assert a == b
    assert 0.0 <= a.inter <= 1.0
    assert 0.0 <= a.intra <= 1.0
    assert a.users == len(sp.test)
    assert a.k_global <= 64


def test_diagnose_user_interests_mode():
    sp, hp, params = _tiny_world(1)
    rep = dg.diagnose(params, sp.test, hp, init_mode="user_interests", seed=0)
    assert rep.init_mode == "user_interests"
    assert 0.0 <= rep.inter <= 1.0 and 0.0 <= rep.intra <= 1.0


def test_diagnose_caps_k_global_at_the_rows_it_seeds_from():
    sp, hp, params = _tiny_world(3)
    interest_rows = hp.num_interests * len(sp.test)
    items = {i for profile, holdout in sp.test.values() for i in profile + holdout}
    rep = dg.diagnose(params, sp.test, hp, k_global=250, init_mode="user_interests")
    assert rep.k_global == interest_rows
    assert f"k_global={interest_rows} " in dg.report_record(rep)
    rep = dg.diagnose(params, sp.test, hp, k_global=250, init_mode="kmeanspp")
    assert rep.k_global == interest_rows + len(items)


def test_diagnose_record_line():
    sp, hp, params = _tiny_world(2)
    rep = dg.diagnose(params, sp.test, hp, seed=0)
    line = dg.report_record(rep)
    assert line.count("\n") == 0
    for key in ("inter=", "intra=", "k_global=", "init=", "users="):
        assert key in line


def test_export_five_rows_for_one_user_three_items(tmp_path):
    hp = HyperParams(embed_dim=4, att_hidden_dim=4, recon_hidden_dim=2,
                     num_interests=2, max_seq_len=5)
    params = ModelParams.init(10, hp, np.random.default_rng(0))
    path = tmp_path / "emb.tsv"
    z = np.arange(8, dtype=np.float64).reshape(2, 4)
    rows = dg.export_embeddings(params, {7: z}, [1, 3, 5], str(path))
    assert rows == 5
    assert len(path.read_text().strip().split("\n")) == 5


def test_export_round_trip_exact(tmp_path):
    hp = HyperParams(embed_dim=6, att_hidden_dim=4, recon_hidden_dim=2,
                     num_interests=3, max_seq_len=5)
    params = ModelParams.init(20, hp, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    users = {u: rng.normal(size=(3, 6)) for u in (2, 9)}
    items = [0, 4, 11, 19]
    path = tmp_path / "emb.tsv"
    dg.export_embeddings(params, users, items, str(path))
    back = dg.read_embeddings(str(path))
    for kind, owner, index, vec in back:
        if kind == "interest":
            assert np.max(np.abs(vec - users[owner][index])) <= 1e-12
        else:
            assert np.max(np.abs(vec - params.item_emb.value[owner])) <= 1e-12


def test_export_row_count_oracle(tmp_path):
    rng = np.random.default_rng(3)
    hp = HyperParams(embed_dim=5, att_hidden_dim=4, recon_hidden_dim=2,
                     num_interests=2, max_seq_len=5)
    params = ModelParams.init(30, hp, np.random.default_rng(4))
    users = {u: rng.normal(size=(2, 5)) for u in range(7)}
    items = rng.choice(30, size=12, replace=False).tolist() + [5, 5]
    path = tmp_path / "emb.tsv"
    rows = dg.export_embeddings(params, users, items, str(path))
    assert rows == 7 * 2 + len(set(items))
