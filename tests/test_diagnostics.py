import dataclasses
import itertools

import numpy as np
import pytest

from mirec import diagnostics as dg
from mirec import evaluation
from mirec.losses import select_positives_batch
from mirec.data import SyntheticSpec, generate_synthetic, split
from mirec.model import HyperParams, ModelParams


def read_embeddings(path):
    """Parse an export_embeddings file; returns list of (kind, owner, index, vector)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            kind, owner, index = parts[0], int(parts[1]), int(parts[2])
            vec = np.array([float(x) for x in parts[3:]])
            out.append((kind, owner, index, vec))
    return out


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


def test_inter_score_perfect_coclustering():
    labels = np.array([0, 1, 0, 0, 1, 1])
    score, skipped = dg.inter_score(labels, np.array([0, 0, 1, 1]),
                                    np.array([2, 3, 4, 5]), 2)
    assert score == 1.0 and skipped == 0


def test_inter_score_counts_skipped_interests():
    labels = np.array([0, 1, 0, 1])
    score, skipped = dg.inter_score(labels, np.array([0]), np.array([2]), 2)
    assert score == 1.0 and skipped == 1


def test_inter_score_error_without_pairs():
    no_rows = np.array([], dtype=np.intp)
    with pytest.raises(ValueError, match="no .*pairs"):
        dg.inter_score(np.array([0, 1]), no_rows, no_rows, 2)


def test_inter_score_random_labels_near_one_over_k():
    rng = np.random.default_rng(6)
    k = 4
    n_interests, n_items = 10, 40
    # interest i is paired with the four item rows after the interests at 4 i
    interest_rows = np.repeat(np.arange(n_interests), 4)
    item_rows = n_interests + np.arange(n_items)
    scores = []
    for _ in range(1000):
        labels = rng.integers(0, k, size=n_interests + n_items)
        s, _ = dg.inter_score(labels, interest_rows, item_rows, n_interests)
        scores.append(s)
    mean = np.mean(scores)
    sem = np.std(scores) / np.sqrt(len(scores))
    assert abs(mean - 1.0 / k) <= 3 * sem


def test_intra_score_trivials():
    assert dg.intra_score(np.array([[0, 0], [1, 1]])) == 0.0
    assert dg.intra_score(np.array([[0, 1], [1, 0]])) == 1.0
    assert dg.intra_score(np.array([[0, 1], [0, 0]])) == 0.5
    with pytest.raises(ValueError, match="no users"):
        dg.intra_score(np.empty((0, 2), dtype=np.intp))


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
    for key in ("inter=", "intra=", "k_global=", "init=", "users=",
                "skipped_interests=", "k_nonempty="):
        assert key in line
    assert line.endswith(f" skipped_interests={rep.skipped_interests} "
                         f"k_nonempty={rep.k_nonempty}")
    assert 1 <= rep.k_nonempty <= rep.k_global


def test_diagnose_counts_a_repeated_profile_item_once(monkeypatch):
    # every valid position clears the threshold, so each interest is paired
    # with each distinct item of its profile, however often the item repeats
    hp = HyperParams(embed_dim=4, att_hidden_dim=4, recon_hidden_dim=2,
                     num_interests=2, max_seq_len=6, pos_threshold=1e-9)
    params = ModelParams.init(10, hp, np.random.default_rng(0))
    part = {0: ([3, 3, 5, 3], [7]), 1: ([1, 2], [4])}
    seen = []
    inter_score = dg.inter_score

    def recording(labels, interest_rows, item_rows, num_interest_rows):
        seen.append((interest_rows.tolist(), item_rows.tolist()))
        return inter_score(labels, interest_rows, item_rows, num_interest_rows)

    monkeypatch.setattr(dg, "inter_score", recording)
    rep = dg.diagnose(params, part, hp)
    # matrix rows: interests 0-3, then items 3, 5, 7, 1, 2, 4 at rows 4-9
    (interest_rows, item_rows), = seen
    assert sorted(zip(interest_rows, item_rows)) == [
        (0, 4), (0, 5), (1, 4), (1, 5), (2, 7), (2, 8), (3, 7), (3, 8)]
    assert rep.skipped_interests == 0
    assert rep == diagnose_reference(params, part, hp)


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
    back = read_embeddings(str(path))
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


def test_export_bytes_match_per_float_formatting(tmp_path):
    hp = HyperParams(embed_dim=4, att_hidden_dim=4, recon_hidden_dim=2,
                     num_interests=2, max_seq_len=5)
    params = ModelParams.init(6, hp, np.random.default_rng(5))
    params.item_emb.value[2] = [-0.0, 5e-324, 1e300, 0.1]
    params.item_emb.value[4] = [-1e-300, np.inf, -np.inf, np.nan]
    users = {np.int64(11): np.array([[0.1, -0.0, 5e-324, 1e300],
                                     [1.0 / 3.0, -2.5, 0.0, 123456789.0]]),
             np.int64(3): np.random.default_rng(6).normal(size=(2, 4))}
    items = [4, np.int64(2), 0, 2]
    path = tmp_path / "emb.tsv"
    dg.export_embeddings(params, users, items, str(path))
    emb = params.item_emb.value
    rows = [("interest", user, k, vec) for user in sorted(users)
            for k, vec in enumerate(users[user])]
    rows += [("item", item, 0, emb[item]) for item in (0, 2, 4)]
    want = "".join(f"{kind}\t{owner}\t{k}\t" + "\t".join(f"{x:.17g}" for x in vec) + "\n"
                   for kind, owner, k, vec in rows)
    assert path.read_bytes() == want.encode("utf-8")


# Reference k-means, verbatim from before the repair loop stopped at its fixed
# point and k-means++ seeding kept a running minimum: the library's kmeans must
# return bitwise the same ClusterAssignment on every input.
_assign = dg._assign
_objective = dg._objective
ClusterAssignment = dg.ClusterAssignment


def _repair_empties(vectors, labels, centroids):
    """Reseed each empty cluster at the point farthest from its centroid."""
    reseeded = 0
    for _ in range(centroids.shape[0]):
        counts = np.bincount(labels, minlength=centroids.shape[0])
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        dots = (vectors * centroids[labels]).sum(axis=1)
        for c in empty:
            far = int(np.argmin(dots))
            centroids[c] = vectors[far]
            dots[far] = np.inf  # one reseed point per empty cluster
            reseeded += 1
        labels = _assign(vectors, centroids)
    return labels, centroids, reseeded


def _init_kmeanspp(vectors, k, rng):
    n = vectors.shape[0]
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        dist = -(vectors @ vectors[chosen].T)  # negative dot to each chosen
        nearest = dist.min(axis=1)
        w = nearest - nearest.min()
        w = w * w
        w[chosen] = 0.0
        if w.sum() == 0.0:
            remaining = np.setdiff1d(np.arange(n), chosen)
            chosen.append(int(rng.choice(remaining)))
        else:
            chosen.append(int(rng.choice(n, p=w / w.sum())))
    return vectors[chosen].copy()


def kmeans_reference(vectors, k, seed=0, max_iter=100, init_centroids=None):
    """Lloyd iterations with dot-product assignment and mean updates.

    With init_centroids None the centroids are seeded by k-means++, adapted by
    shifting negative-dot distances to be non-negative before squaring;
    otherwise the given (k, d) vectors (typically a user's interest vectors)
    are the initial centroids.
    """
    v = np.asarray(vectors, dtype=np.float64)
    n = v.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 clusters, got k={k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available vectors")
    rng = np.random.default_rng(seed)
    if init_centroids is None:
        centroids = _init_kmeanspp(v, k, rng)
    else:
        centroids = np.array(init_centroids, dtype=np.float64)
        if centroids.shape != (k, v.shape[1]):
            raise ValueError(f"init_centroids shape {centroids.shape} does not "
                             f"match (k={k}, d={v.shape[1]})")

    labels = _assign(v, centroids)
    labels, centroids, reseeded = _repair_empties(v, labels, centroids)
    obj = _objective(v, labels, centroids)
    iterations = 0
    for _ in range(max_iter):
        new_centroids = centroids.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                new_centroids[c] = v[members].mean(axis=0)
        new_labels = _assign(v, new_centroids)
        new_labels, new_centroids, r = _repair_empties(v, new_labels, new_centroids)
        new_obj = _objective(v, new_labels, new_centroids)
        if new_obj > obj:
            break  # mean update would raise the dot-product objective; keep previous
        moved = not np.array_equal(new_labels, labels)
        labels, centroids, obj = new_labels, new_centroids, new_obj
        reseeded += r
        iterations += 1
        if not moved:
            break
    return ClusterAssignment(centroids=centroids, labels=labels, n_clusters=k,
                             objective=obj, iterations=iterations,
                             reseeded=reseeded)


def assert_bitwise_equal(got, want):
    assert got.centroids.dtype == want.centroids.dtype
    assert got.centroids.shape == want.centroids.shape
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.n_clusters == want.n_clusters
    assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
    assert (got.iterations, got.reseeded) == (want.iterations, want.reseeded)


def _oracle_cases():
    """(vectors, k, seed, init_centroids) covering both init modes and the corners."""
    cases = []
    for case in range(40):
        rng = np.random.default_rng(100 + case)
        n = int(rng.integers(3, 60))
        d = int(rng.choice([1, 2, 3, 8, 16]))
        k = int(rng.integers(2, n + 1)) if case % 5 else n  # every fifth: k == n
        v = rng.normal(loc=rng.normal(size=d), scale=rng.uniform(0.1, 3.0),
                       size=(n, d))
        cases.append((v, k, case, None))
        # interest-style init: random vectors, often far from the data, leave empties
        cases.append((v, k, case, 3.0 * rng.normal(size=(k, d))))
    for case in range(20):  # duplicate rows: k-means++ runs out of weight
        rng = np.random.default_rng(200 + case)
        d = int(rng.choice([1, 2, 4]))
        base = rng.normal(size=(int(rng.integers(1, 4)), d))
        v = base[rng.integers(len(base), size=int(rng.integers(4, 20)))]
        k = int(rng.integers(2, len(v) + 1))
        cases.append((v, k, case, None))
        cases.append((v, k, case, v[rng.integers(len(v), size=k)]))
    rng = np.random.default_rng(3)  # the anti-aligned init of the reseed test
    v = np.array([3.0, 0.0]) + 0.1 * rng.normal(size=(10, 2))
    cases.append((v, 2, 0, np.array([[3.0, 0.0], [-3.0, 0.0]])))
    return cases


def test_kmeans_bitwise_equal_to_reference():
    reseeds = fallbacks = 0
    for v, k, seed, init in _oracle_cases():
        want = kmeans_reference(v, k, seed=seed, init_centroids=init)
        got = dg.kmeans(v, k, seed=seed, init_centroids=init)
        assert_bitwise_equal(got, want)
        reseeds += want.reseeded > 0
        if init is None and len(np.unique(v, axis=0)) < k:
            fallbacks += 1
    # the cases reach the repair loop and the k-means++ fallback branch
    assert reseeds >= 10 and fallbacks >= 5


def test_repair_stops_when_no_reseed_moves_a_centroid(monkeypatch):
    # points on one ray: the centroid at the far end wins every point, so the
    # five clusters reseeded at the nearest points stay empty
    v = np.arange(1.0, 11.0)[:, None] * np.array([1.0, 0.0])
    init = np.vstack([[10.0, 0.0], np.full((5, 2), -1.0)])
    k = len(init)
    assign = dg._assign
    labels = assign(v, init)
    calls = []

    def counting(name):
        def wrapped(vectors, centroids):
            calls.append(name)
            return assign(vectors, centroids)
        return wrapped

    monkeypatch.setattr(dg, "_assign", counting("new"))
    monkeypatch.setitem(globals(), "_assign", counting("reference"))
    got = dg._repair_empties(v, labels, init.copy())
    want = _repair_empties(v, labels, init.copy())
    assert calls.count("reference") == k  # one reassignment per round
    assert calls.count("new") <= 3
    assert got[1].tobytes() == want[1].tobytes()
    assert got[0].tobytes() == want[0].tobytes()
    assert got[2] == want[2] == (k - 1) * k


@pytest.mark.parametrize("init_mode", ["kmeanspp", "user_interests"])
def test_diagnose_clusters_globally_first(monkeypatch, init_mode):
    # the benchmark's tracer counts the first kmeans call of a diagnose as the
    # global clustering and the rest as per-user ones
    sp, hp, params = _tiny_world(4)
    calls = []
    kmeans = dg.kmeans

    def recording(vectors, k, **kwargs):
        calls.append((len(vectors), k))
        return kmeans(vectors, k, **kwargs)

    monkeypatch.setattr(dg, "kmeans", recording)
    rep = dg.diagnose(params, sp.test, hp, init_mode=init_mode, seed=2)
    items = {i for profile, holdout in sp.test.values() for i in profile + holdout}
    assert calls[0] == (hp.num_interests * len(sp.test) + len(items), rep.k_global)
    assert len(calls) == 1 + len(sp.test)
    for (profile, holdout), (rows, k) in zip((sp.test[u] for u in sorted(sp.test)), calls[1:]):
        assert (rows, k) == (hp.num_interests + len(set(profile) | set(holdout)),
                             hp.num_interests)


# Reference INTER / INTRA bookkeeping, verbatim from before diagnose scored
# from arrays (it gains only the k_nonempty count): per-interest item lists
# in a dict, a dict of item rows, a loop over pairs and a set per user.
# diagnose must report the same fields on every input.
kmeans = dg.kmeans
DiagnosticsReport = dg.DiagnosticsReport


def inter_score_reference(assignment, interest_items):
    """Fraction of (interest, positive item) pairs sharing a cluster.

    interest_items maps an interest row index (into the clustered matrix) to
    the row indices of its positive items. Interests with no positives are
    skipped and counted. Returns (score, skipped).
    """
    labels = assignment.labels
    hits = total = skipped = 0
    for interest_row in sorted(interest_items):
        item_rows = interest_items[interest_row]
        if len(item_rows) == 0:
            skipped += 1
            continue
        for row in item_rows:
            hits += int(labels[interest_row] == labels[row])
            total += 1
    if total == 0:
        raise ValueError("no (interest, positive item) pairs to score")
    return hits / total, skipped


def intra_score_reference(per_user_labels, num_interests):
    """Fraction of users whose interests land in pairwise-distinct clusters.

    per_user_labels: per user, the cluster labels of that user's interest
    vectors. Degenerate clusterings with fewer than num_interests distinct
    labels count as not-distinct by construction.
    """
    if not per_user_labels:
        raise ValueError("no users to score")
    distinct = sum(1 for labels in per_user_labels
                   if len(set(int(l) for l in labels)) == num_interests)
    return distinct / len(per_user_labels)


def diagnose_reference(params, part, hp, k_global=None, init_mode="kmeanspp", seed=0):
    """INTER and INTRA scores over a (profile, holdout) split part.

    init_mode "user_interests" seeds the clusterings from interest vectors;
    "kmeanspp", the other mode the config accepts, seeds them by k-means++.
    k_global is capped at the rows it may seed from; the report holds the count used.
    """
    if not part:
        raise ValueError("empty split part")
    users = sorted(part)
    n_z = hp.num_interests
    emb = params.item_emb.value

    interests, attention, ids, mask = evaluation.user_interests_for_profile(
        [part[user][0] for user in users], params, hp.max_seq_len)
    pos_mask, _ = select_positives_batch(attention, mask, hp.pos_threshold)
    user_items = [sorted(set(part[user][0]) | set(part[user][1])) for user in users]
    # global matrix: all interests first, then the distinct items in first-seen order
    n_interest_rows = n_z * len(users)
    items = list(dict.fromkeys(itertools.chain.from_iterable(user_items)))
    item_rows = {item: n_interest_rows + r for r, item in enumerate(items)}
    matrix = np.vstack([interests.reshape(n_interest_rows, -1), emb[items]])
    interest_items = {
        row: [item_rows[i] for i in np.unique(ids[row // n_z, pos]).tolist()]
        for row, pos in enumerate(pos_mask.reshape(n_interest_rows, -1))}
    if k_global is None:
        k_global = min(n_interest_rows, 64)
    by_interests = init_mode == "user_interests"
    k_global = min(k_global, n_interest_rows if by_interests else matrix.shape[0])
    global_seeds = None
    if by_interests:
        # seed the global clustering with a sample of the interest rows
        chosen = np.random.default_rng(seed).choice(
            n_interest_rows, size=k_global, replace=False)
        global_seeds = matrix[np.sort(chosen)]
    assignment = kmeans(matrix, k_global, seed=seed, init_centroids=global_seeds)
    inter, skipped = inter_score_reference(assignment, interest_items)

    per_user_labels = []
    for z, item_ids in zip(interests, user_items):
        local = np.vstack([z, emb[item_ids]])
        local_assign = kmeans(local, n_z, seed=seed,
                              init_centroids=z if by_interests else None)
        per_user_labels.append(local_assign.labels[:n_z])
    intra = intra_score_reference(per_user_labels, n_z)
    return DiagnosticsReport(inter=inter, intra=intra, k_global=k_global,
                             init_mode=init_mode, users=len(users),
                             skipped_interests=skipped,
                             k_nonempty=len(set(assignment.labels.tolist())),
                             user_interests=dict(zip(users, interests)))


# a 0.12 threshold leaves 1-4 interests without positives on these worlds
@pytest.mark.parametrize("pos_threshold", ["adaptive", 0.12])
@pytest.mark.parametrize("init_mode", ["kmeanspp", "user_interests"])
@pytest.mark.parametrize("seed", range(5))
def test_diagnose_equals_reference_bookkeeping(seed, init_mode, pos_threshold):
    sp, hp, params = _tiny_world(seed)
    hp = dataclasses.replace(hp, pos_threshold=pos_threshold)
    got = dg.diagnose(params, sp.test, hp, init_mode=init_mode, seed=seed)
    want = diagnose_reference(params, sp.test, hp, init_mode=init_mode, seed=seed)
    for name in ("inter", "intra", "k_global", "init_mode", "users",
                 "skipped_interests", "k_nonempty"):
        assert (name, getattr(got, name)) == (name, getattr(want, name))
        assert type(getattr(got, name)) is type(getattr(want, name))
    assert got.user_interests.keys() == want.user_interests.keys()
    for user, z in want.user_interests.items():
        assert got.user_interests[user].tobytes() == z.tobytes()
    assert dg.report_record(got) == dg.report_record(want)


def test_diagnose_without_pairs_refused_like_the_reference():
    sp, hp, params = _tiny_world(0)
    hp = dataclasses.replace(hp, pos_threshold=0.2)
    for scorer in (dg.diagnose, diagnose_reference):
        with pytest.raises(ValueError, match=r"no \(interest, positive item\) pairs"):
            scorer(params, sp.test, hp)
