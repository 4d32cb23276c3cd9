"""Clustering diagnostics for interest and item embeddings.

Distance is the negative dot product, so assignment picks the centroid with
the largest dot product. Centroids update to cluster means; because a mean
update is not guaranteed to lower this objective, an iteration that would
raise it is reverted and the loop stops, keeping the objective non-increasing.
Empty clusters are reseeded until a reseed no longer moves a centroid.

INTER: one global clustering over every selected user's interests plus their
profile and holdout items; the score is the fraction of distinct (interest,
positive item) pairs sharing a cluster, where positives are the profile items
whose attention weight clears the threshold. INTRA: one clustering per user with
k = the interest count; the score is the fraction of users whose interests
land in pairwise-distinct clusters.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .data import write_atomic
from .losses import select_positives_batch


@dataclass
class ClusterAssignment:
    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    n_clusters: int
    objective: float  # sum of negative dots to assigned centroids
    iterations: int
    reseeded: int  # empty-cluster repairs


@dataclass
class DiagnosticsReport:
    inter: float
    intra: float
    k_global: int
    init_mode: str
    users: int
    skipped_interests: int
    k_nonempty: int  # distinct labels in the global clustering
    # user id -> (num_interests, d) interest vectors the scores were computed from
    user_interests: dict = field(default_factory=dict, compare=False, repr=False)


def _assign(vectors, centroids):
    return np.argmax(vectors @ centroids.T, axis=1)


def _objective(vectors, labels, centroids):
    return float(-(vectors * centroids[labels]).sum())


def _repair_empties(vectors, labels, centroids):
    """Reseed each empty cluster at the point farthest from its centroid.

    labels must be the assignment to centroids. A round that moves no centroid
    would repeat until round k, so stop there and count the reseeds it skips."""
    k = centroids.shape[0]
    reseeded = 0
    for rounds_left in range(k, 0, -1):
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        dots = (vectors * centroids[labels]).sum(axis=1)
        before = centroids[empty]
        for c in empty:
            far = int(np.argmin(dots))
            centroids[c] = vectors[far]
            dots[far] = np.inf  # one reseed point per empty cluster
        if np.array_equal(centroids[empty], before):
            reseeded += empty.size * rounds_left
            break
        reseeded += empty.size
        labels = _assign(vectors, centroids)
    return labels, centroids, reseeded


def _init_kmeanspp(vectors, k, rng):
    n = vectors.shape[0]
    chosen = [int(rng.integers(n))]
    nearest = np.full(n, np.inf)  # negative dot to the nearest chosen seed
    while len(chosen) < k:
        nearest = np.minimum(nearest, -(vectors @ vectors[chosen[-1]]))
        w = nearest - nearest.min()
        w = w * w
        w[chosen] = 0.0
        if w.sum() == 0.0:
            remaining = np.setdiff1d(np.arange(n), chosen)
            chosen.append(int(rng.choice(remaining)))
        else:
            chosen.append(int(rng.choice(n, p=w / w.sum())))
    return vectors[chosen].copy()


def kmeans(vectors, k, seed=0, max_iter=100, init_centroids=None):
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


def inter_score(labels, interest_rows, item_rows, num_interest_rows):
    """Fraction of (interest, positive item) pairs sharing a cluster.

    labels holds the cluster label of each clustered row; pair j joins
    interest row interest_rows[j] to item row item_rows[j], each distinct pair
    listed once. Of the num_interest_rows interests, those in no pair are
    skipped and counted. Returns (score, skipped).
    """
    if len(interest_rows) == 0:
        raise ValueError("no (interest, positive item) pairs to score")
    hits = int(np.count_nonzero(labels[interest_rows] == labels[item_rows]))
    skipped = num_interest_rows - len(np.unique(interest_rows))
    return hits / len(interest_rows), skipped


def intra_score(labels):
    """Fraction of users whose interests land in pairwise-distinct clusters.

    labels: (users, num_interests) cluster labels of each user's interest
    vectors, one row per user.
    """
    if len(labels) == 0:
        raise ValueError("no users to score")
    distinct = np.all(np.diff(np.sort(labels, axis=1), axis=1) != 0, axis=1)
    return int(np.count_nonzero(distinct)) / len(labels)


def diagnose(params, part, hp, k_global=None, init_mode="kmeanspp", seed=0):
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
    matrix = np.vstack([interests.reshape(n_interest_rows, -1), emb[items]])
    item_row = np.zeros(emb.shape[0], dtype=np.intp)  # catalog item -> matrix row
    item_row[items] = np.arange(n_interest_rows, matrix.shape[0])
    # each distinct (interest row, positive item row) pair once
    rows, pos = np.nonzero(pos_mask.reshape(n_interest_rows, -1))
    pairs = np.unique(np.stack([rows, item_row[ids[rows // n_z, pos]]], axis=1), axis=0)
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
    labels = kmeans(matrix, k_global, seed=seed, init_centroids=global_seeds).labels
    inter, skipped = inter_score(labels, pairs[:, 0], pairs[:, 1], n_interest_rows)

    local_labels = np.array([
        kmeans(np.vstack([z, emb[item_ids]]), n_z, seed=seed,
               init_centroids=z if by_interests else None).labels[:n_z]
        for z, item_ids in zip(interests, user_items)])
    return DiagnosticsReport(inter=inter, intra=intra_score(local_labels),
                             k_global=k_global, init_mode=init_mode,
                             users=len(users), skipped_interests=skipped,
                             k_nonempty=len(np.unique(labels)),
                             user_interests=dict(zip(users, interests)))


def export_embeddings(params, user_interests, item_ids, path):
    """TSV rows: kind, owner id, index, then the vector columns.

    user_interests maps user id to an (n_z, d) matrix; item rows follow with
    index 0. Floats keep 17 significant digits, so a read round-trips exactly.
    """
    emb = params.item_emb.value
    items = sorted(set(int(i) for i in item_ids))
    rows = itertools.chain(
        (("interest", user, k, vec) for user in sorted(user_interests)
         for k, vec in enumerate(user_interests[user])),
        (("item", item, 0, emb[item]) for item in items))
    row_format = "%s\t%d\t%d" + "\t%.17g" * emb.shape[1] + "\n"
    write_atomic(path, (row_format % (kind, owner, k, *vec.tolist())
                        for kind, owner, k, vec in rows))
    return sum(len(z) for z in user_interests.values()) + len(items)


def report_record(report):
    """Single-line machine-readable diagnostics record."""
    return (f"inter={report.inter:.6f} intra={report.intra:.6f} "
            f"k_global={report.k_global} init={report.init_mode} "
            f"users={report.users} skipped_interests={report.skipped_interests} "
            f"k_nonempty={report.k_nonempty}")
