"""Interaction-log ingestion, splits, and a planted-interest synthetic generator.

Logs are (user, item, timestamp) triples with string tokens mapped to dense
indices by first appearance. Splits are user-level: train users keep full
sequences; validation and test users get a chronological (profile, holdout)
pair so retrieval is scored on unseen suffixes.
"""

import bisect
import csv
import io
import os
from dataclasses import dataclass

import numpy as np

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass
class InteractionLog:
    user_ids: np.ndarray  # (n,) dense user indices
    item_ids: np.ndarray  # (n,) dense item indices
    timestamps: np.ndarray  # (n,) int64 seconds
    user_tokens: list  # dense index -> original token
    item_tokens: list

    @property
    def num_users(self):
        return len(self.user_tokens)

    @property
    def num_items(self):
        return len(self.item_tokens)

    def __len__(self):
        return len(self.user_ids)


@dataclass
class DatasetSplit:
    train: dict  # user -> full chronological item list
    valid: dict  # user -> (profile items, holdout items)
    test: dict  # user -> (profile items, holdout items)
    dropped_users: int


@dataclass
class SyntheticSpec:
    n_clusters: int = 4
    items_per_cluster: int = 50
    users: int = 500
    interests_per_user: int = 2
    seq_len: int = 20
    noise_rate: float = 0.05
    seed: int = 7
    popularity_decay: float = 0.7

    def __post_init__(self):
        for name in ("n_clusters", "items_per_cluster", "users", "interests_per_user",
                     "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.interests_per_user > self.n_clusters:
            raise ValueError(
                f"interests_per_user {self.interests_per_user} exceeds "
                f"n_clusters {self.n_clusters}"
            )
        if not (0.0 <= self.noise_rate < 1.0):
            raise ValueError(f"noise_rate must be in [0,1), got {self.noise_rate}")
        if not (0.0 < self.popularity_decay <= 1.0):
            raise ValueError(f"popularity_decay must be in (0,1], got {self.popularity_decay}")
        if self.seq_len > self.n_clusters * self.items_per_cluster:
            raise ValueError("seq_len larger than the item catalog")


def _delimiter_for(path):
    return "," if str(path).endswith(".csv") else "\t"


def _undecodable_line(path):
    """1-based number of the first line of path that is not valid UTF-8.

    The decoder reports a position within its read chunk, so the error path
    re-reads the file. Lines split where the csv reader's do: at LF, CR and
    CRLF, none of which can occur inside a multi-byte UTF-8 sequence.
    """
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return len(lines)


def ingest(path):
    """Parse a user/item/timestamp log file into an InteractionLog.

    A `.csv` path is comma-separated, any other path tab-separated.
    Timestamps are ASCII integers with an optional sign. Exact duplicate
    triples are dropped (first occurrence wins); tokens get dense indices in
    first-appearance order.
    """
    delim = _delimiter_for(path)
    user_index, item_index = {}, {}
    user_tokens, item_tokens = [], []
    users, items, stamps = [], [], []
    seen = set()
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f, delimiter=delim)
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 3:
                    raise ValueError(f"{path}: line {lineno}: expected 3 columns, got {len(row)}")
                user_tok, item_tok, ts_tok = row[0].strip(), row[1].strip(), row[2].strip()
                if not user_tok or not item_tok:
                    raise ValueError(f"{path}: line {lineno}: empty user or item token")
                try:
                    # int() also takes `1_000` and non-ASCII digits; refuse both
                    if not ts_tok.isascii() or "_" in ts_tok:
                        raise ValueError
                    ts = int(ts_tok)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: timestamp {ts_tok!r} is not an integer"
                    ) from None
                if not _INT64_MIN <= ts <= _INT64_MAX:
                    raise ValueError(
                        f"{path}: line {lineno}: timestamp {ts_tok!r} is outside int64")
                triple = (user_tok, item_tok, ts)
                if triple in seen:
                    continue
                seen.add(triple)
                if user_tok not in user_index:
                    user_index[user_tok] = len(user_tokens)
                    user_tokens.append(user_tok)
                if item_tok not in item_index:
                    item_index[item_tok] = len(item_tokens)
                    item_tokens.append(item_tok)
                users.append(user_index[user_tok])
                items.append(item_index[item_tok])
                stamps.append(ts)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: line {_undecodable_line(path)}: not UTF-8 ({exc.reason})"
            ) from None
    if not users:
        raise ValueError(f"{path}: no interactions found")
    return InteractionLog(
        user_ids=np.array(users, dtype=np.int64),
        item_ids=np.array(items, dtype=np.int64),
        timestamps=np.array(stamps, dtype=np.int64),
        user_tokens=user_tokens,
        item_tokens=item_tokens,
    )


def write_interactions(log, path):
    """Write a log back to disk in token form; ingest() of the result round-trips."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=_delimiter_for(path), lineterminator="\n")
    writer.writerows([log.user_tokens[u], log.item_tokens[i], int(t)]
                     for u, i, t in zip(log.user_ids, log.item_ids, log.timestamps))
    write_atomic(path, buf.getvalue())


def write_atomic(path, data):
    """Write str (as UTF-8), bytes, or an iterable of str chunks to a temp file
    beside path, then rename it over path, so readers see the old file or the
    new one, never a partial one. A failed write removes the temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in [data] if isinstance(data, (str, bytes)) else data:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def user_sequences(log):
    """Per-user chronological item lists (timestamp order, input order on ties)."""
    order = np.argsort(log.timestamps, kind="stable")
    seqs = {}
    for pos in order:
        seqs.setdefault(int(log.user_ids[pos]), []).append(int(log.item_ids[pos]))
    return seqs


def split(log, ratios=(0.8, 0.1, 0.1), seed=0, min_interactions=5, holdout_frac=0.2):
    """User-level split with seeded shuffling.

    Users with fewer than min_interactions interactions are dropped (counted).
    Validation/test users' sequences are cut chronologically into a profile
    prefix and a holdout suffix of about holdout_frac of the sequence.
    """
    if abs(sum(ratios) - 1.0) > 1e-9 or len(ratios) != 3:
        raise ValueError(f"ratios must be three values summing to 1, got {ratios}")
    seqs = user_sequences(log)
    kept = [u for u in sorted(seqs) if len(seqs[u]) >= min_interactions]
    dropped = len(seqs) - len(kept)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kept))
    shuffled = [kept[i] for i in order]
    n = len(shuffled)
    n_train = int(n * ratios[0])
    n_valid = int(n * ratios[1])
    train_users = shuffled[:n_train]
    valid_users = shuffled[n_train:n_train + n_valid]
    test_users = shuffled[n_train + n_valid:]

    def profile_holdout(items):
        n_profile = max(1, int(len(items) * (1.0 - holdout_frac)))
        return items[:n_profile], items[n_profile:]

    return DatasetSplit(
        train={u: seqs[u] for u in train_users},
        valid={u: profile_holdout(seqs[u]) for u in valid_users},
        test={u: profile_holdout(seqs[u]) for u in test_users},
        dropped_users=dropped,
    )


def write_split_manifest(split_result, path):
    """One `user<TAB>tag` line per user, tags in {train, valid, test}."""
    parts = (("train", split_result.train), ("valid", split_result.valid),
             ("test", split_result.test))
    write_atomic(path, (f"{u}\t{tag}\n" for tag, users in parts for u in users))


def generate_synthetic(spec):
    """Planted-interest log: items live in clusters, users sample from their
    own clusters with a skewed within-cluster popularity.

    Each user draws interests_per_user distinct clusters. Sequence positions
    pick one of the user's clusters uniformly, then an item with popularity
    weight popularity_decay**local_rank among that cluster's items the user
    has not taken yet; with probability noise_rate the position instead takes
    a uniform unused item from the whole catalog. Sampling never repeats an
    item within a user, so holdout suffixes are disjoint from profiles and
    carry real signal (the next-most-popular items of the user's clusters).
    Timestamps are the position index, so generation order is chronological.

    Cluster c holds the contiguous ids [c*items_per_cluster,
    (c+1)*items_per_cluster), so a cluster draw writes weights only into that
    block and builds the cdf over the block alone: the zero weights before it
    add exactly to the catalog-wide cdf, and the cdf after it is flat at 1.
    An exhausted cluster's draw takes the whole catalog as its block. The
    normaliser is still the pairwise sum over the whole catalog-long weight
    buffer (O(num_items), but one C reduction), so it matches
    Generator.choice bit for bit. A noise draw walks only the user's taken
    ids. Each draw makes the RNG calls that Generator.choice makes over the
    whole catalog (one random() searched in the normalised cdf for a
    weighted pick, one integers() for a uniform one among the unused ids)
    and lands on the same item, so a seed gives the same log as a
    whole-catalog sampler would.

    Returns (InteractionLog, labels) where labels[i] is item i's cluster.
    """
    rng = np.random.default_rng(spec.seed)
    ipc = spec.items_per_cluster
    num_items = spec.n_clusters * ipc
    labels = np.repeat(np.arange(spec.n_clusters), ipc)
    local_rank = np.tile(np.arange(ipc), spec.n_clusters)
    popularity = spec.popularity_decay ** local_rank
    weights = np.zeros(num_items)  # zero outside the block being drawn from
    users, items, stamps = [], [], []
    for u in range(spec.users):
        clusters = rng.choice(spec.n_clusters, size=spec.interests_per_user, replace=False)
        used = np.zeros(num_items, dtype=bool)
        taken = []  # sorted ids of used
        for t in range(spec.seq_len):
            if rng.random() < spec.noise_rate:
                # choice over the unused ids is one integers() draw of a rank
                # among them; step past each taken id at or below the item
                item = int(rng.integers(num_items - len(taken)))
                for k in taken:
                    if k > item:
                        break
                    item += 1
            else:
                lo = int(clusters[rng.integers(len(clusters))]) * ipc
                hi = lo + ipc
                if used[lo:hi].all():  # cluster exhausted: draw from the catalog
                    lo, hi = 0, num_items
                block = weights[lo:hi]
                block[:] = popularity[lo:hi] * ~used[lo:hi]
                # the whole-catalog sum, not block.sum(): pairwise summation
                # groups terms by position, so the block's own sum can differ
                # in the last bit
                total = weights.sum()
                cdf = (block / total).cumsum()
                block[:] = 0.0
                cdf /= cdf[-1]
                item = lo + int(cdf.searchsorted(rng.random(), side="right"))
            used[item] = True
            bisect.insort(taken, item)
            users.append(u)
            items.append(item)
            stamps.append(t)
    log = InteractionLog(
        user_ids=np.array(users, dtype=np.int64),
        item_ids=np.array(items, dtype=np.int64),
        timestamps=np.array(stamps, dtype=np.int64),
        user_tokens=[f"u{u}" for u in range(spec.users)],
        item_tokens=[f"i{i}" for i in range(num_items)],
    )
    return log, labels


def write_labels(labels, item_tokens, path):
    """Ground-truth cluster per item, `item_token<TAB>cluster` lines.

    Keyed by token so the labels survive re-ingestion, which reassigns dense
    indices by first appearance.
    """
    write_atomic(path, (f"{tok}\t{int(c)}\n" for tok, c in zip(item_tokens, labels)))
