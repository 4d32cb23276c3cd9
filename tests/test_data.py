import numpy as np
import pytest

from mirec import data as d
from mirec.cli import OUTPUT_ROOT_ENV, main


def write_log(path, rows, delim="\t"):
    path.write_text("".join(delim.join(map(str, r)) + "\n" for r in rows))
    return str(path)


def read_labels(path):
    """Token -> cluster dict from a labels.tsv file at a pathlib path."""
    rows = (line.split("\t") for line in path.read_text(encoding="utf-8").splitlines())
    return {tok: int(c) for tok, c in rows}


def test_ingest_small_tsv(tmp_path):
    path = write_log(tmp_path / "log.tsv",
                     [("alice", "apple", 10), ("bob", "pear", 11), ("alice", "pear", 12)])
    log = d.ingest(path)
    assert log.num_users == 2
    assert log.num_items == 2
    assert len(log) == 3
    assert log.user_tokens == ["alice", "bob"]


def test_ingest_csv_by_extension(tmp_path):
    path = write_log(tmp_path / "log.csv", [("u1", "i1", 5), ("u2", "i2", 6)], delim=",")
    log = d.ingest(path)
    assert log.num_users == 2


def test_ingest_dense_ids_follow_first_appearance(tmp_path):
    path = write_log(tmp_path / "log.tsv",
                     [("z", "m", 1), ("a", "m", 2), ("z", "k", 3)])
    log = d.ingest(path)
    assert log.user_tokens == ["z", "a"]
    assert log.item_tokens == ["m", "k"]
    np.testing.assert_array_equal(log.user_ids, [0, 1, 0])


def test_ingest_deduplicates_exact_triples(tmp_path):
    rows = [("u", "a", 1), ("u", "a", 1), ("u", "a", 2), ("v", "a", 1)]
    path = write_log(tmp_path / "log.tsv", rows)
    log = d.ingest(path)
    assert len(log) == len(set(rows))


def test_ingest_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u\ti\t5\nu\ti\n")
    with pytest.raises(ValueError, match="line 2"):
        d.ingest(str(path))


def test_ingest_names_the_line_of_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "log.tsv"
    # line 1 holds a valid two-byte character and ends \r\n, line 2 ends \r
    path.write_bytes(b"u\ti\xc3\xa9\t1\r\nu\tj\t2\ru\tk\xff\t3\nu\tl\t4\n")
    with pytest.raises(ValueError, match=f"{path}: line 3: not UTF-8") as info:
        d.ingest(str(path))
    assert not isinstance(info.value, UnicodeDecodeError)


def test_ingest_bad_timestamp_reports_line_number(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("u\ti\tsoon\n")
    with pytest.raises(ValueError, match="line 1.*soon"):
        d.ingest(str(path))


def test_ingest_takes_signed_timestamps(tmp_path):
    path = write_log(tmp_path / "log.tsv", [("u", "i", "+5"), ("u", "j", "-5")])
    np.testing.assert_array_equal(d.ingest(path).timestamps, [5, -5])


MALFORMED_ROWS = {
    "timestamp-above-int64": (f"u\tj\t{2**63}", "int64"),
    "timestamp-below-int64": (f"u\tj\t{-2**63 - 1}", "int64"),
    # int() takes both of these, but timestamps are ASCII integers
    "timestamp-with-underscore": ("u\tj\t1_000", "'1_000' is not an integer"),
    "timestamp-non-ascii-digits": ("u\tj\t\u0661\u0662", "'\u0661\u0662' is not an integer"),
    "field-over-csv-limit": ("u\t" + "j" * 131073 + "\t6", "field limit"),
}


@pytest.mark.parametrize("row,what", list(MALFORMED_ROWS.values()), ids=list(MALFORMED_ROWS))
def test_ingest_and_train_name_the_line_of_a_malformed_row(tmp_path, monkeypatch, capsys,
                                                           row, what):
    path = tmp_path / "bad.tsv"
    path.write_text("u\ti\t5\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad.tsv: line 2: .*{what}"):
        d.ingest(str(path))
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["train", "--set", f"dataset={path}", "--set", "output_dir=r"]) == 1
    assert "bad.tsv: line 2" in capsys.readouterr().err


def test_ingest_empty_file_is_error(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("")
    with pytest.raises(ValueError, match="no interactions"):
        d.ingest(str(path))


def test_round_trip_write_then_ingest(tmp_path):
    spec = d.SyntheticSpec(n_clusters=2, items_per_cluster=10, users=20, seq_len=8, seed=3)
    raw, _ = d.generate_synthetic(spec)
    first = tmp_path / "first.tsv"
    d.write_interactions(raw, str(first))
    log = d.ingest(str(first))
    path = tmp_path / "out.tsv"
    d.write_interactions(log, str(path))
    back = d.ingest(str(path))
    np.testing.assert_array_equal(back.user_ids, log.user_ids)
    np.testing.assert_array_equal(back.item_ids, log.item_ids)
    np.testing.assert_array_equal(back.timestamps, log.timestamps)
    assert back.user_tokens == log.user_tokens
    assert back.item_tokens == log.item_tokens


def test_synthetic_sequences_survive_write_and_ingest(tmp_path):
    spec = d.SyntheticSpec(n_clusters=2, items_per_cluster=10, users=15, seq_len=6, seed=4)
    log, _ = d.generate_synthetic(spec)
    path = tmp_path / "synth.tsv"
    d.write_interactions(log, str(path))
    back = d.ingest(str(path))
    orig = d.user_sequences(log)
    re_read = d.user_sequences(back)
    for u in range(spec.users):
        orig_tokens = [log.item_tokens[i] for i in orig[u]]
        back_user = back.user_tokens.index(log.user_tokens[u])
        back_tokens = [back.item_tokens[i] for i in re_read[back_user]]
        assert orig_tokens == back_tokens


def synthetic_log(users=30, seed=0, seq_len=10):
    spec = d.SyntheticSpec(n_clusters=2, items_per_cluster=20, users=users,
                           seq_len=seq_len, seed=seed)
    return d.generate_synthetic(spec)[0]


def test_user_sequences_are_chronological_with_stable_ties(tmp_path):
    rows = [("u", "a", 5), ("u", "b", 3), ("u", "c", 5), ("u", "d", 1)]
    path = write_log(tmp_path / "log.tsv", rows)
    log = d.ingest(path)
    seqs = d.user_sequences(log)
    tokens = [log.item_tokens[i] for i in seqs[0]]
    assert tokens == ["d", "b", "a", "c"]


def test_split_counts_10_users():
    log = synthetic_log(users=10)
    sp = d.split(log, seed=1)
    assert (len(sp.train), len(sp.valid), len(sp.test)) == (8, 1, 1)
    assert sp.dropped_users == 0


def test_split_is_a_partition():
    log = synthetic_log(users=37)
    sp = d.split(log, seed=2)
    groups = [set(sp.train), set(sp.valid), set(sp.test)]
    assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])
    assert len(groups[0] | groups[1] | groups[2]) + sp.dropped_users == log.num_users


def test_split_profile_holdout_is_80_20():
    log = synthetic_log(users=20, seq_len=10)
    sp = d.split(log, seed=3)
    for profile, holdout in list(sp.valid.values()) + list(sp.test.values()):
        assert len(profile) == 8
        assert len(holdout) == 2


def test_split_holdout_preserves_chronology():
    log = synthetic_log(users=20, seq_len=10)
    sp = d.split(log, seed=4)
    seqs = d.user_sequences(log)
    for u, (profile, holdout) in sp.test.items():
        assert profile + holdout == seqs[u]


def test_split_same_seed_identical_different_seed_not():
    log = synthetic_log(users=50)
    a = d.split(log, seed=5)
    b = d.split(log, seed=5)
    c = d.split(log, seed=6)
    assert list(a.train) == list(b.train) and list(a.test) == list(b.test)
    assert list(a.train) != list(c.train)


def test_split_drops_short_users(tmp_path):
    rows = [("u_long", f"i{k}", k) for k in range(6)] + [("u_short", "i0", 1)]
    path = write_log(tmp_path / "log.tsv", rows)
    log = d.ingest(path)
    sp = d.split(log, min_interactions=5, seed=0)
    assert sp.dropped_users == 1
    all_users = set(sp.train) | set(sp.valid) | set(sp.test)
    assert all_users == {0}


def test_split_rejects_bad_ratios():
    log = synthetic_log(users=10)
    with pytest.raises(ValueError, match="ratios"):
        d.split(log, ratios=(0.5, 0.2, 0.2))


def test_split_manifest_lines(tmp_path):
    log = synthetic_log(users=10)
    sp = d.split(log, seed=1)
    path = tmp_path / "manifest.tsv"
    d.write_split_manifest(sp, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 10
    assert sum(1 for ln in lines if ln.endswith("\ttrain")) == 8


def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="interests_per_user"):
        d.SyntheticSpec(n_clusters=2, interests_per_user=3)
    with pytest.raises(ValueError, match="noise_rate"):
        d.SyntheticSpec(noise_rate=1.0)
    with pytest.raises(ValueError, match="popularity_decay"):
        d.SyntheticSpec(popularity_decay=0.0)
    for name in ("n_clusters", "items_per_cluster", "users", "interests_per_user",
                 "seq_len"):
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"{name} must be at least 1"):
                d.SyntheticSpec(**{name: bad})


def test_synthetic_single_cluster_no_noise_stays_in_cluster():
    spec = d.SyntheticSpec(n_clusters=1, items_per_cluster=30, users=10,
                           interests_per_user=1, seq_len=5, noise_rate=0.0, seed=0)
    log, labels = d.generate_synthetic(spec)
    assert np.all(labels[log.item_ids] == 0)


def test_synthetic_items_stay_in_user_clusters_without_noise():
    spec = d.SyntheticSpec(n_clusters=4, items_per_cluster=10, users=40,
                           interests_per_user=2, seq_len=8, noise_rate=0.0, seed=1)
    log, labels = d.generate_synthetic(spec)
    for u in range(spec.users):
        clusters = set(labels[log.item_ids[log.user_ids == u]])
        assert len(clusters) <= 2


def test_synthetic_no_repeats_within_user():
    spec = d.SyntheticSpec(seed=2)
    log, _ = d.generate_synthetic(spec)
    for u in range(spec.users):
        items = log.item_ids[log.user_ids == u]
        assert len(set(items.tolist())) == len(items)


def test_synthetic_cluster_usage_is_roughly_balanced():
    spec = d.SyntheticSpec(seed=7)
    log, labels = d.generate_synthetic(spec)
    # over all users, both chosen clusters should supply close to half the
    # non-noise positions; a loose 3-sigma band on the pooled counts
    gaps = []
    for u in range(spec.users):
        items = log.item_ids[log.user_ids == u]
        counts = np.bincount(labels[items], minlength=spec.n_clusters)
        top2 = np.sort(counts)[-2:]
        gaps.append(top2[0] / max(top2.sum(), 1))
    assert 0.35 <= np.mean(gaps) <= 0.5


def test_synthetic_is_deterministic_and_seed_sensitive():
    a = d.generate_synthetic(d.SyntheticSpec(seed=9, users=20))[0]
    b = d.generate_synthetic(d.SyntheticSpec(seed=9, users=20))[0]
    c = d.generate_synthetic(d.SyntheticSpec(seed=10, users=20))[0]
    np.testing.assert_array_equal(a.item_ids, b.item_ids)
    assert not np.array_equal(a.item_ids, c.item_ids)


def test_labels_round_trip(tmp_path):
    log, labels = d.generate_synthetic(d.SyntheticSpec(users=5, seed=0))
    path = tmp_path / "labels.tsv"
    d.write_labels(labels, log.item_tokens, str(path))
    mapping = read_labels(path)
    assert len(mapping) == len(labels)
    for tok, cluster in mapping.items():
        assert labels[log.item_tokens.index(tok)] == cluster


def test_labels_round_trip_non_ascii_tokens(tmp_path):
    path = tmp_path / "labels.tsv"
    d.write_labels(np.array([0, 1]), ["caf\u00e9", "\u00fc\u00df"], str(path))
    assert read_labels(path) == {"caf\u00e9": 0, "\u00fc\u00df": 1}


def test_write_atomic_streams_str_chunks(tmp_path):
    path = tmp_path / "out.tsv"
    d.write_atomic(str(path), (f"row\t{i}\n" for i in range(3)))
    assert path.read_text() == "row\t0\nrow\t1\nrow\t2\n"
    d.write_atomic(str(path), b"bytes\n")
    assert path.read_bytes() == b"bytes\n"


def test_failed_replace_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "split.txt"
    d.write_atomic(str(path), "old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(d.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        d.write_atomic(str(path), ("new\n" for _ in range(2)))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["split.txt"]


def test_failed_chunk_leaves_previous_file_and_no_temp_file(tmp_path):
    path = tmp_path / "embeddings.tsv"
    d.write_atomic(str(path), "old\n")

    def chunks():
        yield "partial\n"
        raise ValueError("bad row")

    with pytest.raises(ValueError, match="bad row"):
        d.write_atomic(str(path), chunks())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["embeddings.tsv"]


# Reference generator, verbatim from before cluster draws read only their own
# block and noise draws picked by rank: generate_synthetic must give the same
# log and labels for every spec.
InteractionLog = d.InteractionLog


def generate_synthetic_reference(spec):
    rng = np.random.default_rng(spec.seed)
    num_items = spec.n_clusters * spec.items_per_cluster
    labels = np.repeat(np.arange(spec.n_clusters), spec.items_per_cluster)
    local_rank = np.tile(np.arange(spec.items_per_cluster), spec.n_clusters)
    popularity = spec.popularity_decay ** local_rank
    users, items, stamps = [], [], []
    for u in range(spec.users):
        clusters = rng.choice(spec.n_clusters, size=spec.interests_per_user, replace=False)
        used = np.zeros(num_items, dtype=bool)
        for t in range(spec.seq_len):
            if rng.random() < spec.noise_rate:
                pool = np.flatnonzero(~used)
                item = int(rng.choice(pool))
            else:
                c = int(clusters[rng.integers(len(clusters))])
                in_cluster = (labels == c) & ~used
                if not in_cluster.any():
                    in_cluster = ~used
                w = popularity * in_cluster
                item = int(rng.choice(num_items, p=w / w.sum()))
            used[item] = True
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


CATALOG_20K = dict(n_clusters=20, items_per_cluster=1000, seq_len=20)

ORACLE_SPECS = [
    dict(),
    dict(CATALOG_20K, users=40, popularity_decay=0.5, noise_rate=0.3),
    dict(CATALOG_20K, users=40, popularity_decay=0.99),
    dict(popularity_decay=1.0, noise_rate=0.0, users=100),
    dict(n_clusters=3, items_per_cluster=10, interests_per_user=3, users=60,
         seq_len=15, noise_rate=0.2),
    dict(n_clusters=1, items_per_cluster=30, interests_per_user=1, users=60,
         seq_len=12, noise_rate=0.2),
    # one cluster of 5 per user and 8 positions: each user exhausts it
    dict(n_clusters=3, items_per_cluster=5, interests_per_user=1, users=40,
         seq_len=8, noise_rate=0.1),
    dict(n_clusters=2, items_per_cluster=10, users=40, seq_len=20, noise_rate=0.3),
]


@pytest.mark.parametrize("kwargs", ORACLE_SPECS)
def test_synthetic_equal_to_reference(kwargs):
    for seed in (0, 1, 3, 7):
        spec = d.SyntheticSpec(**dict(kwargs, seed=seed))
        want, want_labels = generate_synthetic_reference(spec)
        got, labels = d.generate_synthetic(spec)
        np.testing.assert_array_equal(got.user_ids, want.user_ids)
        np.testing.assert_array_equal(got.item_ids, want.item_ids)
        np.testing.assert_array_equal(got.timestamps, want.timestamps)
        assert got.user_tokens == want.user_tokens
        assert got.item_tokens == want.item_tokens
        np.testing.assert_array_equal(labels, want_labels)


def test_exhausted_cluster_falls_back_to_the_whole_catalog():
    spec = d.SyntheticSpec(**dict(ORACLE_SPECS[6], noise_rate=0.0, seed=0))
    log, labels = d.generate_synthetic(spec)
    own = labels[log.item_ids[0]]
    first_user = labels[log.item_ids[log.user_ids == 0]]
    assert np.all(first_user[:5] == own)
    assert np.all(first_user[5:] != own)


def test_synth_cli_bytes_equal_to_reference(tmp_path, monkeypatch):
    # the exhausted-cluster spec, through the CLI and its writers
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["synth", "--out", "got", "--clusters", "3", "--items-per-cluster", "5",
                 "--interests", "1", "--users", "40", "--seq-len", "8",
                 "--noise", "0.1", "--seed", "3"]) == 0
    log, labels = generate_synthetic_reference(
        d.SyntheticSpec(**dict(ORACLE_SPECS[6], seed=3)))
    d.write_interactions(log, str(tmp_path / "interactions.tsv"))
    d.write_labels(labels, log.item_tokens, str(tmp_path / "labels.tsv"))
    for name in ("interactions.tsv", "labels.tsv"):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / name).read_bytes()
