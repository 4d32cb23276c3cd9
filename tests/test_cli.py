import hashlib
import re
import struct

import pytest

from mirec.cli import OUTPUT_ROOT_ENV, main
from mirec.data import ingest
from mirec.model import CHECKPOINT_VERSION


TINY = [
    "embed_dim=8", "att_hidden_dim=8", "recon_hidden_dim=4",
    "num_interests=2", "max_seq_len=8", "num_rec_negatives=8",
    "epochs=2", "batch_size=32", "eval_every=1", "lr=0.01", "seed=3",
]


def run(argv):
    return main(argv)


def read_labels(path):
    """Token -> cluster dict from a labels.tsv file at a pathlib path."""
    rows = (line.split("\t") for line in path.read_text(encoding="utf-8").splitlines())
    return {tok: int(c) for tok, c in rows}


def synth_args(out, seed=3):
    return ["synth", "--out", out, "--clusters", "3", "--items-per-cluster",
            "10", "--users", "30", "--seq-len", "10", "--seed", str(seed)]


def sets(dataset, out, extra=()):
    pairs = [f"dataset={dataset}", f"output_dir={out}"] + TINY + list(extra)
    args = []
    for p in pairs:
        args += ["--set", p]
    return args


def test_full_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))

    assert run(synth_args("data")) == 0
    data = tmp_path / "data" / "interactions.tsv"
    assert data.exists()
    assert (tmp_path / "data" / "synth.cfg").exists()
    labels = read_labels(tmp_path / "data" / "labels.tsv")
    log = ingest(str(data))
    assert set(log.item_tokens) <= set(labels)

    assert run(["train"] + sets(str(data), "run1")) == 0
    out = capsys.readouterr().out
    assert "epoch 1" in out and "epoch 2" in out
    run_dir = tmp_path / "run1"
    for name in ("checkpoint.bin", "train.log", "resolved_train.cfg",
                 "split.txt"):
        assert (run_dir / name).exists(), name
    assert "dataset = " in (run_dir / "resolved_train.cfg").read_text()

    assert run(["eval"] + sets(str(data), "run1")) == 0
    first = capsys.readouterr().out
    assert "recall@20:" in first and "recall@50:" in first
    assert "config_hash=" in first and "checkpoint=" in first
    eval_txt = (run_dir / "eval.txt").read_text()
    assert run(["eval"] + sets(str(data), "run1")) == 0
    capsys.readouterr()
    assert (run_dir / "eval.txt").read_text() == eval_txt
    assert (run_dir / "resolved_eval.cfg").exists()

    assert run(["diagnose"] + sets(str(data), "run1")) == 0
    diag_out = capsys.readouterr().out
    assert "inter=" in diag_out and "intra=" in diag_out
    assert "checkpoint=" in diag_out
    diag_txt = (run_dir / "diagnostics.txt").read_text()
    assert (run_dir / "embeddings.tsv").exists()
    assert run(["diagnose"] + sets(str(data), "run1")) == 0
    capsys.readouterr()
    assert (run_dir / "diagnostics.txt").read_text() == diag_txt


def test_synth_seed_changes_output(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run(synth_args("a", seed=1)) == 0
    assert run(synth_args("b", seed=2)) == 0
    a = (tmp_path / "a" / "interactions.tsv").read_bytes()
    b = (tmp_path / "b" / "interactions.tsv").read_bytes()
    assert a != b
    assert run(synth_args("c", seed=1)) == 0
    assert (tmp_path / "c" / "interactions.tsv").read_bytes() == a


def test_synth_rejects_zero_users_by_name(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run(["synth", "--out", "s", "--users", "0"]) == 1
    assert "users" in capsys.readouterr().err
    assert not (tmp_path / "s" / "interactions.tsv").exists()


@pytest.mark.parametrize("bad,message", [
    (["lr=1e200", "weight_decay=0", "clip_norm=0"],
     r"epoch 1 step \d+: non-finite loss component rec"),
    (["embed_dim=0"], "embed_dim"),
], ids=["non-finite-loss", "zero-embed-dim"])
def test_failed_train_leaves_the_previous_run_intact(tmp_path, monkeypatch, capsys,
                                                     bad, message):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run(synth_args("data")) == 0
    data = f"{tmp_path}/data/interactions.tsv"
    assert run(["train"] + sets(data, "r")) == 0
    names = ("checkpoint.bin", "train.log", "split.txt", "resolved_train.cfg")

    def digests():
        return [hashlib.sha256((tmp_path / "r" / n).read_bytes()).hexdigest() for n in names]

    first = digests()
    capsys.readouterr()
    assert run(["train"] + sets(data, "r", bad)) == 1
    assert re.search(message, capsys.readouterr().err)
    assert digests() == first


def test_missing_dataset_path_names_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    rc = run(["train", "--set", "dataset=/no/such/file.tsv",
              "--set", "output_dir=r"])
    assert rc == 1
    assert "/no/such/file.tsv" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    rc = run(["train", "--set", "mystery_knob=1"])
    assert rc == 1
    assert "mystery_knob" in capsys.readouterr().err


def test_config_file_plus_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run(synth_args("data")) == 0
    cfg = tmp_path / "exp.cfg"
    lines = [p.replace("=", " = ") for p in
             [f"dataset={tmp_path}/data/interactions.tsv",
              "output_dir=filecfg"] + TINY]
    cfg.write_text("\n".join(lines) + "\n")
    assert run(["train", "--config", str(cfg), "--set", "epochs=1"]) == 0
    resolved = (tmp_path / "filecfg" / "resolved_train.cfg").read_text()
    assert "epochs = 1" in resolved
    capsys.readouterr()


def test_cutoff_zero_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run(synth_args("data")) == 0
    assert run(["train"] + sets(f"{tmp_path}/data/interactions.tsv", "r")) == 0
    rc = run(["eval"] + sets(f"{tmp_path}/data/interactions.tsv", "r",
                             ["cutoffs=0,20"]))
    assert rc == 1
    assert "cutoff" in capsys.readouterr().err


def test_eval_missing_checkpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run(synth_args("data")) == 0
    rc = run(["eval"] + sets(f"{tmp_path}/data/interactions.tsv", "fresh"))
    assert rc == 1
    assert "checkpoint not found" in capsys.readouterr().err


def test_eval_checkpoint_version_mismatch(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run(synth_args("data")) == 0
    data = f"{tmp_path}/data/interactions.tsv"
    assert run(["train"] + sets(data, "r")) == 0
    ckpt = tmp_path / "r" / "checkpoint.bin"
    blob = bytearray(ckpt.read_bytes())
    struct.pack_into("<I", blob, 8, 9)  # bump the version field
    ckpt.write_bytes(bytes(blob))
    rc = run(["eval"] + sets(data, "r"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "version 9" in err and f"version {CHECKPOINT_VERSION}" in err


def test_eval_dims_mismatch(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert run(synth_args("data")) == 0
    data = f"{tmp_path}/data/interactions.tsv"
    assert run(["train"] + sets(data, "r")) == 0
    rc = run(["eval"] + sets(data, "r", ["embed_dim=16"]))
    assert rc == 1
    assert "do not match" in capsys.readouterr().err
