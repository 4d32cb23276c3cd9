import re
from dataclasses import fields
from pathlib import Path

import pytest

from mirec import config as cm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_config_field_type_has_a_parser():
    # each key's rendered default parses back through the parser of its type
    for f in fields(cm.RunConfig):
        assert cm._parse(f.type, cm._format_value(f.default)) == f.default, f.name


def test_readme_config_block_lists_the_rendered_defaults():
    # the block under "Config keys and defaults" holds one `key = value` line
    # per key, followed by a description after two or more spaces
    text = README.read_text(encoding="utf-8")
    section = text.split("## Config keys and defaults", 1)[1]
    block = section.split("```", 2)[1]
    listed = [re.split(r"\s{2,}", line.strip())[0]
              for line in block.strip("\n").splitlines()]
    rendered = [line.rstrip() for line in cm.render(cm.default_config()).splitlines()]
    assert listed == rendered


def test_defaults_match_paper_scale_settings():
    cfg = cm.default_config()
    assert cfg.embed_dim == 64
    assert cfg.att_hidden_dim == 256
    assert cfg.recon_hidden_dim == 32
    assert cfg.num_interests == 8
    assert cfg.temperature == 0.02
    assert cfg.lr == 0.003
    assert cfg.weight_decay == 1e-5
    assert cfg.cutoffs == "20,50"


def test_render_parse_resolve_round_trip():
    cfg = cm.default_config(["lambda_cl=0.25", "num_seq_negatives=12",
                             "pos_threshold=0.3", "logq_correction=true"])
    back = cm.resolve(cm.parse_config_text(cm.render(cfg)))
    assert back == cfg


def test_unknown_key_rejected_by_name():
    with pytest.raises(ValueError, match="unknown config key 'botch'"):
        cm.parse_config_text("botch = 1")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate key"):
        cm.parse_config_text("seed = 1\nseed = 2")


def test_malformed_line_rejected_with_lineno():
    with pytest.raises(ValueError, match="line 2"):
        cm.parse_config_text("seed = 1\nnot a pair")


def test_comments_and_blanks_ignored():
    raw = cm.parse_config_text("# a comment\n\nseed = 4\n")
    assert raw == {"seed": "4"}


def test_overrides_win_and_unknown_override_rejected():
    raw = cm.apply_overrides({"seed": "1"}, ["seed=9", "lr=0.01"])
    assert raw == {"seed": "9", "lr": "0.01"}
    with pytest.raises(ValueError, match="unknown config key"):
        cm.apply_overrides({}, ["nadir=1"])
    with pytest.raises(ValueError, match="key=value"):
        cm.apply_overrides({}, ["justakey"])


def test_bad_value_names_the_key():
    with pytest.raises(ValueError, match="config key 'epochs'"):
        cm.resolve({"epochs": "three"})


def test_diag_init_rejects_unknown_mode_by_key():
    assert cm.default_config(["diag_init=user_interests"]).diag_init == "user_interests"
    with pytest.raises(ValueError, match="config key 'diag_init'.*'random'"):
        cm.default_config(["diag_init=random"])


def test_hyperparams_mapping():
    cfg = cm.default_config(["lambda_cl=0.1", "lambda_att=1.0", "lambda_ct=0.2",
                             "temperature=0.5"])
    hp = cfg.hyperparams()
    assert hp.lambda_cl == 0.1
    assert hp.lambda_att == 1.0
    assert hp.lambda_ct == 0.2
    assert hp.temperature == 0.5


def test_train_config_mapping():
    cfg = cm.default_config(["epochs=5", "batch_size=16", "seed=3",
                             "patience=2", "lr=0.01"])
    tc = cfg.train_config(checkpoint_path="c.bin", log_path="t.log")
    assert (tc.epochs, tc.batch_size, tc.seed, tc.patience) == (5, 16, 3, 2)
    assert tc.lr == 0.01
    assert tc.checkpoint_path == "c.bin"


def test_cutoff_list_parsing_and_validation():
    assert cm.default_config().cutoff_list() == (20, 50)
    assert cm.default_config(["cutoffs=50, 20, 20"]).cutoff_list() == (20, 50)
    with pytest.raises(ValueError, match="cutoff"):
        cm.default_config(["cutoffs=0,20"]).cutoff_list()
    with pytest.raises(ValueError, match="empty"):
        cm.default_config(["cutoffs=,"]).cutoff_list()


def test_holdout_frac_outside_open_unit_interval_rejected_by_key():
    assert cm.default_config(["holdout_frac=0.5"]).holdout_frac == 0.5
    for bad in ("0", "1", "1.5", "-0.2"):
        with pytest.raises(ValueError, match=r"config key 'holdout_frac': must be in \(0, 1\)"):
            cm.default_config([f"holdout_frac={bad}"])


def test_diag_k_below_two_rejected_by_key():
    assert cm.default_config(["diag_k=2"]).diag_k == 2
    assert cm.default_config(["diag_k=none"]).diag_k is None
    for bad in ("1", "0", "-3"):
        with pytest.raises(ValueError, match="config key 'diag_k': must be none or >= 2"):
            cm.default_config([f"diag_k={bad}"])


def test_cutoffs_not_a_positive_int_list_rejected_by_key():
    cfg = cm.default_config(["cutoffs=50, 20"])
    assert cfg.cutoffs == "50, 20"  # stored as written, so render is unchanged
    for bad, why in (("abc", "comma list of positive ints"), ("20,x", "'x'"),
                     ("2.5", "'2.5'"), ("-3", "'-3'"), ("0", "'0'"), ("", "empty")):
        with pytest.raises(ValueError, match=f"config key 'cutoffs': .*{why}"):
            cm.resolve({"cutoffs": bad})


def test_non_finite_float_rejected_by_key():
    assert cm.default_config(["clip_norm=0.0"]).clip_norm == 0.0
    for key in ("lr", "weight_decay", "train_ratio", "lambda_cl", "temperature",
                "clip_norm", "pos_threshold"):
        for bad in ("nan", "inf", "-inf", "1e400"):
            with pytest.raises(ValueError,
                               match=f"config key '{key}': expected a finite number"):
                cm.default_config([f"{key}={bad}"])


def test_optional_int_and_threshold_casting():
    cfg = cm.default_config(["num_seq_negatives=none", "pos_threshold=adaptive"])
    assert cfg.num_seq_negatives is None
    assert cfg.pos_threshold == "adaptive"
    cfg = cm.default_config(["num_seq_negatives=7", "pos_threshold=0.25"])
    assert cfg.num_seq_negatives == 7
    assert cfg.pos_threshold == 0.25


def test_config_hash_stable_and_sensitive():
    a = cm.default_config()
    b = cm.default_config()
    c = cm.default_config(["seed=1"])
    assert cm.config_hash(a) == cm.config_hash(b)
    assert cm.config_hash(a) != cm.config_hash(c)
    assert len(cm.config_hash(a)) == 12


def test_default_config_hash_is_pinned():
    # eval.txt and diagnostics.txt records carry this hash, so a change to the
    # rendered default config would move every report
    assert cm.config_hash(cm.default_config()) == "713a326564b7"


def test_load_config_from_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 11\nembed_dim = 16\n# tail comment\n")
    cfg = cm.load_config(str(p), overrides=["seed=12"])
    assert cfg.seed == 12
    assert cfg.embed_dim == 16
