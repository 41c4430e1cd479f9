"""Config stack: precedence of flags over file over defaults, error
reporting that names the offending key and file position, and a stable
config hash."""

import pytest

from fedanon.config import (
    ConfigError,
    ExperimentConfig,
    build_config,
    config_hash,
    read_config_file,
    snapshot,
    validate,
)


def write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_are_valid():
    cfg = build_config()
    assert cfg == validate(ExperimentConfig())
    assert cfg.users == 20
    assert cfg.rounds == 50


def test_file_overrides_defaults(tmp_path):
    path = write_cfg(
        tmp_path,
        """
        # world size
        users = 8
        beta = 0.5
        normalize = false
        prior_grid = 2, 4
        """,
    )
    cfg = build_config(file_path=path)
    assert cfg.users == 8
    assert cfg.beta == 0.5
    assert cfg.normalize is False
    assert cfg.prior_grid == (2, 4)
    assert cfg.classes == 10  # untouched default


def test_flags_beat_file(tmp_path):
    path = write_cfg(tmp_path, "users = 8\nrounds = 5\n")
    cfg = build_config(file_path=path, overrides={"users": "12"})
    assert cfg.users == 12
    assert cfg.rounds == 5


def test_unknown_key_in_file_names_position(tmp_path):
    path = write_cfg(tmp_path, "users = 8\nwarp_speed = 9\n")
    with pytest.raises(ConfigError) as err:
        build_config(file_path=path)
    assert "warp_speed" in str(err.value)
    assert ":2" in str(err.value)  # file:line prefix


def test_unknown_override_key():
    with pytest.raises(ConfigError, match="warp_speed"):
        build_config(overrides={"warp_speed": "9"})


def test_malformed_line_rejected(tmp_path):
    path = write_cfg(tmp_path, "users 8\n")
    with pytest.raises(ConfigError, match="key = value"):
        read_config_file(path)


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="'users'"):
        build_config(overrides={"users": "twenty"})
    with pytest.raises(ConfigError, match="'normalize'"):
        build_config(overrides={"normalize": "yep"})
    with pytest.raises(ConfigError, match="'noise_grid'"):
        build_config(overrides={"noise_grid": "0.1, soup"})


def test_range_violations_name_the_key():
    with pytest.raises(ConfigError, match="'users'"):
        build_config(overrides={"users": "1"})
    with pytest.raises(ConfigError, match="'client_fraction'"):
        build_config(overrides={"client_fraction": "0"})
    with pytest.raises(ConfigError, match="'prior_fraction'"):
        build_config(overrides={"prior_fraction": "1.0"})
    with pytest.raises(ConfigError, match="'attack_methods'"):
        build_config(overrides={"attack_methods": "chance, ouija"})
    # the siamese matcher's positive pairs are two deltas of one device
    with pytest.raises(ConfigError, match="'rounds'"):
        build_config(overrides={"rounds": "1", "epoch_ranges": "1"})
    # keys whose component field has another name
    for key, bad in (("beta", "0"), ("sigma_x", "-1"), ("model_kind", "cnn")):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            build_config(overrides={key: bad})


@pytest.mark.parametrize(
    "key, raw",
    [("beta", "nan"), ("eta", "nan"), ("eta", "inf"), ("sigma_x", "inf"),
     ("aug_grid", "0.5, inf"), ("noise_grid", "nan"), ("seen_fractions", "-inf")],
)
def test_non_finite_floats_name_the_key(key, raw):
    # nan passes every range check, so it has to be rejected on its own
    with pytest.raises(ConfigError, match=f"config key '{key}': must be finite"):
        build_config(overrides={key: raw})


def test_attack_layer_must_be_a_layer_of_the_model():
    # the default attack layer W2 exists only in mlp1
    with pytest.raises(ConfigError, match="'attack_layer'"):
        build_config(overrides={"model_kind": "linear"})
    with pytest.raises(ConfigError, match="'attack_layer'"):
        build_config(overrides={"attack_layer": "W3"})
    assert build_config(overrides={"model_kind": "linear", "attack_layer": "W"}).attack_layer == "W"
    assert build_config(overrides={"attack_layer": "b1"}).attack_layer == "b1"


def test_epoch_ranges_must_not_exceed_rounds():
    with pytest.raises(ConfigError, match="'epoch_ranges'"):
        build_config(overrides={"rounds": "4", "epoch_ranges": "5"})
    assert build_config(overrides={"rounds": "4", "epoch_ranges": "4"}).epoch_ranges == 4


def test_clusters_m_must_not_exceed_background_size():
    with pytest.raises(ConfigError, match="'clusters_m'"):
        build_config(overrides={"background_size": "60", "clusters_m": "61"})
    assert build_config(overrides={"background_size": "60", "clusters_m": "60"}).clusters_m == 60


def test_profile_kind_requires_profile_class():
    with pytest.raises(ConfigError, match="'profile_class'"):
        build_config(overrides={"prior_kind": "profile"})
    with pytest.raises(ConfigError, match="'profile_class'"):
        build_config(overrides={"prior_kind": "profile", "profile_class": "10"})
    cfg = build_config(overrides={"prior_kind": "profile", "profile_class": "3"})
    assert cfg.profile_class == 3


def test_tuple_parsing_shapes():
    cfg = build_config(
        overrides={
            "seen_fractions": "0.0, 0.25, 1.0",
            "train_grid": "1,2, 3",
            "attack_methods": "knn, mlp",
        }
    )
    assert cfg.seen_fractions == (0.0, 0.25, 1.0)
    assert cfg.train_grid == (1, 2, 3)
    assert cfg.attack_methods == ("knn", "mlp")


def test_snapshot_covers_every_field_in_order():
    snap = snapshot(ExperimentConfig())
    # out_dir says only where results are written, so reports do not record it
    assert list(snap) == [f for f in ExperimentConfig.__dataclass_fields__ if f != "out_dir"]
    assert snap["normalize"] == "true"
    assert snap["attack_methods"] == "chance,knn,svm,mlp"


def test_config_hash_stability_and_sensitivity():
    a = config_hash(ExperimentConfig())
    b = config_hash(ExperimentConfig())
    assert a == b
    assert len(a) == 16
    assert config_hash(ExperimentConfig(seed=1)) != a
    assert config_hash(ExperimentConfig(eta=0.81)) != a
    # a report's recorded snapshot hashes like the config it records
    assert config_hash(snapshot(ExperimentConfig())) == a
    # where reports are written does not change them
    assert config_hash(ExperimentConfig(out_dir="elsewhere")) == a
    assert snapshot(ExperimentConfig(out_dir="elsewhere")) == snapshot(ExperimentConfig())


def test_round_trip_through_snapshot(tmp_path):
    """Writing a snapshot back as a config file reproduces the config."""
    original = build_config(
        overrides={"users": "6", "noise_grid": "0.5, 2.0", "normalize": "false"}
    )
    text = "\n".join(f"{k} = {v}" for k, v in snapshot(original).items())
    reloaded = build_config(file_path=write_cfg(tmp_path, text))
    assert reloaded == original
    assert config_hash(reloaded) == config_hash(original)
