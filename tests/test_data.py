import dataclasses

import numpy as np
import pytest

from crossbatch import (
    TAG_TRAIN,
    TAG_VAL_GALLERY,
    TAG_VAL_QUERY,
    EmbeddingBatch,
    FeatureDataset,
    FormatError,
    InvalidConfig,
    MLPEmbedder,
    NonFiniteInput,
    ShapeMismatch,
    SyntheticConfig,
    generate_synthetic,
    load_features,
    recall_at_k,
    save_features,
)

SMALL = SyntheticConfig(
    train_classes=5, val_classes=3, samples_per_class=4, input_dim=6, seed=11
)


class TestDatasetValidation:
    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            FeatureDataset(features=np.zeros(4), labels=np.zeros(4), splits=np.zeros(4))
        with pytest.raises(ShapeMismatch):
            FeatureDataset(
                features=np.zeros((4, 2)), labels=np.zeros(3), splits=np.zeros(4)
            )

    def test_nonfinite(self):
        f = np.zeros((2, 2))
        f[0, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            FeatureDataset(features=f, labels=np.zeros(2), splits=np.zeros(2))

    def test_negative_labels(self):
        with pytest.raises(InvalidConfig):
            FeatureDataset(
                features=np.zeros((2, 2)), labels=np.array([-1, 0]), splits=np.zeros(2)
            )

    def test_unknown_tag(self):
        with pytest.raises(InvalidConfig):
            FeatureDataset(
                features=np.zeros((2, 2)), labels=np.zeros(2), splits=np.array([0, 3])
            )

    def test_query_label_must_appear_in_gallery(self):
        with pytest.raises(InvalidConfig):
            FeatureDataset(
                features=np.zeros((3, 2)),
                labels=np.array([5, 6, 7]),
                splits=np.array([TAG_TRAIN, TAG_VAL_QUERY, TAG_VAL_GALLERY]),
            )

    def test_single_set_flag(self):
        ds = FeatureDataset(
            features=np.zeros((3, 2)),
            labels=np.array([0, 1, 1]),
            splits=np.array([TAG_TRAIN, TAG_VAL_QUERY, TAG_VAL_QUERY]),
        )
        assert ds.single_set
        ds2 = FeatureDataset(
            features=np.zeros((3, 2)),
            labels=np.array([0, 1, 1]),
            splits=np.array([TAG_TRAIN, TAG_VAL_QUERY, TAG_VAL_GALLERY]),
        )
        assert not ds2.single_set


class TestGenerateSynthetic:
    def test_sizes_and_split_partition(self):
        ds = generate_synthetic(SMALL)
        assert ds.n == (5 + 3) * 4
        assert ds.input_dim == 6
        assert len(ds.rows(TAG_TRAIN)) == 5 * 4
        assert len(ds.rows(TAG_VAL_QUERY)) == 3 * 4
        assert len(ds.rows(TAG_VAL_GALLERY)) == 0
        # rows() results partition all indices
        all_rows = np.concatenate([ds.rows(t) for t in (0, 1, 2)])
        assert sorted(all_rows) == list(range(ds.n))

    def test_train_and_val_labels_disjoint(self):
        ds = generate_synthetic(SMALL)
        train = set(ds.labels[ds.rows(TAG_TRAIN)])
        val = set(ds.labels[ds.splits != TAG_TRAIN])
        assert train == set(range(5))
        assert val == {5, 6, 7}

    def test_deterministic_per_seed(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        np.testing.assert_array_equal(a.features, b.features)
        c = generate_synthetic(SyntheticConfig(
            train_classes=5, val_classes=3, samples_per_class=4, input_dim=6, seed=12
        ))
        assert np.abs(a.features - c.features).max() > 0

    def test_query_gallery_protocol_splits_each_class(self):
        cfg = SyntheticConfig(
            train_classes=3, val_classes=2, samples_per_class=5, input_dim=4,
            seed=0, protocol="query-gallery",
        )
        ds = generate_synthetic(cfg)
        assert not ds.single_set
        for label in (3, 4):
            tags = ds.splits[ds.labels == label]
            assert (tags == TAG_VAL_GALLERY).sum() == 3  # ceil(5/2)
            assert (tags == TAG_VAL_QUERY).sum() == 2

    def test_tight_clusters_are_perfectly_retrievable(self):
        # with negligible spread, the zero-depth embedder recalls every class
        cfg = SyntheticConfig(
            train_classes=2, val_classes=4, samples_per_class=6, input_dim=8,
            cluster_std=1e-9, seed=3,
        )
        ds = generate_synthetic(cfg)
        net = MLPEmbedder((8,))
        rows = ds.rows(TAG_VAL_QUERY)
        batch = EmbeddingBatch(
            vectors=net.embed(ds.features[rows]), labels=ds.labels[rows]
        )
        out = recall_at_k(batch, batch, (1,))
        assert out[1] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_classes": 1},
            {"val_classes": 0},
            {"samples_per_class": 1},
            {"input_dim": 0},
            {"cluster_std": 0.0},
            {"protocol": "both"},
            {"seed": -1},
        ],
    )
    def test_invalid_config(self, kwargs):
        base = dict(train_classes=3, val_classes=2, samples_per_class=4, input_dim=4)
        base.update(kwargs)
        with pytest.raises(InvalidConfig):
            SyntheticConfig(**base)

    def test_replace_into_invalid_value(self):
        with pytest.raises(InvalidConfig, match=r"^cluster_std must be > 0, got 0.0$"):
            dataclasses.replace(SMALL, cluster_std=0.0)


class TestBinaryFormat:
    def test_f8_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "d.xbnf"
        save_features(ds, path)
        back = load_features(path)
        assert back.features.dtype == np.float64
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.splits, ds.splits)

    def test_f4_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(SMALL)
        ds32 = FeatureDataset(
            features=ds.features.astype(np.float32), labels=ds.labels, splits=ds.splits
        )
        path = tmp_path / "d32.xbnf"
        save_features(ds32, path)
        back = load_features(path)
        assert back.features.dtype == np.float32
        np.testing.assert_array_equal(back.features, ds32.features)

    def test_header_layout(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "d.xbnf"
        save_features(ds, path)
        blob = path.read_bytes()
        assert blob[:4] == b"XBNF"
        assert int.from_bytes(blob[4:6], "little") == 1  # version
        assert int.from_bytes(blob[6:8], "little") == 1  # float64 flag
        assert int.from_bytes(blob[8:12], "little") == ds.n
        assert int.from_bytes(blob[12:16], "little") == ds.input_dim
        assert len(blob) == 16 + ds.n * ds.input_dim * 8 + ds.n * 4 + ds.n

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.xbnf"
        path.write_bytes(b"ZZZZ" + bytes(32))
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert err.value.offset == 0

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "d.xbnf"
        save_features(generate_synthetic(SMALL), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(FormatError, match="truncated header") as err:
            load_features(path)
        assert err.value.offset == 10

    def test_label_beyond_u32_rejected(self, tmp_path):
        ds = FeatureDataset(features=np.zeros((2, 2)), labels=[0, 2**32], splits=np.zeros(2))
        with pytest.raises(InvalidConfig, match="unsigned 32-bit"):
            save_features(ds, tmp_path / "d.xbnf")
        assert not (tmp_path / "d.xbnf").exists()

    def test_integer_features_stored_as_float64(self, tmp_path):
        ds = FeatureDataset(features=np.arange(6).reshape(3, 2), labels=np.zeros(3),
                            splits=np.zeros(3))
        assert ds.features.dtype == np.float64
        save_features(ds, tmp_path / "d.xbnf")
        back = load_features(tmp_path / "d.xbnf")
        assert back.features.dtype == np.float64
        np.testing.assert_array_equal(back.features, np.arange(6.0).reshape(3, 2))

    def test_bad_version(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "d.xbnf"
        save_features(ds, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert err.value.offset == 4

    @pytest.mark.parametrize("flags", [0x2, 0x3, 0x8001])
    def test_undefined_flag_bits(self, tmp_path, flags):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "d.xbnf"
        save_features(ds, path)
        blob = bytearray(path.read_bytes())
        blob[6:8] = flags.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert err.value.offset == 6

    def test_truncated_body(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "d.xbnf"
        save_features(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert err.value.offset == len(blob) - 5

    def test_trailing_bytes(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "d.xbnf"
        save_features(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert err.value.offset == len(blob)

