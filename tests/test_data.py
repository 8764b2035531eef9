import json

import numpy as np
import pytest

from msvdd.codec import from_dict, to_dict
from msvdd.data import (
    CLUSTER_CENTERS,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm,
    read_dataset_csv,
    scale_to_unit_box,
    split_real,
    write_dataset_csv,
)
from msvdd.errors import InputError, ParseError

# dataset CSV texts that must be refused, each with the line that is at fault
VALID_PREFIX = "x1,x2,label,split\n0.5,1.5,0,train\n"
MALFORMED_CSV = {
    "short_row": (VALID_PREFIX + "1.0,2.0\n", 3),
    "long_row": (VALID_PREFIX + "1.0,2.0,0,train,extra\n", 3),
    "non_numeric_coordinate": (VALID_PREFIX + "1.0,abc,0,train\n", 3),
    "non_finite_coordinate": (VALID_PREFIX + "1.0,nan,0,train\n", 3),
    "non_integer_label": (VALID_PREFIX + "1.0,2.0,zero,train\n", 3),
    "empty_file": ("", 1),
    "header_only": ("x1,x2,label,split\n", 1),
    "no_coordinate_columns": ("label,split\n0,train\n1,test\n", 1),
}


class TestSyntheticSpec:
    def test_noise_range(self):
        with pytest.raises(InputError):
            SyntheticSpec(10, 10, 10, noise_level=0.0)
        with pytest.raises(InputError):
            SyntheticSpec(10, 10, 10, noise_level=0.5)
        with pytest.raises(InputError):
            SyntheticSpec(0, 10, 10, noise_level=0.1)

    def test_json_round_trip(self):
        for spec in (
            SyntheticSpec(30, 20, 50, noise_level=0.15, seed=9),
            SyntheticSpec(5, 6, 7, noise_level=0.4, cluster_sigmas=(0.25, 1.5)),
        ):
            text = json.dumps(to_dict(spec))
            assert from_dict(SyntheticSpec, json.loads(text)) == spec

    @pytest.mark.parametrize("field,value", [
        ("n_train", 0), ("n_val", True), ("n_test", 2.5), ("noise_level", 0.5),
        ("noise_level", True), ("cluster_sigmas", (0.5,)), ("cluster_sigmas", (0.5, -1.0)),
    ])
    def test_refuses_what_a_synthetic_data_block_refuses(self, field, value):
        # msvdd generate and a config's synthetic block share one rule per key
        from msvdd.experiments import ExperimentConfig

        with pytest.raises(InputError, match=field):
            SyntheticSpec(**{"n_train": 10, "n_val": 10, "n_test": 10, "noise_level": 0.1,
                             field: value})
        key, entry = ("noise_levels", [value]) if field == "noise_level" else (field, value)
        with pytest.raises(InputError, match=key):
            ExperimentConfig(data={"type": "synthetic", key: entry})

    def test_json_needs_the_split_counts(self):
        with pytest.raises(InputError, match="n_test"):
            from_dict(SyntheticSpec, {"n_train": 3, "n_val": 3, "noise_level": 0.1})


class TestGenerateSynthetic:
    def test_outlier_fraction_exact(self):
        spec = SyntheticSpec(100, 66, 166, noise_level=0.15, seed=1)
        ds = generate_synthetic(spec)
        for name, count in (("train", 100), ("val", 66), ("test", 166)):
            sub = ds.subset(name)
            assert sub.n == count
            assert sub.labels.sum() == round(0.15 * count)

    def test_anomalies_at_least_three_sigma_out(self):
        spec = SyntheticSpec(60, 40, 100, noise_level=0.2, seed=4)
        ds = generate_synthetic(spec)
        sigmas = np.asarray(spec.cluster_sigmas)
        anomalies = ds.points[ds.labels == 1]
        for x in anomalies:
            dist = np.sqrt(np.sum((CLUSTER_CENTERS - x) ** 2, axis=1))
            # the generating cluster is the nearer one by construction
            k = int(np.argmin(dist))
            assert dist[k] >= 3.0 * sigmas[k] - 1e-12
            assert dist[k] <= 5.0 * sigmas[k] + 1e-12

    def test_bit_reproducible(self):
        spec = SyntheticSpec(50, 30, 80, noise_level=0.1, seed=123)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.split, b.split)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(50, 30, 80, noise_level=0.1, seed=0))
        b = generate_synthetic(SyntheticSpec(50, 30, 80, noise_level=0.1, seed=1))
        assert not np.array_equal(a.points, b.points)


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm("1 1:0.5 3:-1\n")
        assert ds.points.shape == (1, 3)
        assert np.array_equal(ds.points[0], [0.5, 0.0, -1.0])
        assert ds.labels[0] == 1

    def test_empty_feature_list(self):
        ds = parse_libsvm("1 1:2.0\n2\n")
        assert np.array_equal(ds.points[1], [0.0])
        assert ds.labels[1] == 2

    def test_rows_padded_to_max_index(self):
        ds = parse_libsvm("1 4:1\n-1 2:3\n")
        assert ds.points.shape == (2, 4)
        assert np.array_equal(ds.points[0], [0, 0, 0, 1])
        assert np.array_equal(ds.points[1], [0, 3, 0, 0])

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:0.5\n1 oops\n")
        assert err.value.line == 2

    def test_nonincreasing_indices_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 3:1 2:1\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ParseError) as err:
            parse_libsvm(f"1 1:0.5\n1 1:{value} 2:1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_non_finite_label_rejected(self, label):
        with pytest.raises(ParseError) as err:
            parse_libsvm(f"{label} 1:0.5\n")
        assert err.value.line == 1

    def test_round_trip(self):
        ds = parse_libsvm("1 1:0.5 3:-1.25\n2\n-1 2:7.0\n")
        assert ds.points.tolist() == [[0.5, 0.0, -1.25], [0.0, 0.0, 0.0], [0.0, 7.0, 0.0]]
        assert ds.labels.tolist() == [1, 2, -1]


class TestScaling:
    def test_extremes_map_to_unit(self):
        train = Dataset([[0.0], [10.0]])
        (scaled,) = scale_to_unit_box(train)
        assert np.array_equal(scaled.points.ravel(), [-1.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        train = Dataset([[5.0, 1.0], [5.0, 3.0]])
        (scaled,) = scale_to_unit_box(train)
        assert np.array_equal(scaled.points[:, 0], [0.0, 0.0])

    def test_extrapolation_not_clipped(self):
        train = Dataset([[0.0], [10.0]])
        test = Dataset([[20.0]])
        _, scaled_test = scale_to_unit_box(train, (test,))
        assert scaled_test.points[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_fitted_on_train_only(self, rng):
        train = Dataset(rng.uniform(0, 4, size=(20, 3)))
        other = Dataset(rng.uniform(-9, 9, size=(10, 3)))
        scaled_train, scaled_other = scale_to_unit_box(train, (other,))
        assert scaled_train.points.min() == -1.0
        assert scaled_train.points.max() == 1.0
        assert scaled_other.points.min() < -1.0 or scaled_other.points.max() > 1.0

    def test_scaler_direct(self):
        train = Dataset([[0.0, 2.0], [4.0, 2.0]])
        _, out = scale_to_unit_box(train, (Dataset([[2.0, 2.0]]),))
        assert np.array_equal(out.points, [[0.0, 0.0]])

    def test_empty_train_rejected(self):
        with pytest.raises(InputError, match="empty dataset"):
            scale_to_unit_box(Dataset(np.zeros((0, 2))))


class TestSplitReal:
    def _raw(self, rng, n_reg=150, n_anom=60):
        pts = np.vstack(
            [rng.normal(size=(n_reg, 4)), rng.normal(size=(n_anom, 4)) + 5.0]
        )
        labels = np.r_[
            np.where(rng.random(n_reg) < 0.5, 1, 2), np.full(n_anom, 9)
        ]
        return Dataset(pts, labels)

    def test_split_sizes(self, rng):
        ds = self._raw(rng)
        out = split_real(ds, anomaly_classes={9}, anomaly_fraction=0.1, seed=0)
        for name, size in (("train", 45), ("val", 30), ("test", 75)):
            sub = out.subset(name)
            regular = (sub.labels == 0).sum()
            assert regular == size
            assert (sub.labels == 1).sum() == round(0.1 * size)

    def test_insufficient_pool(self, rng):
        ds = self._raw(rng, n_anom=2)
        with pytest.raises(InputError):
            split_real(ds, anomaly_classes={9}, anomaly_fraction=0.2, seed=0)

    def test_deterministic(self, rng):
        ds = self._raw(rng)
        a = split_real(ds, anomaly_classes={9}, anomaly_fraction=0.1, seed=3)
        b = split_real(ds, anomaly_classes={9}, anomaly_fraction=0.1, seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_fractions(self, rng):
        ds = self._raw(rng)
        for fractions in ((0.5, 0.5, 0.5), (0.5, 0.5), (1.2, -0.1, -0.1), (0.0, 0.5, 0.5),
                          ("0.3", 0.2, 0.5)):
            with pytest.raises(InputError, match="fractions"):
                split_real(ds, fractions=fractions, anomaly_classes={9})

    @pytest.mark.parametrize("fraction", [-0.5, float("nan"), 0.0, 1.5, "0.1"])
    def test_bad_anomaly_fraction(self, fraction, rng):
        # refused where it enters, with the rule the experiment config applies
        with pytest.raises(InputError, match="anomaly_fraction"):
            split_real(self._raw(rng), anomaly_classes={9}, anomaly_fraction=fraction)

    def test_anomalies_come_from_pool_classes(self, rng):
        ds = self._raw(rng)
        out = split_real(ds, anomaly_classes={9}, anomaly_fraction=0.1, seed=0)
        # anomaly rows sit at coordinates near +5, regular near 0
        anom = out.points[out.labels == 1]
        assert anom.mean() > 3.0

    def test_two_class_protocol_shape(self, rng):
        # positive class regular, negatives as the anomaly pool
        # (225 / 126 class sizes, 34 features)
        pts = rng.normal(size=(351, 34))
        labels = np.r_[np.full(225, 1), np.full(126, -1)]
        out = split_real(
            Dataset(pts, labels), anomaly_classes={-1}, anomaly_fraction=0.1, seed=0
        )
        reg_sizes = [
            int((out.subset(s).labels == 0).sum()) for s in ("train", "val", "test")
        ]
        assert reg_sizes == [round(0.3 * 225), round(0.2 * 225), 225 - 68 - 45]
        assert sum(reg_sizes) == 225
        total_anom = int((out.labels == 1).sum())
        assert total_anom == sum(round(0.1 * s) for s in reg_sizes)

    def test_multiclass_protocol_shape(self, rng):
        # three of seven classes regular (330 points each), the remaining
        # four feed the anomaly pool
        pts = rng.normal(size=(2310, 5))
        labels = np.repeat(np.arange(1, 8), 330)
        out = split_real(
            Dataset(pts, labels),
            anomaly_classes={4, 5, 6, 7},
            anomaly_fraction=0.05,
            seed=1,
        )
        assert int((out.labels == 0).sum()) == 990
        for name in ("train", "val", "test"):
            sub = out.subset(name)
            n_reg = int((sub.labels == 0).sum())
            assert int((sub.labels == 1).sum()) == round(0.05 * n_reg)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path, rng):
        ds = generate_synthetic(SyntheticSpec(20, 10, 15, noise_level=0.1, seed=2))
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(ds.points, back.points)
        assert np.array_equal(ds.labels, back.labels)
        assert list(ds.split) == list(back.split)

    def test_unlabeled_round_trip(self, tmp_path, rng):
        ds = Dataset(rng.normal(size=(5, 3)))
        path = tmp_path / "plain.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(ds.points, back.points)
        assert back.labels is None
        assert back.split is None

    @pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
    def test_malformed_rows_name_their_line(self, tmp_path, case):
        text, line = MALFORMED_CSV[case]
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_dataset_csv(path)
        assert err.value.line == line

    @pytest.mark.parametrize("case, message", [
        ("header_only", "line 1: no data rows"),
        ("no_coordinate_columns", "line 1: no coordinate columns"),
    ])
    def test_empty_dataset_is_named(self, tmp_path, case, message):
        # np.atleast_2d once read these as one point of shape (1, 0) and as
        # two points of shape (2, 0)
        path = tmp_path / "empty.csv"
        path.write_text(MALFORMED_CSV[case][0])
        with pytest.raises(ParseError, match=f"^{message}$"):
            read_dataset_csv(path)
