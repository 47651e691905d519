"""Unit tests for dataset persistence."""

import numpy as np
import pytest

from repro.data.io import load_csv, load_npy, save_csv, save_npy
from repro.dataset import Dataset
from repro.errors import InvalidDatasetError


@pytest.fixture
def dataset():
    rng = np.random.default_rng(0)
    return Dataset(rng.random((20, 3)), name="demo", kind="UI")


class TestCsv:
    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        loaded = load_csv(path)
        assert np.allclose(loaded.values, dataset.values)
        assert loaded.name == "data"

    def test_header_is_written(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        first = path.read_text().splitlines()[0]
        assert first == "dim_0,dim_1,dim_2"

    def test_headerless_csv_loads(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        loaded = load_csv(path)
        assert loaded.values.shape == (2, 2)

    @pytest.mark.parametrize(
        ("text", "where"),
        [
            ("a,b\n1,2\n3\n", "r.csv:3: expected 2 cells, got 1"),
            ("1,2\n\n3,4\n5,6,7\n", "r.csv:4: expected 2 cells, got 3"),
            ("x,y,z\n1,2\n3,4\n5\n", "r.csv:4: expected 2 cells, got 1"),
        ],
        ids=["short-after-header", "long-after-blank", "header-wider-than-rows"],
    )
    def test_ragged_rows_rejected_with_their_line(self, tmp_path, text, where):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(InvalidDatasetError) as err:
            load_csv(path)
        assert str(err.value) == f"{tmp_path / where}"

    def test_non_numeric_body_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(InvalidDatasetError) as err:
            load_csv(path)
        assert "bad.csv:3" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidDatasetError):
            load_csv(path)

    def test_kind_and_name_overrides(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        loaded = load_csv(path, name="renamed", kind="AC")
        assert loaded.name == "renamed"
        assert loaded.kind == "AC"


class TestNpy:
    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "data.npy"
        save_npy(dataset, path)
        loaded = load_npy(path)
        assert np.array_equal(loaded.values, dataset.values)

    def test_name_defaults_to_stem(self, dataset, tmp_path):
        path = tmp_path / "mystem.npy"
        save_npy(dataset, path)
        assert load_npy(path).name == "mystem"
