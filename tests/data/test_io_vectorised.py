"""The vectorised CSV load gives the same bits and errors as ``float()``."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import load_csv
from repro.errors import InvalidDatasetError


def _cell_by_cell(path):
    """The values ``float()`` gives each cell; line 1 is a header if it fails."""
    rows = []
    with path.open(newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle)):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                assert lineno == 0
    return np.asarray(rows, dtype=np.float64)


def _assert_same_bits(path):
    loaded = load_csv(path).values
    expected = _cell_by_cell(path)
    assert loaded.shape == expected.shape
    assert loaded.tobytes() == expected.tobytes()


_EDGE_FLOATS = [1e-17, 5e-324, -0.0, 1.7976931348623157e308, -2.5, 0.1]


class TestCsvParsesLikeFloat:
    """The vectorised load gives the same bits as ``float()`` on each cell."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(_EDGE_FLOATS),
                    ),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=6,
            )
        ),
        st.booleans(),
    )
    def test_repr_written_floats(self, tmp_path_factory, rows, header):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        lines = [",".join(repr(x) for x in row) for row in rows]
        if header:
            lines.insert(0, ",".join(f"c{i}" for i in range(len(rows[0]))))
        path.write_text("\n".join(lines) + "\n")
        _assert_same_bits(path)

    @pytest.mark.parametrize(
        "text",
        [
            " 1.5 , 2 \n3,  4e-3\n",
            "1,2\r\n3,4\r\n",
            "1,2\n\n3,4\n\n",
            "\n1,2\n3,4\n",
            "x,y\n1,2\n3,4\n",
            "1.0,2.0,3.0\n",
            "1\n2\n3\n",
            '"1",2\n3,4\n',
            "1_000,2\n3,4\n",
            '"1",2\n3,4\n5,6\n',
        ],
        ids=[
            "padded", "crlf", "blank-lines", "leading-blank", "header",
            "single-row", "single-column", "quoted", "underscore",
            "quoted-line-one-is-data",
        ],
    )
    def test_layouts(self, tmp_path, text):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        _assert_same_bits(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(InvalidDatasetError, match="no data rows"):
            load_csv(path)

    def test_whitespace_line_is_still_a_bad_row(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1,2\n   \n3,4\n")
        with pytest.raises(InvalidDatasetError, match="w.csv:2: non-numeric cell"):
            load_csv(path)
