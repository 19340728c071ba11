import numpy as np
import pytest

from kreinlab.cli import write_complex_matrix_csv
from kreinlab.csvtext import BLOCK_CELLS, format_g17


def _texts(x):
    text, length = format_g17(np.asarray(x, dtype=np.float64))
    return [bytes(row[:n]).decode() for row, n in zip(text, length)]


def _samples(rng):
    powers = [s * f * 10.0**k for k in range(-300, 301) for s in (1, -1)
              for f in (1.0, 1 - 2.0**-53, 1 + 2.0**-52)]
    return {
        "bit patterns": rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
        "scaled normals": rng.standard_normal(50_000) * 10.0 ** rng.integers(-30, 30, 50_000),
        "powers of ten and neighbours": np.array(powers),
        "integers": rng.integers(-10**18, 10**18, 20_000).astype(float),
        "halves": (rng.integers(0, 2**20, 20_000) + 0.5) * 2.0 ** rng.integers(-60, 60, 20_000),
        "short decimals": np.array([round(v, int(d)) for v, d in zip(
            rng.standard_normal(20_000) * 1000, rng.integers(0, 12, 20_000))]),
        "special": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1.7e308,
                             1e-200, 1e200, 9.99e-201, 1.01e200, 1e-5, 1e-4, -1.5e-5,
                             1e16, 1e17, 99999999999999999.0, 2.0**53, 0.1, 1 / 3]),
    }


@pytest.mark.parametrize("name", list(_samples(np.random.default_rng(0))))
def test_format_g17_matches_percent_format(name):
    x = _samples(np.random.default_rng(0))[name]
    want = ["%.17g" % v for v in x.tolist()]
    got = _texts(x)
    assert [(v, g) for v, g, w in zip(x.tolist(), got, want) if g != w] == []


def _reference_csv(path, matrix, header):
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype=complex)
    row_format = ",".join(['"%.17g,%.17g"'] * matrix.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# {header}; cells are \"re,im\"; row-major\n")
        for row in matrix.view(np.float64):
            fh.write(row_format % tuple(row.tolist()))


def test_csv_writer_is_the_row_format_byte_for_byte(tmp_path):
    rng = np.random.default_rng(1)
    matrices = [
        rng.standard_normal((37, 29)) + 1j * rng.standard_normal((37, 29)),
        rng.standard_normal((5, 6)),  # real: every imaginary cell is 0
        np.array([[-0.0, np.inf + 1j], [np.nan, -1e-300j]]),
        np.ones((1, BLOCK_CELLS + 3)),  # one row longer than a block
        rng.standard_normal((BLOCK_CELLS + 5, 1)) * 1e-7,
        np.zeros((3, 0)),
        np.zeros((0, 2)),
    ]
    for i, matrix in enumerate(matrices):
        want, got = tmp_path / f"want{i}.csv", tmp_path / f"got{i}.csv"
        _reference_csv(str(want), matrix, f"matrix {i}")
        write_complex_matrix_csv(str(got), matrix, f"matrix {i}")
        assert got.read_bytes() == want.read_bytes(), i
