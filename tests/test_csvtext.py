import numpy as np
import pytest

from kreinlab.cli import read_complex_csv, write_complex_matrix_csv
from kreinlab.csvtext import BLOCK_CELLS, _template, complex_rows
from kreinlab.geometry import CurveSpec, make_grid
from kreinlab.weyl import BemBackend


def _texts(x):
    """The text of each number of the float64 ``x``, read from the cells of a one-column
    complex matrix whose real and imaginary parts are ``x`` in turn."""
    x = np.append(np.asarray(x, dtype=np.float64), 0.0)
    cells = x[:len(x) - len(x) % 2].view(complex).reshape(-1, 1)
    lines = complex_rows(cells, _template(len(cells), 1)).tobytes().decode().splitlines()
    return [t for line in lines for t in line.strip('"').split(",")][:len(x) - 1]


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


def _layout(text):
    """``(layout, significant digits)`` of a ``%.17g`` text: its decimal exponent, or
    "e2"/"e3" for an exponent of two or three digits."""
    text = text.lstrip("-")
    if "e" in text:
        mantissa, exponent = text.split("e")
        return f"e{len(exponent) - 1}", len(mantissa.replace(".", ""))
    whole, _, fraction = text.partition(".")
    if whole == "0" and fraction:
        return len(fraction.lstrip("0")) - len(fraction) - 1, len(fraction.lstrip("0"))
    return len(whole) - 1, len((whole + fraction).rstrip("0") or "0")


def _layout_values():
    """Numbers of every layout and of 1 to 17 significant digits, both signs, and +-0."""
    digits = "98765432123456789"  # no prefix ends in 0
    values = [float(f"{digits[:n]}e{k - n + 1}") for n in range(1, 18)
              for k in (-5, -4, -3, -2, -1, 0, 1, 5, 15, 16, 17, -20, 25, -99, 99,
                        -100, 100, -200, 200)]
    values += [(2 * m + 1) * 2.0**j for m in range(4) for j in range(-70, 70)]
    values += [m * 10.0**j for m in (1, 2, 5, 25, 125) for j in range(-3, 23)]
    values += [1e-200, 1e200]  # the ends of the numbers not formatted by Python
    return np.array(values + [-v for v in values] + [0.0, -0.0])


def test_layout_values_cover_every_layout_and_digit_count():
    layouts = {_layout("%.17g" % v) for v in _layout_values().tolist()}
    assert {k for k, _ in layouts} >= {*range(-4, 17), "e2", "e3"}
    assert {n for _, n in layouts} == set(range(1, 18))


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
        # real-z-like: real parts from 1e-3 to 1e2, imaginary parts around 1e-20
        (rng.choice([-1, 1], (67, 45)) * 10.0 ** rng.uniform(-3, 2, (67, 45))
         + 1j * rng.standard_normal((67, 45)) * 1e-20),
    ]
    cols = 64  # BLOCK_CELLS // cols rows per block
    # a first block of Python texts only (non-finite, out of range, ties at 17 digits),
    # whose template bytes every later block must write anew
    fallback = [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-201, 1.01e200, -1.01e200,
                2.0**-25, -3 * 2.0**-25]
    layouts = _layout_values()
    first = np.resize(np.array(fallback), 2 * BLOCK_CELLS)
    rest = np.resize(rng.permutation(layouts), 4 * BLOCK_CELLS + 2 * cols)
    matrices.append(np.concatenate([first, rest]).view(complex).reshape(-1, cols))
    for i, matrix in enumerate(matrices):
        want, got = tmp_path / f"want{i}.csv", tmp_path / f"got{i}.csv"
        _reference_csv(str(want), matrix, f"matrix {i}")
        write_complex_matrix_csv(str(got), matrix, f"matrix {i}")
        assert got.read_bytes() == want.read_bytes(), i


def test_real_matrix_has_the_bytes_of_its_complex_copy(tmp_path):
    # a float64 matrix formats its real parts only; each imaginary part is the 0 of the
    # template, also after a block of Python texts wrote into the rows of the real parts
    rng = np.random.default_rng(2)
    cols = 64
    fallback = np.resize(np.array([np.nan, np.inf, -np.inf, 5e-324, 1e-201, 2.0**-25]),
                         BLOCK_CELLS)
    matrices = [
        np.concatenate([fallback, np.resize(rng.permutation(_layout_values()),
                                            BLOCK_CELLS + 3 * cols)]).reshape(-1, cols),
        rng.standard_normal((7, 3)).astype(np.float32),
        np.arange(12).reshape(3, 4),
        np.array([[-0.0, 0.0]]),
    ]
    for i, matrix in enumerate(matrices):
        want, got = tmp_path / f"want{i}.csv", tmp_path / f"got{i}.csv"
        write_complex_matrix_csv(str(want), matrix.astype(complex), "real")
        write_complex_matrix_csv(str(got), matrix, "real")
        assert got.read_bytes() == want.read_bytes(), i


@pytest.mark.parametrize("z", [-1.16, 2 + 1j])
def test_kite_dtn_csv_is_the_row_format_byte_for_byte(tmp_path, z):
    matrix = BemBackend(make_grid(CurveSpec("kite"), 256)).dtn(z)
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _reference_csv(str(want), matrix, "dtn")
    write_complex_matrix_csv(str(got), matrix, "dtn")
    assert got.read_bytes() == want.read_bytes()


def test_ragged_row_names_its_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text('# header\n"1,0","2,0"\n"3,0"\n')
    with pytest.raises(ValueError, match="line 3: 1 cells, the first row has 2"):
        read_complex_csv(str(path))


@pytest.mark.parametrize("cell", ["1,abc", "1", "1,2,3", ","])
def test_malformed_cell_names_its_line(tmp_path, cell):
    path = tmp_path / "malformed.csv"
    path.write_text(f'# header\n"1,0","2,0"\n"3,0","{cell}"\n')
    with pytest.raises(ValueError, match=f"line 3: cell '{cell}' is not a"):
        read_complex_csv(str(path))
