"""`g17.csv_text`, and `dynamics.write_table` on either side of its
formatter switch, against CPython's `'%.17g' % v`, byte for byte."""

import numpy as np
import pytest

from agflow import dynamics, g17


def _reference(block) -> str:
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in block.tolist())


def _values() -> np.ndarray:
    """About 300k values of every kind the formatter tells apart."""
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17, 1e99, 1e100, 1e-99, 1e-100])
    positive = [
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf),
        # subnormals, the float range's ends, zeros and non-finite values
        np.array([5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308]),
        np.array([1.7976931348623157e308, 0.0, np.nan, np.inf]),
        rng.integers(1, 2**52, 2**10, dtype=np.uint64).view(np.float64),
        # exact binary ties at the 17th digit, and their neighbours
        2.0**50 + np.arange(-2**10, 2**10) / 4,
        2.0**51 + np.arange(-2**10, 2**10) / 2,
        # fixed/exponent switch points and 2- to 3-digit exponents, with the
        # doubles on either side of each
        (switch[:, None] + np.arange(-64, 64) * np.spacing(switch)[:, None]).ravel(),
        # everyday magnitudes, then integers and short decimals (trailing zeros)
        rng.normal(size=2**14),
        np.exp(rng.uniform(-745.0, 709.0, 2**13)),
        np.arange(2.0**16),
        np.arange(2.0**16) / 1000,
    ]
    values = np.concatenate(positive)
    random_bits = rng.integers(0, 2**64, 2**15, dtype=np.uint64).view(np.float64)
    return np.concatenate([values, -values, random_bits])


def test_matches_percent_17g_byte_for_byte():
    values = _values()
    assert values.size >= 300_000
    block = values[: values.size // 8 * 8].reshape(-1, 8)
    text = "".join(g17.csv_text(block[k : k + 256]) for k in range(0, len(block), 256))
    got, expected = text.split("\n"), _reference(block).split("\n")
    assert len(got) == len(expected)
    bad = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    assert not bad, [(got[i], expected[i]) for i in bad[:3]]


@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 7)])
def test_separators_for_any_block_shape(shape):
    block = np.linspace(-3.0, 1e20, int(np.prod(shape))).reshape(shape)
    block.flat[0] = -0.0
    assert g17.csv_text(block) == _reference(block)


# 16 values a row: 2048 rows are exactly 2^15 values, CPython's largest table
WIDTH = 16


@pytest.mark.parametrize("writers", [1, 2])
@pytest.mark.parametrize("rows, formatter", [(2048, "cpython"), (2049, "g17")])
def test_write_table_matches_percent_17g_on_both_formatters(tmp_path, monkeypatch, writers, rows, formatter):
    assert (rows * WIDTH <= dynamics._CPYTHON_VALUES) == (formatter == "cpython")
    block = np.random.default_rng(28).normal(size=(rows, WIDTH))
    # in both writers' ranges: non-finite values, signed zeros, a subnormal
    # and an exact binary tie at the 17th digit
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 2.0**50 + 0.25]
    for r in (0, rows - 1):
        block[r, 1 : 1 + len(specials)] = specials
    calls, csv_text = [], g17.csv_text
    monkeypatch.setattr(g17, "csv_text", lambda b: calls.append(b.size) or csv_text(b))
    monkeypatch.setattr(dynamics, "_writer_count", lambda m: writers)
    path = tmp_path / "t.csv"
    names = [f"c{i}" for i in range(WIDTH)]
    dynamics.write_table(path, names, [block[:, 0], block[:, 1:]])
    got, expected = path.read_text(), ",".join(names) + "\n" + _reference(block)
    bad = [(g, e) for g, e in zip(got.split("\n"), expected.split("\n")) if g != e]
    assert len(got) == len(expected) and not bad, bad[:3]
    # this process formats rows 0..1023 at least; the g17 side sends them to g17
    assert bool(calls) == (formatter == "g17")
