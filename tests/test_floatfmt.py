import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jcpair import _floatfmt

SRC = Path(__file__).resolve().parents[1] / "src"


def kernel_lines(values):
    """The kernel's text of each value, one per line, through row_blocks."""
    column = np.asarray(values, dtype=np.float64)
    return "".join(_floatfmt.row_blocks(["", "\n"], "", [column], 1 << 16)).split("\n")[:-1]


def repr_lines(values):
    return [repr(value) for value in np.asarray(values, dtype=np.float64).tolist()]


class TestFieldsMatchRepr:
    def test_random_bit_patterns_and_every_power_of_two_and_ten(self):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 0x7FF0 << 48, size=2**20, dtype=np.uint64)
        bits |= rng.integers(0, 2, size=2**20, dtype=np.uint64) << np.uint64(63)
        powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
        values = np.concatenate([bits.view(np.float64), powers, np.negative(powers), [0.0, -0.0]])
        assert kernel_lines(values) == repr_lines(values)

    def test_non_finite_rejected(self):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                kernel_lines([1.5, value, -0.0])

    def test_spare_bytes_left_alone(self):
        # Each cell's literal starts in the last SPARE bytes of its field, so a
        # multi-byte literal comes out whole after every kind of text.
        values = [1e-320, -0.0, 123.5, 0.0, -5e-324, 1.5e300]
        literal = "\u00ab\u2192\u00bb"
        text = "".join(_floatfmt.row_blocks(["", literal], "\n", [np.array(values)], 1 << 16))
        assert text == "\n".join(repr(value) + literal for value in values)

    def test_tables_are_built_on_first_use(self):
        code = "import jcpair.cli, jcpair._floatfmt as f; print(f._tables.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True
        )
        assert done.stdout == "0\n"
