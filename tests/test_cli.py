import builtins
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import jcpair.cli
import jcpair.config
import jcpair.spectrum
from jcpair.cli import _BLOCK_CELLS, _csv_parts, _csv_text, _json_parts, _json_text, _row_blocks, _write_text, main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    def cell_value(cell):
        try:
            return float(cell)
        except ValueError:
            return cell

    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[cell_value(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


SPECTRUM_HEADER = ["delta", "omega_pp", "omega_pm", "omega_mp", "omega_mm"]


class TestSpectrumCommand:
    def test_trivial_two_row_sweep(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "g = 1\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 2\n")
        out = tmp_path / "sweep.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SPECTRUM_HEADER
        assert len(rows) == 2
        assert rows[0][0] == 0.0 and rows[1][0] == 1.0

    def test_crossings_without_coupling(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "g = 0\nkappa = 2\nsweep_start = -6\nsweep_stop = 6\nsweep_count = 2401\n",
        )
        out = tmp_path / "sweep.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        by_delta = {row[0]: row for row in rows}
        minus_pair_gap = by_delta[2.0][3] - by_delta[2.0][4]
        plus_pair_gap = by_delta[-2.0][1] - by_delta[-2.0][2]
        assert minus_pair_gap == 0.0
        assert plus_pair_gap == 0.0

    def test_avoided_crossing_summary(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "g = 1\nkappa = 2\nsweep_start = -6\nsweep_stop = 6\nsweep_count = 2401\n",
        )
        out = tmp_path / "sweep.json"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"config", "data", "summary"}
        assert list(payload["data"][0]) == SPECTRUM_HEADER
        assert payload["summary"]["epsilon=+1"] == {
            "delta_at_min_gap": -2.0,
            "min_gap": 2.0,
        }
        assert payload["summary"]["epsilon=-1"]["delta_at_min_gap"] == 2.0

    def test_csv_roundtrips_exactly(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "g = 0.7\nkappa = 1.3\nsweep_start = -1\nsweep_stop = 1\nsweep_count = 7\n",
        )
        out = tmp_path / "sweep.csv"
        main(["spectrum", "--config", cfg, "--out", str(out)])
        _, rows = read_csv(out)
        from jcpair.model import SystemParams
        from jcpair.spectrum import BRANCHES, one_excitation_energies

        for row in rows:
            p = SystemParams(omega_c=0.0, omega_a=row[0], g=0.7, kappa=1.3)
            expected = one_excitation_energies(p)
            for value, label in zip(row[1:], BRANCHES):
                assert value == expected[label]

    @staticmethod
    def assert_rows_scale(tmp_path, scale):
        """The spectrum rows at ``scale`` are ``scale`` times the unit rows, within 4 ulp."""
        settings = dict(g=1.0, kappa=0.1, sweep_start=-2.0, sweep_stop=2.0, sweep_count=41)
        tables = []
        for factor in (1.0, scale):
            cfg = write(tmp_path / "run.cfg", scaled_cfg(settings, factor))
            out = tmp_path / "sweep.csv"
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
            tables.append(np.array(read_csv(out)[1]) / factor)
        unit, scaled = tables
        assert np.all(np.abs(scaled - unit) <= 4 * np.spacing(np.abs(unit)))

    def test_parameters_at_2_to_the_minus_540(self, tmp_path):
        # Before the underflow redo every row read +/-0.1-ish in place of
        # +/-0.9 and +/-1.1, and the command exited 0.
        self.assert_rows_scale(tmp_path, TINY_SCALE)

    def test_parameters_at_2_to_the_plus_1021(self, tmp_path):
        # The largest scale whose sweep span stays finite.  Before the
        # overflow redo every energy was inf, and the command exited 2.
        self.assert_rows_scale(tmp_path, 2.0**1021)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_decoupled_sweep_matches_per_row_writers(self, tmp_path, fmt):
        # At omega_c = g = kappa = 0 the levels cross and about half the
        # cells are zeros, which go through the repr kernel with the rest.
        text = "omega_c = 0\ng = 0\nkappa = 0\nsweep_start = -3\nsweep_stop = 3\nsweep_count = 60001\n"
        cfg = write(tmp_path / "run.cfg", text)
        out = tmp_path / f"sweep.{fmt}"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        written = out.read_text(encoding="utf-8")
        if fmt == "csv":
            sweep = jcpair.spectrum.sweep_spectrum(
                jcpair.config.load_config(cfg).params, np.linspace(-3.0, 3.0, 60001)
            )
            columns = [sweep.deltas] + [sweep.branch(label) for label in jcpair.spectrum.BRANCHES]
            assert written == reference_csv_text(SPECTRUM_HEADER, columns)
        else:
            assert written == json.dumps(json.loads(written), indent=2) + "\n"
        assert re.split(r"[\s,:]+", written).count("0.0") > 60001

    def test_reproducible_bytes(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "g = 1\nkappa = 2\nsweep_start = -3\nsweep_stop = 3\nsweep_count = 11\n",
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--config", cfg, "--out", str(first)])
        main(["spectrum", "--config", cfg, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


def scaled_cfg(settings, scale):
    """Config text with every float setting multiplied by ``scale``."""
    return "".join(
        f"{name} = {value * scale!r}\n" if isinstance(value, float) else f"{name} = {value}\n"
        for name, value in settings.items()
    )


# Parameter scale at which the squares under the closed forms' roots underflow.
TINY_SCALE = 2.0**-540


ABSORPTION_CFG = (
    "omega_a = 2\nkappa = 2\n"
    "gamma = 0.01\ngamma_c = 0.02\ngamma_a = 0.05\n"
    "sweep_start = -5\nsweep_stop = 5\nsweep_count = 2001\n"
)


class TestAbsorptionCommand:
    def test_csv_with_summary_sidecar(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", ABSORPTION_CFG)
        out = tmp_path / "abs.csv"
        assert main(["absorption", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["omega_p", "re_chi", "im_chi"]
        assert len(rows) == 2001
        summary = json.loads((tmp_path / "abs.csv.summary.json").read_text(encoding="utf-8"))
        assert summary["n_peaks"] == 2
        positions = sorted(peak["position"] for peak in summary["peaks"])
        assert positions[0] == pytest.approx(-1.0, abs=0.005)
        assert positions[1] == pytest.approx(1.0, abs=0.005)
        assert summary["symmetry_metric"] < 0.01

    def test_json_payload(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", ABSORPTION_CFG)
        out = tmp_path / "abs.json"
        assert main(["absorption", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"config", "data", "summary"}
        assert payload["config"]["gamma_a"] == 0.05
        assert list(payload["data"][0]) == ["omega_p", "re_chi", "im_chi"]
        assert payload["summary"]["n_peaks"] == 2

    def test_per_cell_rates_give_four_peaks(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "omega_a = -2\nkappa = 2\n"
            "gamma1 = 0.01\ngamma2 = 0.2\ngammac1 = 0.2\ngammac2 = 0.01\ngamma_a = 0.05\n"
            "sweep_start = -5\nsweep_stop = 5\nsweep_count = 2001\n",
        )
        out = tmp_path / "abs.json"
        assert main(["absorption", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["summary"]["n_peaks"] == 4
        assert payload["summary"]["height_imbalance_all_peaks"] > 0.05

    def test_per_cell_rates_at_2_to_the_minus_540(self, tmp_path):
        # Before the underflow redo the line centers collapsed in pairs and
        # 2 peaks were found, with exit 0.
        settings = dict(
            omega_a=-2.0, g=1.0, kappa=2.0, gamma1=0.01, gamma2=0.2, gammac1=0.2, gammac2=0.01,
            gamma_a=0.05, sweep_start=-5.0, sweep_stop=5.0, sweep_count=2001,
        )
        cfg = write(tmp_path / "run.cfg", scaled_cfg(settings, TINY_SCALE))
        out = tmp_path / "abs.json"
        assert main(["absorption", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["summary"]["n_peaks"] == 4

    def test_per_cell_rates_at_2_to_the_plus_1020(self, tmp_path):
        # The largest scale at which the sweep's span, from -5 to 5 scaled,
        # stays finite.  chi is a ratio of rates to frequencies, so it keeps
        # its value; before the overflow redo every line center was inf and
        # the command exited 2.
        settings = dict(
            omega_a=-2.0, g=1.0, kappa=2.0, gamma1=0.01, gamma2=0.2, gammac1=0.2, gammac2=0.01,
            gamma_a=0.05, sweep_start=-5.0, sweep_stop=5.0, sweep_count=2001,
        )
        top = 2.0**1020
        payloads = []
        for scale in (1.0, top):
            cfg = write(tmp_path / "run.cfg", scaled_cfg(settings, scale))
            out = tmp_path / "abs.json"
            assert main(["absorption", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
            payloads.append(json.loads(out.read_text(encoding="utf-8")))
        unit, scaled = payloads
        assert scaled["summary"]["n_peaks"] == 4
        for mine, theirs in zip(scaled["summary"]["peaks"], unit["summary"]["peaks"]):
            assert mine["position"] / top == pytest.approx(theirs["position"], rel=1e-12)
            assert mine["height"] == pytest.approx(theirs["height"], rel=1e-12)
        for mine, theirs in zip(scaled["data"], unit["data"]):
            assert mine["omega_p"] / top == theirs["omega_p"]
            assert mine["re_chi"] == pytest.approx(theirs["re_chi"], rel=1e-12, abs=1e-12)
            assert mine["im_chi"] == pytest.approx(theirs["im_chi"], rel=1e-12, abs=1e-12)

    def test_zero_damping_rates_give_zero_absorption(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "omega_a = 2\nkappa = 2\ngamma = 0\ngamma_c = 0\ngamma_a = 0.05\n"
            "sweep_start = -5\nsweep_stop = 5\nsweep_count = 101\n",
        )
        out = tmp_path / "abs.csv"
        assert main(["absorption", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(row[2] == 0.0 for row in rows)
        summary = json.loads((tmp_path / "abs.csv.summary.json").read_text(encoding="utf-8"))
        assert summary["n_peaks"] == 0
        assert summary["symmetry_metric"] is None


class TestEigenstatesCommand:
    def test_threshold_report(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "omega_a = 2\nkappa = 2\ngamma = 0.01\ngamma_c = 0.02\ngamma_a = 0.05\n")
        assert main(["eigenstates", "--config", cfg]) == 0
        report = capsys.readouterr().out
        assert "epsilon=-1: r=0.0" in report
        assert "maximally_entangled=yes" in report
        assert report.count("[dark]") == 2
        assert report.count("[bright]") == 2

    def test_uncoupled_symmetric_point_json(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "g = 1\n")
        out = tmp_path / "eig.json"
        assert main(["eigenstates", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        for key in ("epsilon=+1", "epsilon=-1"):
            assert payload["summary"][key]["r"] == 0.0
            assert payload["summary"][key]["maximally_entangled"] is True
        assert len(payload["data"]) == 4
        assert all(abs(rec["u"]) == 0.5 and rec["w"] == 0.5 for rec in payload["data"])

    def test_rational_point_csv(self, tmp_path):
        # delta = 2.5, kappa = -1, g = 1 puts the eps = +1 pair at r = 3/4
        cfg = write(tmp_path / "run.cfg", "omega_a = 2.5\nkappa = -1\n")
        out = tmp_path / "eig.csv"
        assert main(["eigenstates", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["epsilon", "branch", "r", "u", "w", "deviation", "classification"]
        plus_rows = [row for row in rows if row[0] == 1]
        assert plus_rows[0][2] == 0.75
        assert plus_rows[0][3] == pytest.approx(1 / math.sqrt(10), abs=1e-15)
        assert plus_rows[0][4] == pytest.approx(2 / math.sqrt(10), abs=1e-15)

    def test_requires_coupling(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "g = 0\nkappa = 1\n")
        assert main(["eigenstates", "--config", cfg]) == 2
        assert "g must be > 0" in capsys.readouterr().err

    def test_coupling_near_the_float_maximum(self, tmp_path, capsys):
        # 2g overflows at 1e308; r is dimensionless, so 1/16 of it reads the same.
        reports = []
        for rate in (1e308, 1e308 / 16):
            cfg = write(tmp_path / "run.cfg", f"g = {rate!r}\nkappa = {rate!r}\n")
            assert main(["eigenstates", "--config", cfg]) == 0
            reports.append(capsys.readouterr().out.splitlines()[1:])
        assert reports[0] == reports[1]
        assert reports[0][0].startswith("epsilon=+1: r=0.5 ")
        assert reports[0][0].endswith("maximally_entangled=no")

    def test_detuning_past_the_float_maximum(self, tmp_path, capsys):
        # omega_a - omega_c overflows at 1e308; the 1e307 run shows the same r.
        reports = []
        for rate in (1e308, 1e307):
            cfg = write(tmp_path / "run.cfg", f"omega_c = {-rate!r}\nomega_a = {rate!r}\ng = {rate!r}\n")
            assert main(["eigenstates", "--config", cfg]) == 0
            reports.append(capsys.readouterr().out.splitlines()[1:])
        assert reports[0] == reports[1]
        assert reports[0][0] == "epsilon=+1: r=1.0 entanglement_deviation=0.3535533905932738 maximally_entangled=no"


class TestValidateCommand:
    def test_passes_and_is_deterministic(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["validate", "--seed", "1", "--trials", "60", "--out", str(first)]) == 0
        assert main(["validate", "--seed", "1", "--trials", "60", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text(encoding="utf-8")
        assert "all 10 suites passed" in text
        assert text.count("PASS") == 10

    def test_detects_corrupted_closed_form(self, tmp_path, monkeypatch, capsys):
        honest = jcpair.spectrum.one_excitation_energies

        def corrupted(p):
            energies = dict(honest(p))
            label = jcpair.spectrum.BranchLabel(+1, +1)
            energies[label] = -energies[label]  # flipped sign
            return energies

        monkeypatch.setattr(jcpair.spectrum, "one_excitation_energies", corrupted)
        assert main(["validate", "--seed", "1", "--trials", "30"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_energies_fail_the_closed_form_suite(self, monkeypatch, capsys):
        honest = jcpair.spectrum.energies

        def corrupted(*args):
            table = honest(*args)
            table[..., 0] = -table[..., 0]  # flipped sign of one column
            return table

        monkeypatch.setattr(jcpair.spectrum, "energies", corrupted)
        assert main(["validate", "--seed", "1", "--trials", "30"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "closed_form_vs_oracle" in line][0].startswith("FAIL ")

    def test_trials_must_be_positive(self, capsys):
        assert main(["validate", "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["solve"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_config_key_names_offender(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "coupling = 1\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "coupling" in capsys.readouterr().err

    def test_spectrum_requires_sweep(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "g = 1\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_absorption_requires_damping(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "g = 1\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 5\n")
        assert main(["absorption", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "gamma_a" in capsys.readouterr().err

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "g = 1\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 2\n")
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(missing_dir)]) == 2


class TestNonFiniteAndOversized:
    """Bad input ends with exit 2, one stderr line and no output file."""

    def run(self, tmp_path, capsys, command, text, *options):
        cfg = write(tmp_path / "run.cfg", text)
        out = tmp_path / "out.csv"
        code = main([command, "--config", cfg, "--out", str(out), *options])
        err = capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.csv.summary.json").exists()
        return code, err

    def test_infinite_sweep_start(self, tmp_path, capsys):
        code, err = self.run(
            tmp_path, capsys, "spectrum", "sweep_start = -inf\nsweep_stop = 1\nsweep_count = 5\n"
        )
        assert code == 2
        assert err.count("\n") == 1 and "sweep_start must be finite" in err

    def test_sweep_count_above_cap(self, tmp_path, capsys):
        # 5e8 points would allocate gigabytes before failing; the cap
        # refuses them while parsing.
        code, err = self.run(
            tmp_path, capsys, "spectrum", "sweep_start = 0\nsweep_stop = 1\nsweep_count = 5e8\n"
        )
        assert code == 2
        assert err.count("\n") == 1 and "sweep_count must be <=" in err

    def test_sweep_count_too_large_to_allocate(self, tmp_path, capsys, monkeypatch):
        # 1e17 points ask for 711 PiB, which no allocator grants, so the
        # request fails at once without touching memory.  The cap would
        # refuse such a count first; lifting it reaches the allocator.
        monkeypatch.setattr(jcpair.config, "MAX_SWEEP_COUNT", 10**18)
        code, err = self.run(
            tmp_path, capsys, "spectrum", "sweep_start = 0\nsweep_stop = 1\nsweep_count = 1e17\n"
        )
        assert code == 2
        assert err.count("\n") == 1 and "out of memory" in err

    def test_spectrum_overflow_writes_nothing(self, tmp_path, capsys):
        # The upper line centers, omega_c + g = 2e308, pass the float maximum.
        code, err = self.run(
            tmp_path,
            capsys,
            "spectrum",
            "omega_c = 1e308\ng = 1e308\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 3\n",
        )
        assert code == 2
        assert err.count("\n") == 1 and "not finite" in err

    def test_spectrum_overflowing_sweep_bounds(self, tmp_path, capsys):
        # The grid is finite, but at both ends x = delta +/- kappa, and with
        # it a line center, passes the float maximum.
        code, err = self.run(
            tmp_path,
            capsys,
            "spectrum",
            "kappa = 1e308\nsweep_start = -8e307\nsweep_stop = 8e307\nsweep_count = 3\n",
        )
        assert code == 2
        assert err.count("\n") == 1 and "not finite" in err

    @pytest.mark.parametrize("command", ["absorption", "eigenstates"])
    def test_damping_rate_overflow(self, tmp_path, capsys, command):
        # (sqrt(gamma1) + sqrt(gamma2))**2 = 4e308 overflows a float.
        code, err = self.run(
            tmp_path,
            capsys,
            command,
            "gamma = 1e308\ngamma_c = 0.02\ngamma_a = 0.05\n"
            "sweep_start = -1\nsweep_stop = 1\nsweep_count = 3\n",
        )
        assert code == 2
        assert err.count("\n") == 1 and "overflow" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_absorption_line_center_overflow(self, tmp_path, capsys, fmt):
        # A per-cell config scaled by 2^1022: the rates and the grid stay
        # finite but the upper line centers, about 4.4 * 2^1022, overflow,
        # and rate / inf = 0 wrote chi = 0 everywhere.
        values = {
            "omega_c": 3.5, "omega_a": 3.8, "g": 1.0, "kappa": 0.2, "gamma1": 0.01, "gamma2": 0.2,
            "gammac1": 0.2, "gammac2": 0.01, "gamma_a": 0.05, "sweep_start": 2.5, "sweep_stop": 3.5,
        }
        text = "".join(f"{key} = {value * 2.0**1022!r}\n" for key, value in values.items())
        code, err = self.run(tmp_path, capsys, "absorption", text + "sweep_count = 11\n", "--format", fmt)
        assert code == 2
        assert err.count("\n") == 1 and "not finite" in err

    def test_absorption_overflow_writes_nothing(self, tmp_path, capsys):
        # The grid hits the bright resonances at +/-1 exactly, where a
        # subnormal probe linewidth makes the Lorentzians overflow.
        code, err = self.run(
            tmp_path,
            capsys,
            "absorption",
            "omega_a = 2\nkappa = 2\ngamma = 0.01\ngamma_c = 0.02\ngamma_a = 1e-320\n"
            "sweep_start = -1\nsweep_stop = 1\nsweep_count = 3\n",
        )
        assert code == 2
        assert err.count("\n") == 1 and "not finite" in err



class TestPinnedOutputBytes:
    """SHA-256 of every output file on fixed configs.

    Recorded before the closed form and the CSV writer were vectorized; a
    refactor of the compute or output layers must keep these bytes.
    """

    CONFIGS = {
        # omega_c is not a binary fraction, so the detuning the sweep uses,
        # (omega_c + delta) - omega_c, differs from the grid value at 200 points.
        "spectrum": (
            "omega_c = 0.3\ng = 0.7\nkappa = 1.3\n"
            "sweep_start = -3\nsweep_stop = 3\nsweep_count = 2001\n"
        ),
        "shared": ABSORPTION_CFG,
        "per_cell": (
            "omega_a = -2\nkappa = 2\n"
            "gamma1 = 0.01\ngamma2 = 0.2\ngammac1 = 0.2\ngammac2 = 0.01\ngamma_a = 0.05\n"
            "sweep_start = -5\nsweep_stop = 5\nsweep_count = 2001\n"
        ),
        "eigenstates": (
            "omega_c = 0.3\nomega_a = 2.8\nkappa = -1.1\n"
            "gamma1 = 0.01\ngamma2 = 0.2\ngammac1 = 0.2\ngammac2 = 0.01\ngamma_a = 0.05\n"
        ),
    }

    @staticmethod
    def output_hashes(tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.glob("out*"))
        }

    @pytest.mark.parametrize(
        "command, config, fmt, expected",
        [
            ("spectrum", "spectrum", "csv", {
                "out": "643293ddeb361f98f8ee29869f5bcc2fd0603aa1eb23d7df660064069f209b3b",
            }),
            ("spectrum", "spectrum", "json", {
                "out": "fa68e3f206ac03237d3f4bc130944d2444d31af01b9793098479b2ab1dc55a75",
            }),
            ("absorption", "shared", "csv", {
                "out": "d14bc32c5d99b8d9aacacf4f159d7b26800251c88486f97043a4b98f36899eb9",
                "out.summary.json": "0a78c2d3247c3790b335cd55b3b4adda561d833d3b735508eac5711d6891d532",
            }),
            ("absorption", "shared", "json", {
                "out": "a8f1b91dedfe9fc50c0c84e236a2fd4c2eb63637d3b4c5de3085947e82afd52c",
            }),
            ("absorption", "per_cell", "csv", {
                "out": "3c5fe04202505eb1308bfa4753fb2b7624ce84823d4e47a293824dae7f6029e7",
                "out.summary.json": "d6a34626d80f848e4d29a208774b2d42d23e79150118d56567886eddec8678d2",
            }),
            ("absorption", "per_cell", "json", {
                "out": "55fc7506bf4a78bbe281b47e9e4eb85a6c96f6a01ddea1685e76d9e63b7d584e",
            }),
            ("eigenstates", "eigenstates", "csv", {
                "out": "f69599ed5d067817ea5ad363cfac8942e15a5f30395cbe579bfdf2eb8cdfe121",
            }),
            ("eigenstates", "eigenstates", "json", {
                "out": "8f8498cda804ddc6b51c5e1520fcadab5dfd1e094bebffa3fbfb3f3511e711b2",
            }),
            ("eigenstates", "eigenstates", "text", {
                "out": "857b8adcc591307d0de2d2ed68a0762af863a5c80a82fee5d5a4585ebe88ba67",
            }),
        ],
    )
    def test_command_output(self, tmp_path, command, config, fmt, expected):
        cfg = write(tmp_path / "run.cfg", self.CONFIGS[config])
        argv = [command, "--config", cfg, "--format", fmt]
        assert self.output_hashes(tmp_path, argv) == expected

    def test_validate_text(self, tmp_path):
        argv = ["validate", "--seed", "1", "--trials", "1000"]
        assert self.output_hashes(tmp_path, argv) == {
            "out": "40e915c6c822cbe43359c5ec72f67f080293499df5725185eff78bc8d183e77f",
        }

    # Recorded while validate solved one matrix per eig_sym call; trials = 1
    # and 7 give stacks of one member and of odd sizes in the batched suites.
    @pytest.mark.parametrize(
        "seed, trials, digest",
        [
            (2, 1000, "21f2e4ffaffea466396290dfbb0e1a2640c3bb79f5729da1a1faa821fc06ad5e"),
            (3, 1000, "04286ed2972a081d8aae6130bf4da6f687ce0d8f13639c08a8dce0bf5ac724c0"),
            (5, 1, "afdf3ebffc5704e49ef5b9bfc378ed2f1589a201c12e1c8baae314782489fc03"),
            (5, 7, "2f3f8336e2a3a8e2f5ff4eb239f2bffb91f1b28c474c18e538cc41bcc0684b8b"),
        ],
    )
    def test_validate_text_other_runs(self, tmp_path, seed, trials, digest):
        argv = ["validate", "--seed", str(seed), "--trials", str(trials)]
        assert self.output_hashes(tmp_path, argv) == {"out": digest}


def reference_rows(columns):
    return zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))


def reference_csv_text(header, columns):
    """The per-row CSV writer the row template replaced."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in reference_rows(columns))
    return "\n".join(lines) + "\n"


def reference_json_text(payload, header):
    """The per-row-dict JSON writer the row template replaced."""
    data = [dict(zip(header, row)) for row in reference_rows(payload["data"])]
    return json.dumps({**payload, "data": data}, indent=2) + "\n"


# The first five are used by index below.  The rest broke, or nearly broke,
# a Schubfach port to repr: the two Java rules that keep two digits, the
# subnormal boundary, the positional/exponent boundaries, integers past 2^53.
EDGE_FLOATS = [
    -0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308,
    0.0, 1e-323, 8e-323, 2.2250738585072014e-308, 1e-4, 9.999999999999999e-05,
    9999999999999998.0, 2.0**53, 2.0**60, 123456789012345680.0,
]
finite_floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def float_table(draw):
    """Distinct column names and nonempty equal-length float columns."""
    width = draw(st.integers(1, 5))
    length = draw(st.integers(2, 6))
    header = draw(st.lists(st.text(max_size=6), min_size=width, max_size=width, unique=True))
    cells = st.lists(finite_floats, min_size=length, max_size=length)
    return header, [np.array(draw(cells)) for _ in range(width)]


# The two-row minimum grid, every edge float, and names that need escaping.
EDGE_TABLE = (
    ["delta", "re_%s", 'q"\u00e9'],
    [np.array(EDGE_FLOATS[:2]), np.array(EDGE_FLOATS[2:4]), np.array([EDGE_FLOATS[4], -EDGE_FLOATS[4]])],
)


class TestRowTemplateWriters:
    """The row-template writers give the bytes of the per-row writers."""

    @given(table=float_table())
    @example(table=EDGE_TABLE)
    def test_csv_matches_per_row_writer(self, table):
        header, columns = table
        assert "".join(_csv_parts(header, columns)) == reference_csv_text(header, columns)

    @given(table=float_table(), config=json_values, summary=json_values)
    @example(table=EDGE_TABLE, config={"g": 1.0}, summary={"peaks": [], "metric": None})
    def test_json_matches_per_row_writer(self, table, config, summary):
        header, columns = table
        payload = {"config": config, "data": columns, "summary": summary}
        assert _json_text(payload, header) == reference_json_text(payload, header)

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    @example(values=EDGE_FLOATS)
    def test_float64_columns_match_per_row_writers(self, values):
        # Float64 arrays take the NumPy repr kernel.
        header = ["x", "-x"]
        columns = [np.array(values), -np.array(values)]
        assert "".join(_csv_parts(header, columns)) == reference_csv_text(header, columns)
        payload = {"config": None, "data": columns, "summary": None}
        assert _json_text(payload, header) == reference_json_text(payload, header)

    def test_short_csv_of_mixed_cells(self):
        # The eigenstates CSV: ints, floats and words, each through str.
        columns = [[1, -1], [0.1, 1e-05], ["dark", "bright"]]
        assert _csv_text(["eps", "r", "kind"], columns) == "eps,r,kind\n1,0.1,dark\n-1,1e-05,bright\n"

    def test_array_and_list_columns_agree(self):
        # The kernel takes a list of floats as the float64 array it makes of it.
        rng = np.random.default_rng(7)
        column = np.concatenate([EDGE_FLOATS, rng.normal(size=_BLOCK_CELLS), rng.uniform(-1e-5, 1e20, 5)])
        for pieces, sep in ((["", "\n"], ""), (['  {"%s": ', "}"], ",\n")):
            kernel = "".join(_row_blocks(pieces, sep, [column]))
            assert kernel == "".join(_row_blocks(pieces, sep, [column.tolist()]))

    # A block holds _BLOCK_CELLS // width rows.  A row short of a block, one
    # block, one row more, then the same about two blocks, and four blocks
    # and a row, for the 3 columns of absorption and the 5 of spectrum.
    @pytest.mark.parametrize(
        "width, blocks, extra",
        [pytest.param(w, b, d, id=f"{w}cols-{b}blocks{d:+d}") for w in (3, 5) for b, d in [(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1), (4, 1)]],
    )
    def test_rows_across_blocks(self, width, blocks, extra):
        rows = blocks * (_BLOCK_CELLS // width) + extra
        rng = np.random.default_rng(rows)
        header = ["x", "y", "z", "u", "v"][:width]
        # Zeros at every 1,000th row.
        columns = [rng.normal(size=rows), rng.uniform(-1e300, 1e300, size=rows), np.arange(rows) % 1000 * 0.1]
        columns += [rng.uniform(-1e-5, 1e20, size=rows), -rng.normal(size=rows)][: width - 3]
        assert "".join(_csv_parts(header, columns)) == reference_csv_text(header, columns)
        payload = {"config": {"n": rows}, "data": columns, "summary": None}
        assert _json_text(payload, header) == reference_json_text(payload, header)


class TestStreamedOutput:
    """Data files are formatted and written one block of rows at a time."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writing_peaks_below_an_eighth_of_the_file(self, tmp_path, monkeypatch, fmt):
        # One block of _BLOCK_CELLS cells (1,080 rows of 5), with the repr
        # kernel's temporaries, its tables (about 0.13 MB, built here) and the
        # block's encoded copy, peaks at ~0.57 MB as CSV and ~0.75 MB as JSON,
        # whatever the row count and whatever ran before.
        cfg = write(tmp_path / "run.cfg", "g = 1\nkappa = 0.7\nsweep_start = -8\nsweep_stop = 8\nsweep_count = 60001\n")
        out = tmp_path / f"out.{fmt}"
        require_finite = jcpair.cli._require_finite
        before_write = []

        def require_finite_then_reset_peak(*args):
            require_finite(*args)
            tracemalloc.reset_peak()
            before_write.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(jcpair.cli, "_require_finite", require_finite_then_reset_peak)
        # The tables count whatever ran before, as in a fresh process.
        jcpair._floatfmt._tables.cache_clear()
        tracemalloc.start()
        try:
            assert main(["spectrum", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before_write[-1] < out.stat().st_size / 8

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_absorption_writing_peak_does_not_grow_with_the_count(self, tmp_path, monkeypatch, fmt):
        # The same blocks at 60,001 and 240,001 rows; a first run builds the
        # kernel's tables, so neither measured run pays for them.
        require_finite = jcpair.cli._require_finite
        before_write = []

        def require_finite_then_reset_peak(*args):
            require_finite(*args)
            tracemalloc.reset_peak()
            before_write.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(jcpair.cli, "_require_finite", require_finite_then_reset_peak)
        peaks = []
        for count in (2001, 60001, 240001):
            cfg = write(tmp_path / "run.cfg", ABSORPTION_CFG.replace("2001", str(count)))
            tracemalloc.start()
            try:
                assert main(["absorption", "--config", cfg, "--out", str(tmp_path / f"out.{fmt}"), "--format", fmt]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - before_write[-1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) <= 0.1 * peaks[1]

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_blocks_hold_the_cell_budget(self, width):
        # The kernel takes _BLOCK_CELLS // width rows at a time.
        rows = _BLOCK_CELLS // width
        column = np.arange(2 * rows + 1) * 0.5
        pieces = [""] + [","] * (width - 1) + ["\n"]
        assert [part.count("\n") for part in _row_blocks(pieces, "", [column] * width)] == [rows, rows, 1]

    def test_parts_are_formatted_as_taken(self, monkeypatch):
        # The second block of each file fails to format, after the first is taken.
        block_text = jcpair._floatfmt._block_text

        def first_block_only(columns, start, *args):
            if start:
                raise LookupError("second block formatted")
            return block_text(columns, start, *args)

        monkeypatch.setattr(jcpair._floatfmt, "_block_text", first_block_only)
        column = np.full(_BLOCK_CELLS + 1, 0.5)
        csv_parts = _csv_parts(["x"], [column])
        assert [next(csv_parts), next(csv_parts)] == ["x\n", "0.5\n" * _BLOCK_CELLS]
        with pytest.raises(LookupError):
            next(csv_parts)
        json_parts = _json_parts({"data": [column]}, ["x"])
        assert "".join(next(json_parts) for _ in range(4)).count('"x": 0.5\n    }') == _BLOCK_CELLS
        with pytest.raises(LookupError):
            next(json_parts)


def fail_second_block(monkeypatch):
    """Make each data file's second block fail to format: 8 rows of a
    spectrum's 5 columns, 13 of absorption's 3."""
    row_blocks = jcpair.cli._row_blocks

    def first_block_only(*args):
        blocks = row_blocks(*args)
        yield next(blocks)
        raise MemoryError("formatting the second block")

    monkeypatch.setattr(jcpair.cli, "_BLOCK_CELLS", 40)
    monkeypatch.setattr(jcpair.cli, "_row_blocks", first_block_only)


class TestAtomicWrites:
    """An output file holds its old bytes or all of the new ones, unless it
    is written in place."""

    def test_failing_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(UnicodeEncodeError):
            _write_text(str(target), "delta\n\ud800\n")  # a lone surrogate has no UTF-8 form
        assert list(tmp_path.iterdir()) == []

    def test_failing_summary_write_keeps_both_old_files(self, tmp_path, monkeypatch, capsys):
        cfg = write(tmp_path / "run.cfg", ABSORPTION_CFG)
        # A second run on a shorter grid, whose data file would differ.
        other = write(tmp_path / "other.cfg", ABSORPTION_CFG.replace("2001", "101"))
        out = tmp_path / "abs.csv"
        assert main(["absorption", "--config", cfg, "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        monkeypatch.setattr(jcpair.cli, "_json_text", lambda payload: "\ud800")
        assert main(["absorption", "--config", other, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_existing_output_replaced_whole(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "g = 1\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 5\n")
        out = tmp_path / "out.csv"
        fresh = tmp_path / "fresh.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(fresh)]) == 0
        old_bytes = b"stale,row\n" * 10_000
        out.write_bytes(old_bytes)
        with open(out, "rb") as reader:  # a reader that opened the old file keeps it
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
            assert reader.read() == old_bytes
        assert out.read_bytes() == fresh.read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["fresh.csv", "out.csv", "run.cfg"]

    SPECTRUM_CFG = "g = 1\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 5\n"

    def spectrum_bytes(self, tmp_path, out):
        """Run ``spectrum`` into ``out``; return what a fresh file gets."""
        cfg = write(tmp_path / "run.cfg", self.SPECTRUM_CFG)
        fresh = tmp_path / "fresh.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(fresh)]) == 0
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        return fresh.read_bytes()

    def test_symlink_target_replaced_link_kept(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_bytes(b"stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        expected = self.spectrum_bytes(tmp_path, link)
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == expected
        assert not list(tmp_path.glob("*.tmp"))

    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        expected = self.spectrum_bytes(tmp_path, fifo)
        reader.join(timeout=10)
        assert received == [expected]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_hard_links_share_the_new_bytes(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"stale\n")
        other = tmp_path / "other.csv"
        os.link(out, other)
        expected = self.spectrum_bytes(tmp_path, out)
        assert other.read_bytes() == out.read_bytes() == expected
        assert os.path.samefile(out, other)

    @pytest.mark.parametrize(
        "argv",
        [["spectrum"], ["absorption", "--format", "json"], ["validate", "--trials", "3"]],
        ids=["spectrum", "absorption-json", "validate"],
    )
    def test_stdout_pipe_written_in_place(self, tmp_path, argv):
        # /dev/stdout links to /proc/self/fd/1, whose target for a pipe is a
        # name like "pipe:[N]" that does not exist: it was taken for a new
        # regular file, and creating its temp file failed with exit 2.
        cfg = write(tmp_path / "run.cfg", ABSORPTION_CFG.replace("2001", "101"))
        argv = argv + ["--config", cfg] if argv[0] != "validate" else argv
        assert main(argv + ["--out", str(tmp_path / "file")]) == 0
        code = "import sys; from jcpair.cli import main; sys.exit(main())"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(jcpair.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (tmp_path / "file").read_bytes()

    def test_absorption_csv_to_a_non_regular_file_refused(self, tmp_path, capsys):
        # Its summary would be a new file beside the FIFO or device, such as
        # /dev/stdout.summary.json; the run is refused before anything is written.
        cfg = write(tmp_path / "run.cfg", ABSORPTION_CFG.replace("2001", "101"))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so a writer cannot block
        try:
            assert main(["absorption", "--config", cfg, "--out", str(fifo)]) == 2
            assert os.read(reader, 1) == b""  # no writer ever opened it
        finally:
            os.close(reader)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["pipe", "run.cfg"]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a regular file" in err

    def test_existing_mode_kept_new_mode_from_umask(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"stale\n")
        out.chmod(0o600)
        previous_mask = os.umask(0o027)
        try:
            self.spectrum_bytes(tmp_path, out)
        finally:
            os.umask(previous_mask)
        assert out.stat().st_mode & 0o777 == 0o600
        assert (tmp_path / "fresh.csv").stat().st_mode & 0o777 == 0o640

    def test_existing_file_with_temp_name_untouched(self, tmp_path):
        out = tmp_path / "out.csv"
        bystander = tmp_path / f"out.csv.{os.getpid()}.tmp"
        bystander.write_bytes(b"not ours\n")
        expected = self.spectrum_bytes(tmp_path, out)
        assert out.read_bytes() == expected
        assert bystander.read_bytes() == b"not ours\n"

    def test_no_temp_allowed_writes_in_place(self, tmp_path, monkeypatch):
        # As where the directory is read-only but the output file is writable.
        def open_without_create(file, mode="r", *args, **kwargs):
            if "x" in mode:
                raise PermissionError(13, "Permission denied", file)
            return builtins.open(file, mode, *args, **kwargs)

        out = tmp_path / "out.csv"
        out.write_bytes(b"stale\n")
        monkeypatch.setattr(jcpair.cli, "open", open_without_create, raising=False)
        expected = self.spectrum_bytes(tmp_path, out)
        assert out.read_bytes() == expected
        assert not list(tmp_path.glob("*.tmp"))

    def test_failing_block_keeps_old_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"stale\n")
        fail_second_block(monkeypatch)
        cfg = write(tmp_path / "run.cfg", self.SPECTRUM_CFG.replace("5\n", "20\n"))
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert "out of memory" in capsys.readouterr().err
        assert out.read_bytes() == b"stale\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "run.cfg"]

    def test_failing_block_keeps_both_old_absorption_files(self, tmp_path, monkeypatch, capsys):
        cfg = write(tmp_path / "run.cfg", ABSORPTION_CFG.replace("2001", "101"))
        out = tmp_path / "abs.csv"
        assert main(["absorption", "--config", cfg, "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        fail_second_block(monkeypatch)
        assert main(["absorption", "--config", cfg, "--out", str(out)]) == 2
        assert "out of memory" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_failing_block_leaves_prefix_in_file_written_in_place(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_bytes(b"stale\n")
        other = tmp_path / "other.csv"
        os.link(out, other)
        cfg = write(tmp_path / "run.cfg", self.SPECTRUM_CFG.replace("5\n", "20\n"))
        fresh = tmp_path / "fresh.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(fresh)]) == 0
        fail_second_block(monkeypatch)
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        # The header and the first 8 rows, in both names of the file.
        prefix = b"".join(fresh.read_bytes().splitlines(keepends=True)[:9])
        assert other.read_bytes() == out.read_bytes() == prefix
        assert not list(tmp_path.glob("*.tmp"))
