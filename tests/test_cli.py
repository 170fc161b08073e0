import hashlib
import json
import math

import pytest

import jcpair.spectrum
from jcpair.cli import main


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

    def test_reproducible_bytes(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "g = 1\nkappa = 2\nsweep_start = -3\nsweep_stop = 3\nsweep_count = 11\n",
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--config", cfg, "--out", str(first)])
        main(["spectrum", "--config", cfg, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


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

    def run(self, tmp_path, capsys, command, text):
        cfg = write(tmp_path / "run.cfg", text)
        out = tmp_path / "out.csv"
        code = main([command, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.csv.summary.json").exists()
        return code, err

    def test_infinite_sweep_start(self, tmp_path, capsys):
        code, err = self.run(
            tmp_path, capsys, "spectrum", "sweep_start = -inf\nsweep_stop = 1\nsweep_count = 5\n"
        )
        assert code == 2
        assert err.count("\n") == 1 and "sweep_start must be finite" in err

    def test_sweep_count_too_large_to_allocate(self, tmp_path, capsys):
        # 1e17 points ask for 711 PiB, which no allocator grants, so the
        # request fails at once without touching memory.
        code, err = self.run(
            tmp_path, capsys, "spectrum", "sweep_start = 0\nsweep_stop = 1\nsweep_count = 1e17\n"
        )
        assert code == 2
        assert err.count("\n") == 1 and "out of memory" in err

    def test_spectrum_overflow_writes_nothing(self, tmp_path, capsys):
        code, err = self.run(
            tmp_path, capsys, "spectrum", "g = 1e200\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 3\n"
        )
        assert code == 2
        assert err.count("\n") == 1 and "not finite" in err

    def test_spectrum_overflowing_sweep_bounds(self, tmp_path, capsys):
        # The grid is finite, but x*x/4 overflows at both ends.
        code, err = self.run(
            tmp_path,
            capsys,
            "spectrum",
            "sweep_start = -1e200\nsweep_stop = 1e200\nsweep_count = 3\n",
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
