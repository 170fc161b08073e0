import pytest

from jcpair.config import (
    MAX_SWEEP_COUNT,
    ConfigError,
    RunConfig,
    SweepSpec,
    config_dict,
    dump_config,
    parse_config,
)
from jcpair.model import DampingParams, SystemParams


class TestParsing:
    def test_minimal(self):
        cfg = parse_config("g = 2\n")
        assert cfg.params == SystemParams(omega_c=0.0, omega_a=0.0, g=2.0, kappa=0.0)
        assert cfg.damping is None
        assert cfg.sweep is None

    def test_defaults_follow_ratio_convention(self):
        cfg = parse_config("kappa = 2\n")
        assert cfg.params.omega_c == 0.0
        assert cfg.params.g == 1.0
        assert cfg.params.omega_a == 0.0  # zero detuning by default

    def test_omega_a_defaults_to_omega_c(self):
        cfg = parse_config("omega_c = 5\n")
        assert cfg.params.delta == 0.0

    def test_comments_and_blank_lines(self):
        text = "# full-line comment\n\ng = 3 # trailing comment\n   \nkappa = 1\n"
        cfg = parse_config(text)
        assert cfg.params.g == 3.0
        assert cfg.params.kappa == 1.0

    def test_full_config(self):
        text = (
            "omega_c = 0\nomega_a = 2\ng = 1\nkappa = 2\n"
            "gamma = 0.01\ngamma_c = 0.02\ngamma_a = 0.05\n"
            "sweep_start = -5\nsweep_stop = 5\nsweep_count = 2001\n"
        )
        cfg = parse_config(text)
        assert cfg.damping == DampingParams(0.01, 0.01, 0.02, 0.02, 0.05)
        assert cfg.sweep == SweepSpec(-5.0, 5.0, 2001)

    def test_per_cell_damping(self):
        text = (
            "gamma1 = 0.01\ngamma2 = 0.2\ngammac1 = 0.2\ngammac2 = 0.01\n"
            "gamma_a = 0.05\n"
        )
        cfg = parse_config(text)
        assert cfg.damping == DampingParams(0.01, 0.2, 0.2, 0.01, 0.05)
        assert not cfg.damping.is_symmetric

    def test_gamma_a_alone_is_valid(self):
        cfg = parse_config("gamma_a = 0.05\n")
        assert cfg.damping == DampingParams(0.0, 0.0, 0.0, 0.0, 0.05)


class TestErrors:
    @pytest.mark.parametrize(
        "text,needle",
        [
            ("speed = 1\n", "unknown config key: speed"),
            ("g = 1\ng = 2\n", "duplicate config key: g"),
            ("g = fast\n", "invalid number for g"),
            ("g = -1\n", "g"),
            ("gamma = 0.1\ngamma1 = 0.1\ngamma2 = 0.1\ngamma_a = 0.05\n", "gamma"),
            ("gamma_c = 0.1\ngammac1 = 0.1\ngammac2 = 0.1\ngamma_a = 0.05\n", "gamma_c"),
            ("gamma1 = 0.1\ngamma_a = 0.05\n", "gamma2"),
            ("gammac2 = 0.1\ngamma_a = 0.05\n", "gammac1"),
            ("gamma = 0.1\n", "gamma_a"),
            ("gamma = -0.1\ngamma_a = 0.05\n", "gamma must be"),
            ("gamma2 = -0.1\ngamma1 = 0.1\ngamma_a = 0.05\n", "gamma2 must be"),
            ("gamma_a = 0\n", "gamma_a"),
            ("sweep_start = 0\nsweep_stop = 1\n", "sweep_count"),
            ("sweep_start = 0\nsweep_stop = 1\nsweep_count = 1\n", "sweep_count"),
            ("sweep_start = 1\nsweep_stop = 0\nsweep_count = 5\n", "sweep_start"),
            ("sweep_start = 0\nsweep_stop = 1\nsweep_count = 2.5\n", "sweep_count"),
            ("sweep_start = -inf\nsweep_stop = 1\nsweep_count = 5\n", "sweep_start must be finite"),
            ("sweep_start = 0\nsweep_stop = inf\nsweep_count = 5\n", "sweep_stop must be finite"),
            ("sweep_start = nan\nsweep_stop = 1\nsweep_count = 5\n", "sweep_start must be finite"),
            ("sweep_start = -1e308\nsweep_stop = 1e308\nsweep_count = 3\n", "overflows"),
            ("sweep_start = 0\nsweep_stop = 1\nsweep_count = 5e8\n", "sweep_count must be <= 10000000"),
            ("just some words\n", "key = value"),
        ],
    )
    def test_rejections_name_the_offender(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)

    def test_sweep_count_at_cap_accepted(self):
        cfg = parse_config(f"sweep_start = 0\nsweep_stop = 1\nsweep_count = {MAX_SWEEP_COUNT}\n")
        assert cfg.sweep.count == MAX_SWEEP_COUNT


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(SystemParams(0.0, 0.0, 1.0, 0.0), None, None),
            RunConfig(
                SystemParams(0.0, 2.0, 1.0, 2.0),
                DampingParams(0.01, 0.01, 0.02, 0.02, 0.05),
                SweepSpec(-5.0, 5.0, 2001),
            ),
            RunConfig(
                SystemParams(0.1, -0.30000000000000004, 2.5, -1.75),
                DampingParams(0.01, 0.2, 0.2, 0.01, 0.05),
                None,
            ),
        ],
    )
    def test_dump_parse_identity(self, cfg):
        assert parse_config(dump_config(cfg)) == cfg

    def test_dump_bytes(self):
        cfg = RunConfig(
            SystemParams(0.1, -0.30000000000000004, 2.5, -1.75),
            DampingParams(5e-324, 1e308, 0.2, 0.0, 0.05),
            SweepSpec(-5.0, 5.0, 2001),
        )
        assert dump_config(cfg) == (
            "omega_c = 0.1\nomega_a = -0.30000000000000004\ng = 2.5\nkappa = -1.75\n"
            "gamma1 = 5e-324\ngamma2 = 1e+308\ngammac1 = 0.2\ngammac2 = 0.0\n"
            "gamma_a = 0.05\nsweep_start = -5.0\nsweep_stop = 5.0\nsweep_count = 2001\n"
        )
        assert dump_config(RunConfig(SystemParams(0.0, 0.0, 1.0, 0.0), None, None)) == (
            "omega_c = 0.0\nomega_a = 0.0\ng = 1.0\nkappa = 0.0\n"
        )

    def test_dump_is_stable(self):
        cfg = parse_config("omega_a = 2\nkappa = 2\ngamma_a = 0.05\n")
        assert dump_config(cfg) == dump_config(parse_config(dump_config(cfg)))

    def test_config_dict_keys(self):
        cfg = parse_config(
            "omega_a = 2\nkappa = 2\ngamma_a = 0.05\n"
            "sweep_start = 0\nsweep_stop = 1\nsweep_count = 3\n"
        )
        d = config_dict(cfg)
        assert d["omega_a"] == 2.0
        assert d["gamma_a"] == 0.05
        assert d["sweep_count"] == 3
