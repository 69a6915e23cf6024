"""Configuration parsing, snapshots, time series, and the command line."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cmx
from cmx.cli import main
from cmx.config import ConfigError, parse_config
from cmx.dec import FormField, Mesh
from cmx.dynamics import DiagnosticsReport
from cmx.fiber import MaxwellState, MediumProfile, Orientation
from cmx.scenarios import INITIAL_PRESETS, MEDIUM_PRESETS
from cmx.snapshots import SnapshotFormatError, read_snapshot, write_snapshot
from cmx.timeseries import HEADER, read_timeseries, write_timeseries


def random_state(seed=0):
    rng = np.random.default_rng(seed)
    mesh = Mesh((4, 3, 5), spacing=0.125)
    medium = MediumProfile(mesh, 1.0 + rng.random(mesh.dims),
                           1.0 + rng.random(mesh.dims))
    D = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)), dual=True)
    B = FormField(mesh, 2, rng.standard_normal((3, *mesh.dims)))
    return MaxwellState.from_induction(D, B, medium, time=1.25)


class TestSnapshots:
    def test_round_trip_is_bit_exact(self, tmp_path):
        state = random_state()
        path = tmp_path / "state.cmx"
        write_snapshot(state, path)
        back = read_snapshot(path)
        assert back.mesh == state.mesh and back.time == state.time
        for name in ("D", "B", "e", "h", "energy"):
            assert np.array_equal(getattr(back, name).data,
                                  getattr(state, name).data)

    def test_file_size_of_tiny_state(self, tmp_path):
        path = tmp_path / "tiny.cmx"
        write_snapshot(MaxwellState.zero(Mesh((2, 2, 2))), path)
        raw = path.read_bytes()
        header_len = len(b"".join(raw.split(b"\n", 5)[:5])) + 5
        assert len(raw) - header_len == 13 * 8 * 8

    def test_version_mismatch_is_reported(self, tmp_path):
        state = random_state()
        path = tmp_path / "state.cmx"
        write_snapshot(state, path)
        raw = path.read_bytes().replace(b"CMX1", b"CMX2", 1)
        bad = tmp_path / "bad.cmx"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotFormatError, match="CMX2"):
            read_snapshot(bad)

    def test_truncated_file_is_reported(self, tmp_path):
        state = random_state()
        path = tmp_path / "state.cmx"
        write_snapshot(state, path)
        clipped = tmp_path / "clipped.cmx"
        clipped.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            read_snapshot(clipped)

    @pytest.mark.parametrize("line,bad", [
        (b"dims 2 2 2", b"dims 2 2 x"),
        (b"spacing 1.0", b"spacing 1.x"),
        (b"time 0.0", b"time 0.q"),
        (b"dims 2 2 2", b"dims 2 2 -2"),
        (b"spacing 1.0", b"spacing -1.0"),
        (b"dims 2 2 2", b"dims 2 2 99999999999"),  # checked before any block is read
    ])
    def test_malformed_header_is_a_format_error(self, tmp_path, line, bad):
        path = tmp_path / "tiny.cmx"
        write_snapshot(MaxwellState.zero(Mesh((2, 2, 2))), path)
        raw = path.read_bytes()
        assert raw.count(line + b"\n") == 1
        path.write_bytes(raw.replace(line + b"\n", bad + b"\n"))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_damaged_files_raise_only_format_errors(self, tmp_path, data):
        path = tmp_path / "state.cmx"
        write_snapshot(random_state(), path)
        raw = path.read_bytes()
        header = len(b"".join(raw.split(b"\n", 5)[:5])) + 5
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, header - 1), label="position")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
            raw = raw[:at] + bytes([byte]) + raw[at + 1:]
        path.write_bytes(raw)
        try:
            read_snapshot(path)
        except SnapshotFormatError:
            pass

    def test_file_equals_an_independent_encoder(self, tmp_path):
        """CMX1 written out by hand: the five header lines, then each component
        of D, B, e, h and energy as row-major little-endian binary64."""
        base = random_state(4)
        dims = base.mesh.dims
        wide = np.random.default_rng(5).standard_normal((3, dims[0], 2 * dims[1], dims[2]))
        state = MaxwellState(
            D=FormField(base.mesh, 2, wide[:, :, ::2], dual=True),  # a strided view
            B=FormField(base.mesh, 2, base.B.data.astype(np.float32)),
            e=FormField(base.mesh, 1, np.asfortranarray(base.e.data)),
            h=FormField(base.mesh, 1, base.h.data.astype(">f8"), dual=True),
            energy=base.energy, time=base.time)
        header = (f"CMX1\ndims {dims[0]} {dims[1]} {dims[2]}\n"
                  f"spacing {state.mesh.spacing!r}\ntime {state.time!r}\n"
                  "fields D B e h energy\n").encode("ascii")
        blocks = [np.asarray(comp, dtype="<f8").tobytes()
                  for name in ("D", "B", "e", "h")
                  for comp in getattr(state, name).data]
        blocks.append(np.asarray(state.energy.data, dtype="<f8").tobytes())
        path = tmp_path / "snap.cmx"
        write_snapshot(state, path)
        assert path.read_bytes() == header + b"".join(blocks)


CONFIG_KEYS = ("grid.dims", "grid.spacing", "medium.preset", "initial.preset",
               "scheme.orientation", "scheme.cfl", "scheme.steps", "scheme.cadence",
               "scheme.kappa", "outputs.directory", "outputs.snapshot_stride")
CONFIG_WORDS = ("vacuum", "uniform", "sech_slab", "zero", "plane_wave", "gaussian_pulse",
                "DB", "EH", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400",
                "0", "-0", "1", "2", "3", "0.5", "-1", "1_0", "0x10", "9" * 400,
                str(2 ** 64), str(-(2 ** 63)))
config_word = st.one_of(
    st.sampled_from(CONFIG_WORDS),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_characters="#=", blacklist_categories=("Zl", "Zp", "Cc")),
            min_size=1, max_size=6),
)
config_line = st.one_of(
    st.builds(lambda key, words: f"{key} = {' '.join(words)}",
              st.sampled_from(CONFIG_KEYS), st.lists(config_word, max_size=6)),
    st.text(max_size=30),
)


class TestConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config("grid.dims = 32 32 32\n")
        assert cfg.dims == (32, 32, 32)
        assert cfg.spacing == 1.0
        assert cfg.medium_preset == ("vacuum",)
        assert cfg.initial_preset == ("zero",)
        assert cfg.orientation is Orientation.DB
        assert cfg.cfl == 0.5

    def test_sech_slab_round_trip(self):
        cfg = parse_config("grid.dims = 8 8 16\n"
                           "medium.preset = sech_slab 1.0 4.0 1.0\n")
        assert cfg.medium_preset == ("sech_slab", 1.0, 4.0, 1.0)
        medium = cfg.build_medium(cfg.build_mesh())
        mid = 8.0  # half the extent along the third axis
        z = cfg.build_mesh().coords((0.5, 0.5, 0.5))[2]
        np.testing.assert_allclose(medium.eps,
                                   1.0 / np.cosh((z - mid) / 4.0) ** 2)

    def test_malformed_number_names_the_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.dims = 8 8 8\ngrid.spacing = fast\n")
        assert err.value.errors[0][0] == 2

    @pytest.mark.parametrize("line", ["grid.shape = cube", "run.seed = 0"])
    def test_unknown_key_is_an_error(self, line):
        with pytest.raises(ConfigError) as err:
            parse_config(f"grid.dims = 8 8 8\n{line}\n")
        (lineno, msg), = err.value.errors
        assert lineno == 2 and "unknown key" in msg

    def test_echo_is_idempotent(self):
        text = ("grid.dims = 16 8 8\ngrid.spacing = 0.5\n"
                "medium.preset = uniform 2.0 3.0\n"
                "initial.preset = plane_wave 1 8.0 2 0.5\n"
                "scheme.orientation = EH\nscheme.cfl = 0.25\n"
                "scheme.steps = 7\nscheme.cadence = 7\nscheme.kappa = 2.0\n"
                "outputs.directory = results\noutputs.snapshot_stride = 7\n")
        cfg = parse_config(text)
        echo = cfg.to_text()
        assert parse_config(echo) == cfg
        assert parse_config(echo).to_text() == echo

    def test_comments_and_blank_lines_are_ignored(self):
        cfg = parse_config("# a comment\n\ngrid.dims = 8 8 8  # trailing\n")
        assert cfg.dims == (8, 8, 8)

    def test_cfl_window(self):
        with pytest.raises(ConfigError):
            parse_config("scheme.cfl = 1.5\n")

    @pytest.mark.parametrize("text", [
        "scheme.steps = 1 2", "scheme.cadence = 20 40", "outputs.snapshot_stride = 2 x",
    ])
    def test_integer_keys_take_exactly_one_token(self, text):
        key = text.split(" = ")[0]
        with pytest.raises(ConfigError) as err:
            parse_config(text + "\n")
        (lineno, msg), = err.value.errors
        assert lineno == 1 and key in msg and "one integer" in msg
        assert f"line 1: {key}" in str(err.value)

    @pytest.mark.parametrize("text,named", [
        ("scheme.steps = x", "scheme.steps"), ("scheme.cadence = 2.5", "scheme.cadence"),
        ("grid.dims = 8 8 x", "grid.dims"),
        ("outputs.snapshot_stride = ten", "outputs.snapshot_stride"),
        ("initial.preset = plane_wave x 16.0 2 1.0", "plane_wave axis"),
        ("initial.preset = plane_wave 1 16.0 y 1.0", "plane_wave polarization"),
    ])
    def test_non_integer_tokens_name_the_key(self, text, named):
        with pytest.raises(ConfigError) as err:
            parse_config(text + "\n")
        (lineno, msg), = err.value.errors
        assert lineno == 1 and named in msg and "expects an integer" in msg
        assert "invalid literal" not in msg

    @pytest.mark.parametrize("text,named", [
        ("grid.spacing = fast", "grid.spacing"), ("scheme.cfl = big", "scheme.cfl"),
        ("scheme.kappa = 1,5", "scheme.kappa"),
        ("medium.preset = uniform 2.0 x", "uniform mu"),
        ("medium.preset = sech_slab 1.0 wide 1.0", "sech_slab z30"),
        ("initial.preset = plane_wave 1 x 2 1.0", "plane_wave wavelength"),
        ("initial.preset = plane_wave 1 16.0 2 loud", "plane_wave amplitude"),
        ("initial.preset = gaussian_pulse 4.0 1.5 y", "gaussian_pulse amplitude"),
    ])
    def test_non_numeric_tokens_name_the_key(self, text, named):
        with pytest.raises(ConfigError) as err:
            parse_config(text + "\n")
        (lineno, msg), = err.value.errors
        assert lineno == 1 and named in msg and "expects a number" in msg
        assert "could not convert" not in msg

    @pytest.mark.parametrize("key, table", [("medium.preset", MEDIUM_PRESETS),
                                            ("initial.preset", INITIAL_PRESETS)])
    def test_unknown_preset_lists_the_presets(self, key, table):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = foam 1.0\n")
        (lineno, msg), = err.value.errors
        assert lineno == 1 and "'foam'" in msg
        assert all(name in msg for name in table)

    def test_readme_config_block_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        documented = {line.split("=")[0].strip() for line in block.splitlines()}
        echoed = {line.split(" = ")[0] for line in parse_config(block).to_text().splitlines()}
        assert echoed <= documented

    @given(st.lists(config_line, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_text_parses_or_raises_config_error(self, lines):
        text = "\n".join(lines)
        try:
            cfg = parse_config(text)
        except ConfigError as err:
            count = len(text.splitlines())
            assert err.errors
            assert all(1 <= lineno <= count for lineno, _ in err.errors)
        else:
            assert parse_config(cfg.to_text()) == cfg


class TestTimeseries:
    def test_empty_run_writes_header_only(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries([], path)
        assert path.read_text() == HEADER + "\n"

    def test_zero_row(self, tmp_path):
        row = DiagnosticsReport(*([0.0] * 9))
        path = tmp_path / "ts.csv"
        write_timeseries([row], path)
        assert read_timeseries(path) == [row]

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [DiagnosticsReport(*rng.standard_normal(9)) for _ in range(5)]
        path = tmp_path / "ts.csv"
        write_timeseries(rows, path)
        assert read_timeseries(path) == rows

    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path):
        extremes = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                    -1.7976931348623157e308, 1 / 3, -1 / 3, 2.2250738585072014e-308]
        rows = [DiagnosticsReport(*np.roll(extremes, shift)) for shift in range(9)]
        path = tmp_path / "ts.csv"
        write_timeseries(rows, path)
        bits = [[struct.pack("<d", getattr(row, name)) for name in DiagnosticsReport.FIELDS]
                for row in rows]
        assert [[struct.pack("<d", getattr(row, name)) for name in DiagnosticsReport.FIELDS]
                for row in read_timeseries(path)] == bits

    def corrupt_third_line(self, tmp_path, edit):
        """A three-row CSV whose second row, on line 3, is ``edit`` of its tokens."""
        path = tmp_path / "ts.csv"
        write_timeseries([DiagnosticsReport(*([float(i)] * 9)) for i in range(3)], path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 4, 8])
    def test_non_finite_tokens_are_rejected(self, tmp_path, token, column):
        path = self.corrupt_third_line(
            tmp_path, lambda tokens: tokens[:column] + [token] + tokens[column + 1:])
        field = DiagnosticsReport.FIELDS[column]
        with pytest.raises(ValueError) as err:
            read_timeseries(path)
        assert str(err.value) == f"{path}:3: diagnostics field {field} is non-finite"

    @pytest.mark.parametrize("edit, message", [
        (lambda tokens: tokens[:-1] + ["abc"],
         "column poynting_balance_residual: could not convert string to float: 'abc'"),
        (lambda tokens: ["1.0.0"] + tokens[1:],
         "column t: could not convert string to float: '1.0.0'"),
        (lambda tokens: tokens[:-1], "row has 8 columns, expected 9"),
        (lambda tokens: tokens + ["1.0"], "row has 10 columns, expected 9"),
        (lambda tokens: tokens[:-1] + [""],
         "column poynting_balance_residual: could not convert string to float: ''"),
    ])
    def test_a_bad_row_names_its_line_and_column(self, tmp_path, edit, message):
        path = self.corrupt_third_line(tmp_path, edit)
        with pytest.raises(ValueError) as err:
            read_timeseries(path)
        assert str(err.value) == f"{path}:3: {message}"


class TestCli:
    def write_config(self, tmp_path, extra=""):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.dims = 8 8 8\nscheme.steps = 4\n"
                       "initial.preset = gaussian_pulse 4.0 1.5 1.0\n"
                       "outputs.snapshot_stride = 2\n" + extra)
        return cfg

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "timeseries.csv").exists()
        assert (out / "snapshot_000004.cmx").exists()
        state = read_snapshot(out / "snapshot_000004.cmx")
        assert state.mesh.dims == (8, 8, 8)

    def test_simulate_is_deterministic(self, tmp_path):
        cfg = self.write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "timeseries.csv").read_bytes()
                        + (out / "snapshot_000004.cmx").read_bytes())
        assert outs[0] == outs[1]

    def test_print_config_echoes_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "min.cfg"
        cfg.write_text("grid.dims = 32 32 32\n")
        assert main(["simulate", "--config", str(cfg), "--print-config"]) == 0
        echoed = capsys.readouterr().out
        parsed = parse_config(echoed)
        assert parsed.dims == (32, 32, 32)
        assert parsed.cfl == 0.5 and parsed.medium_preset == ("vacuum",)

    def test_config_errors_name_their_lines(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.dims = 8 8 8\nscheme.cfl = big\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_verify_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_python_m_cmx_runs_the_command_line(self, capsys):
        argv = ["transform", "--psi-quadratic", "1", "1", "1", "2", "2", "2",
                "--p", "1", "0", "0", "2", "0", "0"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cmx.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "cmx", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out)

    def test_transform_matches_closed_form(self, capsys):
        code = main(["transform", "--psi-quadratic", "1", "1", "1", "2", "2", "2",
                     "--p", "1", "0", "0", "2", "0", "0"])
        assert code == 0
        out = capsys.readouterr().out
        # value = p1^2/2 + p4^2/(2*2) = 0.5 + 1.0
        assert "value = 1.5" in out
        assert "argmax = 1.0 0.0 0.0 1.0 0.0 0.0" in out
