"""Command line interface: subcommands, exit codes, determinism.

Exit code contract: 0 success, 1 usage/configuration error, 2
infeasible boundary data, 3 verification failure.  Every command must
be a pure function of its arguments and seeds: running it twice yields
byte-identical stdout and output files.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from randomsurfaces import cli
from randomsurfaces.cli import main, parse_config
from randomsurfaces.heights import parse_grid, validate
from randomsurfaces.lattice import make_box

RING_FILE = "2\n0 0 0\n0 1 1\n0 2 0\n1 0 1\n1 2 1\n2 0 0\n2 1 1\n2 2 0\n"
GAP_FILE = "2\n0 1 1\n2 1 5\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_key_value_lines(self):
        cfg = parse_config("a = 1\n# note\nb= x,y \n\na = 2\n")
        assert cfg == {"a": "2", "b": "x,y"}

    def test_rejects_bare_line(self):
        with pytest.raises(cli.UsageError):
            parse_config("just words\n")

    def test_rejects_empty_key(self):
        with pytest.raises(cli.UsageError):
            parse_config("= 3\n")


class TestEnumerate:
    def test_box_parity_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--box", "3", "--boundary", "parity"
        )
        assert code == 0
        assert "extensions: 2" in out

    def test_list_members(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--box", "3", "--boundary", "parity",
            "--list",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "extensions: 2"
        assert lines[1].startswith("vertices:")
        assert len(lines) == 4  # header + vertex row + 2 members

    def test_list_rows_far_from_zero(self, tmp_path, capsys):
        # the ring of the 3x3 box raised by 10^9: each member row is the
        # member's heights in vertex order, as plain integers
        from randomsurfaces.heights import enumerate_extensions, parse_heights
        from randomsurfaces.lattice import make_box

        raised = "2\n" + "".join(
            f"{line[:-1]}{10**9 + int(line[-1])}\n"
            for line in RING_FILE.splitlines()[1:]
        )
        f = tmp_path / "ring.heights"
        f.write_text(raised)
        code, out, _ = run(
            capsys, "enumerate", "--box", "3", "--boundary-file", str(f),
            "--list",
        )
        assert code == 0
        support = enumerate_extensions(make_box((0, 0), (2, 2)), parse_heights(raised))
        rows = [" ".join(map(str, m.heights)) for m in support.members]
        assert out.splitlines()[2:] == rows
        assert "1000000001" in rows[0]

    def test_boundary_file(self, tmp_path, capsys):
        f = tmp_path / "ring.heights"
        f.write_text(RING_FILE)
        code, out, _ = run(
            capsys, "enumerate", "--box", "3", "--boundary-file", str(f)
        )
        assert code == 0
        assert "extensions: 2" in out

    def test_infeasible_boundary_exits_2(self, tmp_path, capsys):
        f = tmp_path / "gap.heights"
        f.write_text(GAP_FILE)
        code, out, _ = run(
            capsys, "enumerate", "--box", "3", "--boundary-file", str(f)
        )
        assert code == 2
        assert "exceeds graph distance 2" in out

    def test_region_file(self, tmp_path, capsys):
        ring = tmp_path / "ring.region"
        ring.write_text(
            "2\n0 0\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n2 2\n"
        )
        gap = tmp_path / "gap.heights"
        gap.write_text(GAP_FILE)
        code, out, _ = run(
            capsys, "enumerate", "--region-file", str(ring),
            "--boundary-file", str(gap),
        )
        assert code == 0
        assert "extensions: 1" in out

    def test_malformed_region_exits_1(self, tmp_path, capsys):
        f = tmp_path / "bad.region"
        f.write_text("0 0\n0 1\n")
        code, _, err = run(
            capsys, "enumerate", "--region-file", str(f),
            "--boundary", "parity",
        )
        assert code == 1
        assert "error:" in err

    def test_missing_region_args_exits_1(self, capsys):
        code, _, err = run(capsys, "enumerate", "--boundary", "parity")
        assert code == 1
        assert "error:" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        # a missing file, a directory where a file belongs, and a config
        # that is not UTF-8 each end in one error line, not a traceback
        folder, csv = str(tmp_path), str(tmp_path / "r.csv")
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("ns = 3  # Größe\n".encode("latin-1"))
        for argv in (
            ["enumerate", "--region-file", "/nonexistent.region",
             "--boundary", "parity"],
            ["enumerate", "--region-file", folder, "--boundary", "parity"],
            ["surface", "--n", "3", "--boundary-file", folder, "--out", csv],
            ["surface", "--n", "3", "--sweeps", "1", "--out", folder],
            ["concentration", "--config", folder, "--out", csv],
            ["concentration", "--config", str(latin1), "--out", csv],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert err.startswith(f"error: {latin1}: 'utf-8' codec can't decode")
        assert not (tmp_path / "r.csv").exists()

    def test_infeasible_witness_matches_kirszbraun(
        self, metric_instances, tmp_path, capsys
    ):
        from randomsurfaces.heights import (
            HeightFunction,
            kirszbraun_violation,
            write_heights,
        )
        from randomsurfaces.lattice import write_region

        region_file, data_file = tmp_path / "r.region", tmp_path / "d.heights"
        fmt = lambda v: "(" + ",".join(map(str, v)) + ")"
        checked = 0
        for region, pins, _ in metric_instances:
            want = kirszbraun_violation(region, pins)
            if want is None:
                continue
            write_region(region_file, region)
            write_heights(data_file, HeightFunction.from_dict(pins))
            code, out, _ = run(
                capsys, "enumerate", "--region-file", str(region_file),
                "--boundary-file", str(data_file),
            )
            x, y, gap, dist = want
            assert code == 2
            assert out == (
                f"infeasible boundary: |h({fmt(x)}) - h({fmt(y)})| = {gap} "
                f"exceeds graph distance {dist}\n"
            )
            checked += 1
        assert checked > 100


class TestSurface:
    def test_zero_steps_writes_minimal_extension(self, tmp_path, capsys):
        out_file = tmp_path / "surface.grid"
        code, out, _ = run(
            capsys, "surface", "--n", "3", "--boundary", "parity",
            "--sweeps", "0", "--out", str(out_file),
        )
        assert code == 0
        grid = parse_grid(out_file.read_text())
        assert grid.shape == (3, 3)
        # minimal extension of the parity ring: center at 0
        assert grid[1, 1] == 0

    def test_default_boundary_is_extremal(self, tmp_path, capsys):
        out_file = tmp_path / "surface.grid"
        code, _, _ = run(
            capsys, "surface", "--n", "4", "--sweeps", "0",
            "--out", str(out_file),
        )
        assert code == 0
        grid = parse_grid(out_file.read_text())
        # ring values |i - j| pinned; row 0 reads 0, 1, 2, 3
        assert grid[0].tolist() == [0, 1, 2, 3]

    def test_sweep_mode_valid_surface(self, tmp_path, capsys):
        out_file = tmp_path / "surface.grid"
        code, _, _ = run(
            capsys, "surface", "--n", "5", "--boundary", "extremal",
            "--model", "twopoint:a=1", "--sweeps", "30",
            "--out", str(out_file),
        )
        assert code == 0
        grid = parse_grid(out_file.read_text())
        assert grid.shape == (5, 5)
        diffs = np.abs(np.diff(grid, axis=0))
        assert set(np.unique(diffs)) == {1}

    def test_infeasible_boundary_exits_2(self, tmp_path, capsys):
        f = tmp_path / "gap.heights"
        f.write_text(GAP_FILE)
        code, out, _ = run(
            capsys, "surface", "--n", "3", "--boundary-file", str(f),
            "--out", str(tmp_path / "x.grid"),
        )
        assert code == 2
        assert "infeasible boundary" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n0 0 0\n0 1 3\n", "pinned data is not a valid height function"),
            ("2\n0 0 18446744073709551616\n4 4 0\n",
             "pinned values must fit in int64"),
        ],
    )
    def test_bad_boundary_file_is_a_usage_error(
        self, tmp_path, capsys, text, message
    ):
        f = tmp_path / "bad.heights"
        f.write_text(text)
        out_file = tmp_path / "x.grid"
        code, out, err = run(
            capsys, "surface", "--n", "5", "--boundary-file", str(f),
            "--out", str(out_file),
        )
        assert code == 1
        assert out == "" and err == f"error: {message}\n"
        assert not out_file.exists()

    def test_potentials_near_the_float_range(self, tmp_path, capsys):
        # steps of +-2e308 leave the float range; the P(up) table
        # saturates without a RuntimeWarning, which this suite makes an
        # error
        out_file = tmp_path / "w.txt"
        code, _, _ = run(
            capsys, "surface", "--n", "5", "--model", "uniform:b=1e308",
            "--sweeps", "3", "--out", str(out_file),
        )
        assert code == 0
        grid = parse_grid(out_file.read_text())
        region = make_box((0, 0), (4, 4))
        assert validate(region, dict(zip(region.vertex_list, grid.ravel().tolist())))

    def test_small_n_rejected(self, capsys):
        code, _, err = run(
            capsys, "surface", "--n", "1", "--out", "/tmp/x.grid"
        )
        assert code == 1

    @pytest.mark.parametrize("flag", ["--sweeps"])
    def test_negative_count_rejected(self, tmp_path, capsys, flag):
        out_file = tmp_path / "x.grid"
        code, _, err = run(
            capsys, "surface", "--n", "3", flag, "-3", "--out", str(out_file),
        )
        assert code == 1
        assert flag in err
        assert not out_file.exists()

    def test_steps_flag_is_gone(self, tmp_path, capsys):
        # work is counted in sweeps only
        out_file = tmp_path / "x.grid"
        code, _, err = run(
            capsys, "surface", "--n", "3", "--steps", "5",
            "--out", str(out_file),
        )
        assert code == 1
        assert "unrecognized arguments: --steps" in err
        assert not out_file.exists()

    def test_default_sweeps_are_ten_span_squared(self, tmp_path, capsys):
        # the 5x5 extremal ring needs the window [0, 3]: span 5, 250
        # sweeps; under the zero potential 249 or 251 sweeps end elsewhere
        grids = []
        for extra in ([], ["--sweeps", "250"], ["--sweeps", "251"]):
            out_file = tmp_path / f"s{len(grids)}.grid"
            code, _, _ = run(
                capsys, "surface", "--n", "5", "--seed", "2",
                "--out", str(out_file), *extra,
            )
            assert code == 0
            grids.append(out_file.read_bytes())
        assert grids[0] == grids[1] != grids[2]

    def test_bad_model_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "surface", "--n", "3", "--model", "gauss:s=1",
            "--out", str(tmp_path / "x.grid"),
        )
        assert code == 1


class TestConcentration:
    CONFIG = (
        "ns = 3\n"
        "c_values = 0.5, 1.0, 2.0\n"
        "model = twopoint:a=0.5\n"
        "mode = exact\n"
    )

    def test_exact_small_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out_file = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(out_file),
        )
        assert code == 0
        assert "all bounded rows pass" in out
        assert "n=3:" in out
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,c,samples,tail_freq,bound,mean_stderr_max"
        assert len(lines) == 4

    def test_pass_lines_only_for_bounded_rows(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(tmp_path / "r.csv"),
        )
        # bounds 18 e^{-3c^2/2} exceed 1 at c = 0.5 and c = 1.0, so only
        # c = 2.0 (bound 0.0446) gets a PASS/FAIL line
        assert code == 0
        pass_lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(pass_lines) == 1
        assert pass_lines[0].startswith("PASS n=3 c=2:")

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nonsense = 3\n")
        code, _, err = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        assert "unknown config keys" in err

    @pytest.mark.parametrize(
        "line,key",
        [
            ("tail_samples = 0", "tail_samples"),
            ("mean_draws = 0", "mean_draws"),
            ("mean_samples_per_draw = 0", "mean_samples_per_draw"),
            ("burn_factor = -1", "burn_factor"),
            ("thin_factor = -0.5", "thin_factor"),
        ],
    )
    def test_bad_count_exits_1(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("ns = 3\nmode = mc\n" + line + "\n")
        out_file = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(out_file),
        )
        assert code == 1
        assert "bad config value" in err and key in err
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize(
        "lines,key",
        [
            ("ns = 3\nmode = weird\n", "mode"),
            ("ns =\nmode = mc\n", "ns"),
            ("ns = 3\nc_values =\n", "c_values"),
        ],
    )
    def test_bad_mode_or_empty_list_exits_1(self, tmp_path, capsys, lines, key):
        # these used to run the Monte Carlo path, or nothing, and exit 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(lines)
        out_file = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(out_file),
        )
        assert code == 1
        assert "bad config value" in err and key in err
        assert out == "" and not out_file.exists()

    def test_violating_row_exits_3(self, tmp_path, capsys):
        # a two-chain mean field leaves the deviations far above the mean
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "ns = 9\nc_values = 1, 1.1, 1.25\nmodel = twopoint:a=1\n"
            "mode = mc\nA = 1.8\nmean_draws = 2\nmean_samples_per_draw = 1\n"
            "tail_samples = 200\nburn_factor = 0.5\n"
        )
        code, out, _ = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 3
        assert out.splitlines()[1:] == [
            "PASS n=9 c=1.1: tail=0.22 bound=0.381974 slack=0.0878749",
            "FAIL n=9 c=1.25: tail=0.22 bound=0.0655525 slack=0.0878749",
        ]

    def test_exact_mode_at_default_sizes_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # the default sizes 9, 15, 25 are far beyond enumeration
        from randomsurfaces import analysis

        def no_work(*args, **kwargs):
            raise AssertionError("enumerated before checking the sizes")

        monkeypatch.setattr(analysis, "enumerate_extensions", no_work)
        out_file = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "concentration", "--mode", "exact",
            "--out", str(out_file),
        )
        assert code == 1
        assert err == (
            "error: exact mode enumerates every extension and takes "
            "n <= 7, got n = 25; use mode = mc\n"
        )
        assert out == "" and not out_file.exists()

    def test_exact_mode_rejects_a_model_of_infinite_support_first(
        self, tmp_path, capsys, monkeypatch
    ):
        # 'uniform' has no finite list of potentials to anneal over
        from randomsurfaces import analysis

        def no_work(*args, **kwargs):
            raise AssertionError("built a box before checking the model")

        monkeypatch.setattr(analysis, "enumerate_extensions", no_work)
        monkeypatch.setattr(analysis, "make_box", no_work)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "ns = 7\nboundary = parity\nmodel = uniform:b=1\nmode = exact\n"
        )
        out_file = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(out_file),
        )
        assert code == 1
        assert err == (
            "error: model 'uniform' has no finite support to enumerate\n"
        )
        assert out == "" and not out_file.exists()

    def test_zero_samples_flag_exits_1(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "concentration", "--samples", "0",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        assert "tail_samples" in err

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--A", "nan", "A"), ("--A", "inf", "A"), ("--c", "nan", "c_values"),
         ("--c", "1,inf", "c_values")],
    )
    def test_non_finite_A_or_c_exits_1(self, tmp_path, capsys, flag, value, key):
        # under a nan no bound is below 1, so every row would pass unjudged
        out_file = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "concentration", "--mode", "exact", flag, value,
            "--out", str(out_file),
        )
        assert code == 1
        assert err.startswith(f"error: bad config value: {key} must be finite")
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize(
        "key, value",
        [("start", "high"), ("boundary", "steep"), ("direction", "2")],
    )
    def test_unknown_choice_exits_1_before_any_work(
        self, tmp_path, capsys, monkeypatch, mode, key, value
    ):
        # exact mode never reads start, so start = high used to exit 0
        from randomsurfaces import analysis

        def no_work(*args, **kwargs):
            raise AssertionError("built a box before checking the config")

        monkeypatch.setattr(analysis, "make_box", no_work)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"ns = 3\nmodel = twopoint:a=1\nmode = {mode}\n{key} = {value}\n"
        )
        out_file = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(out_file),
        )
        assert code == 1
        assert err.startswith(f"error: bad config value: {key} must be ")
        assert out == "" and not out_file.exists()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out_file = tmp_path / "r.csv"
        code, out, _ = run(
            capsys, "concentration", "--config", str(cfg),
            "--c", "1.5", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("3,1.5,")


class TestVerify:
    def test_identities_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "identities", "--samples", "6", "--seed", "3"
        )
        assert code == 0
        assert "identities: 6 instances" in out
        assert "identities: ok" in out

    def test_dominance_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "dominance", "--samples", "10"
        )
        assert code == 0
        assert "reversed pair refuted" in out
        assert "dominance: ok" in out

    def test_martingale_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "martingale")
        assert code == 0
        assert "martingale 3x3: 8 walks" in out
        assert "martingale 4x4: 48 walks" in out
        assert "martingale: ok" in out

    def test_unknown_suite_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "everything")
        assert code == 1

    @pytest.mark.parametrize("suite", ["identities", "dominance", "martingale"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--samples", "0"), ("--samples", "-4"), ("--seed", "-1"),
         ("--seed", str(2**63 - 2))],
    )
    def test_bad_numbers_exit_1(self, capsys, suite, flag, value):
        code, out, err = run(capsys, "verify", suite, flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} must be")
        assert err.endswith(f"got {value}\n")

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run(
            capsys, "verify", "identities", "--samples", "3",
            "--seed", str(2**63 - 3),
        )
        assert code == 0
        assert "identities: ok" in out


class TestDeterminism:
    def test_surface_byte_identical(self, tmp_path, capsys):
        outputs = []
        for name in ("a.grid", "b.grid"):
            out_file = tmp_path / name
            code, out, _ = run(
                capsys, "surface", "--n", "4", "--boundary", "extremal",
                "--model", "uniform:b=1", "--seed", "5", "--sweeps", "10",
                "--out", str(out_file),
            )
            assert code == 0
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]

    def test_enumerate_stdout_identical(self, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "enumerate", "--box", "4", "--boundary", "extremal",
                "--list",
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_concentration_csv_identical(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "ns = 3\nc_values = 1.0\nmodel = twopoint:a=1\nmode = mc\n"
            "tail_samples = 20\nmean_draws = 5\nmean_samples_per_draw = 3\n"
            "burn_factor = 0.5\nthin_factor = 0.1\n"
        )
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out_file = tmp_path / name
            code, _, _ = run(
                capsys, "concentration", "--config", str(cfg),
                "--out", str(out_file),
            )
            assert code == 0
            blobs.append(out_file.read_bytes())
        assert blobs[0] == blobs[1]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestRecordedOutputs:
    """Outputs that must not move while the random streams stay as they
    are: SHA-256 digests of files written by the CLI as it stood before
    the set-up path of large boxes was trimmed (one envelope pass per
    ``surface``, no connectivity search for boxes)."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--n", "5"],
             "1e2bdeec610bd152ecbf4a95d3f5dddbd96651692ca401e48afc89441ccfe14b"),
            (["--n", "100", "--sweeps", "20", "--seed", "3"],
             "7ed4a7d916e41d694b036ba8dd19e82f88e620f3c4a71497945d7282876c6fe5"),
        ],
    )
    def test_surface(self, tmp_path, capsys, argv, digest):
        out_file = tmp_path / "s.grid"
        code, out, _ = run(
            capsys, "surface", "--boundary", "extremal", "--model",
            "twopoint:a=1", *argv, "--out", str(out_file),
        )
        assert code == 0
        assert sha256(out_file.read_bytes()) == digest

    def test_two_size_concentration(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "ns = 5, 9\nmodel = twopoint:a=1\nboundary = extremal\n"
            "tail_samples = 30\nmean_draws = 10\nmean_samples_per_draw = 4\n"
            "seed = 3\n"
        )
        out_file = tmp_path / "r.csv"
        code, out, _ = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(out_file),
        )
        assert code == 0
        assert sha256(out_file.read_bytes()) == (
            "f211d6df8eebac552627a1b9e62004a8e701f1fd6f0881de4ec49818ece760e6"
        )
        assert sha256(out.replace(str(out_file), "OUT").encode()) == (
            "ce3341d2956f993657f66c043c6c061da41e9a23dd0e6aa34f14cddd51a53326"
        )

    @pytest.mark.parametrize(
        "config, csv_digest, stdout_digest",
        [
            (TestConcentration.CONFIG,
             "f240b2f527d3047fecf591d421f55e7fa49c0deb94bc80785d12ff2674a7e8bf",
             "7eb915af1d34954773490d4a53ae14473e8071672c92f21c3cbba3e9e35739d6"),
            ("ns = 3, 5\nmodel = twopoint:a=1\nboundary = extremal\n"
             "mode = exact\n",
             "3f06b23b187c6b5102b096f34a02a0c9ab3020366bcfc5ad8bcd00931b17b407",
             "16ea776baef8272d916f259d4c208733577e76866831887ed322269a06b5571d"),
            ("ns = 7\nboundary = parity\nmodel = twopoint:a=1\nmode = exact\n",
             "665d586112a5c6bca8cfb80e34d15cd807314f45f6f70a6f2c1122e9512ca020",
             "f83719d801ba17e54c11fb8351b79dcd8281969bfc76bd65dddd9b0f62f4f20f"),
        ],
    )
    def test_exact_concentration(
        self, tmp_path, capsys, config, csv_digest, stdout_digest
    ):
        # recorded before the exact and Monte Carlo rows shared one builder;
        # the 7x7 parity ring before H was read off per-level edge counts
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config)
        out_file = tmp_path / "r.csv"
        code, out, _ = run(
            capsys, "concentration", "--config", str(cfg),
            "--out", str(out_file),
        )
        assert code == 0
        assert sha256(out_file.read_bytes()) == csv_digest
        assert sha256(out.replace(str(out_file), "OUT").encode()) == (
            stdout_digest
        )

    @pytest.mark.parametrize("n, sweeps", [(5, "3"), (100, "1")])
    def test_surface_builds_the_envelopes_once(
        self, tmp_path, capsys, monkeypatch, n, sweeps
    ):
        from randomsurfaces import gibbs, heights, sampler

        calls = []
        envelopes = heights._pinned_envelopes

        def counting(region, pinned):
            calls.append(len(region))
            return envelopes(region, pinned)

        for mod in (heights, gibbs, sampler):
            monkeypatch.setattr(mod, "_pinned_envelopes", counting)
        code, _, _ = run(
            capsys, "surface", "--n", str(n), "--sweeps", sweeps,
            "--out", str(tmp_path / "s.grid"),
        )
        assert code == 0
        assert calls == [n * n]


class TestConsoleScript:
    def test_module_entry_point(self, capsys):
        # the installed entry point calls the same main()
        proc = subprocess.run(
            [sys.executable, "-m", "randomsurfaces.cli"],
            input="", capture_output=True, text=True,
        )
        assert proc.returncode == 1  # missing subcommand is a usage error

    def test_module_run_prints_no_runpy_warning(self):
        # the package must not import cli itself, or runpy warns that
        # 'randomsurfaces.cli' is already in sys.modules
        proc = subprocess.run(
            [sys.executable, "-m", "randomsurfaces.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "usage" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test dependency only; the package needs numpy alone
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, randomsurfaces.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_package_exposes_cli_lazily(self):
        import randomsurfaces

        assert "cli" in randomsurfaces.__all__
        assert randomsurfaces.cli is cli
        with pytest.raises(AttributeError):
            randomsurfaces.no_such_module
