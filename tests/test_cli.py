import collections
import math

import numpy as np
import pytest

from fracwave import fractional
from fracwave.cli import build_parser, config_hash, main, parse_config_text
from fracwave.mittag_leffler import MLParams, ml_eval
from fracwave.fractional import TimeGrid, trajectory_from_csv
from fracwave.operator_model import build_scalar_model, model_from_text
from fracwave.solvers import ForcingSpec, WaveProblem, regime_report, solve_linear


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SCALAR_CFG = """
model = scalar
a = 2
gamma = -0.75
alpha = 1.5
T = 1.0
n_steps = 256
w0 = 1
"""

LADDER_CFG = """
model = ladder
gamma = -0.75
omega = 0.5235987755982988
rho_min = 1e-2
rho_max = 1e4
blocks_per_decade = 4
alpha = 1.5
"""


class TestMl:
    def test_exponential(self, capsys):
        assert main(["ml", "--alpha", "1", "--delta", "1", "--z", "1,0"]) == 0
        assert capsys.readouterr().out.strip() == "2.718281828459045"

    def test_zero_gives_reciprocal_gamma(self, capsys):
        assert main(["ml", "--alpha", "1.5", "--delta", "3", "--z", "0,0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5)

    def test_derivative(self, capsys):
        assert main(["ml", "--alpha", "1", "--delta", "1", "--z", "0.3", "--derivative", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.exp(0.3))

    def test_malformed_z_usage_error(self):
        assert main(["ml", "--alpha", "1", "--z", "nope"]) == 2

    def test_bad_alpha_domain_error(self):
        assert main(["ml", "--alpha", "-1", "--z", "1"]) == 3

    def test_missing_args_usage(self):
        assert main(["ml", "--alpha", "1"]) == 2

    def test_negative_real_part_readme_example(self, capsys):
        # ``--z -2,0.5`` would be read by argparse as an option
        assert main(["ml", "--alpha", "1.5", "--delta", "1", "--z=-2,0.5"]) == 0
        assert complex(capsys.readouterr().out.strip()) == ml_eval(MLParams(1.5, 1), -2 + 0.5j)

    @pytest.mark.parametrize("extra", [[], ["--derivative", "1"]])
    def test_overflow_domain_error(self, extra):
        assert main(["ml", "--alpha", "1.5", "--z", "1e5", *extra]) == 3


class TestConfig:
    def test_parse_and_hash_stable(self):
        cfg = parse_config_text("a = 1\n# comment\nb = two\n")
        assert cfg == {"a": "1", "b": "two"}
        assert config_hash(cfg) == config_hash({"b": "two", "a": "1"})

    def test_empty_config_rejected(self, tmp_path):
        path = write_config(tmp_path, "# nothing here\n")
        assert main(["verify", "--config", path]) == 2

    def test_missing_file(self):
        assert main(["verify", "--config", "/nonexistent.cfg"]) == 2

    @pytest.mark.parametrize("command", ["verify", "solve", "model build", "model check"])
    def test_no_config_flag(self, command):
        assert main(command.split()) == 2

    def test_tol_only_where_read(self, tmp_path):
        path = write_config(tmp_path, "n = 3\n")
        for argv in (["verify"], ["regions"], ["model", "build"]):
            assert main([*argv, "--config", path, "--tol", "1"]) == 2
        assert build_parser().parse_args(["solve", "--tol", "1"]).tol == 1.0
        assert build_parser().parse_args(["model", "check", "--tol", "1"]).tol == 1.0

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("solve", SCALAR_CFG.replace("n_steps = 256", "n_steps = 256.5")),
            ("solve", SCALAR_CFG + "problem = semilinear\nforcing = sin-w\nmax_iter = 10.5\n"),
            ("verify", LADDER_CFG.replace("blocks_per_decade = 4", "blocks_per_decade = 4.5")),
            ("regions", "n = 3.5\n"),
        ],
        ids=["n_steps", "max_iter", "blocks_per_decade", "n"],
    )
    def test_non_integral_count_domain_error(self, tmp_path, command, cfg):
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 3

    def test_integral_float_spelling_accepted(self, tmp_path, capsys):
        path = write_config(tmp_path, "n = 3e0\n")
        assert main(["regions", "--config", path, "--stdout"]) == 0
        assert capsys.readouterr().out.count("\n") == 3 + 1 + 3 * 3


BAD_KEY_CFG = LADDER_CFG + "alpah = 1.5\n"

# a one-block model file whose eigenvalue row is NaN, read by relative path
NAN_ROW_MODEL = "omega 0.0\ngamma -0.5\nmu 0.6\ntheta 0.5\nblocks 1\nnan 0.0 1.0\n"


class TestExitCodes:
    """One row per failure path: exit code and the single stderr line."""

    @pytest.mark.parametrize(
        "command, cfg, code, message",
        [
            *(
                (command, BAD_KEY_CFG, 2, "usage error: unknown config key 'alpah'")
                for command in ("verify", "solve", "regions", "model build", "model check")
            ),
            (
                "verify",
                LADDER_CFG.replace("alpha = 1.5", "alpha = 1.0"),
                3,
                "error: alpha must lie in (1, 2)",
            ),
            (
                "verify",
                LADDER_CFG.replace("gamma = -0.75", "gamma = -0.25"),
                3,
                "error: uno identity requires alpha * (1 + gamma) < 1",
            ),
            ("solve", SCALAR_CFG.replace("w0 = 1", "w0 = 1,2,3"), 3, "error: vector has 3 entries"),
            ("solve", SCALAR_CFG.replace("= scalar", "= cubic"), 3, "error: unknown model kind"),
            ("solve", SCALAR_CFG + "problem = linear\nforcing = cubic\n", 3, "error: unknown forcing"),
            ("solve", SCALAR_CFG + "grading = nan\n", 3, "error: grading must be finite"),
            ("solve", SCALAR_CFG.replace("w0 = 1", "w0 = nan"), 3, "error: initial data must be finite"),
            (
                "solve",
                SCALAR_CFG + "problem = linear\nforcing = constant\nforcing_value = inf\n",
                3,
                "error: config key forcing_value: expected a finite number",
            ),
            (
                "solve",
                SCALAR_CFG + "problem = semilinear\nforcing = sin-w\ntol = nan\n",
                3,
                "error: config key tol: expected a finite number",
            ),
            ("solve", SCALAR_CFG + "grading = 1e6\n", 3, "error: grading 1000000.0 puts the first node"),
            ("regions", "n = 3\naxis = mu\n", 3, "error: unknown axis"),
            ("regions", "n = 1\n", 3, "error: raster needs n >= 2"),
            ("model check", "model_file = /nonexistent/model.txt\n", 2, "usage error: model file not found"),
            (
                "model build",
                "model = scalar\na = x\n",
                3,
                "error: config key a: expected a complex number",
            ),
            (
                "model check",
                "model_file = nan-row.txt\n",
                3,
                "error: model file nan-row.txt: eigenvalues and couplings must be finite",
            ),
            # a command-line argument, not a config value: a usage error
            ("ml --alpha 1.5 --z x", None, 2, "usage error: expected a complex number"),
        ],
        ids=[
            *(f"unknown-key-{c}" for c in ("verify", "solve", "regions", "model-build", "model-check")),
            "verify-alpha-1",
            "verify-uno-inadmissible",
            "vector-length",
            "unknown-model",
            "unknown-forcing",
            "grading-nan",
            "w0-nan",
            "forcing-value-inf",
            "tol-nan",
            "grading-underflow",
            "unknown-axis",
            "regions-n-1",
            "missing-model-file",
            "malformed-complex-config",
            "nan-model-row",
            "malformed-complex-argument",
        ],
    )
    def test_exit_code(self, tmp_path, capsys, monkeypatch, command, cfg, code, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan-row.txt").write_text(NAN_ROW_MODEL)
        argv = command.split()
        if cfg is not None:
            argv += ["--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)


def test_non_finite_tol_argument_is_a_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, SCALAR_CFG + "problem = semilinear\nforcing = sin-w\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path), "--tol", "nan"]) == 2
    assert "argument --tol" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


class TestVerify:
    def test_ladder_battery_passes(self, tmp_path):
        path = write_config(tmp_path, LADDER_CFG)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "verify_summary.csv").read_text().strip().splitlines()
        assert lines[3] == "check,value,target,tol,status"
        body = lines[4:]
        assert len(body) >= 10
        assert all(row.endswith(",pass") for row in body)

    def test_broken_contour_rejected(self, tmp_path):
        path = write_config(tmp_path, LADDER_CFG + "theta = 0.7\nmu = 0.6\n")
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 3

    def test_inadmissible_alpha_rejected(self, tmp_path):
        path = write_config(tmp_path, LADDER_CFG.replace("alpha = 1.5", "alpha = 1.95"))
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 3


class TestSolve:
    def test_homogeneous_scalar_matches_oracle(self, tmp_path):
        path = write_config(tmp_path, SCALAR_CFG)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "solution.csv").read_text().strip().splitlines()
        data = np.array(
            [[float(v) for v in r.split(",")] for r in rows if not r.startswith("#") and not r.startswith("t,")]
        )
        p = MLParams(1.5, 1.0)
        for t, re0 in zip(data[:, 0], data[:, 1]):
            want = 1.0 if t == 0 else ml_eval(p, -(t**1.5) * 2.0).real
            assert abs(re0 - want) <= 1e-8

    def test_deterministic_output(self, tmp_path):
        path = write_config(tmp_path, SCALAR_CFG)
        outs = []
        for d in ["a", "b"]:
            out = tmp_path / d
            assert main(["solve", "--config", path, "--seed", "7", "--out", str(out)]) == 0
            outs.append((out / "solution.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_semilinear_runs_repeat_in_one_process(self, tmp_path, monkeypatch):
        # the README semilinear solve twice in one process: nothing the first
        # run leaves behind may change what the second writes, or how many
        # exponential-mode engine calls and tiles it takes
        cfg = SCALAR_CFG + "problem = semilinear\nforcing = sin-w\nforcing_value = 1\n"
        path = write_config(tmp_path, cfg)
        counts = collections.Counter()
        for name in ("_mode_sums", "_phi"):  # _phi runs once per tile

            def counted(*args, _name=name, _inner=getattr(fractional, name), **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(fractional, name, counted)
        runs = []
        for d in ("first", "second"):
            counts.clear()
            assert main(["solve", "--config", path, "--seed", "1", "--out", str(tmp_path / d)]) == 0
            written = [(tmp_path / d / f).read_bytes() for f in ("solution.csv", "residual.csv")]
            runs.append((written, dict(counts)))
        assert runs[0] == runs[1]
        assert runs[0][1]["_mode_sums"] > 0 and runs[0][1]["_phi"] > runs[0][1]["_mode_sums"]

    def test_zero_semilinear_equals_homogeneous(self, tmp_path):
        base = write_config(tmp_path, SCALAR_CFG)
        semi = write_config(
            tmp_path,
            SCALAR_CFG + "problem = semilinear\nforcing = linear-w\nforcing_value = 0\n",
            name="semi.cfg",
        )
        a, b = tmp_path / "hom", tmp_path / "semi"
        assert main(["solve", "--config", base, "--out", str(a)]) == 0
        assert main(["solve", "--config", semi, "--out", str(b)]) == 0

        def body(p):
            return [
                r for r in (p / "solution.csv").read_text().splitlines()
                if not r.startswith("#")
            ]

        assert body(a) == body(b)

    def test_sin_t_forcing_with_random_and_full_vectors(self, tmp_path):
        # w0 drawn from the seeded generator, w1 given entry by entry
        cfg = SCALAR_CFG.replace("w0 = 1", "w0 = random\nw1 = 0.5,-0.25")
        path = write_config(tmp_path, cfg + "problem = linear\nforcing = sin-t\nforcing_value = 2\n")
        assert main(["solve", "--config", path, "--out", str(tmp_path), "--seed", "5"]) == 0
        got = trajectory_from_csv((tmp_path / "solution.csv").read_text()).values
        forcing = ForcingSpec.time_dependent(lambda t: 2.0 * math.sin(t))
        w0 = np.random.default_rng(5).standard_normal(2)
        m = build_scalar_model(2.0, gamma=-0.75)
        prob = WaveProblem(m, 1.5, w0, np.array([0.5, -0.25]), TimeGrid(1.0, 256), forcing)
        assert np.array_equal(got, solve_linear(prob).values)

    def test_nonconvergent_picard_exit4(self, tmp_path):
        cfg = SCALAR_CFG + (
            "problem = semilinear\nforcing = linear-w\nforcing_value = 50\n"
            "T = 2.0\nmax_iter = 10\nn_steps = 64\n"
        )
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 4

    def test_unknown_problem_domain_error(self, tmp_path):
        path = write_config(tmp_path, SCALAR_CFG + "problem = elliptic\n")
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 3

    def test_root_on_branch_cut_solves(self, tmp_path):
        # at alpha = 1.2 and arg a = 0.2 pi a root of sigma^alpha = -a sits on
        # the branch cut; w = E + (1 - E)/a with E = E_alpha(-t^alpha a)
        a = 2.0 * complex(math.cos(0.2 * math.pi), math.sin(0.2 * math.pi))
        cfg = SCALAR_CFG.replace("a = 2", f"a = {a.real!r},{a.imag!r}").replace("alpha = 1.5", "alpha = 1.2")
        cfg += "problem = linear\nforcing = constant\nforcing_value = 1\n"
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "solution.csv").read_text().strip().splitlines()
        data = np.array(
            [[float(v) for v in r.split(",")] for r in rows if not r.startswith("#") and not r.startswith("t,")]
        )
        e = ml_eval(MLParams(1.2, 1.0), -(data[:, 0] ** 1.2) * a)
        assert np.max(np.abs(data[:, 1] + 1j * data[:, 2] - (e + (1.0 - e) / a))) <= 1e-5

    def test_residual_csv_written(self, tmp_path):
        path = write_config(tmp_path, SCALAR_CFG)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "residual.csv").read_text().strip().splitlines()
        assert "t,residual" in lines


class TestRegions:
    def test_flag_arithmetic(self):
        def flag(theorem, alpha, nu, gamma):
            return int(regime_report(theorem, alpha, gamma, nu).classical_ok)

        assert flag("linear", 1.5, 0.5, -0.75) == 1
        assert flag("homogeneous", 1.1, 0.5, -0.75) == 0  # 1.1 < 4/3
        assert flag("homogeneous", 1.5, 0.5, -0.5) == 0  # 1.5 < 2
        assert flag("semilinear-mild", 1.9, 0.5, -0.75) == 1

    def test_semilinear_classical(self, tmp_path, capsys):
        path = write_config(tmp_path, "n = 3\ntheorem = semilinear-classical\n")
        assert main(["regions", "--config", path, "--stdout"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        flags = [r.split(",")[3] for r in lines if not r.startswith(("#", "alpha,"))]
        # alpha in {1.005, 1.5, 1.995} x gamma in {-0.995, -0.5, -0.005}
        assert flags == ["0", "0", "0", "1", "0", "0", "1", "0", "0"]

    def test_unknown_theorem_domain_error(self, tmp_path):
        path = write_config(tmp_path, "n = 3\ntheorem = elliptic\n")
        assert main(["regions", "--config", path, "--stdout"]) == 3

    def test_raster_row_count(self, tmp_path, capsys):
        path = write_config(tmp_path, "n = 20\n")
        assert main(["regions", "--config", path, "--stdout"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        data = [r for r in lines if not r.startswith("#")]
        assert data[0] == "alpha,nu,gamma,flag"
        assert len(data) == 1 + 20 * 20

    def test_nu_axis(self, tmp_path):
        path = write_config(tmp_path, "n = 10\naxis = nu\ntheorem = linear\ngamma = -0.75\n")
        assert main(["regions", "--config", path, "--out", str(tmp_path)]) == 0
        rows = [
            r for r in (tmp_path / "regions.csv").read_text().splitlines()
            if r and not r.startswith("#") and not r.startswith("alpha,")
        ]
        gammas = {r.split(",")[2] for r in rows}
        assert gammas == {"-0.75"}

    def test_defaults_without_config(self, tmp_path):
        assert main(["regions", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "regions.csv").read_text()
        assert text.count("\n") == 3 + 1 + 200 * 200


class TestModel:
    def test_build_round_trip(self, tmp_path):
        path = write_config(tmp_path, LADDER_CFG)
        assert main(["model", "build", "--config", path, "--out", str(tmp_path)]) == 0
        m = model_from_text((tmp_path / "model.txt").read_text())
        assert m.profile.gamma == -0.75
        lo, hi = m.spectral_radius_range()
        assert lo == pytest.approx(1e-2) and hi == pytest.approx(1e4)

    def test_check_passes(self, tmp_path):
        path = write_config(tmp_path, LADDER_CFG)
        assert main(["model", "check", "--config", path]) == 0

    def test_check_flags_wrong_gamma(self, tmp_path):
        path = write_config(tmp_path, LADDER_CFG)
        assert main(["model", "build", "--config", path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "model.txt").read_text().replace("gamma -0.75", "gamma -0.3")
        mpath = tmp_path / "edited.txt"
        mpath.write_text(text)
        cfg = write_config(tmp_path, f"model_file = {mpath}\n", name="check.cfg")
        assert main(["model", "check", "--config", cfg]) == 1

    def test_unknown_subcommand_usage(self):
        assert main(["model"]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("omega ", "# omega "),  # missing header key
            lambda text: text.replace("\nblocks ", "\n1 0 zero\nblocks "),  # non-numeric row
            lambda text: text.replace("\nblocks ", "\nblocks 1"),  # count mismatch
        ],
        ids=["missing-key", "non-numeric-row", "count-mismatch"],
    )
    def test_check_malformed_model_file_domain_error(self, tmp_path, capsys, edit):
        path = write_config(tmp_path, LADDER_CFG)
        assert main(["model", "build", "--config", path, "--out", str(tmp_path)]) == 0
        mpath = tmp_path / "edited.txt"
        mpath.write_text(edit((tmp_path / "model.txt").read_text()))
        cfg = write_config(tmp_path, f"model_file = {mpath}\n", name="check.cfg")
        capsys.readouterr()
        assert main(["model", "check", "--config", cfg]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: model file ")
