"""Command-line behavior: outputs, exit codes, determinism, resumability."""

import os

import pytest

from walkforget import CorrectionMode, RunConfig, config_to_text
from walkforget.cli import main


def write_cfg(tmp_path, **kw):
    base = dict(
        n_clients=4,
        dim=4,
        train_hops=25,
        unlearn_hops=15,
        p=0.25,
        s=2,
        eta=0.3,
        sigma=0.2,
        grad_bound=1.0,
        unlearn_client=2,
        mode=CorrectionMode.LIGHTWEIGHT,
        seed=11,
        domain="ball",
        domain_radius=8.0,
        trust_radius=2.0,
        objective="logistic",
        local_size=25,
        forget_size=4,
        batch_size=6,
        test_size=60,
    )
    base.update(kw)
    path = tmp_path / "run.cfg"
    path.write_text(config_to_text(RunConfig(**base)))
    return str(path)


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestCalibrateCommand:
    def test_ddp_sigma_printed(self, capsys):
        code = main(["calibrate", "--mode", "ddp", "--eps", "1", "--delta", "1e-5", "--l", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma = 9.689610525" in out
        assert "formula" in out

    def test_restart_verified(self, capsys):
        code = main([
            "calibrate", "--mode", "restart", "--eps", "1", "--delta", "1e-5",
            "--l", "1", "--p", "0.1", "--t-u", "100", "--n", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved_eps" in out
        achieved = float([l for l in out.splitlines() if "achieved_eps" in l][0].split("=")[1])
        assert achieved <= 1.0


class TestCapacityCommand:
    def test_variance_limited_regime(self, capsys):
        code = main([
            "capacity", "--mode", "restart", "--gamma", "0.5", "--nonbias", "0.6",
            "--n-u", "200", "--l", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "m_star = 0" in out
        assert "regime = variance-limited" in out

    def test_bias_limited_regime(self, capsys):
        main([
            "capacity", "--mode", "restart", "--gamma", "0.6", "--nonbias", "0.1",
            "--n-u", "200", "--l", "1",
        ])
        out = capsys.readouterr().out
        assert "regime = bias-limited" in out

    def test_ddp_scaling_value(self, capsys):
        code = main([
            "capacity", "--mode", "ddp", "--eps", "1", "--delta", "1e-5",
            "--n", "10", "--d", "10", "--t", "100", "--radius", "10", "--l", "1",
        ])
        assert code == 0
        assert "capacity_scaling" in capsys.readouterr().out

    def test_sweep_csv_emission(self, tmp_path, capsys):
        out = tmp_path / "caps.csv"
        code = main([
            "capacity", "--mode", "restart", "--gammas", "0.1,0.5,1.0",
            "--n-u", "200", "--l", "1", "--radius", "1", "--csv", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("eps,delta,")

    @pytest.mark.parametrize("args", [
        ["--mode", "ddp", "--csv", "caps.csv"],
        ["--mode", "restart", "--gammas", "0.1,0.2"],
    ])
    def test_option_its_mode_ignores_is_usage_error(self, tmp_path, capsys, args):
        args = [str(tmp_path / a) if a.endswith(".csv") else a for a in args]
        assert main(["capacity", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: usage: ") and captured.err.count("\n") == 1
        assert captured.out == "" and os.listdir(tmp_path) == []


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_config_validation_failure(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.25)
        text = open(cfg).read().replace("p=0.25", "p=1.5")
        open(cfg, "w").write(text)
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", list(CorrectionMode))
    def test_all_forget_config_fails_before_output(self, tmp_path, capsys, mode):
        cfg = write_cfg(tmp_path, mode=mode, forget_size=25)
        out = tmp_path / "o"
        assert main(["unlearn", "--config", cfg, "--out", str(out)]) == 3
        assert "retained set empty" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_field=1\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_nonempty_outdir_requires_force(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 1
        assert main(["gen-data", "--config", cfg, "--out", str(out), "--force"]) == 0

    @pytest.mark.parametrize(
        "spec",
        ["foo=1,2", "seed=1,2", "n_clients=3.5", "mode=exact", "trace=0,1",
         "sigma=auto", "p=0.1,", "p", "mu=0.5", "gamma=0.1,0.2", "p=0.1,1.5"],
    )
    def test_bad_sweep_key_or_value_is_config_error(self, tmp_path, capsys, spec):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--sweep", spec])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: config:")
        assert not out.exists()

    def test_repeated_config_key_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("p=0.5\n")
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert "key 'p' given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_key_swept_twice_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--sweep", "p=0.1", "--sweep", "p=0.5"])
        assert code == 3
        assert "p is swept twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["mu", "gamma"])
    def test_removed_config_key_is_config_error(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path)
        with open(cfg, "a") as fh:
            fh.write(f"{key}=0.5\n")
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["1,x", "", "1,,2", "1,", "1.5", "0x1"])
    def test_bad_seeds_is_config_error(self, tmp_path, capsys, seeds):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--sweep", "p=0.2",
                     "--seeds", seeds])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: config: --seeds")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep,seeds",
        [("p=0.1,0.10000000001", "0"), ("p=0.2,0.2", "0"), ("n_clients=4,04", "0"),
         ("p=0.2", "0,0"), ("p=0.2,0.3", "1,2,1")],
    )
    def test_duplicate_sweep_point_is_config_error(self, tmp_path, capsys, sweep, seeds):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--sweep", sweep,
                     "--seeds", seeds])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: config:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["unlearn", "certify", "sweep"])
    def test_unverifiable_calibration_fails_before_any_walk(
        self, tmp_path, capsys, monkeypatch, command
    ):
        from walkforget import protocols

        labels, walk = [], protocols._walk

        def counted(cfg, objective, datasets, theta, hops, label, *rest, **kw):
            labels.append(label)
            return walk(cfg, objective, datasets, theta, hops, label, *rest, **kw)

        monkeypatch.setattr(protocols, "_walk", counted)
        cfg = write_cfg(tmp_path, objective="quadratic", sigma=None, cal_constant=0.001)
        out = tmp_path / "o"
        sweep = ["--sweep", "p=0,0.25"] if command == "sweep" else []
        assert main([command, "--config", cfg, "--out", str(out), *sweep]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: calibration: verification failed after 8x escalation")
        assert labels == []
        if command == "sweep":
            assert not out.exists()
        else:
            assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "field,made,read",
        [("dim", 3, 5), ("local_size", 20, 30), ("forget_size", 4, 3),
         # `read` rows flagged in a file other than the unlearning client's
         ("client_03.txt", 0, 1), ("test.txt", 0, 1)],
    )
    def test_data_that_disagrees_with_the_config_fails_before_output(
        self, tmp_path, capsys, field, made, read
    ):
        data, out = tmp_path / "data", tmp_path / "o"
        stray = field.endswith(".txt")
        made_kw, read_kw = ({}, {}) if stray else ({field: made}, {field: read})
        assert main(["gen-data", "--config", write_cfg(tmp_path, **made_kw),
                     "--out", str(data)]) == 0
        if stray:
            rows = (data / field).read_text().splitlines()
            rows[:read] = [row[:-1] + "1" for row in rows[:read]]
            (data / field).write_text("\n".join(rows) + "\n")
        cfg = write_cfg(tmp_path, **read_kw)
        assert main(["train", "--config", cfg, "--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1
        if stray:
            assert f"{field} flags {read} rows; only the unlearning client's" in err
        else:
            assert "client_02.txt" in err and f"not {field}={read}" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, col, value, message", [
        ("client_01.txt", -1, "2", "client_01.txt: example 1 has forget flag '2', not 0 or 1"),
        ("client_02.txt", -1, "yes", "client_02.txt: example 1 has forget flag 'yes'"),
        ("client_03.txt", -2, "0", "client_03.txt has labels other than -1 and +1"),
        ("test.txt", -2, "nan", "test.txt has labels other than -1 and +1"),
    ], ids=["flag-2", "flag-yes", "label-0", "test-label-nan"])
    def test_data_with_a_bad_flag_or_label_fails_before_output(
        self, tmp_path, capsys, name, col, value, message
    ):
        data, out = tmp_path / "data", tmp_path / "o"
        cfg = write_cfg(tmp_path)
        assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
        rows = (data / name).read_text().splitlines()
        cols = rows[0].split()
        cols[col] = value
        rows[0] = " ".join(cols)
        (data / name).write_text("\n".join(rows) + "\n")
        assert main(["train", "--config", cfg, "--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("objective", ["logistic", "quadratic"])
    def test_read_data_has_the_generated_objective(self, tmp_path, objective):
        from walkforget import config_from_file, make_task
        from walkforget.cli import _read_data_dir

        cfg = write_cfg(tmp_path, objective=objective)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
        cfg = config_from_file(cfg)
        read = _read_data_dir(cfg, str(tmp_path / "data")).objective
        made = make_task(cfg).objective
        assert read == made and read.kind == objective  # a quadratic's L is in ==

    def test_init_that_disagrees_with_the_config_fails_before_output(self, tmp_path, capsys):
        import numpy as np

        from walkforget.protocols import save_params

        init, out = tmp_path / "params.bin", tmp_path / "o"
        save_params(np.zeros(3), init)
        cfg = write_cfg(tmp_path, dim=5)
        assert main(["unlearn", "--config", cfg, "--init", str(init), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and f"{init} holds 3 values, not dim=5" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_init_that_is_not_finite_fails_before_output(self, tmp_path, capsys, bad):
        import numpy as np

        from walkforget.protocols import save_params

        init, out = tmp_path / "params.bin", tmp_path / "o"
        save_params(np.array([0.0, bad, 0.0, 0.0]), init)
        cfg = write_cfg(tmp_path)
        assert main(["unlearn", "--config", cfg, "--init", str(init), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: ")
        assert f"{init} holds a value that is not finite" in err
        assert not out.exists()

    def test_sweep_has_no_seed_option(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        args = ["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3"]
        assert main(args) == 2


class TestPipelines:
    def test_gen_data_files(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert files == ["client_01.txt", "client_02.txt", "client_03.txt",
                         "client_04.txt", "test.txt"]

    def test_train_then_unlearn_with_init(self, tmp_path):
        cfg = write_cfg(tmp_path)
        data = tmp_path / "data"
        main(["gen-data", "--config", cfg, "--out", str(data)])
        train_out = tmp_path / "train"
        assert main(["train", "--config", cfg, "--data", str(data), "--out", str(train_out)]) == 0
        unlearn_out = tmp_path / "unlearn"
        code = main([
            "unlearn", "--config", cfg, "--data", str(data),
            "--init", str(train_out / "params.bin"), "--out", str(unlearn_out),
        ])
        assert code == 0
        assert (unlearn_out / "params.bin").exists()
        assert (unlearn_out / "accountant.json").exists()
        assert (unlearn_out / "transcript.txt").exists()

    def test_unlearn_repeat_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["unlearn", "--config", cfg, "--seed", "7", "--out", str(a)]) == 0
        assert main(["unlearn", "--config", cfg, "--seed", "7", "--out", str(b)]) == 0
        assert _dir_bytes(a) == _dir_bytes(b)

    def test_seed_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["unlearn", "--config", cfg, "--seed", "7", "--out", str(a)])
        main(["unlearn", "--config", cfg, "--seed", "8", "--out", str(b)])
        assert _dir_bytes(a) != _dir_bytes(b)

    def test_certify_runs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "params.bin").exists()


class TestSweep:
    def test_resumable_and_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, train_hops=10, unlearn_hops=8, test_size=40)
        out = tmp_path / "sweep"
        args = [
            "sweep", "--config", cfg, "--out", str(out),
            "--sweep", "p=0.0,0.5", "--seeds", "1,2",
        ]
        assert main(args) == 0
        final = (out / "sweep.csv").read_bytes()
        points = sorted(f for f in os.listdir(out) if f.startswith("point_"))
        assert len(points) == 2
        mtimes = {f: os.path.getmtime(out / f) for f in points}
        # second run: existing points are skipped, final CSV identical
        (out / "sweep.csv").unlink()
        assert main(args) == 0
        assert (out / "sweep.csv").read_bytes() == final
        for f in points:
            assert os.path.getmtime(out / f) == mtimes[f]

    def test_numeric_fields_typed_like_config_files(self, tmp_path):
        cfg = write_cfg(tmp_path, train_hops=10, unlearn_hops=8, test_size=40)
        out = tmp_path / "sweep"
        args = [
            "sweep", "--config", cfg, "--out", str(out),
            "--sweep", "n_clients=4,5", "--sweep", "sigma=0.2", "--seeds", "1",
        ]
        assert main(args) == 0
        points = sorted(f for f in os.listdir(out) if f.startswith("point_"))
        assert points == [
            "point_n_clients=4_sigma=0.2.csv", "point_n_clients=5_sigma=0.2.csv",
        ]
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("n_clients,sigma,seed,phase,")
        assert [r.split(",")[0] for r in rows[1:]] == ["4"] * 3 + ["5"] * 3

    def test_interrupted_sweep_resumes(self, tmp_path):
        cfg = write_cfg(tmp_path, train_hops=10, unlearn_hops=8, test_size=40)
        full = tmp_path / "full"
        args_full = [
            "sweep", "--config", cfg, "--out", str(full),
            "--sweep", "p=0.0,0.5", "--seeds", "1",
        ]
        assert main(args_full) == 0
        # simulate an interrupted run that completed only the first point
        part = tmp_path / "part"
        os.makedirs(part)
        first = sorted(f for f in os.listdir(full) if f.startswith("point_"))[0]
        with open(full / first, "rb") as src, open(part / first, "wb") as dst:
            dst.write(src.read())
        args_part = [
            "sweep", "--config", cfg, "--out", str(part),
            "--sweep", "p=0.0,0.5", "--seeds", "1",
        ]
        assert main(args_part) == 0
        assert (part / "sweep.csv").read_bytes() == (full / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("cut", ["error", "kill"])
    def test_cut_point_write_leaves_no_file(self, tmp_path, cut):
        import subprocess
        import sys

        import walkforget

        cfg = write_cfg(tmp_path, train_hops=10, unlearn_hops=8, test_size=40)
        args = ["--config", cfg, "--sweep", "p=0.0,0.5", "--seeds", "1,2"]
        clean = tmp_path / "clean"
        assert main(["sweep", "--out", str(clean), *args]) == 0
        # The second point's write stops after 20 of its 66 cells: by an
        # error the sweep reports, or by the process dying on the spot.
        stop = "raise OSError('disk full')" if cut == "error" else "os._exit(9)"
        script = f"""
import os, sys
from walkforget import evaluation
from walkforget.cli import main
fmt, calls = evaluation._fmt, []
def failing(value):
    calls.append(value)
    if len(calls) == 6 * 11 + 20:
        {stop}
    return fmt(value)
evaluation._fmt = failing
sys.exit(main(sys.argv[1:]))
"""
        cut_dir = tmp_path / "cut"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(walkforget.__file__))}
        done = subprocess.run([sys.executable, "-c", script, "sweep", "--out", str(cut_dir), *args],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == (1 if cut == "error" else 9)
        assert [f for f in os.listdir(cut_dir) if not f.startswith(".")] == ["point_p=0.csv"]
        if cut == "error":
            assert os.listdir(cut_dir) == ["point_p=0.csv"]
        assert main(["sweep", "--out", str(cut_dir), *args]) == 0
        assert _dir_bytes(cut_dir) == _dir_bytes(clean)

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("objective", ["logistic", "quadratic"])
    def test_partial_pass_and_resume_equal_a_full_run(self, tmp_path, objective, trace):
        cfg = write_cfg(tmp_path, train_hops=10, unlearn_hops=8, test_size=40,
                        objective=objective, trace=trace)
        full, part = tmp_path / "full", tmp_path / "part"
        args = ["--config", cfg, "--seeds", "2,1"]
        assert main(["sweep", "--out", str(full), "--sweep", "p=0.0,0.3,0.6", *args]) == 0
        assert main(["sweep", "--out", str(part), "--sweep", "p=0.3", *args]) == 0
        assert main(["sweep", "--out", str(part), "--sweep", "p=0.0,0.3,0.6", *args]) == 0
        assert _dir_bytes(part) == _dir_bytes(full)
