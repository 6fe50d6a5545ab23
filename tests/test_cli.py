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
         "sigma=auto", "p=0.1,", "p"],
    )
    def test_bad_sweep_key_or_value_is_config_error(self, tmp_path, capsys, spec):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--sweep", spec])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: config:")
        assert not [f for f in os.listdir(out) if f.startswith("point_")]

    @pytest.mark.parametrize("seeds", ["1,x", "", "1,,2", "1,", "1.5", "0x1"])
    def test_bad_seeds_is_config_error(self, tmp_path, capsys, seeds):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--sweep", "p=0.2",
                     "--seeds", seeds])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: config: --seeds")
        assert not [f for f in os.listdir(out) if f.startswith("point_")]

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
        assert os.listdir(out) == []

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
