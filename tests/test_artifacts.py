"""Every file walkforget writes: pinned bytes, whole-or-nothing writes, one writer."""

import ast
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

import walkforget
from walkforget import (
    CorrectionMode,
    ModelState,
    RunConfig,
    RunResult,
    Transcript,
    config_to_text,
    save_result,
)
from walkforget import objectives
from walkforget.cli import main

TINY = dict(
    n_clients=3, dim=3, train_hops=12, unlearn_hops=9, p=0.3, s=2, eta=0.3,
    sigma=0.2, grad_bound=1.0, unlearn_client=2, mode=CorrectionMode.LIGHTWEIGHT,
    seed=5, domain="ball", domain_radius=8.0, trust_radius=2.0, objective="logistic",
    local_size=8, forget_size=2, batch_size=3, test_size=6, trace=True,
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_artifacts(tmp_path, capsys) -> dict:
    """sha256 of every file the CLI writes on a tiny config, and of the calculators' stdout."""
    logistic, quadratic = tmp_path / "logistic.cfg", tmp_path / "quadratic.cfg"
    logistic.write_text(config_to_text(RunConfig(**TINY)))
    quadratic.write_text(config_to_text(RunConfig(**{
        **TINY, "objective": "quadratic", "mode": CorrectionMode.EXACT})))
    out = tmp_path / "out"
    runs = [
        ("gen-data", ["gen-data", "--config", str(logistic)]),
        ("train", ["train", "--config", str(logistic)]),
        ("train-data", ["train", "--config", str(logistic), "--data", str(out / "gen-data")]),
        ("unlearn", ["unlearn", "--config", str(logistic)]),
        ("unlearn-quadratic", ["unlearn", "--config", str(quadratic)]),
        ("certify", ["certify", "--config", str(logistic)]),
    ]
    for name, argv in runs:
        assert main([*argv, "--out", str(out / name)]) == 0
    sweep = ["sweep", "--config", str(logistic), "--out", str(out / "sweep"),
             "--seeds", "1,2"]
    assert main([*sweep, "--sweep", "p=0.5"]) == 0
    assert main([*sweep, "--sweep", "p=0.0,0.5"]) == 0
    assert main(["capacity", "--mode", "restart", "--gammas", "0.05,0.2",
                 "--csv", str(out / "capacity.csv")]) == 0
    capsys.readouterr()
    calculators = [
        ["capacity", "--mode", "ddp"],
        ["capacity", "--mode", "restart", "--gamma", "0.3", "--nonbias", "0.1"],
        ["calibrate", "--mode", "ddp", "--eps", "1", "--delta", "1e-5", "--l", "1",
         "--edit", "2"],
        ["calibrate", "--mode", "restart", "--eps", "1", "--delta", "1e-5", "--l", "1"],
    ]
    stdout = []
    for argv in calculators:
        assert main(argv) == 0
        stdout.append(capsys.readouterr().out)
    digests = {
        str(path.relative_to(out)): _sha(path.read_bytes())
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    digests["stdout"] = _sha("".join(stdout).encode())
    return digests


# A change to any of these digests is a change to an artifact's bytes.
PINNED = {
    "capacity.csv": "a6b28adfc3603baf2304dcc3d982d25bb2a0915f65b43d676b1fd2410569a500",
    "certify/accountant.json": "68a2987a55ffce19ecf71782fc6a6864c185a3991a8492c8f3d4dc7cb2496e9d",
    "certify/params.bin": "a6b14eb39ca52c6f4507c2fa4f24c6066dededdafda949987512a1cbc82064d4",
    "certify/trace.csv": "729d0c065eea16a0a15ef7720994b30acea9e379ebbc6f839d58a7b0b4399561",
    "certify/transcript.txt": "ce1960f175affeb907a5137cc59e07de850e389a38d75d8d9cc566268f0d8f81",
    "gen-data/client_01.txt": "9310d2d900bfd9e7fab1bde094a460193f2a45c35512fafdad692970bdd0aadf",
    "gen-data/client_02.txt": "ac443c6e2fdcc5768b6d2412ceae61f7feea0ad9bf578481f48f4a3fe8785b90",
    "gen-data/client_03.txt": "03921deea4747745c075fafabfaa2b55c509ddc0bd04e2a46c3390055a9824a8",
    "gen-data/test.txt": "dc0d5be340b90531d5aa134a15251ec1edbbd28ec275857bc94a5aa2f4107276",
    "sweep/point_p=0.5.csv": "84975cc5bc885da9ff9b6c43439c43d4616e6a4eb294e226d6b893c839d95bf7",
    "sweep/point_p=0.csv": "74248791e3e9ab987a0576ab52d8eb6368f2db3c4c510b20be3f804d28f8545e",
    "sweep/sweep.csv": "02d22eac07fe63637b9bfcad393961db06485d84977d3ea13d9d62f47dc29b3b",
    "train/params.bin": "b37b88ac06db89cd7c117a8c83ab49012c4d1847de41c5c15996b0c80cdaebc8",
    "train/trace.csv": "4d91aab021d23d569810cbcb31ec2e1a3504ecad36a5a874b4dd0b5e7bd09ada",
    "train/transcript.txt": "82f229a09892192920b478d1706b1bd727efcd90d2c483fd44052e60720a4895",
    "train-data/params.bin": "b37b88ac06db89cd7c117a8c83ab49012c4d1847de41c5c15996b0c80cdaebc8",
    "train-data/trace.csv": "4d91aab021d23d569810cbcb31ec2e1a3504ecad36a5a874b4dd0b5e7bd09ada",
    "train-data/transcript.txt": "82f229a09892192920b478d1706b1bd727efcd90d2c483fd44052e60720a4895",
    "unlearn/accountant.json": "68a2987a55ffce19ecf71782fc6a6864c185a3991a8492c8f3d4dc7cb2496e9d",
    "unlearn/params.bin": "6635bd08588f843d4d9ef9a505670f7e1c50a0425ac79607943fc469613ae1ee",
    "unlearn/pre_params.bin": "b37b88ac06db89cd7c117a8c83ab49012c4d1847de41c5c15996b0c80cdaebc8",
    "unlearn/trace.csv": "f991f8f5dd4a3b328a3da5492cfa788182f189aff99e3d64d6282ad00e991f9c",
    "unlearn/transcript.txt": "16d06a3e312f525071d0de8c544ed1712dbef34cfc2da572e2fe5fd3740354b1",
    "unlearn-quadratic/accountant.json": "68a2987a55ffce19ecf71782fc6a6864c185a3991a8492c8f3d4dc7cb2496e9d",
    "unlearn-quadratic/params.bin": "fa622c39f6fcb372ea2ad92e2bbc135ad0fd4aa0e28efa812d891383d911559e",
    "unlearn-quadratic/pre_params.bin": "411ffe7dd764414c1419c2718d5202498b5cacb67647046f624a4bbdd48b18c0",
    "unlearn-quadratic/trace.csv": "1dc2dc2c32b7a35abd5e7e0f7b77d331e21212ab6953596c79843d386288366b",
    "unlearn-quadratic/transcript.txt": "11c8a906e07cdedbf08118b3ed10c5788b38d581ccfccf3b440625f94b5fc462",
    "stdout": "10afa72231351bf0fbdfdf2c8091d3b17b875e74219febee0d6b902e895f478d",
}


def test_cli_artifacts_keep_their_bytes(tmp_path, capsys):
    digests = _cli_artifacts(tmp_path, capsys)
    assert digests == PINNED
    assert list((tmp_path / "out").rglob(".*")) == []


def test_split_loss_panels_keep_the_artifact_bytes(tmp_path, capsys, monkeypatch):
    # every traced walk's panel splits each block of two clients or more
    monkeypatch.setattr(objectives, "_SPLIT_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    splits = []
    start = objectives._Helper.start

    def counted(helper, *args):
        splits.append(1)
        start(helper, *args)

    monkeypatch.setattr(objectives._Helper, "start", counted)
    assert _cli_artifacts(tmp_path, capsys) == PINNED
    assert splits


def test_failed_write_leaves_no_partial_file(tmp_path):
    # the second trace row fails to format after the first is done
    transcript = Transcript((1,), (2,), 2, ["00"])
    good = (1, 2, 0.5, 0.25, 1.0, True)
    bad = (2, 1, "not a float", 0.25, 1.0, False)
    result = RunResult(ModelState(np.ones(2)), transcript, trace=(good, bad))
    with pytest.raises(ValueError):
        save_result(result, tmp_path / "run")
    left = sorted(os.listdir(tmp_path / "run"))
    assert "trace.csv" not in left and ".trace.csv.tmp" not in left
    assert left == ["params.bin", "transcript.txt"]


_WRITE_MODES = set("wax+")


def _open_mode(call: ast.Call):
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def test_every_file_write_goes_through_the_one_writer():
    package = Path(walkforget.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writer = set()
        if path.name == "core.py":
            func = next((n for n in tree.body
                         if isinstance(n, ast.FunctionDef) and n.name == "_write_file"), None)
            writer = {id(n) for n in ast.walk(func)} if func else set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = _open_mode(node)
            writes = mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not _WRITE_MODES & set(mode.value)
            )
            if writes and id(node) not in writer:
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
