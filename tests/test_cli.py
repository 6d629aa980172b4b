import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import lrckit
from lrckit.cli import main

# the CLI child imports the same lrckit sources as the tests, installed or not
SRC = str(Path(lrckit.__file__).resolve().parent.parent)


def run_cli(*args, input_text=None, env=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lrckit.cli", *args],
        capture_output=True,
        text=True,
        input=input_text,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )
    return proc


class OverBudget(BaseException):
    """Raised by ``time_budget``; a BaseException, so no ``except
    Exception`` (or ``except OSError``) in the code under test absorbs it."""


@contextlib.contextmanager
def time_budget(seconds: int):
    """Fail the enclosed in-process call, instead of hanging the suite, when
    it runs longer than ``seconds``: SIGALRM, so the main thread only."""
    def expire(signum, frame):
        raise OverBudget(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_bounds_singleton():
    proc = run_cli("bounds", "singleton", "--n", "24", "--k", "14", "--r", "2", "--delta", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"singleton": 5}


def test_designs_pipe():
    gen = run_cli("designs", "gen", "--family", "pg", "--q1", "2", "--beta", "2")
    assert gen.returncode == 0
    ver = run_cli("designs", "verify", input_text=gen.stdout)
    assert ver.returncode == 0
    rep = json.loads(ver.stdout)
    assert rep["is_steiner"] and rep["johnson_bound"] == 7


def test_usage_error_exit_code():
    proc = run_cli("bounds", "singleton", "--n", "24")
    assert proc.returncode == 2
    proc = run_cli("designs", "gen", "--family", "cyclotomic", "--prime-powers", "7", "--e", "4")
    assert proc.returncode == 2  # divisibility violated


SINGLETON = ("bounds", "singleton", "--n", "24", "--k", "14", "--r", "2", "--delta", "2")


@pytest.mark.parametrize(
    "args, env",
    [
        (("--workers", "0", *SINGLETON), None),
        (("--workers", "-3", *SINGLETON), None),
        (("--workers", "two", *SINGLETON), None),
        (SINGLETON, {"LRCKIT_WORKERS": "two"}),
        (SINGLETON, {"LRCKIT_WORKERS": "0"}),
    ],
)
def test_bad_worker_count_is_a_usage_error(args, env):
    proc = run_cli(*args, env=env)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--workers" in errors[0]
    assert "Traceback" not in proc.stderr


LENGTH = ("bounds", "length", "--r", "2", "--delta", "2", "--h", "3", "--a", "0")
CLASSIFY = ("bounds", "classify", "--n", "24", "--k", "14", "--d", "5", "--r", "2",
            "--delta", "2")
PARAMS = ("gsd", "params", "--delta", "3", "--v", "1")
EX1_CHECK = ("gsd", "check", "--layout", "{ex1_layout}", "--construction", "basic")
GOPPA_F16 = ("--p", "2", "--m", "4", "--g2", "8,1", "--sets", "1,2,3;4,5,6")


# ag13's layout with one key changed
BAD_POINTS = {
    "{str_points}": lambda d: {"sets": [["a", "b", "c"], *d["sets"][1:]]},
    "{list_point}": lambda d: {"sets": [[0, 1, [2]], *d["sets"][1:]]},
    "{float_s_point}": lambda d: {"s_points": [12.5, 11, 10, 9]},
    "{float_point}": lambda d: {"sets": [[0.0, 1, 2], *d["sets"][1:]]},
    "{float_tail}": lambda d: {"truncated_tail": [7.5]},
}


def decode_args(layout, n, first):
    """``erasure decode`` of the word (first, 0, ..., 0) of length n, with
    no erasures."""
    word = ",".join([first] + ["0"] * (n - 1))
    return ("erasure", "decode", "--layout", layout, "--pattern", "{no_erasures}",
            f"--word={word}")


@pytest.mark.parametrize(
    "args",
    [
        ("erasure", "distance", "--check", "/nonexistent/H.txt"),
        ("erasure", "distance", "--check", "{bad_matrix}"),
        ("designs", "verify", "--in", "{bad_design}"),
        ("lrc", "verify", "--layout", "{not_json}"),
        ("erasure", "check", "--layout", "{not_json}", "--pattern", "{not_json}"),
        ("gsd", "build", "--layout", "{no_keys}", "--construction", "basic"),
        ("erasure", "check", "--layout", "{ex1_layout}", "--pattern", "{a_list}"),
        ("erasure", "check", "--layout", "{ex1_layout}", "--pattern", "{string_key}"),
        ("erasure", "check", "--layout", "{ex1_layout}", "--pattern", "{far_key}"),
        ("erasure", "check", "--layout", "{ex1_layout}", "--pattern", "{long_list}"),
        ("designs", "gen", "--family", "ag", "--q1", "3"),
        ("designs", "gen", "--family", "cyclotomic", "--e", "4"),
        ("gsd", "params", "--family", "pg", "--q1", "8", "--delta", "3", "--v", "1"),
        ("lrc", "construct", "--p", "13", "--family", "ag", "--q1", "3", "--beta", "2"),
        ("goppa", "build", "--g1", "0,1", "--sets", "2,3"),
        ("goppa", "build", "--p", "2", "--m", "4", "--g1", "0,x", "--sets", "2,3"),
        ("goppa", "build", *GOPPA_F16, "--g1", "20,1"),
        ("goppa", "check", *GOPPA_F16, "--g1", "7,1", "--tail", "99", "--t", "1"),
        ("goppa", "build", "--p", "11", "--g1", "7,1", "--g2", "8,1", "--sets", "1,2,30;4,5,6"),
        ("goppa", "build", "--p", "11", "--g1", "20,1", "--g2", "8,1", "--sets", "1,2,3;4,5,6"),
        (*LENGTH, "--q", "1"),
        (*LENGTH, "--q", "6"),
        (*CLASSIFY, "--q", "6"),
        ("erasure", "distance", "--check", "{parity_matrix}", "--d-max", "0"),
        ("erasure", "distance", "--check", "{parity_matrix}", "--d-max", "-3"),
        decode_args("{ex1_layout}", 24, "11"),
        decode_args("{ex1_layout}", 24, "-1"),
        decode_args("{f16_layout}", 40, "16"),
        decode_args("{f16_layout}", 40, "-1"),
        (*EX1_CHECK, "--y", "-1", "--gamma", "0"),
        (*EX1_CHECK, "--y", "1", "--gamma", "-1"),
        (*EX1_CHECK, "--y", "1", "--gamma", "22"),
        (*EX1_CHECK, "--y", "1", "--gamma", "22", "--mode", "sampled"),
        (*LENGTH, "--q", "11", "--r", "0"),
        (*LENGTH, "--q", "11", "--delta", "0"),
        (*CLASSIFY, "--q", "11", "--delta", "0"),
        (*PARAMS, "--family", "ag", "--q1", "1", "--beta", "2"),
        (*PARAMS, "--family", "pg", "--q1", "1", "--beta", "2"),
        (*PARAMS, "--family", "sg", "--q1", "1", "--beta", "2"),
        (*PARAMS, "--family", "ag", "--q1", "6", "--beta", "2"),
        (*PARAMS, "--family", "ag", "--q1", "0", "--beta", "2"),
        (*PARAMS, "--family", "ag", "--q1", "3", "--beta", "0"),
        (*PARAMS, "--family", "regularpacking", "--prime-powers", "7", "--e", "1"),
        (*PARAMS, "--family", "regularpacking", "--prime-powers", "7", "--e", "-3"),
        (*PARAMS, "--family", "regularpacking", "--prime-powers", "6", "--e", "5"),
        ("bounds", "singleton", "--n", "24", "--k", "14", "--r", "2", "--delta", "0"),
        ("bounds", "classify", "--n", "24", "--k", "14", "--d", "5", "--r", "2", "--delta", "0",
         "--q", "11", "--h", "1"),
        ("gsd", "params", "--family", "ag", "--q1", "3", "--beta", "2", "--delta", "0",
         "--v", "1"),
        # refused before the work starts: fields of 2^30 and 2^28 elements
        # (above MAX_FIELD), and a q_min of 286 digits (beyond PRIME_LIMIT)
        ("goppa", "build", "--p", "2", "--m", "30", "--g1", "1,1", "--g2", "1,0,1",
         "--sets", "1,2,3", "--t", "1"),
        ("designs", "gen", "--family", "sg", "--q1", "16", "--beta", "7"),
        ("gsd", "params", "--family", "sg", "--q1", "13", "--beta", "256", "--delta", "7",
         "--v", "256"),
        # refused before the work starts: a delta that leaves r < 1, a
        # q1^beta of 160 million bits, and 32,768 claims of item III
        ("gsd", "params", "--family", "ag", "--q1", "3", "--beta", "2", "--delta", "100000",
         "--v", "1"),
        ("gsd", "params", "--family", "ag", "--q1", "3", "--beta", "100000000", "--delta", "3",
         "--v", "1"),
        ("gsd", "params", "--family", "ag", "--q1", "65537", "--beta", "2", "--delta", "60000",
         "--v", "1"),
        # refused before the work starts: designs whose constructions take
        # more than MAX_DESIGN steps
        ("designs", "gen", "--family", "ag", "--q1", "25", "--beta", "16"),
        ("designs", "gen", "--family", "pg", "--q1", "13", "--beta", "8"),
        ("designs", "gen", "--family", "sg", "--q1", "4", "--beta", "8"),
        # a distance outside [1, n], n = 24
        (*EX1_CHECK, "--y", "0", "--gamma", "1", "--d", "0"),
        (*EX1_CHECK, "--y", "0", "--gamma", "1", "--d", "-5"),
        (*EX1_CHECK, "--y", "0", "--gamma", "1", "--d", "25"),
        # a distance beyond n: refused before the per-offset bounds, whose
        # count grows with d
        ("bounds", "classify", "--n", "10", "--k", "5", "--d", "100000", "--r", "2",
         "--delta", "2", "--q", "13"),
        # ag13 layouts with an evaluation point that is not an int in [0, 13)
        *(cmd for name in BAD_POINTS for cmd in (
            ("erasure", "check", "--layout", name, "--pattern", "{no_erasures}"),
            decode_args(name, 40, "0"))),
    ],
)
def test_bad_invocations_are_usage_errors(tmp_path, capsys, example1_layout, args):
    from lrckit import fixtures, serial
    from test_codec import _f16_layout

    ag13 = serial.layout_to_dict(fixtures.ag13_layout())
    files = {"{not_json}": "{not json", "{no_keys}": "{}", "{a_list}": "[]",
             "{ex1_layout}": serial.dumps(serial.layout_to_dict(example1_layout)),
             "{f16_layout}": serial.dumps(serial.layout_to_dict(_f16_layout())),
             **{name: serial.dumps({**ag13, **change(ag13)}) for name, change in BAD_POINTS.items()},
             "{no_erasures}": "{}",
             "{string_key}": '{"sets": {"0": [5]}}', "{far_key}": '{"sets": {"9": [5]}}',
             "{long_list}": '{"sets": [[], [], [], [], [], [], [], []]}',
             "{bad_matrix}": "11 2 2\n1 x\n3 4\n", "{parity_matrix}": "2 1 3\n1 1 1\n",
             "{bad_design}": "3 2 a\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in args]
    with time_budget(10):
        assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_family_params_near_the_primality_limit(capsys):
    """q_min = 2^80 - 255, below the limit of exact primality: the next
    prime power is found by a few dozen Miller-Rabin tests, not by trial
    division up to 10^12."""
    with time_budget(10):
        assert main(["gsd", "params", "--family", "pg", "--q1", "2", "--beta", "79",
                     "--delta", "2", "--v", "256"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["q_min"] == 2**80 - 255
    assert rep["q_min_prime_power"] == 2**80 - 255 + 112


def test_classify_at_a_large_distance(capsys):
    """d = 1600 gives length bounds whose integer roots have v in the
    hundreds: each root starts from a float estimate and takes a few Newton
    steps, not about 0.7 v of them (``algebra.iroot``)."""
    with time_budget(10):
        assert main(["bounds", "classify", "--n", "100000", "--k", "5", "--d", "1600",
                     "--r", "2", "--delta", "2", "--q", "13"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert (rep["singleton"], rep["optimal"]) == (99994, False)
    assert rep["length_bound"]["h"] == 1598


@pytest.mark.parametrize(
    "args",
    [
        ("gsd", "check", "--layout", "{layout}", "--construction", "basic", "--y", "1",
         "--gamma", "1", "--mode", "sampled", "--count", "0"),
        ("gsd", "check", "--layout", "{layout}", "--construction", "basic", "--y", "1",
         "--gamma", "1", "--mode", "sampled", "--count", "-5"),
        ("fixtures", "run", "example3", "--count", "0"),
    ],
)
def test_bad_count_is_a_usage_error(tmp_path, example1_layout, args):
    from lrckit import serial

    layout_file = tmp_path / "layout.json"
    layout_file.write_text(serial.dumps(serial.layout_to_dict(example1_layout)))
    proc = run_cli(*(str(layout_file) if a == "{layout}" else a for a in args))
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--count" in errors[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("limit", ["-1", "0"])
def test_bad_exhaustive_limit_is_a_usage_error(tmp_path, example1_layout, limit):
    from lrckit import serial

    layout_file = tmp_path / "layout.json"
    layout_file.write_text(serial.dumps(serial.layout_to_dict(example1_layout)))
    proc = run_cli("gsd", "check", "--layout", str(layout_file), "--construction", "basic",
                   "--y", "1", "--gamma", "1", "--exhaustive-limit", limit)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--exhaustive-limit" in errors[0]
    assert "Traceback" not in proc.stderr


def test_goppa_check_negative_t_is_a_usage_error():
    proc = run_cli("goppa", "check", "--p", "2", "--m", "4", "--g1", "7,1", "--g2", "0,0,1",
                   "--sets", "1,2,3;4,5,6", "--t", "-2")
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_reports_are_byte_identical():
    args = (
        "gsd", "params", "--family", "pg", "--q1", "8", "--beta", "2",
        "--delta", "3", "--v", "1",
    )
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_lrc_construct_verify_and_gsd(tmp_path):
    layout_file = tmp_path / "layout.json"
    check_file = tmp_path / "H.txt"
    proc = run_cli(
        "lrc", "construct", "--p", "13", "--r", "2", "--delta", "2", "--ell", "11",
        "--v", "2", "--h", "4", "--family", "ag", "--q1", "3", "--beta", "2",
        "--out", str(layout_file), "--check-out", str(check_file),
    )
    assert proc.returncode == 0
    blob = json.loads(layout_file.read_text())
    assert len(blob["sets"]) == 12 and blob["s_points"] == [12, 11, 10, 9]

    ver = run_cli("lrc", "verify", "--layout", str(layout_file))
    assert ver.returncode == 0
    rep = json.loads(ver.stdout)
    assert rep["locality_ok"] and rep["k"] == 24 and rep["singleton"] == 6

    dist = run_cli("erasure", "distance", "--check", str(check_file), "--d-max", "6")
    assert dist.returncode == 0
    assert json.loads(dist.stdout)["distance"] == 6

    arr = run_cli("gsd", "build", "--layout", str(layout_file), "--construction", "basic")
    assert arr.returncode == 0
    blob = json.loads(arr.stdout)
    assert blob["rows"] == 4 and blob["cols"] == 10

    chk = run_cli(
        "gsd", "check", "--layout", str(layout_file), "--construction", "basic",
        "--y", "1", "--gamma", "1", "--mode", "sampled", "--count", "50",
        "--seed", "5", "--columns", "data", "--d", "6",
    )
    assert chk.returncode == 0
    rep = json.loads(chk.stdout)
    assert rep["all_recoverable"] and rep["seed"] == 5


def test_erasure_check_and_decode(tmp_path, example1_layout):
    from lrckit import serial
    from lrckit.lrc import encode

    layout_file = tmp_path / "layout.json"
    layout_file.write_text(serial.dumps(serial.layout_to_dict(example1_layout)))
    pattern_file = tmp_path / "pattern.json"
    pattern_file.write_text(
        serial.dumps({"sets": [list(example1_layout.sets[0])], "globals": [10]})
    )
    chk = run_cli("erasure", "check", "--layout", str(layout_file), "--pattern", str(pattern_file))
    assert chk.returncode == 0
    assert json.loads(chk.stdout)["admissible"]

    word = encode(example1_layout, [i % 11 for i in range(14)])  # symbols of F_11
    dec = run_cli(
        "erasure", "decode", "--layout", str(layout_file), "--pattern", str(pattern_file),
        "--word", ",".join(str(x) for x in word),
    )
    assert dec.returncode == 0
    rep = json.loads(dec.stdout)
    assert rep["agree"] and rep["matches_input"]


def test_goppa_cli():
    proc = run_cli(
        "goppa", "check", "--p", "2", "--m", "4", "--g1", "0,1",
        "--g2", "10,11,1", "--sets", "2,3,4;5,6,7", "--tail", "8,9", "--t", "1",
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["optimality"]["optimal"]


def test_fixtures_run_example1():
    proc = run_cli("fixtures", "run", "example1")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["pass"] and rep["distance_published"] == 5


def test_main_function_direct(capsys):
    assert main(["bounds", "length", "--q", "11", "--r", "2", "--delta", "2", "--h", "3", "--a", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["floor"] == 198
