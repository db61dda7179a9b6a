"""Command-line entry point: exit codes and output formats."""

import io
import json
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomin.cli import main
from rhomin.graphs import build_graph, graph6_encode
from rhomin.suites import ALL_SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rho_text(capsys):
    code, out = run(capsys, "rho", "spec:open:ks=2,2;ms=2")
    assert code == 0
    assert "rho" in out


def test_rho_json(capsys):
    code, out = run(capsys, "--format", "json", "rho", "open:ks=0,0;ms=3")
    assert code == 0
    data = json.loads(out)
    lo = Fraction(data["rho"]["lo"])
    hi = Fraction(data["rho"]["hi"])
    # path on four vertices: radius is the golden ratio
    assert float(lo) <= (1 + 5 ** 0.5) / 2 <= float(hi)
    assert data["rho"]["poly"] == ["1", "0", "-3", "0", "1"]


def test_charpoly(capsys):
    code, out = run(capsys, "--format", "json", "charpoly", "open:ks=0,0;ms=2")
    assert code == 0
    data = json.loads(out)
    # path on three vertices: x^3 - 2x, lowest degree first
    assert data["charpoly"] == ["0", "-2", "0", "1"]


def test_classify_roundtrip(capsys):
    code, out = run(capsys, "--format", "json", "classify", "spec:open:ks=1,3,2;ms=1,2")
    assert code == 0
    data = json.loads(out)
    assert data["spec"] == "open:ks=1,3,2;ms=1,2"


def test_classify_cycle(capsys):
    code, out = run(capsys, "--format", "json", "classify", "closed:ks=4;ms=0")
    assert code == 0
    assert json.loads(out)["family"]["kind"] == "closed"


def test_enumerate(capsys):
    code, out = run(capsys, "--format", "json", "enumerate", "--n", "10", "--d", "6")
    assert code == 0
    data = json.loads(out)
    specs = {row["spec"] for row in data["members"]}
    assert "open:ks=1,2,2;ms=1,2" in specs
    assert "open:ks=3,3;ms=3" in specs


# `enumerate` lists open quipus, then closed ones, then the dagger, each
# kind sorted by shape and parameters. At (10, 7), with d = n - 3, every
# kind is present; at (11, 7) the walk's own order differs from the listing
# order among both the open and the closed quipus.
ENUMERATE_LISTINGS = {
    (10, 7): """\
26 members
open:ks=2,2;ms=5
open:ks=2,3;ms=4
open:ks=1,0,1;ms=1,5
open:ks=1,0,1;ms=2,4
open:ks=1,0,1;ms=3,3
open:ks=1,1,1;ms=1,4
open:ks=1,1,1;ms=2,3
open:ks=1,2,1;ms=1,3
open:ks=1,2,1;ms=2,2
open:ks=1,3,1;ms=1,2
open:ks=1,4,1;ms=1,1
closed:ks=0,0,0;ms=1,1,5
closed:ks=0,0,0;ms=1,2,4
closed:ks=0,0,0;ms=1,3,3
closed:ks=0,2;ms=1,5
closed:ks=0,2;ms=2,4
closed:ks=0,2;ms=3,3
closed:ks=0,0,1;ms=1,1,4
closed:ks=0,1,0;ms=1,2,3
closed:ks=4;ms=5
closed:ks=1,2;ms=1,4
closed:ks=1,2;ms=2,3
closed:ks=5;ms=4
closed:ks=2,2;ms=1,3
closed:ks=2,2;ms=2,2
dagger:t=6
""",
    (11, 7): """\
51 members
open:ks=3,3;ms=4
open:ks=1,0,2;ms=1,5
open:ks=1,0,2;ms=2,4
open:ks=1,0,2;ms=3,3
open:ks=1,0,2;ms=4,2
open:ks=1,0,3;ms=1,4
open:ks=1,1,2;ms=1,4
open:ks=1,1,2;ms=2,3
open:ks=1,1,2;ms=3,2
open:ks=1,2,2;ms=1,3
open:ks=1,2,2;ms=2,2
open:ks=1,3,2;ms=1,2
open:ks=1,0,0,1;ms=1,1,4
open:ks=1,0,0,1;ms=2,1,3
open:ks=1,0,1,1;ms=1,1,3
open:ks=1,0,1,1;ms=2,1,2
open:ks=1,0,1,1;ms=3,1,1
open:ks=1,0,2,1;ms=1,1,2
open:ks=1,0,2,1;ms=2,1,1
open:ks=1,1,1,1;ms=1,1,2
open:ks=1,0,3,1;ms=1,1,1
open:ks=1,1,2,1;ms=1,1,1
closed:ks=0,0,0;ms=2,2,4
closed:ks=0,0,0;ms=2,3,3
closed:ks=0,0,1;ms=1,2,4
closed:ks=0,0,1;ms=1,3,3
closed:ks=0,0,1;ms=1,4,2
closed:ks=0,0,1;ms=1,5,1
closed:ks=0,0,1;ms=2,2,3
closed:ks=0,0,0,0;ms=1,1,1,4
closed:ks=0,0,0,0;ms=1,2,1,3
closed:ks=0,3;ms=1,5
closed:ks=0,3;ms=2,4
closed:ks=0,3;ms=3,3
closed:ks=0,0,2;ms=1,1,4
closed:ks=0,1,1;ms=1,1,4
closed:ks=0,1,1;ms=1,2,3
closed:ks=0,1,1;ms=1,3,2
closed:ks=0,1,1;ms=1,4,1
closed:ks=0,2,0;ms=1,2,3
closed:ks=0,4;ms=1,4
closed:ks=1,3;ms=1,4
closed:ks=1,3;ms=2,3
closed:ks=0,1,2;ms=1,1,3
closed:ks=0,2,1;ms=1,2,2
closed:ks=0,2,1;ms=1,3,1
closed:ks=6;ms=4
closed:ks=2,3;ms=1,3
closed:ks=2,3;ms=2,2
closed:ks=7;ms=3
closed:ks=3,3;ms=1,2
""",
}


@pytest.mark.parametrize("n,d", sorted(ENUMERATE_LISTINGS))
def test_enumerate_listing_order(capsys, n, d):
    code, out = run(capsys, "enumerate", "--n", str(n), "--d", str(d))
    assert code == 0
    assert out == ENUMERATE_LISTINGS[n, d]


def test_compare(capsys):
    code, out = run(capsys, "compare", "open:ks=0,0;ms=4", "open:ks=0,0;ms=5")
    assert code == 0
    assert "Less" in out


def test_minimize_quipu(capsys):
    code, out = run(
        capsys, "--format", "json", "minimize", "--n", "10", "--d", "6",
        "--space", "quipu",
    )
    assert code == 0
    data = json.loads(out)
    assert data["sound"] is True
    assert len(data["winners"]) == 2


def test_verify_theorem(capsys):
    code, out = run(capsys, "--format", "json", "verify-theorem", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["results"][0]["winners"] == 2


def test_verify_theorem_csv(capsys):
    code, out = run(capsys, "--format", "csv", "verify-theorem", "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,n,d,winners,rho_lo,rho_hi,passed"
    assert lines[1].startswith("3,10,6,2,")


@pytest.mark.parametrize("k", ["-5", "0", "1"])
@pytest.mark.parametrize("all_up_to", [False, True])
def test_verify_theorem_rejects_k_below_2(capsys, k, all_up_to):
    # with --all-up-to an empty range of k must not pass vacuously
    argv = ["--format", "json", "verify-theorem", "--k", k] + ["--all-up-to"] * all_up_to
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_verify_lemmas_named_suite(capsys):
    code, out = run(capsys, "--format", "json", "verify-lemmas", "--suite",
                    "equal-radius-family")
    assert code == 0
    data = json.loads(out)
    assert data["suites"][0]["passed"] is True


def test_bad_spec_exits_2(capsys):
    code, _ = run(capsys, "rho", "open:ks=1;ms=1,2")
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing required --n/--d
    assert exc.value.code == 2


def test_failing_verification_exits_1(capsys):
    # Impossible (n, d) pair for the quipu space: no quipu of order 4 has
    # diameter 1, so minimize reports no winners and the command signals it.
    code, _ = run(capsys, "minimize", "--n", "4", "--d", "1", "--space", "quipu")
    assert code == 1


def _checkout_env():
    """The environment that imports rhomin from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def run_subprocess(*argv):
    """`python -m rhomin.cli argv...` on this checkout, killed after 10 s."""
    return subprocess.run(
        [sys.executable, "-m", "rhomin.cli", *argv],
        capture_output=True, text=True, timeout=10, env=_checkout_env(),
    )


@pytest.mark.parametrize("tol", ["-1", "0", "1/0", "x"])
def test_bad_tolerance_exits_2_promptly(tol):
    proc = run_subprocess("--tolerance", tol, "rho", "open:ks=1,1;ms=1")
    assert proc.returncode == 2
    assert "tolerance" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["rho", "open:ks=0,0;ms=250"],
    ["charpoly", "open:ks=0,0;ms=1100"],
    ["compare", "open:ks=1,1;ms=1", "closed:ks=1,1,1;ms=80,80,80"],
    ["enumerate", "--n", "70", "--d", "40"],
    ["minimize", "--n", "70", "--d", "46"],
    ["verify-theorem", "--k", "21"],  # n = 3k + 1 = 64
    ["verify-theorem", "--k", "21", "--all-up-to"],
])
def test_graph_beyond_graph6_exits_2_promptly(argv):
    # every command echoes its graphs in graph6, which stops at n = 62, so
    # the order is refused before any search, root or polynomial is computed
    proc = run_subprocess(*argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: only n <= 62 supported\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("literal", [
    "open:ks=1,1;ms=1;foo=bar",
    "open:ks=1,1;ms=1;ms=5",
    "closed:ks=3;ks=3;ms=1",
    "dagger:t=2;t=3",
])
def test_unknown_or_repeated_spec_key_exits_2(literal):
    proc = run_subprocess("classify", literal)
    assert proc.returncode == 2
    assert proc.stderr == f"error: malformed spec literal: {literal!r}\n"
    assert proc.stdout == ""


def test_closed_stdout_exits_2_quietly():
    # a reader that stops early, as `rhomin ... | head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "rhomin.cli", "compare", "open:ks=0,0;ms=4", "open:ks=0,0;ms=5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_checkout_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err


# ---------------------------------------------------------------------------
# every command ends, with an exit code and no traceback, on random inputs

DEADLINE_S = 30


def run_bounded(argv):
    """(exit code, stdout, stderr) of main(argv), in this process, failing
    with TimeoutError once it runs past DEADLINE_S."""
    def expire(signum, frame):
        raise TimeoutError(f"{argv} ran past {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


_small = st.integers(-1, 6)


@st.composite
def _graph_tokens(draw):
    """A graph argument: graph6 of a random graph on at most 8 vertices,
    connected or not, a spec literal whose parameters may be invalid, or
    junk."""
    kind = draw(st.sampled_from(["graph6", "open", "closed", "dagger", "junk"]))
    if kind == "graph6":
        n = draw(st.integers(0, 8))
        edges = draw(st.sets(st.sampled_from(list(combinations(range(n), 2))))) if n > 1 else set()
        return graph6_encode(build_graph(n, edges))
    if kind == "dagger":
        return f"dagger:t={draw(_small)}"
    if kind == "junk":
        return draw(st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=12))
    ks = ",".join(map(str, draw(st.lists(_small, min_size=0, max_size=4))))
    ms = ",".join(map(str, draw(st.lists(_small, min_size=0, max_size=4))))
    return draw(st.sampled_from(["", "spec:"])) + f"{kind}:ks={ks};ms={ms}"


@st.composite
def _argvs(draw):
    """A command line of any command, with random global options."""
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    if draw(st.booleans()):
        argv += ["--tolerance", draw(st.sampled_from(["1/1000", "1e-20", "2", "0", "-1", "x"]))]
    command = draw(st.sampled_from(["rho", "charpoly", "classify", "compare", "enumerate",
                                    "minimize", "verify-theorem", "verify-lemmas"]))
    argv.append(command)
    if command in ("rho", "charpoly", "classify"):
        argv.append(draw(_graph_tokens()))
    elif command == "compare":
        argv += [draw(_graph_tokens()), draw(_graph_tokens())]
    elif command == "enumerate":
        n = draw(st.integers(-1, 12))
        argv += ["--n", str(n), "--d", str(draw(st.integers(-1, n + 2)))]
        if draw(st.booleans()):
            argv += ["--kinds", ",".join(draw(st.sets(
                st.sampled_from(["open", "closed", "dagger"]), min_size=1)))]
    elif command == "minimize":
        space = draw(st.sampled_from(["all", "sparse", "quipu"]))
        n = draw(st.integers(-1, {"all": 6, "sparse": 11, "quipu": 16}[space]))
        argv += ["--n", str(n), "--d", str(draw(st.integers(-1, n + 2))), "--space", space]
    elif command == "verify-theorem":
        argv += ["--k", str(draw(st.integers(-1, 4)))] + ["--all-up-to"] * draw(st.booleans())
    elif draw(st.booleans()):
        argv += ["--suite", draw(st.sampled_from(sorted(ALL_SUITES)))]
    return argv


@settings(max_examples=60, deadline=None)
@given(_argvs())
def test_every_command_ends_with_an_exit_code_and_no_traceback(argv):
    code, _, err = run_bounded(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
