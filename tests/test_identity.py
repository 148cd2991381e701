"""Every command's output files against committed copies, byte for byte.

The commands run in-process on a fixed 20 x 15 synthetic grid, and on CSV
files written from it.  The wall-clock ``seconds`` column of sweep and
online results is dropped before the comparison; every other byte must
match ``tests/data/identity/``.  A change that means to move these outputs
regenerates the files with

    PYTHONPATH=src python tests/test_identity.py

and says so.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from kronmc.bench import METHODS
from kronmc.cli import main

DATA = Path(__file__).resolve().parent / "data" / "identity"
GRID = "synth = 1\nn = 20\nl = 15\ngraph_p = 0.2\n"
RUN = ("ps = 20,40\nrealizations = 2\nmu = 1e-3,1e-1\nrank = 3\ndim = 30\n"
       "epochs = 5\nsnr = 4\n")
COMMITTED = sorted(p.name for p in DATA.glob("*"))
# the flags that take a run to a single grid point
ONE_POINT = ("--ps", "40", "--mu", "1e-2", "--eta", "1")


def _drop_seconds(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("seconds")
    path.write_text("".join(",".join(row[:col] + row[col + 1:]) + "\n" for row in rows))


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([str(a) for a in argv])
    if status != 0:
        raise AssertionError(f"kronmc {' '.join(map(str, argv))} exited with {status}")


def write_outputs(out):
    """Run every command and write its output files, without the
    ``seconds`` columns, into the directory ``out``."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        synth, grid, files = work / "synth.cfg", work / "grid.cfg", work / "files.cfg"
        synth.write_text(GRID)
        grid.write_text(GRID + RUN + "eta = 1,0.5\n")
        _run("synth", "--config", synth, "--out", out / "synth", "--seed", 3)
        files.write_text(RUN + "".join(f"{key} = {out}/synth.{key}.csv\n"
                                       for key in ("f", "kx", "ky")))
        for method in METHODS:
            _run("sweep", "--config", grid, "--out", out / f"sweep-{method}.csv",
                 "--method", method, "--seed", 5)
            _drop_seconds(out / f"sweep-{method}.csv")
            _run("gridsearch", "--config", grid, "--out", out / f"gridsearch-{method}.csv",
                 "--method", method, "--seed", 5)
            _run("fit", "--config", grid, "--out", out / f"fit-{method}", "--method", method,
                 "--seed", 5, *ONE_POINT)
        for method in ("orrmcex", "factor_sgd"):
            _run("online", "--config", grid, "--out", out / f"online-{method}.csv",
                 "--method", method, "--seed", 5, "--stride", 50, *ONE_POINT)
            _drop_seconds(out / f"online-{method}.csv")
        _run("fit", "--config", files, "--out", out / "files-fit-kkmcex", "--method", "kkmcex",
             "--seed", 6, "--ps", 40, "--mu", "1e-2")
        _run("sweep", "--config", files, "--out", out / "files-sweep-rrmcex.csv",
             "--method", "rrmcex", "--seed", 6)
        _drop_seconds(out / "files-sweep-rrmcex.csv")
        _run("verify", "--out", out / "verify.csv", "--seed", 0)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("identity")
    write_outputs(out)
    return out


def test_every_output_is_committed(outputs):
    assert sorted(p.name for p in outputs.iterdir()) == COMMITTED


@pytest.mark.parametrize("name", COMMITTED)
def test_output_matches_committed_bytes(outputs, name):
    assert (outputs / name).read_bytes() == (DATA / name).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name in COMMITTED:
        (DATA / name).unlink()
    write_outputs(DATA)
