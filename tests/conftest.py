import contextlib
import io

import pytest

from xfmr.cli import main


@pytest.fixture(scope="session")
def toy_training_run(tmp_path_factory):
    """One ``xfmr train-toy --seed 0 --steps 500 --out PATH`` run of the toy
    recipe, shared by the tests that need a trained toy: (exit code, stdout,
    checkpoint path)."""
    path = tmp_path_factory.mktemp("train-toy") / "toy.xfmr"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["train-toy", "--seed", "0", "--steps", "500", "--out", str(path)])
    return code, stdout.getvalue(), path


@pytest.fixture(scope="session")
def toy_gradcheck_run():
    """One ``xfmr gradcheck --variant toy --entries-per-tensor 1 --tol 1e-4``
    run of the unpatched engine, shared by the tests that need its result:
    (exit code, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["gradcheck", "--variant", "toy", "--entries-per-tensor", "1", "--tol", "1e-4"])
    return code, stdout.getvalue()
