"""scipy stays off the import path: importing attraos, fitting with a given
embedding, saving, loading and serving a default-variant model, and the
``simulate``, ``fit --m --tau``, ``predict`` and ``eval`` commands load no
scipy module.  The kd-tree (FNN selection, ``lyapunov``) and the matrix
exponential (``legt_full``) import it at first use, with the same results.

Each check runs in a fresh interpreter, so that no scipy module is inherited
from the test process, which imports scipy itself."""

import os
import subprocess
import sys

import numpy as np

from attraos import chaos, legendre, lyapunov
from attraos import embedding as emb

NO_SCIPY = """
import sys
loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
assert not loaded, f"{len(loaded)} scipy modules loaded, among them {loaded[:3]}"
"""

SERVING = """
import attraos, attraos.cli
from attraos import chaos, cli
from attraos import forecaster as fc
from attraos.embedding import EmbeddingParams

series = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.01, 2000)
model = fc.fit(fc.ForecasterConfig(window=96, horizon=16, embedding=EmbeddingParams(3, 4)),
               series)
fc.save_model(model, "api_model.json")
loaded = fc.load_model("api_model.json")
fc.predict(loaded, series[-96:])
fc.rollout(loaded, series[-96:], 48)

assert cli.main(["simulate", "--system", "lorenz63", "--steps", "2000", "--out", "l63.csv"]) == 0
assert cli.main(["fit", "--input", "l63.csv", "--window", "96", "--horizon", "16",
                 "--m", "3", "--tau", "4", "--out", "model.json"]) == 0
lines = open("l63.csv").read().splitlines(keepends=True)
open("context.csv", "w").writelines(lines[:97])
open("truth.csv", "w").writelines(lines[:1] + lines[97:113])
assert cli.main(["predict", "--model", "model.json", "--input", "context.csv",
                 "--out", "pred.csv"]) == 0
assert cli.main(["eval", "--pred", "pred.csv", "--truth", "truth.csv"]) == 0
""" + NO_SCIPY

# the calls that load scipy at first use; ``results`` is compared by repr
FIRST_USE = """
x = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.01, 4000)[1000:, 0]
est = lyapunov.estimate_mle(x, emb.EmbeddingParams(3, 8), horizon=40)
disc = legendre.discretize(legendre.make_ssm_params("legt_full", 6, 0.25))
results = [emb.fnn_profile(x, 8, 5), emb.select_embedding(x), est.mle, est.divergence_curve,
           disc.a_bar, disc.b_bar]
results = repr([r.tolist() if isinstance(r, np.ndarray) else r for r in results])
"""


def run_fresh(code, cwd):
    """stdout of ``code`` run by a new interpreter on this test's sys.path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_serving_a_default_model_loads_no_scipy(tmp_path):
    run_fresh(SERVING, tmp_path)


def test_first_use_imports_give_the_in_process_results(tmp_path):
    code = (NO_SCIPY + "import numpy as np\nfrom attraos import chaos, legendre, lyapunov\n"
            "from attraos import embedding as emb\n" + FIRST_USE + "print(results)\n")
    expected = {"np": np, "chaos": chaos, "legendre": legendre, "lyapunov": lyapunov, "emb": emb}
    exec(FIRST_USE, expected)
    assert run_fresh(code, tmp_path).splitlines()[-1] == expected["results"]
