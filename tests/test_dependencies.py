"""numpy is the only runtime dependency, and serving does not load the model.

A fit must not pull scipy in through some transitive import.  Besides
the declared dependency list, memory is at stake: importing
``scipy.spatial`` raises a bare numpy process's peak RSS from about 27 MB
to about 65 MB (Linux x86-64, numpy 2.4, scipy 1.17).

The serving tier answers from stored tables, so a process that imports
it (every worker of the process backend) must not load the pipeline
(``repro.core``) or the neural-network engine (``repro.nn``).
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import repro
from repro.core import DLInfMA, DLInfMAConfig
from repro.eval import Workload
from repro.synth import generate_dataset, tiny_config

w = Workload.from_dataset(generate_dataset(tiny_config()))
model = DLInfMA(DLInfMAConfig(selector="maxtc-ilc")).fit(
    w.trips, w.addresses, w.ground_truth, w.train_ids, w.val_ids,
    projection=w.projection,
)
assert model.predict(w.test_ids)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_fit_does_not_import_scipy():
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


SERVE_PROGRAM = """
import sys
import repro.serve.mp
import repro.serve
print(sorted(m for m in sys.modules
             if m.split(".")[:2] in (["repro", "core"], ["repro", "nn"])))
"""


def test_serving_does_not_import_the_model():
    done = subprocess.run(
        [sys.executable, "-c", SERVE_PROGRAM],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
