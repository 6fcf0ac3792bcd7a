"""The digests the tests freeze, and the script that freezes them.

Each frozen output is named by the command that makes it: a report, a
convergence table, or an eigensolver output ("jacobi <input>").  Its sha256
is frozen in ``tests/frozen_digests.json``.  Numpy's ``@`` and complex
multiply round by the host's BLAS kernel and numpy's CPU dispatch, so the
digests are computed in a new process pinned to one of each (``PIN``): the
Haswell kernel and the X86_V3 loops run on any x86-64 CPU with AVX2, and the
pin overrides whatever the caller set.

``PYTHONPATH=src python tests/freeze.py`` takes no options.  It computes
every digest under the pin, prints each one that moved (old -> new) and, for
each id whose seed-7 report moved, the largest change of a relative margin
against ``tests/frozen_margins.json``, then rewrites the file.  It never
writes ``frozen_margins.json``: that is the value anchor the reports keep.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from golden_bounds import cli, linalg
from golden_bounds.certify import INEQUALITY_IDS

TESTS = pathlib.Path(__file__).resolve().parent
FROZEN = TESTS / "frozen_digests.json"
MARGINS = TESTS / "frozen_margins.json"
PIN = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

#: The convergence tables frozen: (factor kind, n, commuting).
TABLES = [
    (kind, n, commuting)
    for kind in ("kantorovich", "specht")
    for n in (2, 4, 6)
    for commuting in (False, True)
]


def report(inequality_id: str, fmt: str) -> str:
    """The seed-7 report of an id: 20 instances, n cycling through 2..6."""
    return f"certify {inequality_id} --n 0 --count 20 --seed 7 --format {fmt}"


def n16_report(inequality_id: str) -> str:
    """Three instances at n = 16: a 2-CPU host certifies the third as two
    sides in two processes, and one CPU certifies all three in one."""
    return f"certify {inequality_id} --n 16 --count 3 --seed 7 --format json"


def table(kind: str, n: int, commuting: bool) -> str:
    return f"convergence {kind} --n {n}{' --commuting' if commuting else ''} --seed 7"


def kernel(name: str) -> str:
    """eigenvalues.tobytes() + eigenvectors.tobytes() of linalg._jacobi on
    kernel_digest_inputs()[name]."""
    return f"jacobi {name}"


def kernel_digest_inputs() -> dict:
    """Seeded Hermitian arrays for the frozen kernel digests.

    They are built from normal draws with additions, halvings and Python
    scalar products only, so no BLAS call or numpy CPU dispatch touches their
    bits.  Below linalg._ROUND_ROBIN_MIN_N neither does the kernel, which
    runs on Python scalars there; the round-robin kernel at n = 16 rotates
    with BLAS products, whose bits depend on the BLAS kernel.
    """
    rng = np.random.default_rng(2024)
    cases = {}
    for n in (1, 2, 3, 4, 5, 6, 8, 16):
        for trial in range(3):
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            name = f"n{n}-complex-{trial}"
            if trial == 2:
                raw = raw.real.astype(np.complex128)
                name = f"n{n}-real"
            cases[name] = (raw + raw.conj().T) / 2.0
    cases["diagonal"] = np.diag(np.array([3.0, -1.0, 2.0, 2.0], dtype=np.complex128))
    # tau = 5e199 on the first rotation: the |tau| > 1e150 branch
    cases["coupling-1e-200"] = np.array(
        [[0.0, 1e-200, 0.0], [1e-200, 1.0, 0.5], [0.0, 0.5, 2.0]], dtype=np.complex128
    )
    # u u* + 2I: eigenvalue 2 four times
    u = [complex(x, y) for x, y in rng.normal(size=(5, 2))]
    rank_one = np.array(
        [
            [x * y.conjugate() + (2.0 if i == j else 0.0) for j, y in enumerate(u)]
            for i, x in enumerate(u)
        ]
    )
    cases["repeated"] = (rank_one + rank_one.conj().T) / 2.0
    return cases


def kernel_digests() -> dict:
    """The digest of each of kernel_digest_inputs(), computed in this process.

    On real inputs ("-real") every imaginary part is zero, and the sign of
    such a zero in an eigenvector may differ from that of the cyclic kernel
    that first froze them, so those digests are taken after adding 0.0,
    which turns -0.0 into 0.0.
    """
    digests = {}
    for name, a in kernel_digest_inputs().items():
        vals, replay = linalg._jacobi(a)
        vecs = replay()
        if name.endswith("-real"):
            vecs = vecs + 0.0
        digests[kernel(name)] = hashlib.sha256(vals.tobytes() + vecs.tobytes()).hexdigest()
    return digests


def _run(command: str, target: str) -> None:
    """Run one CLI command with its output written to ``target``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*command.split(), "--out", target])
    if code != 0:
        raise RuntimeError(f"{command} exited with {code}")


def digests() -> dict:
    """Every frozen digest, computed in this process."""
    found = kernel_digests()
    commands = [report(i, fmt) for i in INEQUALITY_IDS for fmt in ("csv", "json")]
    commands += [n16_report(i) for i in INEQUALITY_IDS]
    commands += [table(*t) for t in TABLES]
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out")
        for command in commands:
            _run(command, target)
            found[command] = hashlib.sha256(pathlib.Path(target).read_bytes()).hexdigest()
    return found


def margins() -> dict:
    """The relative margins of each id's seed-7 csv report, in row order."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "report.csv")
        for inequality_id in INEQUALITY_IDS:
            _run(report(inequality_id, "csv"), target)
            with open(target, newline="") as fh:
                found[inequality_id] = [float(row["relative_margin"]) for row in csv.DictReader(fh)]
    return found


def _pinned(function: str):
    """freeze.<function>() computed in a new process under PIN: OpenBLAS
    picks its kernel and numpy its loops as they load, so this process,
    which has loaded them, cannot switch."""
    path = [str(TESTS), str(pathlib.Path(linalg.__file__).parents[1])]
    env = {**os.environ, **PIN, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses it beside the disable list
    code = f"import json, freeze; print(json.dumps(freeze.{function}()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"freeze.{function}() failed under {PIN}:\n{done.stderr}")
    return json.loads(done.stdout)


def pinned_digests() -> dict:
    """digests() computed in a new process under PIN."""
    return _pinned("digests")


def frozen() -> dict:
    """The digests frozen in tests/frozen_digests.json."""
    return json.loads(FROZEN.read_text())


def main() -> None:
    old, new = frozen(), pinned_digests()
    moved = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    for key in moved:
        print(f"{key}: {old.get(key)} -> {new.get(key)}")
    ids = [i for i in INEQUALITY_IDS if report(i, "csv") in moved or report(i, "json") in moved]
    if ids:
        now = _pinned("margins")
        anchor = json.loads(MARGINS.read_text())["relative_margins"]
        for i in ids:
            change = max(abs(margin - row[2]) for margin, row in zip(now[i], anchor[i]))
            print(f"{i}: largest relative margin change against {MARGINS.name}: {change:.3g}")
    FROZEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{len(moved)} of {len(new)} digests moved; wrote {FROZEN.name}")


if __name__ == "__main__":
    main()
