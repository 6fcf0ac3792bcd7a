"""Freeze the reference margins and report digests for every pooled call.

    python3 perfbench/freeze.py [workload ...]

Run from the root of a checkout.  For each workload (all by default) it runs
every call of every pooled CLI seed once, checks the outputs for truth, and
writes ``perfbench/reference/<workload>.json.gz``.  Re-freezing is a
deliberate act: the benchmark then measures drift from the new commit.
"""

from __future__ import annotations

import gzip
import json
import sys

from checks import REFERENCE_DIR, check_call, reference_path
from run import OUT_DIR, invoke, pin_environment
from workloads import WORKLOADS


def freeze(name: str, cli) -> dict:
    workload = WORKLOADS[name]
    frozen: dict[str, dict] = {}
    for cli_seed in workload.pool:
        entries = frozen.setdefault(str(cli_seed), {})
        for call in workload.make_cycle(cli_seed, OUT_DIR):
            _, rc, error, stdout = invoke(cli, call)
            outcome = check_call(call, rc, error, stdout, None)
            if not outcome.ok:
                raise SystemExit(f"{' '.join(call.argv)}: {outcome.problems}")
            entries[call.key] = {"sha256": outcome.digest, "margins": outcome.margins}
    return frozen


def main(names) -> int:
    pin_environment()
    from golden_bounds import cli

    OUT_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        frozen = freeze(name, cli)
        # mtime=0 keeps the compressed bytes identical across re-freezes.
        with open(reference_path(name), "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", mtime=0
        ) as fh:
            fh.write(json.dumps(frozen, sort_keys=True).encode("utf-8"))
        print(f"{name}: {sum(len(v) for v in frozen.values())} calls frozen")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
