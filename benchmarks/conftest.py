"""Shared fixtures for the benchmark harness.

Each bench regenerates one paper artifact (figure, table, or theorem
quantity), asserts the paper's claim about it (exact where the paper is
exact, shape where the paper is asymptotic), times the underlying
computation with pytest-benchmark, and writes the rendered artifact to
``benchmarks/reports/<name>.txt`` so EXPERIMENTS.md can quote it.

Every artifact now gets a ``<name>.manifest.json`` sidecar (schema
``repro-manifest/v1``) stamping the git revision and python version that
produced it — two reports are comparable iff their manifests match.  A
run that renders an artifact identical to the one on disk rewrites
neither file, so the manifest keeps naming the revision that produced
those bytes and re-running a bench leaves the working tree clean.
"""

from pathlib import Path

import pytest

from repro.obs import build_manifest, write_manifest

REPORT_DIR = Path(__file__).parent / "reports"


@pytest.fixture()
def report():
    """Write a rendered artifact (plus manifest sidecar) to benchmarks/reports/."""
    REPORT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = REPORT_DIR / f"{name}.txt"
        sidecar = REPORT_DIR / f"{name}.manifest.json"
        rendered = text + "\n"
        if sidecar.exists() and path.exists() and path.read_text() == rendered:
            return
        path.write_text(rendered)
        write_manifest(sidecar, build_manifest(extra={"artifact": name}))

    return write
