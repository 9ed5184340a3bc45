"""The benchmark in ``perfbench/`` wraps edgelab functions by name.

``tracing.Tracer.op`` looks up every ``SPANNED`` and ``COUNTED`` name with
``getattr`` and no default, and ``workloads`` imports its oracles from
edgelab.  Renaming or removing one of those names breaks ``--trace 1`` and
the workload gates; this test makes that a tier-1 failure.  It only reads
``perfbench/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_imports_and_traced_names_resolve(tmp_path):
    script = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
        "import edgelab.cli",
        "import tracing",
        "import workloads",
        "with tracing.Tracer().op():",
        "    pass",
        "print(len(tracing.SPANNED) + len(tracing.COUNTED))",
    ])
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[-1]) > 0
