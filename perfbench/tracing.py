"""Outside-in tracing of edgelab's public functions.

For a traced op the tracer replaces module attributes such as
``edgelab.dynamics.evolve`` with timing wrappers, in every loaded edgelab
module that holds the same function object (``cli`` imports most of them by
name), and restores the originals afterwards.  Nothing inside the program is
instrumented.  Spans are kept in memory; per-layer figures are derived from
them when the worker ends and handed to ``run.py`` in its report.

A span's self time is its duration minus the durations of its child spans.
Calls are single-threaded and properly nested, so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# ---------------------------------------------------------------------------
# Hooks: counters and health values read from a call's arguments and result.
# ---------------------------------------------------------------------------


def _calls(name):
    return lambda acc, args, kwargs, result: acc.add(name, 1)


def _spectrum_table(acc, args, kwargs, table):
    acc.add("spectrum.kpoints", len(table.k_grid))
    acc.add("spectrum.eigpairs_computed", table.eigenvalues.size)
    acc.add("spectrum.eigpairs_kept", int(table.kept.sum()))
    margin = float(abs(table.localization - table.threshold).min())
    acc.low("spectrum.threshold_margin_min", margin)


def _csv_bytes(acc, args, kwargs, _):
    path = args[1] if len(args) > 1 else kwargs["path"]
    acc.add("spectrum.csv_bytes", os.path.getsize(path))


def _zero_modes(acc, args, kwargs, modes):
    acc.add("transfer.zero_mode_calls", 1)
    acc.add("transfer.zero_mode_cells", sum(len(m.amplitudes) for m in modes))
    acc.high("transfer.residual_max", max(m.residual for m in modes))


def _bands(acc, args, kwargs, bands):
    acc.add("bulk.band_points", len(bands))


def _domain(acc, args, kwargs, domain):
    acc.add("dynamics.sites", domain.positions.shape[0])


def _rk4(acc, args, kwargs, _):
    steps = args[3] if len(args) > 3 else kwargs["steps"]
    acc.add("dynamics.rk4_steps", steps)
    acc.add("dynamics.spmv_count", 4 * steps)


def _record(acc, args, kwargs, manifest):
    norms = manifest["series"]["norm"]
    acc.add("dynamics.spmv_count", len(norms))  # one H @ psi per sample (energy)
    acc.high("dynamics.norm_drift", max(abs(x - norms[0]) for x in norms))
    out = Path(args[3] if len(args) > 3 else kwargs["out_dir"])
    acc.add("dynamics.snapshot_bytes", sum(p.stat().st_size for p in out.glob("snapshot_*.csv")))


# (module, function, span name, hook).  A span name is the per-layer metric
# that receives the span's self time; functions sharing a name add up.
SPANNED = [
    ("cli", "main", "cli.self_s", None),
    ("hamiltonian", "bloch_h1", "hamiltonian.assemble_s", _calls("hamiltonian.assemble_calls")),
    ("hamiltonian", "bloch_h2", "hamiltonian.assemble_s", _calls("hamiltonian.assemble_calls")),
    ("hamiltonian", "chain_apply", "hamiltonian.chain_apply_s",
     _calls("hamiltonian.chain_apply_calls")),
    ("hamiltonian", "chain_apply_first_order", "hamiltonian.chain_apply_s",
     _calls("hamiltonian.chain_apply_calls")),
    ("spectrum", "supercell_spectrum", "spectrum.solve_self_s", _spectrum_table),
    ("spectrum", "edge_curves", "spectrum.edge_curves_s", None),
    ("spectrum", "write_spectrum_csv", "spectrum.write_csv_s", _csv_bytes),
    ("spectrum", "perturbation_m0", "spectrum.perturbation_m0_s", None),
    ("transfer", "build_type1_zero_modes", "transfer.zero_modes_s", _zero_modes),
    ("transfer", "build_type2_zero_modes", "transfer.zero_modes_s", _zero_modes),
    ("transfer", "matching_c_star", "transfer.verdict_s", None),
    ("transfer", "type1_zero_exists", "transfer.verdict_s", None),
    ("transfer", "type2_zero_exists", "transfer.verdict_s", None),
    ("bulk", "bulk_bands", "bulk.bands_s", _bands),
    ("bulk", "gamma_eigs", "bulk.bands_s", None),
    ("bulk", "default_k_path", "bulk.bands_s", None),
    ("bulk", "write_bands_csv", "bulk.bands_s", None),
    ("dynamics", "build_domain", "dynamics.build_domain_s", _domain),
    ("dynamics", "initial_wavepacket", "dynamics.initial_packet_s", None),
    ("dynamics", "evolve", "dynamics.propagate_s", _rk4),
    ("dynamics", "interface_mass", "dynamics.diagnostics_s", None),
    ("dynamics", "transmission", "dynamics.diagnostics_s", None),
    ("dynamics", "make_bend_partition", "dynamics.diagnostics_s", None),
    ("dynamics", "rho_bound", "dynamics.diagnostics_s", None),
    ("dynamics", "record_run", "dynamics.record_self_s", _record),
]

# Called once per site and neighbor during domain assembly: a span per call
# would distort the build, so these are only counted.
COUNTED = [
    ("lattice", "neighbors", "lattice.neighbor_calls"),
]

SUMS = sorted({name for _, _, name, _ in SPANNED} | {name for _, _, name in COUNTED} | {
    "hamiltonian.assemble_calls", "hamiltonian.chain_apply_calls", "spectrum.kpoints",
    "spectrum.eigpairs_computed", "spectrum.eigpairs_kept", "spectrum.csv_bytes",
    "transfer.zero_mode_calls", "transfer.zero_mode_cells", "bulk.band_points",
    "dynamics.sites", "dynamics.rk4_steps", "dynamics.spmv_count", "dynamics.snapshot_bytes",
})
LOWS = ["spectrum.threshold_margin_min"]
HIGHS = ["transfer.residual_max", "dynamics.norm_drift"]


class Accumulator:
    """Sums, minima and maxima keyed by metric name."""

    def __init__(self):
        self.sums = dict.fromkeys(SUMS, 0)
        self.lows: dict[str, float] = {}
        self.highs: dict[str, float] = {}

    def add(self, name, value):
        self.sums[name] += value

    def low(self, name, value):
        self.lows[name] = min(value, self.lows.get(name, value))

    def high(self, name, value):
        self.highs[name] = max(value, self.highs.get(name, value))

    def merge(self, other: dict):
        for name, value in other["sums"].items():
            self.sums[name] += value
        for name, value in other["lows"].items():
            self.low(name, value)
        for name, value in other["highs"].items():
            self.high(name, value)

    def as_dict(self) -> dict:
        return {"sums": self.sums, "lows": self.lows, "highs": self.highs}


def _edgelab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "edgelab" or name.startswith("edgelab.")]


class Tracer:
    """Records spans of wrapped edgelab calls made inside :meth:`op`."""

    def __init__(self):
        self.acc = Accumulator()
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.op_walls: list[float] = []
        self.op_covered: list[float] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hook(self.acc, args, kwargs, result)
            return result
        wrapper.__name__ = fn.__name__
        return wrapper

    def _counted(self, fn, name):
        sums = self.acc.sums

        def wrapper(*args, **kwargs):
            sums[name] += 1
            return fn(*args, **kwargs)
        wrapper.__name__ = fn.__name__
        return wrapper

    @contextmanager
    def op(self):
        """Trace one op: install the wrappers, open a root span, restore."""
        modules = _edgelab_modules()
        by_module = {m.__name__: m for m in modules}
        replace = {}
        for mod, fn_name, name, hook in SPANNED:
            fn = getattr(by_module["edgelab." + mod], fn_name)
            replace[id(fn)] = (fn, self._spanned(fn, name, hook))
        for mod, fn_name, name in COUNTED:
            fn = getattr(by_module["edgelab." + mod], fn_name)
            replace[id(fn)] = (fn, self._counted(fn, name))
        saved = []
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((m, attr, value))
                    setattr(m, attr, hit[1])
        first = len(self.spans)
        root = self._open("op")
        try:
            yield
        finally:
            self._close(root)
            for m, attr, value in saved:
                setattr(m, attr, value)
        start, end = self.spans[root][3], self.spans[root][4]
        top = [s for s in self.spans[first:] if s[1] == root]
        self.op_walls.append(end - start)
        self.op_covered.append(sum(s[4] - s[3] for s in top))

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name, the root ``op`` spans included."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def report(self) -> dict:
        """What a worker hands back: accumulated counters plus span totals."""
        self.acc.sums.update({k: v for k, v in self.self_times().items() if k != "op"})
        return {"acc": self.acc.as_dict(), "op_walls": self.op_walls,
                "op_covered": self.op_covered}
