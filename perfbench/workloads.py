"""The four workloads: seeded inputs, one op, and each op's correctness gate.

An op is one user-level unit of work.  ``draw`` makes an op's inputs from a
seeded generator and varies only parameters that leave the work size
unchanged.  ``run`` calls edgelab through ``edgelab.cli.main`` or its public
functions and returns what the gate needs.  ``check`` returns a list of
problems, empty when the outputs are right; its oracles are computed here,
independently of the code path the op took, so they stay valid when a faster
solver replaces the current one.  ``digest`` hashes an op's outputs for the
byte-identical rerun check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

# Library calls go through module attributes, so that a traced op sees them.
from edgelab import HoppingProfile, InterfaceKind, cli, spectrum, transfer
from edgelab.bulk import gamma_eigs_closed_form
from edgelab.hamiltonian import bloch_h1, bloch_h2
from reference import DenseEigh, Interpreted, SparseProducts, Sum

B = 60.0  # intracell hopping of both materials on the CLI workloads


def _main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _num(x: float) -> str:
    return repr(float(x))


def _profile_args(p: HoppingProfile) -> list[str]:
    return ["--b-plus", _num(p.b_plus), "--b-minus", _num(p.b_minus),
            "--delta-plus", _num(p.delta_plus), "--delta-minus", _num(p.delta_minus),
            "--c", _num(p.c)]


def _draw_type2_profile(rng) -> HoppingProfile:
    # topologically distinct pair around (30, -30), c around 50
    return HoppingProfile(B, B, float(rng.uniform(27.0, 33.0)),
                          -float(rng.uniform(27.0, 33.0)), float(rng.uniform(45.0, 55.0)))


def digest_dir(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def filter_oracle(H: np.ndarray, N: int, margin: int):
    """Eigenvalues and boundary-mass scores of a dense chain Hamiltonian,
    straight from the documented filter definition: the mass in the outer
    ``margin`` cells at each end, rediagonalized inside numerically degenerate
    clusters so that the scores do not depend on the solver's basis."""
    evals, evecs = np.linalg.eigh(H)
    # only the margin rows enter, which keeps the check's memory below the op's
    edge = evecs[np.r_[0:6 * margin, 6 * (2 * N + 1 - margin):6 * (2 * N + 1)]]
    loc = (np.abs(edge) ** 2).sum(axis=0)
    tol = 1e-8 * max(1.0, float(np.abs(evals).max()))
    i = 0
    while i < len(evals):
        j = i + 1
        while j < len(evals) and evals[j] - evals[j - 1] < tol:
            j += 1
        if j - i > 1:
            V = edge[:, i:j]
            loc[i:j] = np.sort(np.linalg.eigvalsh(V.conj().T @ V))
        i = j
    return evals, loc


class SpectrumSweep:
    """``edgelab spectrum`` on a type-II interface over an odd k-grid."""

    name = "spectrum_sweep"
    PREDICTED_LAYER = "spectrum"
    SIZES = {"full": (48, 7), "tiny": (48, 3)}  # (n_cells, k_points)
    MARGIN, THRESHOLD = 5, 0.2  # the CLI defaults, restated for the oracle

    def __init__(self, size: str):
        self.n_cells, self.k_points = self.SIZES[size]

    def reference(self):
        return DenseEigh(6 * (2 * self.n_cells + 1))

    def draw(self, rng) -> dict:
        return {"profile": _draw_type2_profile(rng),
                "k_check": int(rng.integers(self.k_points))}

    def run(self, cfg: dict, out: Path) -> dict:
        rc = _main(["spectrum", "--kind", "type2", *_profile_args(cfg["profile"]),
                    "--n-cells", str(self.n_cells), "--k-points", str(self.k_points),
                    "--out", str(out)])
        return {"rc": rc}

    def check(self, cfg: dict, out: Path, result: dict) -> list[str]:
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        problems = []
        summary = json.loads((out / "summary.json").read_text())
        if not summary["crossing"] or not summary["min_abs_E0"] < 1e-6 * B:
            problems.append(f"no crossing: min_abs_E0={summary['min_abs_E0']}")
        rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)
        ks = np.unique(rows[:, 0])
        if len(ks) != self.k_points or len(rows) != self.k_points * 6 * (2 * self.n_cells + 1):
            return problems + [f"csv shape: {len(ks)} k-points, {len(rows)} rows"]
        if np.any((rows[:, 3] < self.THRESHOLD) != (rows[:, 4] == 1)):
            problems.append("kept column disagrees with localization < threshold")
        k = ks[cfg["k_check"]]
        at_k = rows[rows[:, 0] == k]
        evals, loc = filter_oracle(bloch_h2(cfg["profile"], float(k), self.n_cells).matrix,
                                   self.n_cells, self.MARGIN)
        err = float(np.abs(np.sort(at_k[:, 2]) - evals).max())
        if err > 1e-9 * B:
            problems.append(f"energies at k={k} off by {err:.3e}")
        near = int(np.sum(np.abs(loc - self.THRESHOLD) < 1e-6))
        kept, ref = int(at_k[:, 4].sum()), int(np.sum(loc < self.THRESHOLD))
        if abs(kept - ref) > near:
            problems.append(f"kept {kept} states at k={k}, reference {ref}")
        return problems

    def digest(self, out: Path, result: dict) -> str:
        return digest_dir(out)


class _Evolve:
    """``edgelab evolve`` on a bent type-II domain.

    The step is fixed, below 0.1 / rho(H) for every drawn profile, so the
    step count, and with it the work, does not depend on the seed.
    """

    DT = 0.1 / 220.0
    STRIDE = 400
    SIZES: dict = {}

    def __init__(self, size: str):
        self.geometry = self.SIZES[size]

    def draw(self, rng) -> dict:
        return {"profile": _draw_type2_profile(rng)}

    def run(self, cfg: dict, out: Path) -> dict:
        g = self.geometry
        argv = ["evolve", "--kind", "type2", *_profile_args(cfg["profile"]),
                "--extent-m", str(g["extent"][0]), "--extent-n", str(g["extent"][1]),
                "--bend-m", str(g["bend_m"]), "--center-m", _num(g["center_m"]),
                "--width", _num(g["width"]), "--t-final", _num(g["t_final"]),
                "--stride", str(self.STRIDE), "--dt", _num(self.DT), "--out", str(out)]
        if "origin" in g:
            argv += ["--origin-m", str(g["origin"][0]), "--origin-n", str(g["origin"][1])]
        return {"rc": _main(argv)}

    def check(self, cfg: dict, out: Path, result: dict) -> list[str]:
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        problems = []
        g = self.geometry
        series = json.loads((out / "manifest.json").read_text())["series"]
        drift = max(abs(x - 1.0) for x in series["norm"])
        if not drift < 1e-6:
            problems.append(f"norm off 1 by {drift:.3e}")
        steps = max(1, math.ceil(g["t_final"] / self.DT))
        expected = 1 + math.ceil(steps / self.STRIDE)
        snaps = sorted(out.glob("snapshot_*.csv"))
        if len(snaps) != expected:
            problems.append(f"{len(snaps)} snapshots, schedule gives {expected}")
        else:
            lines = snaps[-1].read_text().splitlines()[1:]
            sites = g["extent"][0] * g["extent"][1] * 6
            if len(lines) != sites:
                problems.append(f"last snapshot has {len(lines)} rows, domain has {sites} sites")
            else:
                mass = sum(float(line.rsplit(",", 1)[1]) for line in lines)
                if abs(mass - series["norm"][-1] ** 2) > 1e-9:
                    problems.append(f"last snapshot mass {mass} disagrees with the norm")
        if g["check_transmission"] and not series["transmitted"][-1] > series["reflected"][-1]:
            problems.append(f"transmitted {series['transmitted'][-1]:.4f} <= "
                            f"reflected {series['reflected'][-1]:.4f}")
        return problems

    def digest(self, out: Path, result: dict) -> str:
        return digest_dir(out)


class BendEvolve(_Evolve):
    """A packet launched toward a 60-degree bend, run until most of it has
    turned the corner.  Propagation dominates."""

    name = "bend_evolve"
    PREDICTED_LAYER = "dynamics"

    SIZES = {
        "full": {"extent": (30, 40), "origin": (-18, -10), "bend_m": 2, "center_m": -7.0,
                 "width": 4.0, "t_final": 0.7, "check_transmission": True},
        "tiny": {"extent": (20, 24), "origin": (-12, -6), "bend_m": 2, "center_m": -4.0,
                 "width": 3.0, "t_final": 0.05, "check_transmission": False},
    }

    def reference(self):
        # propagation plus the interpreted snapshot writing around it
        sites = self.geometry["extent"][0] * self.geometry["extent"][1] * 6
        return Sum(SparseProducts(sites), Interpreted())


class WideDomain(_Evolve):
    """A wide bent domain run for a few dozen steps.  Domain build and
    snapshot writing dominate; propagation is small."""

    name = "wide_domain"
    PREDICTED_LAYER = "dynamics"

    SIZES = {
        "full": {"extent": (80, 80), "bend_m": 0, "center_m": -10.0, "width": 8.0,
                 "t_final": 0.02, "check_transmission": False},
        "tiny": {"extent": (24, 24), "bend_m": 0, "center_m": -4.0, "width": 3.0,
                 "t_final": 0.005, "check_transmission": False},
    }

    def reference(self):
        return Interpreted()


class ClosedForms:
    """One random profile per op: both existence verdicts through the CLI,
    the matching coupling, both zero-mode pairs and their crossing matrices;
    every 10th op adds ``edgelab bulk``."""

    name = "closed_forms"
    PREDICTED_LAYER = "hamiltonian"
    BULK_EVERY = 10
    ORACLE_CELLS = 60  # half width of the dense chain used to check residuals

    def __init__(self, size: str):
        self.count = 0

    def reference(self):
        return Interpreted()

    def draw(self, rng) -> dict:
        profile = HoppingProfile(float(rng.uniform(45.0, 75.0)), float(rng.uniform(45.0, 75.0)),
                                 float(rng.uniform(15.0, 40.0)), -float(rng.uniform(15.0, 40.0)),
                                 float(rng.uniform(30.0, 70.0)))
        cfg = {"profile": profile, "bulk": None}
        if self.count % self.BULK_EVERY == 0:
            eps = float(rng.uniform(0.5, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
            cfg["bulk"] = (float(rng.uniform(3.0, 7.0)), eps)
        self.count += 1
        return cfg

    def run(self, cfg: dict, out: Path) -> dict:
        p = cfg["profile"]
        c_star = transfer.matching_c_star(p)
        tuned = p.with_c(c_star)
        rc = [_main(["exist", "--kind", "type1", *_profile_args(tuned), "--out", str(out / "type1")]),
              _main(["exist", "--kind", "type2", *_profile_args(p), "--out", str(out / "type2")])]
        modes1 = transfer.build_type1_zero_modes(tuned)
        modes2 = transfer.build_type2_zero_modes(p)
        m0 = [spectrum.perturbation_m0(InterfaceKind.TYPE_I, tuned, modes1),
              spectrum.perturbation_m0(InterfaceKind.TYPE_II, p, modes2)]
        if cfg["bulk"] is not None:
            b, eps = cfg["bulk"]
            rc.append(_main(["bulk", "--b", _num(b), "--eps", _num(eps), "--out", str(out / "bulk")]))
        return {"rc": rc, "c_star": c_star, "modes": (modes1, modes2), "m0": m0}

    def _interior_residual(self, build, profile, mode) -> float:
        """|H v| / |v| over the rows of a dense chain that the truncation
        leaves intact; the rows nearest the interface are the ones checked."""
        N = self.ORACLE_CELLS
        v = mode.as_vector(N)
        Hv = build(profile, 0.0, N).matrix @ v
        return float(np.linalg.norm(Hv[6 * 3:-6 * 3]) / np.linalg.norm(v))

    def check(self, cfg: dict, out: Path, result: dict) -> list[str]:
        if any(rc != 0 for rc in result["rc"]):
            return [f"exit codes {result['rc']}"]
        problems = []
        for kind in ("type1", "type2"):
            if json.loads((out / kind / "exist.json").read_text())["exists"] is not True:
                problems.append(f"{kind} verdict is not true")
        tuned = cfg["profile"].with_c(result["c_star"])
        for build, profile, modes in ((bloch_h1, tuned, result["modes"][0]),
                                      (bloch_h2, cfg["profile"], result["modes"][1])):
            for mode in modes:
                res = max(mode.residual, self._interior_residual(build, profile, mode))
                if not res < 1e-10:
                    problems.append(f"{mode.kind.value} mode {mode.label} residual {res:.3e}")
        for m0 in result["m0"]:
            if not abs(m0[0, 1].imag) > 0:
                problems.append("crossing matrix has Im m0_01 = 0")
        if cfg["bulk"] is not None:
            got = json.loads((out / "bulk" / "bulk.json").read_text())["gamma_eigenvalues"]
            err = float(np.abs(np.array(got) - gamma_eigs_closed_form(*cfg["bulk"])).max())
            if err > 1e-10:
                problems.append(f"zone-center eigenvalues off the closed form by {err:.3e}")
        return problems

    def digest(self, out: Path, result: dict) -> str:
        h = hashlib.sha256(digest_dir(out).encode())
        h.update(repr(result["c_star"]).encode())
        for modes in result["modes"]:
            for mode in modes:
                for n in sorted(mode.amplitudes):
                    h.update(mode.amplitudes[n].tobytes())
        for m0 in result["m0"]:
            h.update(m0.tobytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (SpectrumSweep, BendEvolve, WideDomain, ClosedForms)}
