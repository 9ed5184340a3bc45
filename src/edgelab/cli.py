"""Command-line front end.

Subcommands: spectrum | match-c | exist | evolve | bulk.  Parameters come
from a flat JSON config file, overridden by command-line flags; every output
JSON embeds the fully resolved configuration.  Outputs are byte-stable for
identical configs: fixed eigensolver ordering, fixed sign conventions, no
timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bulk import bulk_bands, default_k_path, dirac_slope, gamma_eigs, write_bands_csv
from .dynamics import DomainSpec, build_domain, initial_wavepacket, record_run
from .errors import (
    ConfigError,
    DegenerateGapless,
    NoMidGapState,
    NotAZeroMode,
    StepTooLarge,
)
from .hamiltonian import HoppingProfile
from .lattice import InterfaceKind
from .spectrum import (
    DEFAULT_K_POINTS,
    DEFAULT_MARGIN,
    DEFAULT_N,
    DEFAULT_THRESHOLD,
    edge_curves,
    supercell_spectrum,
    write_spectrum_csv,
)
from .transfer import (
    matching_c_star,
    p_eigen,
    type1_zero_exists,
    type2_zero_exists,
)

_PROFILE_KEYS = {"kind", "b_plus", "b_minus", "delta_plus", "delta_minus", "c"}
_COMMON_KEYS = _PROFILE_KEYS | {"out_dir", "seed"}
_ALLOWED_KEYS = {
    "spectrum": _COMMON_KEYS | {"n_cells", "k_points", "margin", "threshold", "require_crossing"},
    "match-c": _COMMON_KEYS | {"n_cells"},
    "exist": _COMMON_KEYS | {"k", "c_test"},
    "evolve": _COMMON_KEYS | {
        "extent_m", "extent_n", "origin_m", "origin_n", "bend_m", "turn",
        "center_m", "width", "direction", "t_final", "stride", "dt",
    },
    "bulk": {"b", "eps", "path_points", "out_dir", "seed"},
}

_DEFAULTS = {
    "kind": "type1",
    "b_plus": 60.0, "b_minus": 60.0, "delta_plus": 30.0, "delta_minus": -30.0, "c": 50.0,
    "out_dir": "edgelab_out",
    "seed": None,  # reserved: all commands are deterministic
    "n_cells": DEFAULT_N,
    "k_points": DEFAULT_K_POINTS,
    "margin": DEFAULT_MARGIN,
    "threshold": DEFAULT_THRESHOLD,
    "require_crossing": False,
    "k": 0.0,
    "c_test": None,
    "extent_m": 60, "extent_n": 40,
    "origin_m": None, "origin_n": None,
    "bend_m": None, "turn": 1,
    "center_m": -10.0, "width": 8.0, "direction": 1,
    "t_final": 1.0, "stride": 400, "dt": None,
    "b": 5.0, "eps": 2.0, "path_points": 120,
}


def _load_config(command: str, args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a flat JSON object")
        unknown = set(raw) - _ALLOWED_KEYS[command]
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
        cfg.update(raw)
    for key in _ALLOWED_KEYS[command]:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            cfg[key] = flag
    resolved = {k: _DEFAULTS[k] for k in _ALLOWED_KEYS[command]}
    resolved.update(cfg)
    # flags and config files alike: NaN or infinity is never a valid setting
    bad = sorted(k for k, v in resolved.items() if isinstance(v, float) and not math.isfinite(v))
    if bad:
        raise ConfigError(f"non-finite values for {bad}")
    return resolved


def _profile(cfg: dict) -> HoppingProfile:
    try:
        return HoppingProfile(
            b_plus=float(cfg["b_plus"]), b_minus=float(cfg["b_minus"]),
            delta_plus=float(cfg["delta_plus"]), delta_minus=float(cfg["delta_minus"]),
            c=float(cfg["c"]),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _kind(cfg: dict) -> InterfaceKind:
    try:
        return InterfaceKind(cfg["kind"])
    except ValueError as exc:
        raise ConfigError(f"kind must be 'type1' or 'type2', got {cfg['kind']!r}") from exc


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_spectrum(cfg: dict) -> int:
    kind, profile = _kind(cfg), _profile(cfg)
    if int(cfg["k_points"]) < 1:
        raise ConfigError("k_points must be at least 1")
    out = _out_dir(cfg)
    # inclusive grid, made bitwise antisymmetric so that every k pairs with
    # its mirror -k (one solve per pair); odd counts place a point at k = 0
    k_grid = np.linspace(-np.pi, np.pi, int(cfg["k_points"]))
    k_grid = (k_grid - k_grid[::-1]) / 2
    table = supercell_spectrum(kind, profile, None, k_grid,
                               N=int(cfg["n_cells"]), margin=int(cfg["margin"]),
                               threshold=float(cfg["threshold"]))
    write_spectrum_csv(table, out / "spectrum.csv")
    kept_abs = [np.abs(table.eigenvalues[i][table.kept[i]]).min()
                for i in range(len(k_grid)) if table.kept[i].any()]
    # summary.json stays strict JSON: a value that does not exist is null
    gap_width = 2.0 * float(min(kept_abs)) if kept_abs else None
    try:
        e0 = edge_curves(table).min_abs_at_zero
    except NoMidGapState:
        e0 = math.nan
    # NaN also when the grid has no k = 0 or keeps nothing there
    min_abs_e0 = e0 if math.isfinite(e0) else None
    crossing = e0 < 1e-6 * profile.b_plus
    _dump_json(out / "summary.json", {
        "min_abs_E0": min_abs_e0,
        "gap_width": gap_width,
        "crossing": crossing,
        "config": cfg,
    })
    print(f"spectrum: min|E(0)| = {min_abs_e0}, crossing = {crossing}")
    if cfg["require_crossing"] and not crossing:
        return 3
    return 0


def cmd_match_c(cfg: dict) -> int:
    profile = _profile(cfg)
    if profile.delta_plus == 0.0 or profile.delta_minus == 0.0:
        raise ConfigError("matching requires nonzero delta on both sides")
    out = _out_dir(cfg)
    c_star = matching_c_star(profile)
    tuned = profile.with_c(c_star)
    kind = InterfaceKind.TYPE_I
    table = supercell_spectrum(kind, tuned, None, [0.0], N=int(cfg["n_cells"]))
    vals = table.eigenvalues[0][table.kept[0]]
    resid = float(np.abs(vals).min())
    f1p = p_eigen(profile.b_plus, profile.delta_plus, 0.0).f1
    f1m = p_eigen(profile.b_minus, profile.delta_minus, 0.0).f1
    _dump_json(out / "match_c.json", {
        "c_star": c_star,
        "f1_plus": f1p,
        "f1_minus": f1m,
        "min_abs_E0_at_c_star": resid,
        "config": cfg,
    })
    print(f"c* = {c_star:.12g} (supercell min|E(0)| = {resid:.3e})")
    return 0


def cmd_exist(cfg: dict) -> int:
    kind, profile = _kind(cfg), _profile(cfg)
    k = float(cfg["k"])
    out = _out_dir(cfg)
    if kind is InterfaceKind.TYPE_I:
        c_test = float(cfg["c_test"]) if cfg["c_test"] is not None else profile.c
        exists = type1_zero_exists(profile, c_test, k)
    else:
        c_test = profile.c
        exists = type2_zero_exists(profile)
    _dump_json(out / "exist.json", {
        "exists": bool(exists),
        "kind": kind.value,
        "k": k,
        "c_test": c_test,
        "config": cfg,
    })
    print(f"zero modes exist: {exists}")
    return 0


def cmd_evolve(cfg: dict) -> int:
    kind, profile = _kind(cfg), _profile(cfg)
    if int(cfg["stride"]) < 1:
        raise ConfigError("stride must be at least 1")
    if not float(cfg["width"]) > 0:
        raise ConfigError("width must be positive")
    out = _out_dir(cfg)
    origin = None
    if cfg["origin_m"] is not None and cfg["origin_n"] is not None:
        origin = (int(cfg["origin_m"]), int(cfg["origin_n"]))
    bend = None
    if cfg["bend_m"] is not None:
        bend = (int(cfg["bend_m"]), int(cfg["turn"]))
    spec = DomainSpec(kind, (int(cfg["extent_m"]), int(cfg["extent_n"])), profile,
                      bend=bend, origin=origin)
    domain = build_domain(spec)
    state = initial_wavepacket(domain, profile, float(cfg["center_m"]),
                               float(cfg["width"]), int(cfg["direction"]))
    dt = float(cfg["dt"]) if cfg["dt"] is not None else None
    manifest = record_run(domain, state, float(cfg["t_final"]), out,
                          stride=int(cfg["stride"]), dt=dt, config=cfg)
    print(f"evolve: {manifest['steps']} steps, final norm "
          f"{manifest['series']['norm'][-1]:.9f}")
    return 0


def cmd_bulk(cfg: dict) -> int:
    b, eps = float(cfg["b"]), float(cfg["eps"])
    if b <= 0 or b + eps <= 0:
        raise ConfigError("need b > 0 and b + eps > 0")
    out = _out_dir(cfg)
    path = default_k_path(int(cfg["path_points"]))
    bands = bulk_bands(b, eps, path, check_gap=True)
    write_bands_csv(bands, out / "bands.csv")
    payload = {
        "gamma_eigenvalues": [float(x) for x in gamma_eigs(b, eps)],
        "gap_law_checked": True,
        "dirac": eps == 0.0,
        "config": cfg,
    }
    if eps == 0.0:
        payload["slope"] = dirac_slope(b)
    _dump_json(out / "bulk.json", payload)
    print(f"bulk: gamma eigenvalues {payload['gamma_eigenvalues']}")
    return 0


def _add_common(p: argparse.ArgumentParser, keys) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--out", dest="out_dir", type=str, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="reserved; runs are deterministic")
    if "kind" in keys:
        p.add_argument("--kind", choices=["type1", "type2"], default=None)
        for key in ("b-plus", "b-minus", "delta-plus", "delta-minus", "c"):
            p.add_argument(f"--{key}", dest=key.replace("-", "_"), type=float, default=None)
    if "n_cells" in keys:
        p.add_argument("--n-cells", dest="n_cells", type=int, default=None)
    if "k_points" in keys:
        p.add_argument("--k-points", dest="k_points", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgelab",
                                     description="edge-state analysis of generalized honeycomb interfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="filtered supercell spectrum over a k-grid")
    _add_common(p, _ALLOWED_KEYS["spectrum"])
    p.add_argument("--margin", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--require-crossing", dest="require_crossing",
                   action="store_const", const=True, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("match-c", help="matching coupling c* with supercell confirmation")
    _add_common(p, _ALLOWED_KEYS["match-c"])
    p.set_defaults(func=cmd_match_c)

    p = sub.add_parser("exist", help="zero-mode existence verdict")
    _add_common(p, _ALLOWED_KEYS["exist"])
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--c-test", dest="c_test", type=float, default=None)
    p.set_defaults(func=cmd_exist)

    p = sub.add_parser("evolve", help="wavepacket run with snapshot recording")
    _add_common(p, _ALLOWED_KEYS["evolve"])
    for key, typ in (("extent-m", int), ("extent-n", int), ("origin-m", int),
                     ("origin-n", int), ("bend-m", int), ("turn", int),
                     ("center-m", float), ("width", float), ("direction", int),
                     ("t-final", float), ("stride", int), ("dt", float)):
        p.add_argument(f"--{key}", dest=key.replace("-", "_"), type=typ, default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("bulk", help="bulk band structure and zone-center data")
    _add_common(p, _ALLOWED_KEYS["bulk"])
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--path-points", dest="path_points", type=int, default=None)
    p.set_defaults(func=cmd_bulk)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"cmd_spectrum": "spectrum", "cmd_match_c": "match-c",
               "cmd_exist": "exist", "cmd_evolve": "evolve",
               "cmd_bulk": "bulk"}[args.func.__name__]
    try:
        cfg = _load_config(command, args)
        return args.func(cfg)
    except (ConfigError, ValueError) as exc:
        # library preconditions (supercell size, domain extent, ...) are
        # configuration errors at this level
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoMidGapState, NotAZeroMode, DegenerateGapless) as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return 3
    except StepTooLarge as exc:
        print(f"numerical precondition violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
