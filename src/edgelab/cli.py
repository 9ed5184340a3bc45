"""Command-line front end.

Subcommands: spectrum | match-c | exist | evolve | bulk.  Parameters come
from a flat JSON config file, overridden by command-line flags; ``_SETTINGS``
declares each one's type, default and commands once.  Every output JSON
embeds the fully resolved configuration.  Outputs are byte-stable for
identical configs on one machine and BLAS (without numpy's bundled OpenBLAS,
also one BLAS thread count): fixed eigensolver ordering, fixed sign
conventions, no timestamps.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._platform import one_blas_thread
from .bulk import bulk_bands, default_k_path, dirac_slope, gamma_eigs, write_bands_csv
from .dynamics import DomainSpec, build_domain, initial_wavepacket, record_run
from .errors import ConfigError, EdgelabError, NoMidGapState
from .hamiltonian import HoppingProfile
from .lattice import InterfaceKind
from .output import write_json
from .spectrum import (
    DEFAULT_K_POINTS,
    DEFAULT_MARGIN,
    DEFAULT_N,
    DEFAULT_THRESHOLD,
    edge_curves,
    min_abs_kept,
    min_abs_kept_at,
    supercell_spectrum,
    write_spectrum_csv,
)
from .transfer import (
    matching_coupling,
    type1_zero_exists,
    type2_zero_exists,
)

# The commands that take a hopping profile: all but bulk.
_PROFILED = ("spectrum", "match-c", "exist", "evolve")

# key: (type, default, commands).  Each key is the flag --key-with-dashes
# (out_dir is --out) on those commands and a config-file key of that JSON
# type; None is a valid value only where it is the default ("unset").
_SETTINGS = {
    "kind": (str, "type1", ("spectrum", "exist", "evolve")),  # match-c solves type I
    "b_plus": (float, 60.0, _PROFILED),
    "b_minus": (float, 60.0, _PROFILED),
    "delta_plus": (float, 30.0, _PROFILED),
    "delta_minus": (float, -30.0, _PROFILED),
    "c": (float, 50.0, ("spectrum", "exist", "evolve")),  # match-c takes c*
    "out_dir": (str, "edgelab_out", _PROFILED + ("bulk",)),
    "n_cells": (int, DEFAULT_N, ("spectrum", "match-c")),
    "k_points": (int, DEFAULT_K_POINTS, ("spectrum",)),
    "margin": (int, DEFAULT_MARGIN, ("spectrum",)),
    "threshold": (float, DEFAULT_THRESHOLD, ("spectrum",)),
    "require_crossing": (bool, False, ("spectrum",)),
    "k": (float, 0.0, ("exist",)),
    "extent_m": (int, 60, ("evolve",)),
    "extent_n": (int, 40, ("evolve",)),
    "origin_m": (int, None, ("evolve",)),
    "origin_n": (int, None, ("evolve",)),
    "bend_m": (int, None, ("evolve",)),
    "turn": (int, 1, ("evolve",)),
    "center_m": (float, -10.0, ("evolve",)),
    "width": (float, 8.0, ("evolve",)),
    "direction": (int, 1, ("evolve",)),
    "t_final": (float, 1.0, ("evolve",)),
    "stride": (int, 400, ("evolve",)),
    "dt": (float, None, ("evolve",)),
    "b": (float, 5.0, ("bulk",)),
    "eps": (float, 2.0, ("bulk",)),
    "path_points": (int, 120, ("bulk",)),
}


def _checked(key: str, value):
    typ, default, _ = _SETTINGS[key]
    if value is None and default is None:
        return None
    if typ is float and type(value) in (int, float):  # bool is not a number here
        try:
            value = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            value = math.inf
        # flags and config files alike: NaN or infinity is never a valid setting
        if not math.isfinite(value):
            raise ConfigError(f"non-finite value for {key}: {value}")
        return value
    if type(value) is not typ:
        raise ConfigError(f"{key} must be of type {typ.__name__}, got {value!r}")
    return value


def _load_config(command: str, args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags; every value is then
    checked against its key's declared type."""
    keys = [key for key, (_, _, commands) in _SETTINGS.items() if command in commands]
    cfg = {key: _SETTINGS[key][1] for key in keys}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a flat JSON object")
        unknown = set(raw) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
        cfg.update(raw)
    cfg.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    return {key: _checked(key, value) for key, value in cfg.items()}


def _profile(cfg: dict, c: float | None = None) -> HoppingProfile:
    return HoppingProfile(
        b_plus=cfg["b_plus"], b_minus=cfg["b_minus"],
        delta_plus=cfg["delta_plus"], delta_minus=cfg["delta_minus"],
        c=cfg["c"] if c is None else c,
    )


def _kind(cfg: dict) -> InterfaceKind:
    try:
        return InterfaceKind(cfg["kind"])
    except ValueError as exc:
        raise ConfigError(f"kind must be 'type1' or 'type2', got {cfg['kind']!r}") from exc


def cmd_spectrum(cfg: dict) -> int:
    kind, profile = _kind(cfg), _profile(cfg)
    if cfg["k_points"] < 1:
        raise ConfigError("k_points must be at least 1")
    # inclusive grid, made bitwise antisymmetric so that every k pairs with
    # its mirror -k (one solve per pair); odd counts place a point at k = 0
    k_grid = np.linspace(-np.pi, np.pi, cfg["k_points"])
    k_grid = (k_grid - k_grid[::-1]) / 2
    table = supercell_spectrum(kind, profile, None, k_grid, N=cfg["n_cells"],
                               margin=cfg["margin"], threshold=cfg["threshold"])
    out = Path(cfg["out_dir"])
    write_spectrum_csv(table, out / "spectrum.csv")
    # summary.json stays strict JSON: a value that does not exist is null
    smallest = float(min_abs_kept(table).min())
    gap_width = 2.0 * smallest if math.isfinite(smallest) else None
    try:
        e0 = edge_curves(table).min_abs_at_zero
    except NoMidGapState:
        e0 = math.nan
    # NaN also when the grid has no k = 0 or keeps nothing there
    min_abs_e0 = e0 if math.isfinite(e0) else None
    crossing = e0 < 1e-6 * profile.b_plus
    write_json(out / "summary.json", {
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
    if cfg["delta_plus"] == 0.0 or cfg["delta_minus"] == 0.0:
        raise ConfigError("matching requires nonzero delta on both sides")
    c_star, f1p, f1m = matching_coupling(cfg["b_plus"], cfg["delta_plus"],
                                         cfg["b_minus"], cfg["delta_minus"])
    tuned = _profile(cfg, c_star)
    resid = min_abs_kept_at(InterfaceKind.TYPE_I, tuned, 0.0, cfg["n_cells"])
    write_json(Path(cfg["out_dir"]) / "match_c.json", {
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
    # one Brillouin zone for either kind, although type II decides at k = 0
    if not abs(cfg["k"]) <= math.pi:
        raise ConfigError(f"quasi-momentum k must be finite with |k| <= pi, got {cfg['k']}")
    if kind is InterfaceKind.TYPE_I:
        exists = type1_zero_exists(profile, profile.c, cfg["k"])
    else:
        exists = type2_zero_exists(profile)
    write_json(Path(cfg["out_dir"]) / "exist.json", {
        "exists": bool(exists),
        "kind": kind.value,
        "k": cfg["k"],
        "c_test": profile.c,
        "config": cfg,
    })
    print(f"zero modes exist: {exists}")
    return 0


def cmd_evolve(cfg: dict) -> int:
    kind, profile = _kind(cfg), _profile(cfg)
    if cfg["stride"] < 1:
        raise ConfigError("stride must be at least 1")
    if not cfg["width"] > 0:
        raise ConfigError("width must be positive")
    if cfg["direction"] not in (1, -1):
        raise ConfigError(f"direction must be +1 or -1, got {cfg['direction']}")
    if (cfg["origin_m"] is None) != (cfg["origin_n"] is None):
        raise ConfigError("origin_m and origin_n must be given together")
    origin = None if cfg["origin_m"] is None else (cfg["origin_m"], cfg["origin_n"])
    bend = None if cfg["bend_m"] is None else (cfg["bend_m"], cfg["turn"])
    # the packet's norm and the run's series take BLAS dot products, whose
    # bits depend on the BLAS thread count unless it is pinned
    with one_blas_thread():
        domain = build_domain(DomainSpec(kind, (cfg["extent_m"], cfg["extent_n"]), profile,
                                         bend=bend, origin=origin))
        state = initial_wavepacket(domain, profile, cfg["center_m"], cfg["width"], cfg["direction"])
        manifest = record_run(domain, state, cfg["t_final"], cfg["out_dir"],
                              stride=cfg["stride"], dt=cfg["dt"], config=cfg)
    print(f"evolve: {manifest['steps']} steps, final norm "
          f"{manifest['series']['norm'][-1]:.9f}")
    return 0


def cmd_bulk(cfg: dict) -> int:
    b, eps = cfg["b"], cfg["eps"]
    if cfg["path_points"] < 1:
        raise ConfigError("path_points must be at least 1")
    bands = bulk_bands(b, eps, default_k_path(cfg["path_points"]))
    payload = {
        "gamma_eigenvalues": [float(x) for x in gamma_eigs(b, eps)],
        "gap_law_checked": True,
        "dirac": eps == 0.0,
        "config": cfg,
    }
    if eps == 0.0:  # before any file, so a cone that fails the fit leaves none
        payload["slope"] = dirac_slope(b)
    out = Path(cfg["out_dir"])
    write_bands_csv(bands, out / "bands.csv")
    write_json(out / "bulk.json", payload)
    print(f"bulk: gamma eigenvalues {payload['gamma_eigenvalues']}")
    return 0


# command: (help, handler)
_COMMANDS = {
    "spectrum": ("filtered supercell spectrum over a k-grid", cmd_spectrum),
    "match-c": ("matching coupling c* with supercell confirmation", cmd_match_c),
    "exist": ("zero-mode existence verdict", cmd_exist),
    "evolve": ("wavepacket run with snapshot recording", cmd_evolve),
    "bulk": ("bulk band structure and zone-center data", cmd_bulk),
}


@functools.cache  # built on first use, then shared by every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgelab",
                                     description="edge-state analysis of generalized honeycomb interfaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        # no prefixes: `match-c --c 7` must not read as `--config 7`
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        for key, (typ, _, commands) in _SETTINGS.items():
            if command not in commands:
                continue
            flag = "--out" if key == "out_dir" else "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True)
            else:
                choices = [kind.value for kind in InterfaceKind] if key == "kind" else None
                p.add_argument(flag, dest=key, type=typ, choices=choices)
    return parser


def _check_out(out_dir: str) -> None:
    """Refuse an ``--out`` that cannot be written before any work, and make
    nothing: its nearest existing ancestor, itself included, must be a
    writable directory."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.command, args)
        _check_out(cfg["out_dir"])
        # an overflow raises here rather than carry inf into a verdict
        with np.errstate(over="raise"):
            return _COMMANDS[args.command][1](cfg)
    except EdgelabError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        # library preconditions (supercell size, domain extent, ...) are
        # configuration errors at this level
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"config error: floating-point overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the config file is read, and its errors mapped, above
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
