import json
import os
import shlex
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from edgelab.cli import _load_config, build_parser, main

from blas_route import blas_threads


def run(argv):
    return main(argv)


def test_exist_type2_dichotomy(tmp_path):
    out = tmp_path / "o"
    code = run(["exist", "--kind", "type2", "--delta-plus", "30", "--delta-minus", "30",
                "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "exist.json").read_text())
    assert payload["exists"] is False
    assert payload["config"]["delta_plus"] == 30.0

    code = run(["exist", "--kind", "type2", "--delta-plus", "30", "--delta-minus", "-30",
                "--out", str(out)])
    assert code == 0
    assert json.loads((out / "exist.json").read_text())["exists"] is True


def test_exist_type1_tuned(tmp_path):
    out = tmp_path / "o"
    code = run(["exist", "--kind", "type1", "--delta-plus", "30", "--delta-minus", "-30",
                "--c", "63.544340067076796", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "exist.json").read_text())["exists"] is True


def test_config_error_exit_codes(tmp_path):
    assert run(["exist", "--kind", "type1", "--b-plus", "-5", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert run(["exist", "--config", str(bad), "--out", str(tmp_path)]) == 2
    notjson = tmp_path / "broken.json"
    notjson.write_text("{")
    assert run(["exist", "--config", str(notjson), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags", [
    ["--kind", "type1", "--k", "nan"],
    ["--kind", "type2", "--k", "nan"],
    ["--kind", "type1", "--k", "inf"],
    ["--kind", "type2", "--k", "inf"],
    ["--kind", "type1", "--c", "inf"],
])
def test_exist_rejects_non_finite_inputs(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert run(["exist", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "exist.json").exists()


@pytest.mark.parametrize("k, code", [("1e308", 2), ("4.0", 2), ("-4.0", 2),
                                     ("3.141592653589793", 0), ("-3.141592653589793", 0)])
def test_exist_type1_takes_k_in_one_zone(tmp_path, capsys, k, code):
    # exp(2ik) is NaN at k = 1e308, and the verdict used to be computed from it
    out = tmp_path / "o"
    assert run(["exist", "--kind", "type1", f"--k={k}", "--out", str(out)]) == code
    assert (out / "exist.json").exists() == (code == 0)
    if code == 2:
        assert capsys.readouterr().err.startswith("config error: quasi-momentum k must be")


@pytest.mark.parametrize("k", ["1e308", "4.0", "-4.0"])
def test_exist_type2_takes_k_in_one_zone(tmp_path, capsys, k):
    # type II decides at k = 0 alone, but a k it never checked was recorded
    out = tmp_path / "o"
    argv = ["exist", "--kind", "type2", "--delta-plus", "30", "--delta-minus=-30"]
    assert run([*argv, f"--k={k}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: quasi-momentum k must be")
    assert not out.exists()
    assert run([*argv, "--k=-3.141592653589793", "--out", str(out)]) == 0
    assert json.loads((out / "exist.json").read_text())["exists"] is True


@pytest.mark.parametrize("argv", [
    ["exist", "--kind", "type2", "--delta-plus", "30", "--delta-minus", "-30"],
    ["bulk", "--path-points", "4"],
    ["evolve", "--kind", "type2", "--extent-m", "24", "--extent-n", "22", "--t-final", "0.01"],
    ["spectrum", "--kind", "type2", "--n-cells", "80", "--k-points", "21"],
])
@pytest.mark.parametrize("below", [False, True])
def test_unwritable_out_exits_2(tmp_path, monkeypatch, capsys, argv, below):
    # --out names a regular file, or a directory inside one; it is refused
    # before any solve or domain build, and nothing is created
    import edgelab.cli as cli

    def fail(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "supercell_spectrum", fail)
    monkeypatch.setattr(cli, "build_domain", fail)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "o" if below else taken
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write output:")
    assert taken.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("c", ["1e-160", "1e-200", "1e150", "1e300"])
@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_exist_at_extreme_couplings_never_decides_from_nan(tmp_path, capsys, kind, c):
    # type I compares directions without an infinite ratio, so it decides;
    # an interface-row entry of type II that overflows exits 2
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["exist", "--kind", kind, "--c", c, "--out", str(out)])
    err = capsys.readouterr().err
    if kind == "type1":
        assert code == 0, err
        assert _strict_json((out / "exist.json").read_text())["exists"] is False
    else:
        assert code == 2
        assert err.startswith("config error: floating-point overflow:"), err
        assert not out.exists()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("flags, null_key", [
    (["--k-points", "4"], "min_abs_E0"),  # an even grid has no k = 0
    (["--k-points", "3", "--threshold", "1e-12"], "gap_width"),  # nothing is kept
])
def test_spectrum_summary_is_strict_json(tmp_path, flags, null_key):
    out = tmp_path / "o"
    assert run(["spectrum", "--kind", "type2", "--n-cells", "24", *flags, "--out", str(out)]) == 0
    summary = _strict_json((out / "summary.json").read_text())
    assert summary[null_key] is None
    assert summary["crossing"] is False


def test_spectrum_crossing_verdicts(tmp_path):
    out = tmp_path / "cross"
    code = run(["spectrum", "--kind", "type2", "--delta-plus", "30", "--delta-minus", "-30",
                "--c", "50", "--n-cells", "40", "--k-points", "5", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["crossing"] is True
    assert summary["min_abs_E0"] < 1e-6 * 60

    out2 = tmp_path / "gapped"
    code = run(["spectrum", "--kind", "type1", "--delta-plus", "30", "--delta-minus", "30",
                "--c", "50", "--n-cells", "40", "--k-points", "5",
                "--require-crossing", "--out", str(out2)])
    assert code == 3
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["crossing"] is False
    assert summary["gap_width"] > 2.0


def test_spectrum_csv_shape(tmp_path):
    out = tmp_path / "s"
    run(["spectrum", "--kind", "type2", "--n-cells", "30", "--k-points", "3",
         "--out", str(out)])
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,eig_index,energy,localization,kept"
    assert len(lines) == 1 + 3 * 6 * 61


def test_match_c(tmp_path):
    out = tmp_path / "m"
    code = run(["match-c", "--b-plus", "60", "--b-minus", "60", "--delta-plus", "30",
                "--delta-minus", "-30", "--n-cells", "40", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "match_c.json").read_text())
    assert "c" not in payload["config"]  # c* replaces any coupling
    assert payload["c_star"] == pytest.approx(63.544340067076796, rel=1e-12)
    assert payload["min_abs_E0_at_c_star"] < 1e-6 * 60
    assert payload["f1_plus"] < 0 and payload["f1_minus"] < 0
    assert run(["match-c", "--delta-plus", "0", "--out", str(out)]) == 2


def test_match_c_takes_no_coupling(tmp_path, capsys):
    # match-c replaces c by c*, so it neither reads nor records a --c; nor is
    # --c taken as a prefix of --config
    out = tmp_path / "m"
    with pytest.raises(SystemExit) as exc:
        run(["match-c", "--c", "7", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --c 7" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"c": 7.0}')
    assert run(["match-c", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config keys for match-c: ['c']" in capsys.readouterr().err
    assert not out.exists()


def test_match_c_takes_no_kind(tmp_path, capsys):
    # match-c always solves type I, so it neither reads nor records a --kind
    out = tmp_path / "m"
    with pytest.raises(SystemExit) as exc:
        run(["match-c", "--kind", "type2", "--n-cells", "24", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kind type2" in capsys.readouterr().err
    assert run(["match-c", "--n-cells", "24", "--out", str(out)]) == 0
    assert "kind" not in json.loads((out / "match_c.json").read_text())["config"]


def test_bulk_command(tmp_path):
    out = tmp_path / "b"
    code = run(["bulk", "--b", "5", "--eps", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "bulk.json").read_text())
    assert payload["dirac"] is True
    assert payload["slope"] == pytest.approx(2.5, rel=1e-4)
    assert (out / "bands.csv").exists()

    code = run(["bulk", "--b", "5", "--eps", "2", "--out", str(out)])
    payload = json.loads((out / "bulk.json").read_text())
    assert payload["dirac"] is False
    assert np.allclose(payload["gamma_eigenvalues"], [-17, -2, -2, 2, 2, 17], atol=1e-9)
    assert run(["bulk", "--b", "-1", "--out", str(out)]) == 2


def test_evolve_and_step_precondition(tmp_path):
    out = tmp_path / "e"
    code = run(["evolve", "--kind", "type2", "--extent-m", "26", "--extent-n", "22",
                "--center-m", "0", "--width", "4", "--t-final", "0.02",
                "--stride", "50", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert abs(manifest["series"]["norm"][-1] - 1.0) < 1e-8
    assert (out / "snapshot_0000.csv").exists()

    code = run(["evolve", "--kind", "type2", "--extent-m", "26", "--extent-n", "22",
                "--center-m", "0", "--width", "4", "--t-final", "0.02",
                "--dt", "0.5", "--out", str(out)])
    assert code == 4


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "det"
    args = ["spectrum", "--kind", "type2", "--n-cells", "30", "--k-points", "3",
            "--out", str(out)]
    assert run(args) == 0
    first_csv = (out / "spectrum.csv").read_bytes()
    first_json = (out / "summary.json").read_bytes()
    assert run(args) == 0
    assert (out / "spectrum.csv").read_bytes() == first_csv
    assert (out / "summary.json").read_bytes() == first_json


def test_spectrum_grid_is_antisymmetric_and_reruns_identical(tmp_path):
    out = tmp_path / "sym"
    args = ["spectrum", "--kind", "type2", "--n-cells", "24", "--k-points", "7",
            "--out", str(out)]
    assert run(args) == 0
    first = (out / "spectrum.csv").read_bytes()
    rows = [line.split(",") for line in first.decode().splitlines()[1:]]
    ks = list(dict.fromkeys(float(r[0]) for r in rows))  # %.17g round-trips
    assert len(ks) == 7 and ks[3] == 0.0
    assert ks == [-k for k in ks[::-1]]
    by_k = {}
    for r in rows:
        by_k.setdefault(float(r[0]), []).append(r[1:])
    assert all(by_k[k] == by_k[-k] for k in ks)  # mirror rows are identical
    assert run(args) == 0
    assert (out / "spectrum.csv").read_bytes() == first


@pytest.mark.parametrize("argv", [
    ["evolve", "--kind", "type2", "--extent-m", "24", "--extent-n", "22",
     "--t-final", "0.01", "--width", "inf"],
    ["evolve", "--kind", "type2", "--extent-m", "24", "--extent-n", "22",
     "--t-final", "0.01", "--center-m", "nan"],
    ["bulk", "--eps", "nan"],
    ["bulk", "--b", "inf"],
    ["spectrum", "--kind", "type2", "--n-cells", "24", "--threshold", "inf"],
    ["match-c", "--delta-minus=-inf"],
])
def test_non_finite_flags_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic
        assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "non-finite" in err
    assert not list(tmp_path.rglob("*.json"))


@pytest.mark.parametrize("command, text", [
    ("evolve", '{"width": NaN, "extent_m": 24, "extent_n": 22, "t_final": 0.01}'),
    ("bulk", '{"eps": Infinity}'),
    ("exist", '{"kind": "type2", "k": NaN}'),
    ("spectrum", '{"delta_plus": 1e999}'),  # overflows to infinity
])
def test_non_finite_config_values_exit_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["exist", "--kind", "type1", "--c", "0"],
    ["exist", "--kind", "type1", "--c", "-1"],
    ["exist", "--kind", "type2", "--delta-plus", "nan"],
    ["spectrum", "--n-cells", "20"],  # default margin is not below N/4
    ["evolve", "--extent-m", "10"],
    ["bulk", "--path-points", "0"],
    ["bulk", "--path-points=-5"],
])
def test_out_of_range_inputs_exit_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kind", "type2", "--n-cells", "300000", "--k-points", "3"],  # 189 TiB
    ["match-c", "--n-cells", "300000"],  # 189 TiB
    ["evolve", "--kind", "type2", "--extent-m", "10000000", "--extent-n", "10000000",
     "--t-final", "0.001"],  # 728 TiB
])
def test_inputs_too_large_for_memory_exit_2(tmp_path, capsys, argv):
    # each asks for more than the 128 TiB user address space, so the
    # allocation fails at once whatever the overcommit policy
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: not enough memory:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_evolve_rejects_zero_stride_before_building(tmp_path, monkeypatch, capsys):
    import edgelab.cli as cli

    def build_domain(spec):
        raise AssertionError("domain built before the stride was checked")

    monkeypatch.setattr(cli, "build_domain", build_domain)
    assert run(["evolve", "--stride", "0", "--out", str(tmp_path)]) == 2
    assert "stride" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--center-m", "1000"],  # the envelope misses the domain
    ["--width", "0"],
    ["--width", "-4"],  # the envelope is even in the width
    ["--t-final", "-1"],
    ["--dt", "-0.0001"],
])
def test_evolve_degenerate_inputs_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "o"
    argv = ["evolve", "--kind", "type2", "--extent-m", "24", "--extent-n", "22",
            "--t-final", "0.01", *flags, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not list(out.glob("snapshot_*.csv"))


@pytest.mark.parametrize("flags", [
    ["--margin", "0"],
    ["--margin", "-1"],
    ["--threshold", "nan"],
    ["--k-points", "0"],
])
def test_spectrum_degenerate_inputs_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "o"
    argv = ["spectrum", "--kind", "type2", "--n-cells", "24", "--k-points", "3",
            *flags, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (out / "spectrum.csv").exists()


def test_evolve_rejects_unbounded_snapshot_schedule(tmp_path, capsys):
    out = tmp_path / "o"
    start = time.perf_counter()
    # a valid step that would schedule about 2.5e9 snapshots
    code = run(["evolve", "--kind", "type2", "--extent-m", "24", "--extent-n", "22",
                "--t-final", "1", "--dt", "1e-12", "--out", str(out)])
    assert code == 2
    assert time.perf_counter() - start < 10.0
    assert "snapshots" in capsys.readouterr().err
    assert not list(out.glob("snapshot_*.csv"))


@pytest.mark.parametrize("flags, word", [
    (["--bend-m", "3", "--turn", "0"], "turn"),
    (["--bend-m", "3", "--turn", "7"], "turn"),
    (["--origin-m", "-30"], "origin"),  # used to run a centred domain
    (["--origin-n", "-20"], "origin"),
    (["--direction", "0"], "direction"),  # used to run a left-moving packet
])
def test_evolve_rejects_inputs_it_would_ignore(tmp_path, capsys, flags, word):
    out = tmp_path / "o"
    argv = ["evolve", "--kind", "type2", "--extent-m", "24", "--extent-n", "22",
            "--t-final", "0.01", *flags, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and word in err
    assert not out.exists()


@pytest.mark.parametrize("b, eps", [("1e8", "1e-3"), ("9.7", "1e15")])
def test_bulk_gap_law_tolerance_scales_with_the_hoppings(tmp_path, b, eps):
    # eigvalsh rounding grows with ||H|| = 3b + |eps|; an absolute 1e-9 failed both
    assert run(["bulk", "--b", b, "--eps", eps, "--out", str(tmp_path / "o")]) == 0


def test_bulk_gap_law_violation_is_a_domain_failure(tmp_path, monkeypatch, capsys):
    import edgelab.bulk as bulk

    bulk_h = bulk.bulk_h
    monkeypatch.setattr(bulk, "bulk_h", lambda b, eps, k=(0.0, 0.0): bulk_h(b, eps, k) + abs(eps) / 2 * np.eye(6))
    out = tmp_path / "o"
    assert run(["bulk", "--b", "1e8", "--eps", "1e-3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain failure:") and "gap law" in err
    assert not (out / "bulk.json").exists()


def _error_classes():
    import edgelab.errors as errors

    return [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.EdgelabError)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_library_error_exits_with_its_code(tmp_path, monkeypatch, capsys, cls):
    # a NotConical from bulk's slope fit used to end in a traceback; the
    # slope is now taken before bands.csv, so a failed fit leaves no files
    import edgelab.cli as cli

    expected = {"ConfigError": (2, "config error"),
                "StepTooLarge": (4, "numerical precondition violated")}
    code, label = expected.get(cls.__name__, (3, "domain failure"))

    def fail(b):
        raise cls("reason")

    monkeypatch.setattr(cli, "dirac_slope", fail)
    out = tmp_path / "o"
    assert run(["bulk", "--eps", "0", "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{label}: reason\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bulk", "--b", "1e-320", "--eps", "0"],  # wrote "slope": 2.47e-321, half the true one
    ["bulk", "--b", "5e-324", "--eps", "0"],  # wrote "slope": 0.0 from a NaN spread
    ["bulk", "--b", "3e-308", "--eps=-2.5e-308", "--path-points", "4"],  # b + eps = 5e-309
    ["exist", "--kind", "type2", "--b-plus", "1e-320"],
    ["exist", "--kind", "type1", "--b-minus", "3e-308", "--delta-minus=-2.5e-308"],
    ["match-c", "--b-plus", "1e-320", "--n-cells", "24"],
    ["match-c", "--b-minus", "3e-308", "--delta-minus=-2.5e-308", "--n-cells", "24"],
])
def test_subnormal_hoppings_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("config error: need b > 0 and b + eps > 0",
                           "config error: interface hopping c must be")), err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["exist", "--kind", "type2", "--b-plus", "141.6", "--b-minus", "146.9",
     "--delta-plus", "67.9", "--delta-minus", "-86.6", "--c", "1e300"],
    ["match-c", "--b-plus", "101.7", "--b-minus", "1e-300", "--delta-plus", "126",
     "--delta-minus", "18.5", "--n-cells", "24"],
])
def test_overflow_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "overflow" in err
    assert not list(tmp_path.rglob("*.json"))


@pytest.mark.parametrize("k", ["3.0761136677239937", "0.5", "0"])
def test_detuning_that_rounds_into_b_exits_3(tmp_path, capsys, k):
    # b+ + delta+ rounds to b+ = 1e300: the material has lost its detuning at
    # every k (an overflowed norm once gave "exists": true here, then exit 2)
    argv = ["exist", "--kind", "type1", "--b-plus", "1e300", "--b-minus", "60",
            "--delta-plus", "124.7", "--delta-minus", "-27.7", "--c", "60", "--k", k]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("domain failure: b + eps == b")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["exist", "--kind", "type1"],
    ["exist", "--kind", "type2"],
    ["match-c"],
    ["spectrum", "--kind", "type2", "--n-cells", "24", "--k-points", "3"],
    ["evolve", "--kind", "type2", "--extent-m", "24", "--extent-n", "22", "--t-final", "0.01"],
])
def test_overflowing_intercell_hopping_exits_2(tmp_path, capsys, argv):
    # b and delta are finite, but the intercell hopping b + delta overflows;
    # type I used to print a verdict computed from NaN and exit 0
    out = tmp_path / "o"
    assert run([*argv, "--b-plus", "1e308", "--delta-plus", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: need b > 0 and b + eps > 0")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kind", "type1", "--n-cells", "32", "--k-points", "3", "--b-plus", "1e308",
     "--c", "0.0231"],
    ["bulk", "--b", "1e308", "--eps", "1"],
])
def test_overflowing_energies_exit_2(tmp_path, capsys, argv):
    # valid hoppings whose energies overflow in the eigensolver: the files
    # used to carry +-inf energies (and -Infinity in bulk.json) with exit 0
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: floating-point overflow:")
    assert not out.exists()


def test_exist_near_zero_detuning_is_degenerate(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # b + 1e-300 rounds to b, so P(0) is exactly the identity
        assert run(["exist", "--kind", "type1", "--delta-plus", "1e-300",
                    "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("command, cfg", [
    ("evolve", {"width": "inf", "kind": "type2", "extent_m": 24, "extent_n": 22, "t_final": 0.01}),
    ("spectrum", {"require_crossing": "false", "kind": "type2", "n_cells": 24, "k_points": 3}),
    ("spectrum", {"n_cells": 24.9, "kind": "type2", "k_points": 3}),
    ("match-c", {"b_plus": "60"}),
    ("bulk", {"seed": 1}),
    ("exist", {"kind": "type2", "delta_plus": 10 ** 400}),  # beyond the float range
])
def test_config_values_must_have_their_keys_type(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_config_file_number_embeds_like_the_flag(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"delta_plus": 30}')
    out = tmp_path / "o"
    argv = ["spectrum", "--kind", "type2", "--n-cells", "24", "--k-points", "3", "--out", str(out)]
    assert run(argv + ["--config", str(path)]) == 0
    from_file = (out / "summary.json").read_bytes()
    assert run(argv + ["--delta-plus", "30"]) == 0
    assert (out / "summary.json").read_bytes() == from_file


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=lambda argv: argv[1])
def test_readme_command_lines_parse(argv):
    assert argv[0] == "edgelab"
    args = build_parser().parse_args(argv[1:])
    cfg = _load_config(args.command, args)
    for key, value in vars(args).items():
        if key in cfg and value is not None:
            assert cfg[key] == value


@pytest.mark.parametrize("delta_minus", ["-2", "-1"])
def test_exist_type2_slowly_decaying_pair(tmp_path, delta_minus):
    # supports of 260 and 2214 cells a side
    out = tmp_path / "o"
    assert run(["exist", "--kind", "type2", "--delta-plus", "30", f"--delta-minus={delta_minus}",
                "--out", str(out)]) == 0
    assert json.loads((out / "exist.json").read_text())["exists"] is True


def test_exist_type2_support_beyond_the_limit_is_a_domain_failure(tmp_path, capsys):
    out = tmp_path / "o"
    start = time.perf_counter()
    assert run(["exist", "--kind", "type2", "--delta-plus", "30", "--delta-minus=-1e-3",
                "--out", str(out)]) == 3
    assert time.perf_counter() - start < 5.0  # refused before anything is built
    err = capsys.readouterr().err
    assert err.startswith("domain failure:") and "2219982 cells" in err and "20000" in err
    assert not (out / "exist.json").exists()


@pytest.mark.parametrize("size", ["1e-200", "1e-15"])
def test_exist_type2_tiny_opposite_detunings(tmp_path, capsys, size):
    # the product of the two detunings underflows to -0.0 at 1e-200; the
    # signs still say the materials are distinct
    out = tmp_path / "o"
    assert run(["exist", "--kind", "type2", "--delta-plus", size, f"--delta-minus=-{size}",
                "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("domain failure:")
    assert run(["exist", "--kind", "type2", "--delta-plus", size, "--delta-minus", size,
                "--out", str(out)]) == 0
    assert json.loads((out / "exist.json").read_text())["exists"] is False


@pytest.mark.parametrize("argv,code", [
    (["spectrum", "--kind", "type2", "--delta-plus", "30", "--delta-minus=-30", "--n-cells", "10"], 2),
    (["match-c", "--delta-plus", "30", "--delta-minus=-30", "--n-cells", "10"], 2),
    (["exist", "--kind", "type2", "--delta-plus", "30", "--delta-minus=-1e-3"], 3),
])
def test_failed_command_leaves_no_output_directory(tmp_path, capsys, argv, code):
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == code
    assert not out.exists()


def test_commands_without_a_2d_domain_never_load_scipy(tmp_path):
    # only evolve's domain needs scipy.sparse; a fresh interpreter shows what
    # importing the CLI and running the other commands pulls in
    src = Path(__file__).resolve().parents[1] / "src"
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "import edgelab.cli as cli",
        "assert cli.main(['exist', '--kind', 'type2', '--out', 'e']) == 0",
        "assert cli.main(['bulk', '--out', 'b']) == 0",
        "assert cli.main(['match-c', '--n-cells', '24', '--out', 'm']) == 0",
        "assert cli.main(['spectrum', '--n-cells', '24', '--k-points', '3', '--out', 's']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


# 10,560 sites: OpenBLAS threads dot products there, and these files differed
# between one and two threads while the packet's norm and the series' norms
# and energies were BLAS dot products
_THREADED_EVOLVE = ["evolve", "--kind", "type2", "--extent-m", "40", "--extent-n", "44",
                    "--t-final", "0.01"]


def test_evolve_bytes_do_not_depend_on_openblas_num_threads(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for threads in ("1", "2", "4"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        where = tmp_path / threads
        where.mkdir()
        result = subprocess.run([sys.executable, "-m", "edgelab", *_THREADED_EVOLVE, "--out", "o"],
                                cwd=where, env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        runs.append({path.name: path.read_bytes() for path in sorted((where / "o").iterdir())})
    assert len(runs[0]) == 3 and runs[0] == runs[1] == runs[2]


def test_evolve_reports_a_snapshot_the_writer_cannot_write(tmp_path, capsys):
    # the writer thread fails on the first snapshot while the run goes on;
    # the next send finds the failure and stops the run
    out = tmp_path / "o"
    (out / "snapshot_0000.csv").mkdir(parents=True)
    assert run([*_THREADED_EVOLVE, "--stride", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: cannot write output: [Errno 21] "
                                       f"Is a directory: '{out / 'snapshot_0000.csv'}'\n")
    assert [path.name for path in out.iterdir()] == ["snapshot_0000.csv"]  # no manifest
    assert not [t for t in threading.enumerate() if t.name.startswith("edgelab-writer")]


def test_evolve_runs_unpinned_at_the_callers_thread_count(tmp_path, monkeypatch):
    import edgelab.cli as cli
    from edgelab import _platform

    def no_pin():
        raise AssertionError("evolve entered the BLAS pin")

    get, set_ = blas_threads()
    seen = []
    record_run = cli.record_run

    def recording(*args, **kwargs):
        seen.append(get())
        return record_run(*args, **kwargs)

    monkeypatch.setattr(_platform, "one_blas_thread", no_pin)
    monkeypatch.setattr(cli, "record_run", recording)
    saved = get()
    try:
        for threads in (1, 2, 3):
            set_(threads)
            assert run([*_THREADED_EVOLVE[:-1], "0.002", "--out", str(tmp_path / str(threads))]) == 0
            assert get() == threads
    finally:
        set_(saved)
    assert seen == [1, 2, 3]


_FUZZ_FLAGS = {
    "exist": ("b-plus", "b-minus", "delta-plus", "delta-minus", "c", "k"),
    "match-c": ("b-plus", "b-minus", "delta-plus", "delta-minus"),
    "bulk": ("b", "eps"),
}
_FUZZ_FIXED = {"exist": (), "match-c": ("--n-cells=24",), "bulk": ("--path-points=12",)}
_FUZZ_EDGES = (0.0, 1e-15, -1e-15, 1e-300, -1e-300, 1e300, -1e300, 1e308)


def _strict_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_cli_fuzz_exits_with_documented_codes(tmp_path, capsys):
    # every flag as --flag=value, or argparse reads -1e-300 as an option
    rng = np.random.default_rng(2026)
    for i in range(300):
        command = str(rng.choice(list(_FUZZ_FLAGS)))
        argv = [command, *_FUZZ_FIXED[command], f"--out={tmp_path / str(i)}"]
        if command == "exist":
            argv.append(f"--kind={rng.choice(['type1', 'type2'])}")
        for flag in _FUZZ_FLAGS[command]:
            if rng.random() < 0.5:  # an omitted flag keeps its valid default
                continue
            if rng.random() < 0.2:
                value = float(rng.choice(_FUZZ_EDGES))
            else:
                value = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-4.0, 4.0))
            argv.append(f"--{flag}={value!r}")
        try:
            code = run(argv)
        except Exception as exc:  # any exception escaping main is the failure
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 2, 3), argv
        if code == 0:
            for path in (tmp_path / str(i)).glob("*.json"):
                json.loads(path.read_text(), parse_constant=_strict_constant)
        capsys.readouterr()


def test_spectrum_fuzz_exits_with_documented_codes(tmp_path, capsys):
    # small supercells and few k-points: each case exits 0, 2 or 3 within its
    # time bound, and every file it leaves is strict JSON or an all-finite CSV
    rng = np.random.default_rng(2028)
    codes = []
    for i in range(150):
        out = tmp_path / str(i)
        argv = ["spectrum", f"--kind={rng.choice(['type1', 'type2'])}",
                f"--n-cells={rng.integers(16, 33)}", f"--k-points={rng.integers(0, 6)}",
                f"--margin={rng.integers(0, 6)}", f"--out={out}"]
        if rng.random() < 0.2:
            argv.append("--require-crossing")
        # mostly valid values; then perhaps an edge value or one of either sign
        b = 10 ** rng.uniform(0.0, 2.5, size=2)
        values = {"b-plus": b[0], "b-minus": b[1],
                  "delta-plus": rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.9) * b[0],
                  "delta-minus": rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.9) * b[1],
                  "c": 10 ** rng.uniform(-2.0, 2.5), "threshold": rng.uniform(0.0, 1.0)}
        for flag in values:
            if rng.random() < 0.12:
                values[flag] = rng.choice(_FUZZ_EDGES)
            elif rng.random() < 0.05:
                values[flag] = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-4.0, 4.0)
        argv += [f"--{flag}={float(value)!r}" for flag, value in values.items()]
        start = time.perf_counter()
        try:
            code = run(argv)
        except Exception as exc:  # any exception escaping main is the failure
            pytest.fail(f"{argv} raised {exc!r}")
        assert time.perf_counter() - start < 10.0, argv
        assert code in (0, 2, 3), argv
        codes.append(code)
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_strict_constant)
        if code != 2:
            rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)
            assert np.isfinite(rows).all(), argv
        capsys.readouterr()
    assert codes.count(0) >= 20  # a fair share of the draws are valid runs


def test_evolve_fuzz_exits_with_documented_codes(tmp_path, capsys, monkeypatch):
    # small domains and short runs: each case exits 0, 2, 3 or 4 within its
    # time bound, writes strict JSON, and on success its last snapshot is
    # the csv.writer rendering of the last propagated state
    import edgelab.cli as cli
    import edgelab.dynamics as dynamics
    from edgelab.hamiltonian import HoppingProfile
    from edgelab.transfer import matching_c_star
    from test_dynamics import _csv_writer_snapshot

    captured = {}
    record_run, propagate = dynamics.record_run, dynamics.propagate

    def recording_run(domain, state, *args, **kwargs):
        captured["positions"] = domain.positions
        captured["amplitudes"] = state.amplitudes
        return record_run(domain, state, *args, **kwargs)

    def recording_propagate(*args):
        captured["amplitudes"] = propagate(*args)
        return captured["amplitudes"]

    monkeypatch.setattr(cli, "record_run", recording_run)
    monkeypatch.setattr(dynamics, "propagate", recording_propagate)
    rng = np.random.default_rng(2027)
    codes = []
    for i in range(30):
        out = tmp_path / str(i)
        kind = str(rng.choice(["type1", "type2"]))
        extent = rng.integers(20, 27, size=2)
        argv = ["evolve", f"--kind={kind}", f"--extent-m={extent[0]}", f"--extent-n={extent[1]}",
                f"--center-m={float(rng.uniform(-0.6, 0.6) * extent[0])!r}",
                f"--width={float(rng.uniform(1.0, 6.0))!r}", f"--direction={rng.choice([-1, 1])}",
                f"--t-final={float(10 ** rng.uniform(-3.0, -1.7))!r}",
                f"--stride={rng.integers(20, 401)}", f"--out={out}"]
        if rng.random() < 0.5:
            argv += [f"--bend-m={rng.integers(-4, 5)}", f"--turn={rng.choice([-1, 1])}"]
        if rng.random() < 0.3:
            argv.append(f"--dt={float(10 ** rng.uniform(-4.5, -2.0))!r}")
        # mostly a profile with an edge state: opposite detunings for type II,
        # equal signs at the matching coupling for type I; then perhaps one
        # flag replaced by an edge value or a random one of either sign
        sign = float(rng.choice([-1.0, 1.0]))
        profile = HoppingProfile(*rng.uniform(45.0, 100.0, size=2), sign * rng.uniform(10.0, 40.0),
                                 (sign if kind == "type1" else -sign) * rng.uniform(10.0, 40.0),
                                 rng.uniform(20.0, 80.0))
        if kind == "type1" and rng.random() < 0.8:
            profile = profile.with_c(matching_c_star(profile))
        values = {"b-plus": profile.b_plus, "b-minus": profile.b_minus, "c": profile.c,
                  "delta-plus": profile.delta_plus, "delta-minus": profile.delta_minus}
        if rng.random() < 0.3:
            flag = str(rng.choice(list(values)))
            values[flag] = (rng.choice(_FUZZ_EDGES) if rng.random() < 0.5
                            else rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1.0, 3.0))
        argv += [f"--{flag}={float(value)!r}" for flag, value in values.items()]
        captured.clear()
        start = time.perf_counter()
        try:
            code = run(argv)
        except Exception as exc:  # any exception escaping main is the failure
            pytest.fail(f"{argv} raised {exc!r}")
        assert time.perf_counter() - start < 30.0, argv
        assert code in (0, 2, 3, 4), argv
        codes.append(code)
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_strict_constant)
        if code == 0:
            assert (out / "manifest.json").exists()
            last = sorted(out.glob("snapshot_*.csv"))[-1]
            assert last.read_bytes() == _csv_writer_snapshot(
                tmp_path / "reference.csv", captured["positions"], captured["amplitudes"]), argv
        capsys.readouterr()
    assert codes.count(0) >= 10  # most draws are valid runs


# every command; flags that one call sets and the next leaves unset; a
# config-file run; an argparse error in the middle
_REUSE_SEQUENCE = [
    ["exist", "--kind", "type1", "--c", "44", "--out", "e1"],
    ["exist", "--kind", "type1", "--out", "e2"],
    ["exist", "--config", "cfg.json"],
    ["exist", "--out", "e3"],
    ["spectrum", "--kind", "type2", "--n-cells", "24", "--k-points", "3", "--require-crossing",
     "--out", "s1"],
    ["exist", "--kind", "type3", "--out", "bad"],
    ["spectrum", "--kind", "type2", "--n-cells", "24", "--k-points", "3", "--out", "s2"],
    ["match-c", "--n-cells", "24", "--out", "m"],
    ["evolve", "--kind", "type2", "--extent-m", "26", "--extent-n", "22", "--center-m", "0",
     "--width", "4", "--t-final", "0.02", "--stride", "50", "--out", "v"],
    ["bulk", "--b", "3", "--eps", "0", "--out", "b1"],
    ["bulk", "--eps", "-2", "--out", "b2"],
]


def _run_sequence(root: Path, monkeypatch) -> tuple[list, dict]:
    root.mkdir()
    (root / "cfg.json").write_text(json.dumps({"kind": "type2", "delta_minus": 30, "out_dir": "c"}))
    monkeypatch.chdir(root)
    codes = []
    for argv in _REUSE_SEQUENCE:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(f"SystemExit({exc.code})")
    return codes, {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    import edgelab.cli as cli

    assert build_parser() is build_parser()
    reused = _run_sequence(tmp_path / "reused", monkeypatch)
    # the reference: a newly built parser for every call
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_sequence(tmp_path / "fresh", monkeypatch)
    assert reused[0] == fresh[0] == [0, 0, 0, 0, 3, "SystemExit(2)", 0, 0, 0, 0, 0]
    assert len(reused[1]) == 17 and reused[1] == fresh[1]
    assert json.loads(reused[1]["e1/exist.json"])["c_test"] == 44.0
    assert json.loads(reused[1]["e2/exist.json"])["c_test"] == 50.0
    assert json.loads(reused[1]["e2/exist.json"])["config"]["c"] == 50.0
