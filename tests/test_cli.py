"""Config parsing, the pipeline runner and the emitters."""

import ctypes
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ktr
from ktr.cli import (CSV_HEADER, _one_blas_thread, _openblas, emit, main, parse_config,
                     report_table, run)
from ktr.errors import ConfigError
from ktr.gevp import exact_reference
from ktr.krylov import default_dt
from ktr.models import ModelSpec, build
from ktr.states import EvolutionPlan

from helpers import pauli_sum_to_text

TFIM_CONFIG = """
# desk-scale chain
model.kind = tfim
model.n = 6
model.gamma = 0.5
method = ktr
init = project:0
grid.dt = auto
grid.m = 8
evolution = exact
epsilon = 1e-10
"""


def test_parse_config_round_trip():
    cfg = parse_config(TFIM_CONFIG)
    assert cfg.model == ModelSpec("tfim", 6, {"gamma": 0.5})
    assert cfg.methods == ("ktr",)
    assert cfg.dt is None and cfg.m == 8
    assert cfg.evolution == "exact"
    assert cfg.epsilon == 1e-10


@pytest.mark.parametrize("mutation, fragment", [
    ("model.kind = qcd", "unknown model.kind"),
    ("model.n = six", "expected an integer"),
    ("method = teleport", "unknown method"),
    ("init = w1-blocks:2", "unknown init"),
    ("grid.m = 1", "at least two Krylov vectors"),
    ("grid.dt = -0.5", "positive"),
    ("grid.dt = inf", "expected a finite number"),
    ("grid.dt = nan", "expected a finite number"),
    ("model.gamma = inf", "expected a finite number"),
    ("evolution = trotter4:2", "unknown evolution"),
    ("evolution = trotter2:0", "integral steps_per_unit >= 1"),
    ("epsilon = 2.0", "epsilon"),
    ("samples_per_step = 7", "even"),
    ("bogus = 1", "unknown key"),
    ("seed = 7", "unknown key"),
    ("init = w0-blocks:1", "multiple of 4"),
    ("method = local:3", "exceeds the 2 available projectors"),
])
def test_parse_config_rejects_bad_values(mutation, fragment):
    key = mutation.split("=")[0].strip()
    lines = [ln for ln in TFIM_CONFIG.splitlines()
             if not ln.strip().startswith(key)]
    lines.append(mutation)
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines))
    assert fragment in str(err.value)


W0_GAUGE_CONFIG = """
model.kind = z2higgs
model.n = 8
model.mu = 1.0
model.g = 1.0
method = kqd,ktr
init = w0-blocks:2
grid.m = 8
"""

W0_CLUSTER_CONFIG = """
model.kind = cluster
model.n = 8
model.g_x = 1.0
model.g_zz = 1.0
model.g_zxz = 1.0
method = derivative
init = w0-blocks:2
grid.m = 8
evolution = trotter2:100
"""


@pytest.mark.parametrize("text, route, allowed", [
    (W0_GAUGE_CONFIG, "kqd,ktr", "kqd"),
    (W0_CLUSTER_CONFIG, "derivative", "local:2"),
], ids=["z2higgs", "cluster"])
def test_w0_blocks_needs_the_alternating_involution(tmp_path, capsys, text, route, allowed):
    # the w0 block state is stabilized by (Y X)^(n/2) only, so a stabilized
    # route on a model with another involution is refused before any work
    with pytest.raises(ConfigError, match="alternating"):
        parse_config(text)
    path = tmp_path / "w0.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    # routes that need no stabilized start state keep the w0 block state
    parse_config(text.replace(f"method = {route}", f"method = {allowed}"))


def test_parse_config_rejects_duplicates_and_missing():
    with pytest.raises(ConfigError):
        parse_config(TFIM_CONFIG + "\nmodel.n = 8")
    with pytest.raises(ConfigError):
        parse_config("model.kind = tfim\nmodel.n = 4\nmodel.gamma = 1.0")  # no method/grid.m


def test_run_produces_error_curve(tmp_path):
    cfg = parse_config(TFIM_CONFIG)
    report = run(cfg)
    assert [rec.m_used for rec in report.records] == [2, 4, 6, 8]
    final = report.records[-1]
    assert final.rel_error <= 1e-2
    assert final.kept_dim <= 8
    # resolved auto dt is echoed in provenance
    h = build(cfg.model)
    echoed = dict(report.provenance)["resolved.dt"]
    assert float(echoed) == default_dt(h)


@pytest.mark.parametrize("evolution", ["exact", "trotter2:50"])
def test_reference_is_the_exact_ground_energy(evolution):
    # exact mode reads it from the plan's block spectra, trotter2 builds it
    cfg = parse_config(TFIM_CONFIG.replace("evolution = exact", f"evolution = {evolution}"))
    want = float(exact_reference(build(cfg.model))[0])
    assert all(abs(rec.reference - want) <= 1e-12 * abs(want) for rec in run(cfg).records)


@pytest.mark.parametrize("model, routes", [
    ("model.kind = cluster\nmodel.n = 8\nmodel.g_x = 1.0\nmodel.g_zz = 0.5\nmodel.g_zxz = 0.3",
     "method = kqd,ktr,implicit,local:2,derivative,integral\ninit = project:00"),
    *[(f"model.kind = heisenberg\nmodel.n = {n}\nmodel.j_x = 1.0\nmodel.j_y = 0.8\n"
       "model.j_z = 0.6", "method = kqd\ninit = plus") for n in (7, 8)],
], ids=["cluster-8", "heisenberg-7", "heisenberg-8"])
def test_exact_reference_covers_the_unreached_blocks(monkeypatch, model, routes):
    # no start state reaches every block, and the reference is still the
    # least eigenvalue of them all
    reaches = []
    coefficients = EvolutionPlan.coefficients

    def spy(plan, s):
        entry = coefficients(plan, s)
        reaches.append(entry[0])
        return entry

    monkeypatch.setattr(EvolutionPlan, "coefficients", spy)
    cfg = parse_config(f"{model}\n{routes}\ngrid.m = 16\n")
    report = run(cfg)
    assert not np.logical_or.reduce(reaches).all()
    exact = float(exact_reference(build(cfg.model))[0])
    assert all(abs(rec.reference - exact) <= 1e-14 * abs(exact) for rec in report.records)


@pytest.mark.parametrize("model", [
    "model.kind = tfim\nmodel.n = 16\nmodel.gamma = 0.5",
    "model.kind = z2higgs\nmodel.n = 16\nmodel.mu = 1.0\nmodel.g = 1.0",
], ids=["tfim-16", "z2higgs-16"])
def test_trotter_run_past_the_dense_cap_evolves_nothing(tmp_path, capsys, monkeypatch, model):
    # the reference comes before the pencils, so its dense cap refuses the
    # run before any state is evolved
    calls = []
    evolve = ktr.krylov.evolve
    monkeypatch.setattr(ktr.krylov, "evolve", lambda *args: calls.append(args) or evolve(*args))
    path = tmp_path / "past-cap.cfg"
    path.write_text(f"{model}\nmethod = ktr\ninit = project:0\ngrid.m = 4\n"
                    "evolution = trotter2:4\n")
    assert main(["run", str(path)]) == 3
    assert "16 qubits exceed the dense cap of 14" in capsys.readouterr().err
    assert calls == []


def test_error_curve_non_increasing_band():
    cfg = parse_config(TFIM_CONFIG)
    report = run(cfg)
    errs = [rec.rel_error for rec in report.records]
    assert all(errs[k + 1] <= errs[k] + 1e-9 for k in range(len(errs) - 1))


def test_kqd_and_ktr_curves_agree():
    text = TFIM_CONFIG.replace("method = ktr", "method = kqd,ktr")
    report = run(parse_config(text))
    kqd = [rec for rec in report.records if rec.method == "kqd"]
    ktr = [rec for rec in report.records if rec.method == "ktr"]
    assert [r.m_used for r in kqd] == [r.m_used for r in ktr]
    for a, b in zip(kqd, ktr):
        assert abs(a.rel_error - b.rel_error) <= 1e-9
    # grouped by method, m ascending
    methods = [rec.method for rec in report.records]
    assert methods == sorted(methods, key=lambda s: (s != "kqd",))


def test_emit_table_and_provenance(tmp_path):
    cfg = parse_config(TFIM_CONFIG + f"\noutput = {tmp_path / 'out.csv'}")
    report = run(cfg)
    table_path, sidecar = emit(report, cfg.output)
    lines = table_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.records)
    assert "config.model.kind = tfim" in sidecar.read_text()
    assert "resolved.dt" in sidecar.read_text()


def test_emit_deterministic_modulo_wall_time(tmp_path):
    cfg = parse_config(TFIM_CONFIG)
    first = report_table(run(cfg))
    second = report_table(run(cfg))

    def strip_wall(table):
        return ["," .join(ln.split(",")[:-1]) for ln in table.splitlines()]

    # wall_ms is genuine timing and varies; every numeric column is bit-stable
    assert strip_wall(first) == strip_wall(second)


def test_methods_requiring_stabilized_init_are_rejected():
    text = TFIM_CONFIG.replace("init = project:0", "init = plus")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_methods_requiring_symmetry_reject_heisenberg():
    text = """
model.kind = heisenberg
model.n = 4
model.j_x = 1.0
model.j_y = 1.0
model.j_z = 1.0
method = ktr
init = plus
grid.m = 4
"""
    with pytest.raises(ConfigError):
        parse_config(text)


def test_kqd_on_heisenberg_plus_state_works():
    text = """
model.kind = heisenberg
model.n = 4
model.j_x = 1.0
model.j_y = 0.7
model.j_z = 0.4
method = kqd
init = plus
grid.m = 8
grid.dt = 0.4
"""
    report = run(parse_config(text))
    assert report.records[-1].rel_error < 0.2


def test_local_and_reconstruction_methods_run():
    text = TFIM_CONFIG.replace("method = ktr", "method = local:2,derivative,integral")
    text = text.replace("init = project:0", "init = project:00")
    report = run(parse_config(text))
    by_method = {}
    for rec in report.records:
        by_method.setdefault(rec.method, []).append(rec)
    assert set(by_method) == {"local:2", "derivative", "integral"}
    for recs in by_method.values():
        assert recs[-1].rel_error <= 1e-2


def test_cli_run_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TFIM_CONFIG)
    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER


def test_cli_init_override(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TFIM_CONFIG)
    assert main(["run", str(cfg_path), "--init", "project:00"]) == 0
    out = capsys.readouterr().out
    assert CSV_HEADER in out
    # the override is validated in place of the config's own init, which
    # here cannot serve ktr
    cfg_path.write_text(TFIM_CONFIG.replace("init = project:0", "init = plus"))
    assert main(["run", str(cfg_path), "--init", "project:0"]) == 0
    assert CSV_HEADER in capsys.readouterr().out


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.kind = tfim\n")
    assert main(["run", str(bad)]) == 2
    # numerical failure: reversal-based method on a model without one
    heis = tmp_path / "heis.cfg"
    heis.write_text("""
model.kind = heisenberg
model.n = 4
model.j_x = 1.0
model.j_y = 1.0
model.j_z = 1.0
method = ktr
init = plus
grid.m = 4
""")
    assert main(["run", str(heis)]) == 2  # caught at config/init resolution
    capsys.readouterr()


def test_run_refuses_a_gram_threshold_below_the_floor(tmp_path, capsys):
    # at epsilon = 0 rounding noise survives the threshold: kqd at m = 22
    # reported -107.41 against E0 = -3.8730 and the run exited 0
    path = tmp_path / "noise.cfg"
    text = ("model.kind = tfim\nmodel.n = 4\nmodel.gamma = 0.7\nmethod = kqd,ktr\n"
            "init = project:00\ngrid.m = 24\ngrid.dt = 0.4\nepsilon = {}\n")
    for epsilon in ("0", "1e-16", "9.9e-13"):
        path.write_text(text.format(epsilon))
        assert main(["run", str(path)]) == 2
        assert "epsilon must lie in [1e-12, 1)" in capsys.readouterr().err
    path.write_text(text.format("1e-12"))
    assert main(["run", str(path)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert all(float(row[3]) >= float(row[4]) - 1e-9 * abs(float(row[4])) for row in rows)


def test_derivative_on_a_grid_below_five_samples_is_a_config_error(tmp_path, capsys):
    # m = 2 at 2 samples per step gives 3 fine samples: the five-point
    # stencil is refused at parse time, before any pencil is built
    coarse = TFIM_CONFIG.replace("grid.m = 8", "grid.m = 2") + "samples_per_step = 2\n"
    with pytest.raises(ConfigError, match="five-point stencil"):
        parse_config(coarse.replace("method = ktr", "method = kqd,derivative"))
    path = tmp_path / "coarse.cfg"
    path.write_text(coarse.replace("method = ktr", "method = kqd,derivative"))
    assert main(["run", str(path)]) == 2
    assert "five-point stencil" in capsys.readouterr().err
    # Simpson quadrature needs no five samples, and one more step is enough
    path.write_text(coarse.replace("method = ktr", "method = integral"))
    assert main(["run", str(path)]) == 0
    path.write_text(coarse.replace("method = ktr", "method = derivative")
                    .replace("grid.m = 2", "grid.m = 3"))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()


def test_cli_find_symmetry(tmp_path, capsys):
    h = build(ModelSpec("cluster", 4, {"g_x": 1.0, "g_zz": 1.0, "g_zxz": 1.0}))
    path = tmp_path / "cluster.txt"
    path.write_text(pauli_sum_to_text(h))
    assert main(["find-symmetry", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "YZYZ" in out and "ZYZY" in out

    heis = build(ModelSpec("heisenberg", 4, {"j_x": 1.0, "j_y": 1.0, "j_z": 1.0}))
    path2 = tmp_path / "heis.txt"
    path2.write_text(pauli_sum_to_text(heis))
    assert main(["find-symmetry", str(path2)]) == 0
    assert capsys.readouterr().out.strip() == "INFEASIBLE"


def test_cli_find_symmetry_reports_identity_terms_in_one_line(tmp_path, capsys, recwarn):
    path = tmp_path / "shifted.txt"
    path.write_text("0.5 IIII\n1.0 XXII\n1.0 IZZI\n")
    assert main(["find-symmetry", str(path), "--max-solutions", "2"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    err = captured.err.splitlines()
    assert err[0] == "warning: ignored 1 identity term(s) while encoding the parity matrix"
    assert "UserWarning" not in captured.err and ".py:" not in captured.err
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_cli_find_symmetry_cap(tmp_path, capsys):
    # a Hamiltonian with a large solution space hits the cap
    path = tmp_path / "tiny.txt"
    path.write_text("1.0 XIII\n")
    assert main(["find-symmetry", str(path), "--max-solutions", "4"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4
    # a cap below 1 is a usage error, reported before anything is parsed
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_info:
            main(["find-symmetry", str(path), "--max-solutions", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err


def test_cli_find_symmetry_enumeration_order(tmp_path, capsys):
    # particular solution first, then XOR combinations of the nullspace basis
    # in binary-counter order
    h = build(ModelSpec("z2higgs", 6, {"mu": 1.0, "g": 1.0}))
    path = tmp_path / "gauge.txt"
    path.write_text(pauli_sum_to_text(h))
    assert main(["find-symmetry", str(path), "--max-solutions", "8"]) == 0
    captured = capsys.readouterr()
    assert captured.out.split() == ["ZZYZZZ", "YYYZZZ", "YZZYZZ", "ZYZYZZ",
                                    "YZZZYZ", "ZYZZYZ", "ZZYYYZ", "YYYYYZ"]
    assert captured.err == "# 8 more solution(s) not shown\n"


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; no call sees another's arguments
    path = tmp_path / "tiny.txt"
    path.write_text("1.0 XIII\n")
    assert main(["find-symmetry", str(path), "--max-solutions", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert main(["find-symmetry", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TFIM_CONFIG.replace("model.n = 6", "model.n = 4"))
    assert main(["run", str(cfg), "--init", "project:0"]) == 0
    assert capsys.readouterr().out.startswith(CSV_HEADER)
    assert main(["find-symmetry", str(path)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 16
    assert captured.err == "# 112 more solution(s) not shown\n"


def test_cli_spectrum(tmp_path, capsys):
    path = tmp_path / "z.txt"
    path.write_text("1.0 Z\n")
    assert main(["spectrum", str(path)]) == 0
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert values == [-1.0, 1.0]


def test_module_entry_point_runs(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("1.0 Z\n")
    src = str(Path(ktr.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "ktr.cli", "spectrum", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [float(v) for v in done.stdout.split()] == [-1.0, 1.0]


def _blas_threads(lib) -> int:
    """The thread count of the OpenBLAS that ``ktr`` sets."""
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    pytest.skip("this OpenBLAS exports no thread-count getter")


@pytest.fixture
def openblas():
    """numpy's OpenBLAS set to two threads, and back to its count after."""
    lib = _openblas()
    if lib is None:
        pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
    before = lib.openblas_set_num_threads_local(2)
    yield lib
    lib.openblas_set_num_threads_local(before)


def test_numpy_openblas_thread_setter_is_found():
    # a lookup that quietly finds nothing would leave every command on all threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = tuple(int(part) for part in blas.get("version", "0").split(".")[:3])
    if blas.get("name") != "scipy-openblas" or version < (0, 3, 27):
        pytest.skip(f"numpy's BLAS is {blas.get('name')} {blas.get('version')}")
    assert _openblas() is not None


def test_cli_factorizations_run_on_one_blas_thread(tmp_path, monkeypatch, capsys, openblas):
    seen = []
    for name in ("eigh", "svd"):
        original = getattr(np.linalg, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            seen.append((_name, _blas_threads(openblas)))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    cfg = tmp_path / "tfim8.cfg"
    cfg.write_text(TFIM_CONFIG.replace("model.n = 6", "model.n = 8"))
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    # the self-paired tfim blocks take an SVD, the pencil prefixes eigh
    assert {name for name, _ in seen} == {"eigh", "svd"}
    assert all(threads == 1 for _, threads in seen), seen
    assert _blas_threads(openblas) == 2


def test_cli_restores_the_blas_thread_count_on_every_exit(tmp_path, capsys, openblas):
    good = tmp_path / "good.cfg"
    good.write_text(TFIM_CONFIG)
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.kind = tfim\n")
    for argv, code in ((["run", str(good)], 0), (["run", str(bad)], 2),
                       (["run", str(tmp_path / "missing.cfg")], 3)):
        assert main(argv) == code
        assert _blas_threads(openblas) == 2
    capsys.readouterr()


def test_overlapping_commands_share_one_blas_thread_scope(openblas):
    # the count is one per process: the first command to leave must not
    # restore it under the other, and the last must restore the original
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    counts = {}

    def first():
        with _one_blas_thread():
            first_in.set()
            assert second_in.wait(30)
            counts["first"] = _blas_threads(openblas)

    def second():
        assert first_in.wait(30)
        with _one_blas_thread():
            second_in.set()
            assert first_out.wait(30)
            counts["second"] = _blas_threads(openblas)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    threads[0].join(30)
    assert not threads[0].is_alive()
    counts["between"] = _blas_threads(openblas)
    first_out.set()
    threads[1].join(30)
    assert not threads[1].is_alive()
    assert counts == {"first": 1, "between": 1, "second": 1}
    assert _blas_threads(openblas) == 2
