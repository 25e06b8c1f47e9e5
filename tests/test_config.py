"""INI configuration parsing, run assembly, and the command-line tools."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multimag import (
    EnergyRecord,
    MU0,
    build_run_setup,
    load_config,
    write_energies_csv,
    write_mesh,
    write_snapshot,
)
from multimag.cli import main
from multimag.fields import CubicContribution, UniaxialContribution

from meshes import three_tets_on_one_face


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


@pytest.fixture()
def cube_file(tmp_path, cube1):
    path = tmp_path / "cube.mesh"
    write_mesh(str(path), cube1)
    return "cube.mesh"


MINIMAL = """\
[mesh]
omega1 = cube.mesh

[constants]
c_exch = 1.0
c_ani = 0.5
alpha = 1.0
t_final = 1.0

[run]
k = 1e-4
n_steps = 5
initial_vector = 0 0 1

[output]
directory = out
"""


def test_minimal_config_defaults(tmp_path, cube_file):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert cfg.mesh_omega1.endswith("cube.mesh")
    assert cfg.mesh_omega2 is None
    assert cfg.theta == 1.0
    assert cfg.k == 1e-4
    assert cfg.n_steps == 5
    assert cfg.initial_snapshot is None
    np.testing.assert_array_equal(cfg.initial_vector, [0.0, 0.0, 1.0])
    assert cfg.terms == ()
    assert cfg.strayfield_method is None
    assert cfg.applied_field is None
    assert cfg.solver_tol == 1e-10
    assert cfg.output_dir.endswith("out")
    assert cfg.cadence == 10
    assert cfg.vtk is False
    assert cfg.constants.c_ani == 0.5


FULL = """\
[mesh]
omega1 = cube.mesh
omega2 = cube.mesh   ; paths resolve relative to this file

[constants]
c_exch = 1.0
c_ani = 0.2
alpha = 0.5
t_final = 2.0

[run]
theta = 0.7
k = 1e-3
n_steps = 10
initial = uniform
initial_vector = 1 1 0

[contributions]
terms = uniaxial, cubic, strayfield, multiscale

[uniaxial]
axis = 0 0 2

[cubic]
k1 = 1.5
k2 = 0.25

[strayfield]
method = gcr

[multiscale]
law = tanh
params = 1.0 2.0
scheme = kacanov
tol = 1e-6
max_iter = 50

[applied_field]
kind = sinusoidal
amplitude = 0 0.1 0
omega = 3.0

[solver]
tol = 1e-9

[output]
directory = results
cadence = 5
vtk = true
"""


def test_full_config_parses(tmp_path, cube_file):
    cfg = load_config(write_config(tmp_path, FULL))
    assert cfg.theta == 0.7
    assert cfg.terms == ("uniaxial", "cubic", "strayfield", "multiscale")
    np.testing.assert_allclose(cfg.uniaxial_axis, [0.0, 0.0, 1.0])  # normalized
    assert (cfg.cubic_k1, cfg.cubic_k2) == (1.5, 0.25)
    assert cfg.strayfield_method == "gcr"
    assert (cfg.multiscale_law.kind, cfg.multiscale_law.params) == ("tanh", (1.0, 2.0))
    assert cfg.multiscale_scheme == "kacanov"
    assert cfg.multiscale_tol == 1e-6
    assert cfg.multiscale_max_iter == 50
    np.testing.assert_array_equal(cfg.applied_amplitude, [0.0, 0.1, 0.0])
    np.testing.assert_array_equal(cfg.applied_field(0.5, None), [0.0, 0.1 * np.sin(1.5), 0.0])
    assert cfg.solver_tol == 1e-9
    assert cfg.cadence == 5
    assert cfg.vtk is True


def test_material_section_converts_to_reduced_units(tmp_path, cube_file):
    A, K, Ms = 1.3e-11, 4.8e2, 8.0e5
    L = np.sqrt(2.0 * A / (MU0 * Ms**2))  # intrinsic exchange length
    body = MINIMAL.replace(
        "[constants]\nc_exch = 1.0\nc_ani = 0.5\nalpha = 1.0\nt_final = 1.0",
        f"[material]\nexchange_a = {A}\nanisotropy_k = {K}\nsaturation_ms = {Ms}\n"
        f"alpha = 0.02\nlength_scale = {L}\ntime_horizon = 1e-9",
    )
    cfg = load_config(write_config(tmp_path, body))
    np.testing.assert_allclose(cfg.constants.c_exch, 1.0, rtol=1e-12)
    np.testing.assert_allclose(cfg.constants.c_ani, K / (MU0 * Ms), rtol=1e-12)
    assert cfg.constants.alpha == 0.02


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("[output]", "[extra]\nfoo = 1\n\n[output]", r"unknown config section \[extra\]"),
        ("k = 1e-4", "k = 1e-4\nwhatever = 1", r"unknown key 'whatever' in section \[run\]"),
        ("directory = out", "directory = out\ncadence = 0",
         "cadence must be a positive integer"),
        ("directory = out", "directory = out\nvtk = maybe", "vtk must be true or false"),
        ("[output]", "[contributions]\nterms = gravity\n\n[output]",
         "unknown contribution term 'gravity'"),
        ("[output]",
         "[contributions]\nterms = uniaxial, uniaxial\n\n[uniaxial]\naxis = 0 0 1\n\n[output]",
         "duplicate contribution terms"),
        ("[output]", "[contributions]\nterms = uniaxial\n\n[uniaxial]\naxis = 0 0 0\n\n[output]",
         "uniaxial axis must be nonzero"),
        ("[output]", "[contributions]\nterms = uniaxial\n\n[uniaxial]\naxis = 0 1\n\n[output]",
         "three space-separated numbers"),
        ("[output]", "[contributions]\nterms = strayfield\n\n[strayfield]\nmethod = magic\n\n[output]",
         r"\[strayfield\] method must be fk or gcr, got 'magic'"),
        ("[output]", "[applied_field]\nkind = pulse\n\n[output]",
         r"\[applied_field\] kind must be constant or sinusoidal, got 'pulse'"),
        ("[output]", "[contributions]\nterms = multiscale\n\n[multiscale]\nlaw = linear\nparams = 2\n\n[output]",
         "requires mesh omega2"),
        ("[output]", "[solver]\ntol = -1\n\n[output]", "solver tol must be positive"),
        ("[output]", "[solver]\ntol = 0\n\n[output]", "solver tol must be positive"),
        ("[output]", "[contributions]\nterms = cubic\n\n[cubic]\nk1 = -1\n\n[output]",
         "cubic k1 and k2 must be nonnegative"),
        ("[output]", "[contributions]\nterms = cubic\n\n[cubic]\nk1 = 1\nk2 = -0.5\n\n[output]",
         "cubic k1 and k2 must be nonnegative"),
        ("[output]", "[contributions]\nterms = cubic\n\n[cubic]\nk1 = nan\n\n[output]",
         r"\[cubic\] k1 must be finite, got 'nan'"),
        ("k = 1e-4", "k = inf", r"\[run\] k must be finite, got 'inf'"),
        ("[output]", "[applied_field]\nkind = constant\namplitude = 0 0 1\nomega = nan\n\n[output]",
         r"\[applied_field\] omega must be finite, got 'nan'"),
        ("c_exch = 1.0", "c_exch = inf", r"\[constants\] c_exch must be finite, got 'inf'"),
        ("n_steps = 5", "n_steps = 2.5", r"\[run\] n_steps must be an integer, got '2.5'"),
        ("n_steps = 5", "n_steps = 1e3", r"\[run\] n_steps must be an integer, got '1e3'"),
        ("directory = out", "directory = out\ncadence = ten",
         r"\[output\] cadence must be an integer, got 'ten'"),
        ("initial_vector = 0 0 1", "initial_vector = 0 0 x", "initial_vector must be a number, got 'x'"),
        ("[output]", "[contributions]\nterms = uniaxial\n\n[uniaxial]\naxis = 0 0 z\n\n[output]",
         "uniaxial axis must be a number, got 'z'"),
    ],
)
def test_rejects_bad_values(tmp_path, cube_file, old, new, match):
    with pytest.raises(ValueError, match=match):
        load_config(write_config(tmp_path, MINIMAL.replace(old, new)))


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("initial_vector = 0 0 1", "initial_vector = nan 0 1", "initial_vector must be finite"),
        ("[output]", "[applied_field]\nkind = constant\namplitude = nan 0 0.5\n\n[output]",
         "applied field amplitude must be finite"),
        ("[output]", "[contributions]\nterms = uniaxial\n\n[uniaxial]\naxis = 0 inf 1\n\n[output]",
         "uniaxial axis must be finite"),
    ],
)
def test_rejects_nonfinite_vectors(tmp_path, cube_file, old, new, match):
    with pytest.raises(ValueError, match=match):
        load_config(write_config(tmp_path, MINIMAL.replace(old, new)))


@pytest.mark.parametrize(
    "law_block, match",
    [
        ("law = linear\nparams = 1 2", r"law 'linear' takes 1 parameters, got 2"),
        ("law = tanh\nparams = 1", r"law 'tanh' takes 2 parameters, got 1"),
        ("law = rational\nparams = 1 2 3", r"law 'rational' takes 4 parameters, got 3"),
        ("law = zero\nparams = 0.5", r"law 'zero' takes 0 parameters, got 1"),
        ("law = cubic", r"\[multiscale\] unknown material law 'cubic'"),
        ("law = tanh\nparams = 1 1\nscheme = newton",
         r"\[multiscale\] unknown nonlinear scheme 'newton'"),
        ("law = tanh\nparams = 1 1\ntol = 0", r"\[multiscale\] tol must be positive"),
        ("law = tanh\nparams = 1 1\ntol = -1e-8", r"\[multiscale\] tol must be positive"),
        ("law = tanh\nparams = 1 1\ntol = 1e-15",
         r"\[multiscale\] tol = 1e-15 is below the roundoff floor 1e-13"),
        ("law = tanh\nparams = 1 1\nmax_iter = 0", r"\[multiscale\] max_iter must be at least 1"),
        ("law = tanh\nparams = 1 1\nmax_iter = 1.5",
         r"\[multiscale\] max_iter must be an integer, got '1.5'"),
    ],
)
def test_multiscale_law_validation(tmp_path, cube_file, law_block, match):
    body = MINIMAL.replace("omega1 = cube.mesh", "omega1 = cube.mesh\nomega2 = cube.mesh")
    body = body.replace(
        "[output]", f"[contributions]\nterms = multiscale\n\n[multiscale]\n{law_block}\n\n[output]"
    )
    with pytest.raises(ValueError, match=match):
        load_config(write_config(tmp_path, body))


MULTISCALE_WITHOUT_FIELD = MINIMAL.replace(
    "omega1 = cube.mesh", "omega1 = cube.mesh\nomega2 = cube.mesh"
).replace(
    "[output]", "[contributions]\nterms = multiscale\n\n[multiscale]\nlaw = zero\n\n[output]"
)


@pytest.mark.parametrize("applied", ["", "[applied_field]\nkind = none\n\n"])
def test_multiscale_requires_applied_field(tmp_path, cube_file, applied):
    body = MULTISCALE_WITHOUT_FIELD.replace("[output]", applied + "[output]")
    with pytest.raises(ValueError, match=r"multiscale term requires an \[applied_field\]"):
        load_config(write_config(tmp_path, body))


def test_material_and_constants_are_exclusive(tmp_path, cube_file):
    both = MINIMAL.replace(
        "[run]",
        "[material]\nexchange_a = 1e-11\nanisotropy_k = 500\nsaturation_ms = 8e5\n"
        "alpha = 0.1\nlength_scale = 5e-9\ntime_horizon = 1e-9\n\n[run]",
    )
    with pytest.raises(ValueError, match="exactly one of"):
        load_config(write_config(tmp_path, both))
    neither = MINIMAL.replace("[constants]", "[constants]\n; c_exch etc. removed below")
    neither = "\n".join(
        line for line in neither.splitlines()
        if not line.startswith(("[constants]", "; c_exch", "c_exch", "c_ani", "alpha", "t_final"))
    )
    with pytest.raises(ValueError, match="exactly one of"):
        load_config(write_config(tmp_path, neither))


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("k = 1e-4", "k = -1e-4", "time step k must be positive"),
        ("k = 1e-4", "k = 1e-4\ntheta = 1.5", r"theta must lie in \[0, 1\]"),
        ("n_steps = 5", "n_steps = -2", "n_steps must be nonnegative"),
        ("initial_vector = 0 0 1", "initial_vector = 0 0 0", "initial_vector must be nonzero"),
        ("initial_vector = 0 0 1", "initial = spiral\ninitial_vector = 0 0 1",
         "initial must be 'uniform' or 'snapshot'"),
        ("k = 1e-4\n", "", "missing required key 'k'"),
    ],
)
def test_run_section_validation(tmp_path, cube_file, old, new, match):
    with pytest.raises(ValueError, match=match):
        load_config(write_config(tmp_path, MINIMAL.replace(old, new)))


@pytest.mark.parametrize(
    "text, direction",
    [
        ("1e-200 3e-201 0", [10.0, 3.0, 0.0]),  # the squares underflow to zero
        ("0 0 1e200", [0.0, 0.0, 1.0]),  # the squares overflow to inf
        ("1e155 -1e155 1e155", [1.0, -1.0, 1.0]),
        ("5e-324 0 -5e-324", [1.0, 0.0, -1.0]),
    ],
)
def test_tiny_and_huge_vectors_load_as_unit_vectors(tmp_path, cube_file, text, direction):
    body = MINIMAL.replace("initial_vector = 0 0 1", f"initial_vector = {text}").replace(
        "[output]", f"[contributions]\nterms = uniaxial\n\n[uniaxial]\naxis = {text}\n\n[output]"
    )
    cfg = load_config(write_config(tmp_path, body))
    expect = np.array(direction) / np.linalg.norm(direction)
    np.testing.assert_allclose(cfg.initial_vector, expect, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(cfg.uniaxial_axis, expect, rtol=1e-15, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)),
        min_size=3,
        max_size=3,
    )
)
def test_unit_vector_keeps_the_plain_quotient_bits(components):
    # scaling by a power of two changes no rounding for ordinary vectors,
    # so an m0 or axis loaded before the scaling keeps its bits
    from multimag.config import _unit

    v = np.array(components)
    plain = v / np.linalg.norm(v)
    assert np.array_equal(_unit(v, "v").view(np.int64), plain.view(np.int64))


def test_missing_sections_and_file(tmp_path, cube_file):
    with pytest.raises(FileNotFoundError, match="config file not found"):
        load_config(str(tmp_path / "nope.ini"))
    for section in ("[mesh]", "[run]", "[output]"):
        body = MINIMAL.replace(section, section.replace("[", "[gone_"))
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path, body))


WIRED = """\
[mesh]
omega1 = cube.mesh

[constants]
c_exch = 1.0
c_ani = 0.3
alpha = 1.0
t_final = 1.0

[run]
k = 1e-3
n_steps = 2
initial_vector = 0 0 5

[contributions]
terms = uniaxial, cubic

[uniaxial]
axis = 1 0 0

[cubic]
k1 = 2.0

[applied_field]
kind = constant
amplitude = 0 0 0.25

[output]
directory = out
"""


def test_build_run_setup_wires_contributions(tmp_path, cube_file):
    setup = build_run_setup(load_config(write_config(tmp_path, WIRED)))
    assert setup.mesh.n_tets == 6
    np.testing.assert_allclose(np.linalg.norm(setup.m0, axis=1), 1.0)
    np.testing.assert_array_equal(setup.m0[0], [0.0, 0.0, 1.0])
    uni, cub = setup.contributions
    assert isinstance(uni, UniaxialContribution)
    assert uni.scale == 0.3
    assert isinstance(cub, CubicContribution)
    assert cub.K1 == 2.0 and cub.K2 == 0.0 and cub.scale == 0.3
    # presets return a broadcastable amplitude, not a per-node array
    field = np.broadcast_to(setup.applied_field(0.7, setup.mesh.nodes), (8, 3))
    np.testing.assert_allclose(field, np.tile([0.0, 0.0, 0.25], (8, 1)))


def test_strayfield_method_none_is_rejected(tmp_path, cube_file):
    # leave ``strayfield`` out of ``terms`` to run without the stray field
    body = MINIMAL.replace(
        "[output]", "[contributions]\nterms = strayfield\n\n[strayfield]\nmethod = none\n\n[output]"
    )
    with pytest.raises(ValueError, match=r"\[strayfield\] method must be fk or gcr, got 'none'"):
        load_config(write_config(tmp_path, body))


def test_build_run_setup_snapshot_initial(tmp_path, cube_file, cube1):
    rng = np.random.default_rng(5)
    values = rng.normal(size=(cube1.n_nodes, 3))
    values /= np.linalg.norm(values, axis=1, keepdims=True)
    write_snapshot(str(tmp_path / "m0.dat"), values)
    body = MINIMAL.replace(
        "initial_vector = 0 0 1", "initial = snapshot\ninitial_snapshot = m0.dat"
    )
    setup = build_run_setup(load_config(write_config(tmp_path, body)))
    np.testing.assert_array_equal(setup.m0, values)


@pytest.mark.parametrize("bad_row", [[0.0, 0.0, 0.0], [0.0, np.nan, 1.0]])
def test_cli_simulate_rejects_unnormalizable_snapshot_row(tmp_path, cube_file, cube1, bad_row,
                                                          capsys):
    values = np.tile([0.0, 0.0, 1.0], (cube1.n_nodes, 1))
    values[3] = values[6] = bad_row
    write_snapshot(str(tmp_path / "m0.dat"), values)
    body = MINIMAL.replace(
        "initial_vector = 0 0 1", "initial = snapshot\ninitial_snapshot = m0.dat"
    )
    assert main(["simulate", write_config(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: snapshot ")
    assert "m0.dat: node 3 holds" in err and "no finite nonzero length" in err


@pytest.mark.parametrize(
    "row, message",
    [("0 x 1", ":4: bad component in node 2"), ("0 1", ":4: expected 3 fields for node 2, got 2")],
    ids=["not-a-number", "short-row"],
)
def test_cli_simulate_names_the_corrupt_snapshot_line(tmp_path, cube_file, cube1, row, message,
                                                      capsys):
    path = tmp_path / "m0.dat"
    write_snapshot(str(path), np.tile([0.0, 0.0, 1.0], (cube1.n_nodes, 1)))
    lines = path.read_text().splitlines()
    lines[3] = row
    path.write_text("\n".join(lines) + "\n")
    body = MINIMAL.replace(
        "initial_vector = 0 0 1", "initial = snapshot\ninitial_snapshot = m0.dat"
    )
    assert main(["simulate", write_config(tmp_path, body)]) == 2
    assert capsys.readouterr().err == f"invalid config: {path}{message}\n"


def test_build_run_setup_multiscale(tmp_path):
    from multimag import icosphere_volume
    from multimag.multiscale import MultiscaleContribution

    write_mesh(str(tmp_path / "near.mesh"), icosphere_volume(0, n_radial=1))
    write_mesh(
        str(tmp_path / "far.mesh"), icosphere_volume(0, n_radial=1, center=(4.0, 0.0, 0.0))
    )
    body = MINIMAL.replace("omega1 = cube.mesh", "omega1 = near.mesh\nomega2 = far.mesh")
    body = body.replace(
        "[output]",
        "[contributions]\nterms = multiscale\n\n[multiscale]\nlaw = linear\nparams = 2.0\n\n"
        "[applied_field]\nkind = constant\namplitude = 0 0 1\n\n[output]",
    )
    setup = build_run_setup(load_config(write_config(tmp_path, body)))
    (contrib,) = setup.contributions
    assert isinstance(contrib, MultiscaleContribution)
    assert contrib.law.kind == "linear"
    assert contrib.scheme == "zarantonello"


# ---------------------------------------------------------------- CLI


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_check_mesh_exit_codes(tmp_path, cube1, sphere1, capsys):
    good = tmp_path / "cube.mesh"
    write_mesh(str(good), cube1)
    assert main(["check-mesh", str(good)]) == 0
    out = capsys.readouterr().out
    assert "angle condition: SATISFIED" in out

    curved = tmp_path / "sphere.mesh"
    write_mesh(str(curved), sphere1)
    assert main(["check-mesh", str(curved)]) == 1
    out = capsys.readouterr().out
    assert "angle condition: VIOLATED" in out
    assert "k/h -> 0" in out

    bad = tmp_path / "bad.mesh"
    bad.write_text("nodes 2\n0 0 0\n")
    assert main(["check-mesh", str(bad)]) == 2


def test_cli_strayfield_test_passes_on_fine_sphere(tmp_path, sphere2, capsys):
    path = tmp_path / "sphere2.mesh"
    write_mesh(str(path), sphere2)
    assert main(["strayfield-test", str(path), "gcr"]) == 0
    out = capsys.readouterr().out
    assert "PASS (within 10%)" in out


def test_cli_strayfield_test_fails_on_coarse_sphere(tmp_path, sphere1, capsys):
    # the 320-tet sphere is too coarse for the 10% oracle by design
    path = tmp_path / "sphere1.mesh"
    write_mesh(str(path), sphere1)
    assert main(["strayfield-test", str(path), "fk"]) == 1
    assert "FAIL" in capsys.readouterr().out


SIMULATE = """\
[mesh]
omega1 = cube.mesh

[constants]
c_exch = 1.0
c_ani = 0.5
alpha = 1.0
t_final = 1.0

[run]
k = 1e-4
n_steps = 20
initial_vector = 0.2 0 1

[contributions]
terms = uniaxial

[uniaxial]
axis = 0 0 1

[output]
directory = {outdir}
cadence = 5
vtk = {vtk}
"""


def test_cli_simulate_writes_outputs(tmp_path, cube1, capsys):
    write_mesh(str(tmp_path / "cube.mesh"), cube1)
    cfg = write_config(tmp_path, SIMULATE.format(outdir="out", vtk="true"))
    assert main(["simulate", cfg]) == 0
    out = capsys.readouterr().out
    assert "E(0)" in out and "wrote" in out
    outdir = tmp_path / "out"
    snapshots = sorted(p.name for p in outdir.glob("snapshot_*.dat"))
    assert snapshots == [
        "snapshot_00000000.dat",
        "snapshot_00000005.dat",
        "snapshot_00000010.dat",
        "snapshot_00000015.dat",
        "snapshot_00000020.dat",
    ]
    assert (outdir / "energies.csv").exists()
    assert (outdir / "final.vtk").exists()

    # the energy table it just wrote satisfies its own report
    assert main(["energy-report", str(outdir)]) == 0
    assert "PASS: dissipation inequality holds" in capsys.readouterr().out


def test_cli_simulate_is_deterministic(tmp_path, cube1):
    write_mesh(str(tmp_path / "cube.mesh"), cube1)
    cfg_a = write_config(tmp_path, SIMULATE.format(outdir="a", vtk="false"), name="a.ini")
    cfg_b = write_config(tmp_path, SIMULATE.format(outdir="b", vtk="false"), name="b.ini")
    assert main(["simulate", cfg_a]) == 0
    assert main(["simulate", cfg_b]) == 0
    bytes_a = (tmp_path / "a" / "energies.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "energies.csv").read_bytes()
    assert bytes_a == bytes_b


def test_cli_simulate_flushes_partial_trajectory(tmp_path, cube1, capsys):
    # an unreachable solver tolerance aborts the first step; the initial
    # state must still land on disk and the exit code must be nonzero
    write_mesh(str(tmp_path / "cube.mesh"), cube1)
    body = SIMULATE.format(outdir="out", vtk="false") + "\n[solver]\ntol = 1e-300\n"
    cfg = write_config(tmp_path, body)
    assert main(["simulate", cfg]) == 1
    captured = capsys.readouterr()
    assert "run aborted at step" in captured.err
    assert "partial trajectory flushed" in captured.out
    assert (tmp_path / "out" / "snapshot_00000000.dat").exists()
    assert (tmp_path / "out" / "energies.csv").exists()


def test_cli_simulate_rejects_uncreatable_output_directory(tmp_path, cube_file, capsys,
                                                           monkeypatch):
    # a regular file stands where the output directory's parent should be:
    # the config check fails before any mesh is loaded or any step runs
    from multimag import config

    (tmp_path / "blocker").write_text("")
    loads = []
    monkeypatch.setattr(config, "load_mesh", loads.append)
    body = SIMULATE.format(outdir="blocker/out", vtk="false")
    assert main(["simulate", write_config(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ")
    assert str(tmp_path / "blocker" / "out") in err
    assert loads == []


@pytest.mark.parametrize("solver, message", [
    ("", "error: output not written: "),
    ("\n[solver]\ntol = 1e-300\n", "error: partial trajectory not flushed: "),
])
def test_cli_simulate_reports_failed_output_write(tmp_path, cube_file, capsys, solver, message):
    # a directory holds the name energies.csv: the write after the run, or
    # the partial flush after a failed step, reports it and exits 1
    (tmp_path / "out" / "energies.csv").mkdir(parents=True)
    body = SIMULATE.format(outdir="out", vtk="false") + solver
    assert main(["simulate", write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert message in err and "energies.csv" in err


@pytest.mark.parametrize(
    "body, reason",
    [
        (MULTISCALE_WITHOUT_FIELD, "[applied_field]"),
        (MINIMAL.replace("k = 1e-4", "k = 1e-4\ntheta = 2"), "theta must lie in [0, 1]"),
        (MINIMAL.replace("k = 1e-4", "k = 1e-4\nk = 2e-4"),
         "option 'k' in section 'run' already exists"),
        (MINIMAL + "\n[run]\ntheta = 0.5\n", "section 'run' already exists"),
        ("k = 1e-4\n" + MINIMAL, "File contains no section headers"),
        (MINIMAL.replace("k = 1e-4", "k = 1e-4%"), "[run] k must be a number, got '1e-4%'"),
    ],
)
def test_cli_simulate_rejects_invalid_config(tmp_path, cube_file, capsys, body, reason):
    assert main(["simulate", write_config(tmp_path, body)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid config: ")
    assert reason in captured.err
    assert not (tmp_path / "out").exists()


def test_percent_in_a_value_is_plain_text(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL.replace("directory = out", "directory = out%")))
    assert cfg.output_dir == str(tmp_path / "out%")


GENERATED_TEXT = st.one_of(
    st.text(max_size=24),
    st.text(alphabet="0123456789 .-+eE%[]=;#:nafit\n", max_size=24),
    st.floats().map(repr),
)


MINIMAL_LINES = MINIMAL.splitlines()
MINIMAL_VALUES = tuple(line.partition(" = ")[2] for line in MINIMAL_LINES if " = " in line)


@settings(max_examples=200, deadline=None)
@given(
    values=st.tuples(*(st.just(value) | GENERATED_TEXT for value in MINIMAL_VALUES)),
    extra=GENERATED_TEXT,
    at=st.integers(0, len(MINIMAL_LINES)),
)
@example(values=MINIMAL_VALUES[:-1] + ("out%",), extra="", at=0)
def test_load_config_on_generated_text_raises_only_value_errors(
    tmp_path_factory, values, extra, at
):
    # each value of the minimal config, kept or replaced by generated text,
    # plus one generated line: loading succeeds or names the problem
    replaced = iter(values)
    lines = [
        line.partition(" = ")[0] + " = " + next(replaced) if " = " in line else line
        for line in MINIMAL_LINES
    ]
    lines.insert(at, extra)
    path = tmp_path_factory.mktemp("generated") / "run.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        load_config(str(path))
    except (ValueError, FileNotFoundError):
        pass


def test_cli_simulate_reports_missing_files(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "absent.ini")]) == 2
    assert "invalid config: config file not found" in capsys.readouterr().err
    # a config naming a mesh that is not there
    assert main(["simulate", write_config(tmp_path, MINIMAL)]) == 2
    assert capsys.readouterr().err.startswith("invalid config: ")


def fabricated_records(totals):
    return [
        EnergyRecord(
            step=i, time=0.1 * i, e_exch=t, e_int=0.0, e_zeeman=0.0,
            e_total=t, dissipation_sum=0.0,
        )
        for i, t in enumerate(totals)
    ]


def test_cli_energy_report_detects_growth(tmp_path, capsys):
    write_energies_csv(str(tmp_path / "energies.csv"), fabricated_records([1.0, 0.9, 1.1]))
    assert main(["energy-report", str(tmp_path)]) == 1
    assert "first violation at step 2" in capsys.readouterr().out


def test_cli_energy_report_rejects_missing_directory(tmp_path, capsys):
    assert main(["energy-report", str(tmp_path / "nowhere")]) == 2
    assert "invalid energy table" in capsys.readouterr().err


def test_cli_energy_report_rejects_header_only_table(tmp_path, capsys):
    write_energies_csv(str(tmp_path / "energies.csv"), [])
    assert main(["energy-report", str(tmp_path)]) == 2
    assert "has no records" in capsys.readouterr().err


def test_cli_energy_report_rejects_truncated_row(tmp_path, capsys):
    path = tmp_path / "energies.csv"
    write_energies_csv(str(path), fabricated_records([1.0, 0.9]))
    with open(path, "a") as fh:
        fh.write("1,0.1,0.9\n")
    assert main(["energy-report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "invalid energy table" in err and "line 4: expected 7 fields, got 3" in err


def test_cli_strayfield_test_rejects_missing_mesh(tmp_path, capsys):
    assert main(["strayfield-test", str(tmp_path / "missing.mesh"), "fk"]) == 2
    assert "invalid mesh" in capsys.readouterr().err


def test_cli_strayfield_test_rejects_unknown_method_before_the_mesh(tmp_path, capsys):
    # the method is checked first, so a missing mesh does not mask it
    assert main(["strayfield-test", str(tmp_path / "missing.mesh"), "magic"]) == 2
    err = capsys.readouterr().err
    assert "invalid method: method must be fk or gcr, got 'magic'" in err
    assert "invalid mesh" not in err


def test_cli_energy_report_fails_on_nan_table(tmp_path, capsys):
    write_energies_csv(str(tmp_path / "energies.csv"), fabricated_records([float("nan")] * 3))
    assert main(["energy-report", str(tmp_path)]) == 1
    assert "FAIL: 3 records with non-finite values" in capsys.readouterr().out


def test_cli_energy_report_detects_bad_totals(tmp_path, capsys):
    records = fabricated_records([1.0, 0.9])
    broken = [
        EnergyRecord(
            step=r.step, time=r.time, e_exch=r.e_exch, e_int=0.5, e_zeeman=0.0,
            e_total=r.e_total, dissipation_sum=0.0,
        )
        for r in records
    ]
    write_energies_csv(str(tmp_path / "energies.csv"), broken)
    assert main(["energy-report", str(tmp_path)]) == 1
    assert "do not recombine" in capsys.readouterr().out


# ------------------------------------------- rules owned by other modules


def multiscale_body(block: str) -> str:
    body = MINIMAL.replace("omega1 = cube.mesh", "omega1 = cube.mesh\nomega2 = cube.mesh")
    return body.replace(
        "[output]",
        f"[contributions]\nterms = multiscale\n\n[multiscale]\n{block}\n\n"
        "[applied_field]\nkind = constant\namplitude = 0 0 1\n\n[output]",
    )


def test_weakly_monotone_law_is_rejected_at_load(tmp_path, capsys):
    # gamma = 0.095 <= 1/4; the meshes named are never read
    body = multiscale_body("law = rational\nparams = -0.9 0 0 0")
    with pytest.raises(ValueError, match=r"\[multiscale\] material monotonicity constant gamma"):
        load_config(write_config(tmp_path, body))
    assert main(["simulate", write_config(tmp_path, body)]) == 2
    assert "must exceed 1/4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, law, solver_kwargs",
    [
        ("law = tanh\nparams = 1 1\nscheme = newton", ("tanh", 1.0, 1.0), {"scheme": "newton"}),
        ("law = tanh\nparams = 1 1\ntol = 1e-15", ("tanh", 1.0, 1.0), {"tol_nl": 1e-15}),
        ("law = rational\nparams = -0.9 0 0 0", ("rational", -0.9, 0.0, 0.0, 0.0), {}),
    ],
)
def test_load_config_and_solve_coupling_reject_alike(tmp_path, pair_ws, block, law, solver_kwargs):
    from multimag.multiscale import coupling_data, material_law, solve_coupling

    with pytest.raises(ValueError) as at_load:
        load_config(write_config(tmp_path, multiscale_body(block)))
    data = coupling_data(pair_ws, np.zeros((pair_ws.mesh1.n_nodes, 3)), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError) as at_solve:
        solve_coupling(pair_ws.coupling, data, material_law(*law), **solver_kwargs)
    assert str(at_load.value) == f"[multiscale] {at_solve.value}"


def test_law_and_applied_field_are_built_once(tmp_path, monkeypatch):
    from multimag import config, fields, icosphere_volume, multiscale

    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (config, multiscale):
        counted(module, "material_law")
    for module in (config, fields):
        counted(module, "make_applied_field")
    write_mesh(str(tmp_path / "cube.mesh"), icosphere_volume(0, n_radial=1))
    write_mesh(str(tmp_path / "far.mesh"), icosphere_volume(0, n_radial=1, center=(4.0, 0, 0)))
    body = multiscale_body("law = linear\nparams = 2").replace("omega2 = cube", "omega2 = far")
    setup = build_run_setup(load_config(write_config(tmp_path, body)))
    assert sorted(calls) == ["make_applied_field", "material_law"]
    assert setup.contributions[0].law.params == (2.0,)


def test_cli_rejects_node_outside_every_tet(tmp_path, capsys):
    # node 1 belongs to no tetrahedron
    mesh = tmp_path / "cube.mesh"
    mesh.write_text("nodes 5\n0 0 0\n2 2 2\n1 0 0\n0 1 0\n0 0 1\ntets 1\n0 2 3 4\n")
    config = write_config(tmp_path, MINIMAL)
    for argv in (["check-mesh", str(mesh)], ["strayfield-test", str(mesh), "fk"],
                 ["simulate", config]):
        assert main(argv) == 2, argv
        assert "node 1 belongs to no tetrahedron" in capsys.readouterr().err


def test_cli_rejects_non_manifold_mesh(tmp_path, capsys):
    path = str(tmp_path / "nonmanifold.mesh")
    write_mesh(path, three_tets_on_one_face())
    for argv in (["check-mesh", path], ["strayfield-test", path, "gcr"]):
        assert main(argv) == 2, argv
        assert "invalid mesh: non-manifold mesh" in capsys.readouterr().err


def test_cli_simulate_prints_the_cause_of_a_failed_run(tmp_path, sphere1, capsys):
    from multimag import icosphere_volume

    write_mesh(str(tmp_path / "cube.mesh"), sphere1)
    write_mesh(str(tmp_path / "far.mesh"), icosphere_volume(1, n_radial=2, center=(3.0, 0, 0)))
    body = multiscale_body("law = tanh\nparams = 1 1\nmax_iter = 1")
    body = body.replace("omega2 = cube", "omega2 = far")
    assert main(["simulate", write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert "run aborted at step 0: multiscale pipeline failed at stage: coupling solve" in err
    assert "caused by: coupling solve did not reach tol 1e-08 within 1 iterations" in err
