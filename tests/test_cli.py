"""Command-line interface: commands, formats and the exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_geometry import NaNComb
from tmlab import cli
from tmlab.cli import main
from tmlab.geometry import Euclidean, SpaceModel
from tmlab.scenario import FIELDS, _point, parse_config_text

IDENTITY_CFG = """
space.kind = euclidean
space.dim = 1
family.kind = identity
schedule.preset = constant-gamma-harmonic-beta
run.u = 0
run.x0 = 1
run.steps = 200
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(IDENTITY_CFG)
    return str(p)


def test_run_csv(runner, cfg_path):
    res = runner.invoke(main, ["run", cfg_path, "--steps", "3", "--out", "-"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0].startswith("# model=euclidean(1) scenario=")
    assert lines[1] == "n,x0,d_step,d_Tn,d_p"
    assert lines[2].split(",")[1] == "1"
    assert len(lines) == 2 + 4


def test_run_deterministic(runner, cfg_path):
    a = runner.invoke(main, ["run", cfg_path, "--out", "-"]).output
    b = runner.invoke(main, ["run", cfg_path, "--out", "-"]).output
    assert a == b


def test_run_writes_file(runner, cfg_path, tmp_path):
    out = tmp_path / "traj.csv"
    res = runner.invoke(main, ["run", cfg_path, "--steps", "5",
                               "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_text().splitlines()[1] == "n,x0,d_step,d_Tn,d_p"


def test_rates_golden_strings(runner, cfg_path):
    res = runner.invoke(main, [
        "rates", cfg_path, "--k-max", "0",
        "--which", "chi,Sigma_star,Sigma_tilde_star,Psi_star,mu_star",
        "--cf", "const:0", "--phi", "const:0",
    ])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "k,chi,Sigma_star,Sigma_tilde_star,Psi_star,mu_star"
    assert lines[1] == "0,7,145,2305,20737,4609"


def test_rates_astronomical_rendering(runner, cfg_path):
    res = runner.invoke(main, [
        "rates", cfg_path, "--k-max", "0", "--which", "mu_star",
        "--cf", "const:0",
    ])
    assert res.exit_code == 0
    import csv
    import io

    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[1][1].startswith("ASTRO:")


def test_rates_unknown_name_exits_2(runner, cfg_path):
    res = runner.invoke(main, ["rates", cfg_path, "--which", "Zeta"])
    assert res.exit_code == 2


def test_rates_bad_counterfunction_exits_2(runner, cfg_path):
    for cf in ("huh:1", "const:-5", "table:[3,-1]"):
        res = runner.invoke(main, ["rates", cfg_path, "--which", "mu_star",
                                   "--cf", cf])
        assert res.exit_code == 2, cf


def test_bad_config_exits_2(runner, tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("space.kind = euclidean\n")
    res = runner.invoke(main, ["run", str(p)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["run", str(tmp_path / "missing.cfg")])
    assert res.exit_code == 2


def test_solver_failure_exits_3(runner, tmp_path):
    p = tmp_path / "stall.cfg"
    p.write_text("""
space.kind = euclidean
space.dim = 2
family.kind = resolvent
family.base.kind = rotation
family.base.angle = 1.0
family.inner_tol = 1e-18
family.max_iterations = 2
schedule.preset = harmonic
run.u = 0,0
run.x0 = 1,0
""")
    res = runner.invoke(main, ["run", str(p), "--steps", "10", "--out", "-"])
    assert res.exit_code == 3
    assert "after 2 iterations (first " in res.stderr and ", best " in res.stderr


@pytest.mark.parametrize("angle", ["1e308", "-1e308", repr(sys.float_info.max),
                                   repr(-sys.float_info.max)])
@pytest.mark.parametrize("family", ["family.kind = rotation\nfamily.angle",
                                    "family.kind = resolvent\nfamily.base.kind = rotation\n"
                                    "family.base.angle"], ids=["rotation", "resolvent"])
@pytest.mark.parametrize("space,u,x0", [
    ("space.kind = euclidean\nspace.dim = 2", "0.3,-0.1", "-0.5,0.2"),
    ("space.kind = disk", "0.3,-0.1", "-0.5,0.2"),
    ("space.kind = tripod", "1:0.3", "2:0.5"),
], ids=["euclidean", "disk", "tripod"])
def test_a_huge_finite_angle_runs(runner, tmp_path, space, u, x0, family, angle):
    # 3 * angle overflows past about 6e307; the tripod's leg shift must not
    p = tmp_path / "huge-angle.cfg"
    p.write_text(f"{space}\n{family} = {angle}\nschedule.preset = harmonic\n"
                 f"run.u = {u}\nrun.x0 = {x0}\n")
    res = runner.invoke(main, ["run", str(p), "--steps", "20", "--out", "-"])
    assert res.exit_code == 0, res.output
    assert len(res.output.splitlines()) == 2 + 21


@pytest.mark.parametrize("u,x0", [("0:1e308", "1:1e308"), ("1:1e308", "1:9e307")],
                         ids=["two-legs", "one-leg"])
def test_tripod_arms_past_half_the_float_range_exit_2(runner, tmp_path, u, x0):
    # every point of a run lies within M = max(d(x0, p), d(u, p)) of p, and
    # the tripod's comb forms s_x + s_y: a config whose 2M is not finite is
    # refused, for run as for rates (one leg: T u_0 lies on another leg)
    p = tmp_path / "tripod.cfg"
    p.write_text("space.kind = tripod\nfamily.kind = rotation\n"
                 "family.angle = 2.0943951023931953\nschedule.preset = harmonic\n"
                 f"run.steps = 5\nrun.u = {u}\nrun.x0 = {x0}\n")
    for args in (["run", str(p), "--out", "-"], ["rates", str(p), "--k-max", "0"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert "'run.x0'" in res.stderr and "'run.u'" in res.stderr
        assert "Traceback" not in res.stderr


def test_verify_geometry_report(runner, tmp_path):
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", "geometry",
                               "--samples", "200",
                               "--report", str(report)])
    assert res.exit_code == 0
    data = json.loads(report.read_text())
    assert data["pass"] is True
    assert any(c["check_id"].startswith("geometry/disk/") for c in data["checks"])


class BrokenModel(Euclidean):
    """A non-geodesic combination that violates the convexity axioms."""

    pair_combs = SpaceModel.pair_combs  # the checkers' kernel calls _comb

    def _comb(self, a, b, lam):
        return a if lam < 1.0 else b


def test_verify_broken_model_exits_1(runner, monkeypatch):
    models = cli._geometry_models
    monkeypatch.setattr(cli, "_geometry_models",
                        lambda: models() + [BrokenModel(2)])
    res = runner.invoke(main, ["verify", "--suite", "geometry",
                               "--samples", "200"])
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["pass"] is False
    assert any(not c["pass"] for c in data["checks"])


def test_verify_nan_model_exits_1(runner, monkeypatch):
    models = cli._geometry_models
    monkeypatch.setattr(cli, "_geometry_models", lambda: models() + [NaNComb(2)])
    res = runner.invoke(main, ["verify", "--suite", "geometry", "--samples", "50"])
    assert res.exit_code == 1, res.output
    data = json.loads(res.output)
    failed = {c["check_id"] for c in data["checks"] if not c["pass"]}
    assert {f"geometry/euclidean(2)/{name}" for name in
            ("W1", "W2", "W3", "W4", "CN-", "CN+", "uniform convexity eps^2/8")} <= failed
    assert '"max_violation": NaN' in res.output


# The sha256 of the report `tmlab verify --suite all --samples 2000 --report`
# writes, recorded on Python 3.10.13 and 3.11.7 (False) and on 3.12.1 and
# 3.13.0 (True): from 3.12 on float sum is compensated, and the Euclidean(3)
# entries give other last bits.
VERIFY_REPORT_SHA256 = {
    False: "58e19b9d1535288f86754e385ecd4dd48d7d35348e29096b4fae8fa05a8e09cd",
    True: "71755fd3ab0e8aaab84a2626355033fa0af55b5d7c70a1f0612be43c6d1d8bec",
}


def test_verify_report_bytes_are_pinned(runner, tmp_path):
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", "all", "--samples", "2000",
                               "--report", str(report)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_REPORT_SHA256[
        sys.version_info >= (3, 12)]


def test_verify_engine_and_schedules(runner):
    for suite in ("engine", "schedules"):
        res = runner.invoke(main, ["verify", "--suite", suite,
                                   "--samples", "200"])
        assert res.exit_code == 0, (suite, res.output)


def _check_ids(runner, suite):
    res = runner.invoke(main, ["verify", "--suite", suite, "--samples", "200"])
    assert res.exit_code == 0, (suite, res.output)
    return [c["check_id"] for c in json.loads(res.output)["checks"]]


def test_verify_all_is_the_four_suites_in_order(runner):
    res = runner.invoke(main, ["verify", "--suite", "all", "--samples", "200"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["pass"] is True
    assert data["suites"] == list(cli.SUITES)
    assert len(data["checks"]) == 96
    for c in data["checks"]:
        assert list(c) == ["check_id", "pass", "detail"]
        assert c["pass"] is True
    assert [c["check_id"] for c in data["checks"]] == [
        check_id for suite in ("geometry", "schedules", "engine", "lemmas")
        for check_id in _check_ids(runner, suite)]


def test_xu_telescoping_fails_when_its_hypotheses_are_unmet(runner, monkeypatch):
    from tmlab import verify

    unmet = verify.CheckResult(check_id="xu-lemma", passed=True,
                               hypothesis_status="unmet")
    monkeypatch.setattr(verify, "check_xu_lemma", lambda *args, **kwargs: unmet)
    res = runner.invoke(main, ["verify", "--suite", "lemmas"])
    assert res.exit_code == 1, res.output
    data = json.loads(res.output)
    assert data["pass"] is False
    verdicts = {c["check_id"]: c["pass"] for c in data["checks"]}
    telescoping = [v for cid, v in verdicts.items() if "/xu-telescoping/" in cid]
    drawn = [v for cid, v in verdicts.items() if "/xu-random/" in cid]
    assert telescoping == [False] * 5
    assert drawn == [True] * 20
    assert all(v for cid, v in verdicts.items() if "/xu-" not in cid)


def test_metastable_report(runner, cfg_path, tmp_path):
    report = tmp_path / "meta.json"
    res = runner.invoke(main, [
        "metastable", cfg_path, "--k", "0", "--cf", "const:0",
        "--cap", "100", "--phi", "const:0", "--report", str(report),
    ])
    assert res.exit_code == 0
    data = json.loads(report.read_text())
    assert data["pass"] is True
    assert data["details"]["searched_n"] == 0
    assert data["details"]["mu"] == "4609"


def test_log_level_flag_accepted(runner, cfg_path):
    res = runner.invoke(main, ["--log-level", "info", "rates", cfg_path,
                               "--k-max", "0", "--which", "chi"])
    assert res.exit_code == 0


ALL_RATES = ("chi", "Sigma", "Sigma_tilde", "Sigma_star", "Sigma_tilde_star",
             "Psi", "Psi_star", "mu", "mu_star")


def test_rates_routes_every_name(runner, cfg_path):
    import csv
    import io

    from tmlab import cli, rates
    from tmlab.scenario import scenario_from_text

    assert cli.RATE_NAMES == ALL_RATES
    for name in ALL_RATES:
        assert callable(getattr(rates, name))
    res = runner.invoke(main, [
        "rates", cfg_path, "--which", ",".join(ALL_RATES), "--k-max", "3",
        "--phi", "const:0",
    ])
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["k", *ALL_RATES]
    sc = scenario_from_text(IDENTITY_CFG)
    f, phi = rates.Const(0), rates.Const(0)
    for k in range(4):
        assert rows[k + 1][0] == str(k)
        for name, cell in zip(ALL_RATES, rows[k + 1][1:]):
            fn = getattr(rates, name)
            if name in ("mu", "mu_star"):
                want = fn(k, f, sc.bundle, sc.K, sc.chi_T_fn,
                          Phi_override=phi, bit_cap=sc.bit_cap)
            else:
                want = fn(k, sc.bundle, sc.K, sc.chi_T_fn, sc.bit_cap)
            assert cell == want.render(), (name, k)


GOLDEN_ROW_CFG = """
space.kind = euclidean
space.dim = 1
family.kind = constant
schedule.preset = constant-gamma-harmonic-beta
run.u = 0
run.x0 = 1
"""

# K = 2 and a proximal family, whose chi_T is nonzero
PROXIMAL_K2_CFG = """
space.kind = euclidean
space.dim = 2
family.kind = proximal
family.center = 0,0
schedule.preset = harmonic
run.u = 0.5,0
run.x0 = 1.5,0
run.K = 2
"""

# sha256 of `tmlab rates --which <all nine> --k-max 3 <flags>`, recorded
# before the metastability chain was rewritten as plain integer functions
RATES_SHA256 = {
    ("golden-row", "phi-const"):
        "5d6a1b7f6bee208b1b12ee3421276aacefa9cd034f9fc474cdc11b7e1cf40c5c",
    ("golden-row", "phi-default"):
        "f0d2e09b34f831043242aecca2e9cf36bbf738abbb97cd761101786de85ad30d",
    ("golden-row", "cf-affine-phi-id"):
        "e59bd5215247c006447cf42634128a57acdfe497744900722932903e0eb528c3",
    ("proximal-K2", "phi-const"):
        "24df27ff673cfdd0f38f6b3ab2ab485fd4421569a31842deb7d79e3312aa84da",
    ("proximal-K2", "phi-default"):
        "99d51a265a938323012121067b1d139da68cb54801d73ad26367eff7476450cd",
    ("proximal-K2", "cf-affine-phi-id"):
        "ff8123c133b4ab41b42c31fda7267ae7b715b473930930f13eedece689a91b8e",
}
RATES_FLAGS = {
    "phi-const": ["--phi", "const:0"],
    "phi-default": [],
    "cf-affine-phi-id": ["--cf", "affine:2,0", "--phi", "id"],
}


@pytest.mark.parametrize("config, flags", list(RATES_SHA256),
                         ids=lambda v: v)
def test_rates_bytes_are_pinned(runner, tmp_path, config, flags):
    import hashlib

    p = tmp_path / "scenario.cfg"
    p.write_text({"golden-row": GOLDEN_ROW_CFG,
                  "proximal-K2": PROXIMAL_K2_CFG}[config])
    res = runner.invoke(main, [
        "rates", str(p), "--which", ",".join(ALL_RATES), "--k-max", "3",
        *RATES_FLAGS[flags],
    ])
    assert res.exit_code == 0
    digest = hashlib.sha256(res.stdout_bytes).hexdigest()
    assert digest == RATES_SHA256[config, flags]


def test_rates_mu_default_phi_exits_0(runner, cfg_path):
    res = runner.invoke(main, ["rates", cfg_path, "--which", "mu", "--k-max", "0"])
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == '0,"ASTRO:mu(k=0,f=const:0)"'


@pytest.mark.parametrize("command", [["rates", "--which", "mu,mu_star", "--k-max", "1"],
                                     ["metastable", "--k", "1"]], ids=["rates", "metastable"])
def test_an_empty_phi_is_no_override(runner, cfg_path, command):
    name, *flags = command
    plain = runner.invoke(main, [name, cfg_path, *flags])
    empty = runner.invoke(main, [name, cfg_path, *flags, "--phi", ""])
    assert plain.exit_code == 0, plain.output
    assert (empty.exit_code, empty.output) == (0, plain.output)


def test_rates_non_monotone_cf_is_bounded(runner, cfg_path):
    t0 = time.monotonic()
    res = runner.invoke(main, ["rates", cfg_path, "--which", "mu_star",
                               "--k-max", "0", "--cf", "max(table:[5,1],id)",
                               "--phi", "id"])
    assert time.monotonic() - t0 < 2.0
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == '0,"ASTRO:mu_star(k=0,f=max(table:[5,1],id))"'


PROXIMAL_CFG = """
space.kind = euclidean
space.dim = 2
family.kind = proximal
family.center = 0,0
schedule.preset = harmonic
run.u = 0.5,0
run.x0 = 1,0
"""

# chi_gamma = pow:20000000 is a sound modulus (k**(2*10**7) >= k); every
# chi_T value the rates read on this config passes the default bit cap
HUGE_CHI_GAMMA_CFG = """
space.kind = euclidean
family.kind = proximal
family.center = 0,0
schedule.preset = harmonic
schedule.chi_gamma = pow:20000000
run.u = 0,0
run.x0 = 1,0
"""


def test_rates_cap_the_chi_T_modulus(runner, tmp_path):
    # chi_T is evaluated under run.bit_cap: the rates that read it are
    # Astronomical at once, not after forming a 3**(2*10**7)
    p = tmp_path / "scenario.cfg"
    p.write_text(HUGE_CHI_GAMMA_CFG)
    t0 = time.monotonic()
    res = runner.invoke(main, ["rates", str(p), "--which", "chi,Sigma_star", "--k-max", "1"])
    assert time.monotonic() - t0 < 5.0
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "k,chi,Sigma_star",
        "0,ASTRO:chi(k=0),ASTRO:Sigma_star(k=0)",
        "1,ASTRO:chi(k=1),ASTRO:Sigma_star(k=1)",
    ]


@pytest.mark.parametrize("outer", ["const:0", "table:[3,7]", "max(const:0,table:[3,7])"])
def test_a_constant_or_table_outer_takes_no_value_of_a_huge_inner(runner, tmp_path, outer):
    # pow:20000000 passes the bit cap at every argument chi_beta gets here;
    # each outer function is constant from index 1 on, so its value there is
    # known without it
    p = tmp_path / "scenario.cfg"
    p.write_text(PROXIMAL_CFG + f"schedule.chi_beta = max(id,comp({outer},pow:20000000))\n")
    res = runner.invoke(main, ["rates", str(p), "--which", "chi", "--k-max", "1"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines() == ["k,chi", "0,7", "1,15"]


def _chain(head, depth):
    """head nested depth deep around id; the other arguments are id."""
    return (head + "(") * depth + "id" + (")" if head == "mono" else ",id)") * depth


@pytest.mark.parametrize("head", ["max", "comp", "mono"])
@pytest.mark.parametrize("command,place,named", [
    ("run", "chi_beta", "'schedule.chi_beta'"),
    ("rates", "chi_beta", "'schedule.chi_beta'"),
    ("rates", "--cf", "'--cf'"),
    ("rates", "--phi", "'--phi'"),
    ("metastable", "--cf", "'--cf'"),
    ("metastable", "--phi", "'--phi'"),
])
def test_counterfunctions_nest_at_most_100_deep(runner, tmp_path, head, command, place,
                                                named):
    p = tmp_path / "scenario.cfg"
    flags = {"run": ["--out", "-"], "metastable": [],
             "rates": ["--which", ",".join(ALL_RATES), "--k-max", "0"]}[command]
    for depth, code in ((100, 0), (101, 2), (300, 2)):
        text = _chain(head, depth)
        if place == "chi_beta":
            p.write_text(PROXIMAL_CFG + f"schedule.chi_beta = {text}\n")
            res = runner.invoke(main, [command, str(p), *flags])
        else:
            p.write_text(PROXIMAL_CFG)
            res = runner.invoke(main, [command, str(p), *flags, place, text])
        assert res.exit_code == code, (depth, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.stderr
    # a refusal names where the text came from, and quotes a long text by
    # its head and its length: at depth 300 the error stays short
    assert named in res.stderr and "nest deeper than 100" in res.stderr
    assert f"{text[:80]!r}… ({len(text)} characters)" in res.stderr
    assert len(res.stderr) < 400


PROJECTION_CFG = """
space.kind = euclidean
space.dim = 2
family.kind = projection
family.center = 0,0
family.radius = 1
schedule.preset = harmonic
run.u = 0,0
run.x0 = 1,0
"""


@pytest.mark.parametrize("line,field", [
    ("schedule.Lambda = 0", "Lambda"),
    ("schedule.Lambda = abc", "schedule.Lambda"),
    ("family.radius = abc", "family.radius"),
    ("run.x0 = inf,0", "run.x0"),
], ids=["Lambda=0", "Lambda=abc", "radius=abc", "x0=inf"])
@pytest.mark.parametrize("command", [["run", "--steps", "2"],
                                     ["rates", "--which", "Psi_star"]],
                         ids=["run", "rates"])
def test_malformed_numbers_exit_2_naming_the_field(runner, tmp_path, line, field,
                                                   command):
    key = line.partition("=")[0].strip()
    kept = [ln for ln in PROJECTION_CFG.splitlines()
            if ln.partition("=")[0].strip() != key]
    p = tmp_path / "bad.cfg"
    p.write_text("\n".join(kept + [line]) + "\n")
    res = runner.invoke(main, [command[0], str(p), *command[1:]])
    assert res.exit_code == 2, res.output
    assert field in res.stderr
    assert isinstance(res.exception, SystemExit)  # no uncaught error


RESOLVENT_CFG = """
space.kind = euclidean
space.dim = 2
family.kind = resolvent
family.base.kind = rotation
family.base.angle = 1.0
schedule.preset = harmonic
run.u = 0,0
run.x0 = 1,0
"""


@pytest.mark.parametrize("line,field", [
    ("family.max_iterations = 0", "family.max_iterations"),
    ("family.max_iterations = -3", "family.max_iterations"),
    ("family.inner_tol = 0", "family.inner_tol"),
    ("family.inner_tol = -1e-9", "family.inner_tol"),
], ids=["max_iterations=0", "max_iterations<0", "inner_tol=0", "inner_tol<0"])
def test_resolvent_solver_fields_exit_2_naming_the_field(runner, tmp_path, line,
                                                        field):
    p = tmp_path / "bad.cfg"
    p.write_text(RESOLVENT_CFG + line + "\n")
    res = runner.invoke(main, ["run", str(p), "--steps", "2", "--out", "-"])
    assert res.exit_code == 2, res.output
    assert field in res.stderr
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("lines,key", [
    (["family.kind = rotation"], "family.kind"),
    (["family.kind = constant", "family.angle = 0.5"], "family.angle"),
    (["family.kind = resolvent", "family.base.kind = rotation"], "family.base.kind"),
], ids=["rotation", "constant-angle", "resolvent-rotation-base"])
def test_rotation_off_the_plane_exits_2_naming_dim_and_the_key(runner, tmp_path, lines, key):
    p = tmp_path / "rotation.cfg"
    p.write_text("\n".join(["space.kind = euclidean", "space.dim = 3", *lines,
                            "run.u = 0,0,0", "run.x0 = 1,0,0"]) + "\n")
    res = runner.invoke(main, ["run", str(p), "--steps", "2", "--out", "-"])
    assert res.exit_code == 2, res.output
    assert res.stderr == (f"config error: fields 'space.dim', {key!r}: "
                          "rotation requires a two-dimensional model\n")
    assert isinstance(res.exception, SystemExit)


def test_huge_dim_exits_2_on_the_points_before_any_family_point(runner, tmp_path,
                                                                 monkeypatch):
    def no_base_point(self):
        raise AssertionError("a base point was built")

    monkeypatch.setattr(Euclidean, "base_point", no_base_point)
    p = tmp_path / "huge.cfg"
    p.write_text(IDENTITY_CFG.replace("space.dim = 1", f"space.dim = {10 ** 7}")
                 .replace("run.u = 0", "run.u = 0,0").replace("run.x0 = 1", "run.x0 = 1,0"))
    res = runner.invoke(main, ["run", str(p), "--out", "-"])
    assert res.exit_code == 2, res.output
    assert "field 'run.u': expected 10000000 coordinates" in res.stderr
    assert isinstance(res.exception, SystemExit)


ROTATION_CFG = """
space.kind = euclidean
space.dim = 2
family.kind = rotation
schedule.preset = harmonic
run.u = 0,0
run.x0 = 1,0
run.K = 1
"""


@pytest.mark.parametrize("args,option", [
    (["metastable", "{cfg}", "--k", "-1"], "--k"),
    (["metastable", "{cfg}", "--cap", "0"], "--cap"),
    (["verify", "--suite", "geometry", "--samples", "0"], "--samples"),
    (["run", "{cfg}", "--steps", "0"], "--steps"),
    (["rates", "{cfg}", "--k-max", "-1"], "--k-max"),
    (["verify", "--suite", "schedules", "--tol", "-1"], "--tol"),
    (["verify", "--suite", "schedules", "--tol", "nan"], "--tol"),
    (["verify", "--suite", "schedules", "--tol", "inf"], "--tol"),
    (["run", "{cfg}", "--out", "{missing}"], "--out"),
    (["rates", "{cfg}", "--out", "{missing}"], "--out"),
    (["verify", "--suite", "schedules", "--report", "{missing}"], "--report"),
    (["metastable", "{cfg}", "--report", "{missing}"], "--report"),
    (["rates", "{cfg}", "--which", ","], "--which"),
    (["rates", "{cfg}", "--which", "Zeta"], "--which"),
    (["rates", "{cfg}", "--which", "mu", "--cf", "nope:3"], "--cf"),
    (["rates", "{cfg}", "--which", "mu", "--phi", "max (id,id)"], "--phi"),
    (["metastable", "{cfg}", "--cf", "table:[3,-1]"], "--cf"),
    (["metastable", "{cfg}", "--phi", "mono(id"], "--phi"),
], ids=["k", "cap", "samples", "steps", "k-max", "tol-negative", "tol-nan",
        "tol-inf", "run-out", "rates-out", "verify-report", "metastable-report",
        "which-empty", "which-unknown", "rates-cf", "rates-phi", "metastable-cf",
        "metastable-phi"])
def test_out_of_range_flags_exit_2_naming_the_option(runner, tmp_path, args, option):
    p = tmp_path / "rotation.cfg"
    p.write_text(ROTATION_CFG)
    missing = tmp_path / "no-such-dir" / "out.txt"
    res = runner.invoke(main, [a.format(cfg=p, missing=missing) for a in args])
    assert res.exit_code == 2, res.output
    assert f"'{option}'" in res.stderr
    assert isinstance(res.exception, SystemExit)


def test_run_K_zero_exits_2(runner, tmp_path):
    p = tmp_path / "k0.cfg"
    p.write_text(IDENTITY_CFG.replace("run.x0 = 1", "run.x0 = 0") + "run.K = 0\n")
    res = runner.invoke(main, ["rates", str(p), "--which", "Sigma", "--k-max", "0"])
    assert res.exit_code == 2, res.output
    assert "run.K" in res.stderr
    assert isinstance(res.exception, SystemExit)


def test_negative_schedule_counterfunction_exits_2(runner, tmp_path):
    p = tmp_path / "eta.cfg"
    p.write_text(ROTATION_CFG + "schedule.eta = const:-3\n")
    res = runner.invoke(main, ["rates", str(p), "--which", "mu_star",
                               "--k-max", "0", "--phi", "const:0"])
    assert res.exit_code == 2, res.output
    assert "schedule.eta" in res.stderr


@pytest.mark.parametrize("lines,args,named", [
    ("family.radus = 3\nrun.stpes = 5\n", ["run", "--out", "-"],
     ["family.radus", "did you mean 'family.radius'"]),
    ("schedule.chi_beta = const:0\nschedule.eta = const:0\n",
     ["rates", "--which", "Sigma_star,Psi_star", "--k-max", "1"],
     ["'schedule.chi_beta', 'schedule.eta'", "C2_q"]),
    ("run.seed = 0\n", ["run", "--out", "-"], ["run.seed"]),
    # equal to 1 for every k >= 1, though pow:20000000 passes the audit's cap
    ("schedule.chi_beta = comp(max(const:0,table:[0,1]),pow:20000000)\n",
     ["rates", "--which", "chi", "--k-max", "1"], ["'schedule.chi_beta'", "C2_q", "'k': 3"]),
], ids=["misspelled-keys", "unsound-override", "run.seed", "unsound-override-past-the-cap"])
def test_unread_keys_and_unsound_overrides_exit_2(runner, tmp_path, lines, args, named):
    p = tmp_path / "bad.cfg"
    p.write_text(ROTATION_CFG + lines)
    res = runner.invoke(main, [args[0], str(p), *args[1:]])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    for text in named:
        assert text in res.stderr
    assert isinstance(res.exception, SystemExit)


def test_metastable_counterfunction_past_the_trajectory_is_truncated(runner, tmp_path):
    # f(0) = 2**(2 * 10**10): the search evaluates f under the trajectory's
    # bit length, so the window is reported as truncated without forming f(0)
    p = tmp_path / "rotation.cfg"
    p.write_text(ROTATION_CFG + "run.steps = 50\n")
    start = time.perf_counter()
    res = runner.invoke(main, ["metastable", str(p), "--k", "0", "--cap", "10",
                               "--cf", "comp(pow:20000000000,affine:1,2)", "--phi", "const:0"])
    assert time.perf_counter() - start < 2
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert json.loads(res.stdout)["witnesses"] == {"search": "none found", "truncated": True}


def test_metastable_counterfunction_constant_past_the_cap_is_searched(runner, tmp_path):
    # f(0) = 5 and f(n) = 30 for n >= 1, though pow:20000000 passes the
    # trajectory's bit length: every window ends inside the 101 points
    p = tmp_path / "scenario.cfg"
    p.write_text(PROXIMAL_CFG)
    res = runner.invoke(main, ["metastable", str(p), "--k", "20", "--cf",
                               "comp(max(const:5,table:[0,30]),pow:20000000)", "--phi", "const:0"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.stdout)
    assert data["witnesses"] is None
    assert data["details"]["searched_n"] == 14


def test_metastable_k_past_float_range_reports(runner, cfg_path):
    # 1/(k+1) is taken as integer true division, which has no float range
    # limit; the default-Phi mu is refused after the tower's first round
    res = runner.invoke(main, ["metastable", cfg_path, "--k", str(2 ** 1030),
                               "--cf", "id"])
    assert res.exit_code == 0, res.output
    assert res.exception is None
    assert "Traceback" not in res.output
    data = json.loads(res.stdout)
    assert data["details"]["k"] == 2 ** 1030
    assert data["details"]["mu"].startswith("ASTRO:")


def test_import_loads_no_mpmath():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, tmlab, tmlab.cli; sys.exit('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# Fuzz: configs drawn from the FIELDS keys, junk keys and junk values
# ---------------------------------------------------------------------------

_junk = st.text(alphabet="abcxyz019.,:-_ []()", max_size=8)
_small_int = st.integers(-2, 12).map(str)
_cf_leaf = st.one_of(
    st.just("id"),
    _small_int.map("const:{}".format),
    st.tuples(_small_int, _small_int).map(lambda t: f"affine:{t[0]},{t[1]}"),
    st.integers(-1, 4).map("pow:{}".format),
    st.lists(_small_int, max_size=4).map(lambda v: f"table:[{','.join(v)}]"),
)
_counterfunction = st.recursive(_cf_leaf, lambda f: st.one_of(
    st.tuples(f, f).map(lambda t: f"max({t[0]},{t[1]})"),
    st.tuples(f, f).map(lambda t: f"comp({t[0]},{t[1]})"),
    f.map("mono({})".format),
), max_leaves=4)
_POINTS = ("0", "0.5", "0,0", "0.5,0", "1,0", "0.3,0.1,0", "0:0", "1:0.5", "2:1.5",
           "7:1", "nan,0", "1e308,1e308", "0:1e308", "1:9e307")
_WORDS = {"space.kind": ("euclidean", "disk", "tripod", "sphere"),
          "family.kind": ("identity", "constant", "rotation", "projection",
                          "proximal", "resolvent", "spiral"),
          "family.base.kind": ("rotation", "projection", "shear"),
          "schedule.preset": ("harmonic", "constant-gamma-harmonic-beta", "cosine")}


def _value(key):
    """Values of the key's own type, most of them valid, or junk."""
    parse = FIELDS[key].parse
    if key in _WORDS:
        valid = st.sampled_from(_WORDS[key])
    elif key == "run.steps":  # each example runs only a few steps
        valid = st.integers(-1, 20).map(str)
    elif parse is int:
        valid = _small_int
    elif parse is _point:
        valid = st.sampled_from(_POINTS)
    elif key.startswith("schedule."):
        valid = _counterfunction
    else:
        valid = st.one_of(st.floats(-3, 3).map(repr), st.sampled_from(("nan", "inf", "0")))
    return st.one_of(valid, valid, valid, _junk)


_BASES = [ROTATION_CFG, PROJECTION_CFG, RESOLVENT_CFG, IDENTITY_CFG,
          "space.kind = tripod\nfamily.kind = proximal\nfamily.center = 1:0.5\n"
          "run.u = 0:0\nrun.x0 = 2:1.5\n"]
_JUNK_KEYS = ("run.seed", "family.function", "family.radus", "run", "")


def _edits(base):
    """Changed or added keys: mostly ones the base config reads, so most
    examples get past the unused-key check and into the run."""
    read = sorted(set(parse_config_text(base)) | {
        k for k in FIELDS if k.startswith(("schedule.", "run."))})
    key = st.one_of(st.sampled_from(read), st.sampled_from(read),
                    st.sampled_from(sorted(FIELDS)))
    edit = key.flatmap(lambda k: st.tuples(st.just(k), _value(k)))
    return st.one_of(edit, edit, edit, st.tuples(st.sampled_from(_JUNK_KEYS), _junk))


_configs = st.sampled_from(_BASES).flatmap(lambda base: st.lists(
    _edits(base), max_size=3).map(lambda edits: "".join(
        f"{k} = {v}\n" for k, v in {**parse_config_text(base), **dict(edits)}.items())))


@settings(max_examples=60, deadline=3000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_configs)
def test_fuzzed_configs_exit_with_a_code_and_no_traceback(runner, tmp_path, text):
    p = tmp_path / "fuzz.cfg"
    p.write_text(text)
    for args in (["run", str(p), "--out", "-"], ["rates", str(p), "--k-max", "2"]):
        res = runner.invoke(main, args)
        assert res.exception is None or isinstance(res.exception, SystemExit), (
            text, args, res.exc_info)
        assert res.exit_code in (0, 1, 2, 3)
        assert "Traceback" not in res.stderr
