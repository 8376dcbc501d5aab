"""CLI surface: subcommands, exit codes, determinism, JSON round trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

BASE_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def run_cli(*args, check=False):
    result = subprocess.run(
        [sys.executable, "-m", "hc3.cli", *args],
        capture_output=True,
        text=True,
        env=BASE_ENV,
    )
    if check and result.returncode != 0:
        raise AssertionError(
            f"hc3 {' '.join(args)} failed ({result.returncode}): {result.stderr}"
        )
    return result


def test_pack_small_table():
    r = run_cli("pack", "--d2", "3", "--diag", "2", "--count", check=True)
    lines = r.stdout.splitlines()
    assert "optimum 2" in lines
    assert "count 4" in lines


def test_pack_json_round_trip(tmp_path):
    out = tmp_path / "witness.json"
    r = run_cli(
        "pack", "--d2", "2", "--diag", "2", "--count", "--json", "--out", str(out),
        check=True,
    )
    payload = json.loads(r.stdout)
    assert payload["optimum"] == 4
    assert payload["count"] == 2
    assert payload["density"] == "1/2"
    from hc3.documents import load

    witness = load(out)
    assert len(witness.occupied) == 4


def test_pack_requires_domain():
    r = run_cli("pack", "--d2", "2")
    assert r.returncode == 2


def test_pack_domain_violation_exit_code():
    r = run_cli("pack", "--d2", "99", "--diag", "2")
    assert r.returncode == 1


def test_pack_budget_exhaustion_exit_code():
    r = run_cli("pack", "--d2", "5", "--period", "2,-4,2;-2,-2,4;4,2,0", "--budget", "2")
    assert r.returncode == 3


def test_cli_output_is_deterministic_across_runs():
    argv = ("pack", "--d2", "4", "--diag", "4", "--count")
    outputs = [run_cli(*argv, check=True).stdout for _ in range(3)]
    assert outputs[0] == outputs[1] == outputs[2]


def test_out_of_range_numbers_exit_2(tmp_path):
    r = run_cli("pack", "--diag", "2", "--d2", "0")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    doc = tmp_path / "pc2.json"
    run_cli("pc", "--d2", "2", "--out", str(doc), check=True)
    r = run_cli("slide", str(doc), "--scan", "--max-shift-norm", "-1")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    r = run_cli("pack", "--diag", "2", "--d2", "3", "--budget", "-5")
    assert r.returncode == 2
    assert r.stderr.splitlines() == ["error: --budget must be >= 0"]
    r = run_cli("excite", str(doc), "--max-order", "1", "--radius", "1", "--budget", "-1")
    assert r.returncode == 2
    assert r.stderr.splitlines() == ["error: --budget must be >= 0"]
    assert r.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["pack", "--diag", "2", "--d2", "2", "--out", "{out}"],
        ["pc", "--d2", "2", "--out", "{out}"],
        ["layered", "--d2", "5", "--word", "ST", "--out", "{out}"],
        ["voronoi", "{doc}", "--site", "0,0,0", "--dump-geometry", "{out}"],
    ],
    ids=["pack", "pc", "layered", "voronoi"],
)
def test_unwritable_output_exits_2(tmp_path, argv):
    doc = tmp_path / "pc2.json"
    run_cli("pc", "--d2", "2", "--out", str(doc), check=True)
    out = tmp_path / "missing" / "x.json"
    r = run_cli(*(a.format(doc=doc, out=out) for a in argv))
    assert r.returncode == 2
    # pack reports its search on a "#" line first
    errors = [line for line in r.stderr.splitlines() if not line.startswith("#")]
    assert errors == [f"error: cannot write {out}: No such file or directory"]
    assert r.stdout == ""


WINDOW_DOC = {
    "d2": 2,
    "window": {"lo": [0, 0, 0], "hi": [3, 3, 3]},
    "sites": [[0, 0, 0], [1, 1, 0], [2, 0, 0], [0, 2, 0]],
    "metadata": {},
}


def test_slide_zero_plane_normal_exits_2(tmp_path):
    # a zero plane normal or line direction would select every site (of a
    # window, for a line) and pass a global translation off as a slide
    doc = tmp_path / "layered.json"
    run_cli(
        "layered", "--d2", "6", "--family", "I", "--word", "STUSTTUSSU",
        "--out", str(doc), check=True,
    )
    window = tmp_path / "window.json"
    window.write_text(json.dumps(WINDOW_DOC))
    for path in (doc, window):
        for mesh in ("plane:0,0,0:0,0,0", "line:0,0,0:0,0,0"):
            r = run_cli("slide", str(path), "--mesh", mesh, "--shift", "1,0,0")
            assert r.returncode == 2
            assert len(r.stderr.splitlines()) == 1
            assert r.stderr.startswith("error: ")
            assert r.stdout == ""


def test_slide_out_of_window_is_an_invalid_slide(tmp_path):
    window = tmp_path / "window.json"
    window.write_text(json.dumps(WINDOW_DOC))
    scan = run_cli("slide", str(window), "--scan", check=True)
    assert scan.stdout.startswith("moves ")
    assert scan.stderr == ""
    argv = ("slide", str(window), "--mesh", "line:0,0,0:1,0,0", "--shift", "5,0,0")
    r = run_cli(*argv)
    assert r.returncode == 1
    assert r.stdout == "valid no\noutside-window (5,0,0) (7,0,0)\n"
    assert r.stderr == ""
    r = run_cli(*argv, "--json")
    assert r.returncode == 1
    assert json.loads(r.stdout) == {
        "valid": False,
        "outside_window": [[5, 0, 0], [7, 0, 0]],
    }


@pytest.mark.parametrize(
    "content, argv, code, stdout, error",
    [
        (
            '{"d2":2,"window":{"lo":[3,0,0],"hi":[0,0,0]},"sites":[]}',
            ["verify"], 2, "", "error: bad document: empty window",
        ),
        (None, ["verify"], 2, "", "error: cannot read "),
        (None, ["slide", "--scan"], 2, "", "error: cannot read "),
        (b"\xff\xfe{}", ["verify"], 2, "", "error: bad document: invalid JSON"),
        (
            '{"d2":2,"period":[[4,0,0],[0,4,0],[0,0,4]],"sites":[]}',
            ["verify"], 0,
            "sites 0\nadmissible yes\ndensity 0\nperiod-min-sq-norm 16\nsaturated no\n",
            None,
        ),
        (
            '{"d2":2,"window":{"lo":[0,0,0],"hi":[3,0,0]},"sites":[[0,0,0]]}',
            ["slide", "--mesh", "line:0,0,0:1,0,0", "--shift", "1,0,0"],
            1, "valid no\n", None,
        ),
        (
            '{"d2":2,"window":{"lo":[0,0,0],"hi":[3,0,0]},"sites":[[0,0,0]]}',
            ["voronoi", "--site", "0,0,0"],
            2, "", "error: Voronoi cells require a periodic configuration",
        ),
        (
            '{"d2":2,"window":{"lo":[0,0,0],"hi":[3,0,0]},"sites":[[0,0,0]]}',
            ["excite", "--max-order", "1", "--radius", "1"],
            2, "", "error: excitation enumeration requires a periodic configuration",
        ),
        (
            '{"d2":2,"period":[[4,0,0],[0,4,0],[0,0,4]],"sites":[[0,0,0]]}',
            ["voronoi", "--site", "1,0,0"],
            1, "", "error: site (1, 0, 0) is not occupied",
        ),
        (
            '{"d2":5,"period":[[9,0,0],[2,1,0],[5,0,1]],"sites":[[0,0,0]]}',
            ["slide", "--mesh", "mesh:0,0,0:1,0,0:2,0,0", "--shift", "1,0,0"],
            2, "", "error: bad mesh spec 'mesh:0,0,0:1,0,0:2,0,0': "
            "mesh generators are collinear\n",
        ),
    ],
    ids=["empty-window", "directory", "slide-directory", "not-utf8", "empty-torus",
         "one-site-window-slide", "window-voronoi", "window-excite",
         "unoccupied-voronoi", "collinear-mesh"],
)
def test_edge_documents_exit_without_traceback(tmp_path, content, argv, code, stdout, error):
    # content None puts a directory where the document should be
    path = tmp_path / "doc.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    r = run_cli(argv[0], str(path), *argv[1:])
    assert (r.returncode, r.stdout) == (code, stdout)
    if error is None:
        assert r.stderr == ""
    else:
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith(error)


@pytest.mark.parametrize(
    "build, mesh, shift",
    [
        (["pc", "--d2", "5"], "line:0,0,0:1,1,1", "1,1,1"),
        (
            ["layered", "--d2", "6", "--family", "I", "--word", "STUSTTUSSU"],
            "plane:0,0,0:0,1,0", "1,0,0",
        ),
    ],
    ids=["pc-d2-5", "layered-d2-6"],
)
def test_whole_configuration_shift_is_not_a_slide(tmp_path, build, mesh, shift):
    # the selection holds every occupied site: a global translation
    doc = tmp_path / "doc.json"
    run_cli(*build, "--out", str(doc), check=True)
    r = run_cli("slide", str(doc), "--mesh", mesh, "--shift", shift)
    assert r.returncode == 1
    assert r.stdout.splitlines()[0] == "valid no"
    r = run_cli("slide", str(doc), "--mesh", mesh, "--shift", shift, "--json")
    assert r.returncode == 1
    assert json.loads(r.stdout)["valid"] is False


def test_catalog_errors_print_the_bare_message():
    r = run_cli("pc", "--d2", "6", "--variant", "X")
    assert (r.returncode, r.stderr) == (2, "error: unknown variant 'X' for d2=6\n")
    r = run_cli("layered", "--d2", "7", "--word", "S")
    assert (r.returncode, r.stderr) == (2, "error: no layered family for d2=7\n")
    r = run_cli("pc", "--d2", "7")
    assert (r.returncode, r.stderr) == (2, "error: no catalog sublattice for d2=7\n")
    r = run_cli("layered", "--d2", "5", "--family", "X", "--word", "S")
    assert (r.returncode, r.stderr) == (2, "error: unknown family 'X' for d2=5\n")


def test_verify_reports_and_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    run_cli("pc", "--d2", "2", "--out", str(good), check=True)
    r = run_cli("verify", str(good), check=True)
    assert "admissible yes" in r.stdout
    assert "density 1/2" in r.stdout
    assert "saturated yes" in r.stdout

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "d2": 2,
                "period": [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
                "sites": [[0, 0, 0], [1, 0, 0]],
            }
        )
    )
    r = run_cli("verify", str(bad))
    assert r.returncode == 1
    assert "violation (0,0,0) ~ (1,0,0) sq-distance 1" in r.stdout

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    r = run_cli("verify", str(broken))
    assert r.returncode == 2


def test_pc_variants(tmp_path):
    r = run_cli("pc", "--d2", "9", "--json", check=True)
    payload = json.loads(r.stdout)
    assert payload["basis"] == [[0, 3, 1], [0, -1, 3], [2, 1, 2]]
    assert payload["density"] == "1/20"
    r = run_cli("pc", "--d2", "7")
    assert r.returncode == 2


def test_layered_and_verify(tmp_path):
    out = tmp_path / "hcp.json"
    r = run_cli("layered", "--d2", "5", "--word", "ST", "--out", str(out), check=True)
    assert "density 1/9" in r.stdout
    v = run_cli("verify", str(out), check=True)
    assert "admissible yes" in v.stdout
    assert "min-pair-sq-distance 5" in v.stdout


def test_layered_bad_word():
    r = run_cli("layered", "--d2", "5", "--word", "SX")
    assert r.returncode == 2


def test_voronoi_volume_and_geometry(tmp_path):
    doc = tmp_path / "pc9.json"
    run_cli("pc", "--d2", "9", "--out", str(doc), check=True)
    obj = tmp_path / "cell.obj"
    r = run_cli(
        "voronoi", str(doc), "--site", "0,0,0", "--dump-geometry", str(obj), check=True
    )
    assert "volume 20" in r.stdout
    assert "facets 14" in r.stdout
    assert obj.exists()
    sidecar = json.loads((tmp_path / "cell.obj.json").read_text())
    assert len(sidecar["facets"]) == 14
    obj_text = obj.read_text().splitlines()
    assert sum(1 for line in obj_text if line.startswith("v ")) == len(
        sidecar["vertices"]
    )
    r = run_cli("voronoi", str(doc), "--site", "1,0,0")
    assert r.returncode == 1  # not occupied


def test_voronoi_geometry_is_centred_on_the_given_site(tmp_path):
    # (9, 0, 0) is a translate of the origin by a period vector of the
    # d2=5 sublattice; the dumped cell surrounds (9, 0, 0), not the origin:
    # the cell about the origin spans x from -3/2 to 3/2
    doc = tmp_path / "pc5.json"
    run_cli("pc", "--d2", "5", "--out", str(doc), check=True)
    obj = tmp_path / "c9.obj"
    r = run_cli(
        "voronoi", str(doc), "--site", "9,0,0", "--dump-geometry", str(obj), check=True
    )
    assert r.stdout.splitlines()[:2] == ["site (9,0,0)", "volume 9"]
    xs = [float(line.split()[1]) for line in obj.read_text().splitlines()
          if line.startswith("v ")]
    assert len(xs) == 14
    assert min(xs) == 7.5 and max(xs) == 10.5


def test_embed_classes():
    r = run_cli("embed", "--ell", "2", "--classes", check=True)
    assert r.stdout.splitlines()[0] == "classes 1"
    r5 = run_cli("embed", "--ell", "3", "--classes", "--json", check=True)
    payload = json.loads(r5.stdout)
    assert len(payload["classes"]) >= 2
    for cls in payload["classes"]:
        assert 48 % cls["orbit_size"] == 0


def test_excite_and_budget_exit(tmp_path):
    doc = tmp_path / "hcp2.json"
    # doubled HCP torus: big enough for local excitations
    from hc3.documents import save
    from test_perturbations import dhcp_doubled

    save(dhcp_doubled(), doc)

    r = run_cli(str(doc), check=False)  # sanity: bad usage
    r = run_cli("excite", str(doc), "--max-order", "2", "--radius", "2", check=True)
    assert "complete yes" in r.stdout
    assert any("order=2" in line for line in r.stdout.splitlines())

    r = run_cli("excite", str(doc), "--max-order", "2", "--radius", "3", "--budget", "500")
    assert r.returncode == 3
    assert "complete no" in r.stdout


def test_excite_warns_on_an_unsaturated_configuration(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"d2":2,"period":[[4,0,0],[0,4,0],[0,0,4]],"sites":[]}')
    argv = ["excite", str(empty), "--max-order", "2", "--radius", "2", "--budget", "50"]
    r = run_cli(*argv)
    assert r.returncode == 3
    assert r.stderr.splitlines() == [
        "# warning: configuration not saturated (64 insertion candidates); every"
        " admissible insertion is listed as an excitation of order <= 0"
    ]
    assert r.stdout.splitlines()[-1] == "complete no"
    # the warning leaves stdout alone: --json still parses
    assert json.loads(run_cli(*argv, "--json").stdout)["complete"] is False

    st_doc = tmp_path / "st.json"
    run_cli("layered", "--d2", "5", "--word", "ST", "--out", str(st_doc), check=True)
    r = run_cli("excite", str(st_doc), "--max-order", "3", "--radius", "2", check=True)
    assert r.stderr == ""


def test_slide_check_and_scan(tmp_path):
    doc = tmp_path / "bcc.json"
    from hc3.documents import save
    from test_perturbations import sublattice_on_scaled_torus

    save(sublattice_on_scaled_torus(11), doc)

    r = run_cli(
        "slide", str(doc), "--mesh", "line:0,0,0:1,1,1", "--shift", "1,1,1", check=True
    )
    assert "valid yes" in r.stdout
    assert "min-pair-sq-distance 11" in r.stdout

    doc12 = tmp_path / "bcc12.json"
    save(sublattice_on_scaled_torus(12), doc12)  # the same BCC torus at d2=12
    r = run_cli("slide", str(doc12), "--mesh", "line:0,0,0:1,1,1", "--shift", "1,1,1")
    assert r.returncode == 1
    assert "valid no" in r.stdout

    scan = run_cli("slide", str(doc12), "--scan", check=True)
    assert scan.stdout.splitlines()[0] == "moves 0"


def test_slide_scan_finds_moves(tmp_path):
    doc = tmp_path / "2z3.json"
    from hc3.documents import save
    from test_perturbations import sublattice_on_scaled_torus

    save(sublattice_on_scaled_torus(4), doc)
    r = run_cli("slide", str(doc), "--scan", check=True)
    first = r.stdout.splitlines()[0]
    assert first.startswith("moves ")
    assert int(first.split()[1]) > 0


@pytest.fixture(scope="module")
def pin_dir(tmp_path_factory):
    """The documents the pinned invocations read."""
    from hc3 import cli
    from hc3.documents import save
    from test_perturbations import sublattice_on_scaled_torus

    d = tmp_path_factory.mktemp("pinned")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        assert cli.main(["pc", "--d2", "5", "--out", str(d / "pc5.json")]) == 0
        assert cli.main(["layered", "--d2", "5", "--word", "ST", "--out", str(d / "st.json")]) == 0
        assert cli.main(["pack", "--diag", "4", "--d2", "4", "--out", str(d / "p4.json")]) == 0
    save(sublattice_on_scaled_torus(11), d / "bcc11.json")
    save(sublattice_on_scaled_torus(12), d / "bcc12.json")
    (d / "bad.json").write_text(
        '{"d2":2,"period":[[4,0,0],[0,4,0],[0,0,4]],"sites":[[0,0,0],[1,0,0]]}'
    )
    (d / "window.json").write_text(json.dumps(WINDOW_DOC))
    return d


# (argv, exit code, text stdout, --json stdout).  Short outputs are pinned
# literally; long ones by their first line (JSON: their sorted keys) and the
# SHA-256 of the whole.
PINNED = {
    "pack": (
        ["pack", "--diag", "6", "--d2", "8", "--count"], 0,
        "optimum 9\nwitness (0,0,0) (0,2,2) (0,4,4) (2,0,2) (2,2,4) (2,4,0) (4,0,4)"
        " (4,2,0) (4,4,2)\ndensity 1/24\ncount 384\n",
        '{"count": 384, "d2": 8, "density": "1/24", "optimum": 9, "period": [[6, 0, 0],'
        ' [0, 6, 0], [0, 0, 6]], "witness": [[0, 0, 0], [0, 2, 2], [0, 4, 4], [2, 0, 2],'
        ' [2, 2, 4], [2, 4, 0], [4, 0, 4], [4, 2, 0], [4, 4, 2]]}\n',
    ),
    "verify-inadmissible": (
        ["verify", "{d}/bad.json"], 1,
        "sites 2\nadmissible no\nviolation (0,0,0) ~ (1,0,0) sq-distance 1\n",
        '{"admissible": false, "sites": 2, "violation": {"pair": [[0, 0, 0], [1, 0, 0]],'
        ' "sq_distance": 1}}\n',
    ),
    "pc": (
        ["pc", "--d2", "9"], 0,
        "d2 9\nbasis (0,3,1) (0,-1,3) (2,1,2)\nindex 20\ndensity 1/20\nmin-sq-norm 9\n",
        '{"basis": [[0, 3, 1], [0, -1, 3], [2, 1, 2]], "d2": 9, "density": "1/20",'
        ' "index": 20, "min_sq_norm": 9}\n',
    ),
    "layered": (
        ["layered", "--d2", "5", "--word", "ST"], 0,
        "d2 5\nword ST\nperiod (6,0,0) (3,3,0) (4,1,1)\nsites 2\ndensity 1/9\n"
        "min-pair-sq-distance 5\n",
        '{"d2": 5, "density": "1/9", "min_pair_sq_distance": 5, "period": [[6, 0, 0],'
        ' [3, 3, 0], [4, 1, 1]], "sites": [[0, 0, 0], [2, 1, 0]], "word": "ST"}\n',
    ),
    "voronoi": (
        ["voronoi", "{d}/pc5.json", "--site", "9,0,0"], 0,
        "site (9,0,0)\nvolume 9\nfacets 12\nvertices 14\n",
        '{"facets": 12, "site": [9, 0, 0], "vertices": 14, "volume": "9"}\n',
    ),
    "embed-classes": (
        ["embed", "--ell", "3", "--classes"], 0,
        "classes 2\nclass 0 size 1 rep (6,0,0) (3,3,0) (3,0,3)\n"
        "class 1 size 4 rep (18,0,0) (3,3,0) (7,2,1)\n",
        '{"classes": [{"members": [[[6, 0, 0], [3, 3, 0], [3, 0, 3]]], "orbit_size": 1,'
        ' "representative": [[6, 0, 0], [3, 3, 0], [3, 0, 3]]}, {"members": [[[18, 0, 0],'
        ' [3, 3, 0], [7, 2, 1]], [[18, 0, 0], [3, 3, 0], [14, 1, 1]], [[18, 0, 0],'
        ' [15, 3, 0], [4, 1, 1]], [[18, 0, 0], [15, 3, 0], [11, 2, 1]]], "orbit_size": 4,'
        ' "representative": [[18, 0, 0], [3, 3, 0], [7, 2, 1]]}], "ell": 3}\n',
    ),
    "excite-complete": (
        ["excite", "{d}/st.json", "--max-order", "3", "--radius", "2"], 0,
        ("excitations 16", "d09793912bde1f456de2264fa683dc5655d746ce450a1b305fb837971ea5c6f5"),
        (["complete", "excitations", "max_order", "radius"],
         "491c12e68d0fe3b61be16b9e2036b5129290dccf560a6dfc481e1102a35c8a6a"),
    ),
    "excite-incomplete": (
        ["excite", "{d}/st.json", "--max-order", "3", "--radius", "3", "--budget", "500"], 3,
        ("excitations 14", "9b6f2f5d287d11e7abebc7687eeda8b1da928f506c7f6027f8e1444767462a30"),
        (["complete", "excitations", "max_order", "radius"],
         "ba467f52dc11301bf154b6df77b2d64932ae53cd9898182dcd9c3764ab419e96"),
    ),
    "slide-valid": (
        ["slide", "{d}/bcc11.json", "--mesh", "line:0,0,0:1,1,1", "--shift", "1,1,1"], 0,
        "valid yes\nmin-pair-sq-distance 11\n",
        '{"count_preserved": true, "min_pair_sq_distance": 11, "valid": true}\n',
    ),
    "slide-invalid": (
        ["slide", "{d}/bcc12.json", "--mesh", "line:0,0,0:1,1,1", "--shift", "1,1,1"], 1,
        "valid no\nviolation (0,4,0) ~ (1,1,1) sq-distance 11\n",
        '{"count_preserved": true, "valid": false, "violation": {"pair": [[0, 4, 0],'
        ' [1, 1, 1]], "sq_distance": 11}}\n',
    ),
    "slide-outside-window": (
        ["slide", "{d}/window.json", "--mesh", "line:0,0,0:1,0,0", "--shift", "5,0,0"], 1,
        "valid no\noutside-window (5,0,0) (7,0,0)\n",
        '{"outside_window": [[5, 0, 0], [7, 0, 0]], "valid": false}\n',
    ),
    "slide-scan": (
        ["slide", "{d}/p4.json", "--scan"], 0,
        ("moves 72", "3298de6c4537b3d76e5c731d76230d52ccef1ccf8d89c3b36063e5c836e569da"),
        (["moves"], "d687d7aad1a7d22b73bb275a74c31ca98aa459a4b8d5b0921870fc8489bcbdf2"),
    ),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_stdout(pin_dir, name, as_json):
    from hc3 import cli

    argv, code, text, payload = PINNED[name]
    argv = [a.format(d=pin_dir) for a in argv] + (["--json"] if as_json else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code
    stdout, expected = out.getvalue(), payload if as_json else text
    if isinstance(expected, str):
        assert stdout == expected
    else:
        head = sorted(json.loads(stdout)) if as_json else stdout.splitlines()[0]
        assert (head, hashlib.sha256(stdout.encode()).hexdigest()) == expected


@pytest.mark.parametrize(
    "argv, code",
    [(["slide", "{p4}", "--scan"], 0), (["verify", "{bad}"], 1)],
    ids=["slide-scan", "verify-inadmissible"],
)
def test_closed_stdout_keeps_the_verdict_without_traceback(tmp_path, argv, code):
    """A reader that stops early (`hc3 slide --scan | head -1`) closes the
    pipe.  Here its read end is closed before the command starts, so the
    first write fails every time; the exit code is still the verdict."""
    p4, bad = tmp_path / "p4.json", tmp_path / "bad.json"
    run_cli("pack", "--diag", "4", "--d2", "4", "--out", str(p4), check=True)
    bad.write_text(
        '{"d2":2,"window":{"lo":[0,0,0],"hi":[3,0,0]},"sites":[[0,0,0],[1,0,0]]}'
    )
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "hc3.cli", *(a.format(p4=p4, bad=bad) for a in argv)],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=BASE_ENV,
        )
    finally:
        os.close(write)
    assert "Traceback" not in r.stderr
    assert (r.returncode, r.stderr) == (code, "")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A pc document, an empty torus and a one-site window, plus room for
    the files that --out and --dump-geometry write."""
    d = tmp_path_factory.mktemp("fuzz")
    run_cli("pc", "--d2", "5", "--out", str(d / "pc5.json"), check=True)
    (d / "empty-torus.json").write_text(
        '{"d2":2,"period":[[4,0,0],[0,4,0],[0,0,4]],"sites":[]}'
    )
    (d / "one-site-window.json").write_text(
        '{"d2":2,"window":{"lo":[0,0,0],"hi":[3,0,0]},"sites":[[0,0,0]]}'
    )
    return d


def _opt(flag, values):
    """Either nothing or the flag followed by one drawn value."""
    return st.one_of(st.just([]), _req(flag, values))


def _req(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _flag(flag):
    return st.sampled_from([[], [flag]])


@st.composite
def cli_argvs(draw, d):
    """Bounded argv for every subcommand: small tori, windows and budgets,
    with some malformed or out-of-range values mixed in."""
    names = ("pc5.json", "empty-torus.json", "one-site-window.json", "missing.json")
    doc = st.sampled_from([[str(d / n)] for n in names])
    d2 = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 13, "x"])
    site = st.sampled_from(["0,0,0", "1,0,0", "1,1,0", "x", "0,0"])
    out = _opt("--out", st.just(d / "out.json"))
    budget = st.integers(-1, 2000)
    options = {
        "pack": [
            _req("--d2", d2),
            st.one_of(
                st.just([]),
                _req("--diag", st.integers(-1, 4)),
                _req("--period", st.sampled_from(
                    ["4,0,0;1,4,0;2,1,5", "2,-4,2;-2,-2,4;4,2,0", "1,0,0;0,1,0;0,0,0",
                     "1,2;3"])),
            ),
            _flag("--count"), _flag("--mod-translations"), _opt("--budget", budget), out,
        ],
        "verify": [doc],
        "pc": [
            _req("--d2", d2), _opt("--variant", st.sampled_from(["I", "II", "2", "X"])),
            out,
        ],
        "layered": [
            _req("--d2", d2), _opt("--family", st.sampled_from(["I", "II", "X"])),
            _req("--word", st.text("STUX", max_size=4)), out,
        ],
        "voronoi": [
            doc, _req("--site", site), _flag("--no-validate"),
            _opt("--dump-geometry", st.just(d / "cell.obj")),
        ],
        "embed": [_req("--ell", st.integers(-1, 3)), _flag("--classes")],
        # always a budget: on an unsaturated document the scan would run the
        # default 100,000 nodes
        "excite": [
            doc, _req("--max-order", st.integers(-1, 2)),
            _req("--radius", st.integers(-1, 2)), _req("--budget", budget),
            _flag("--no-validate"),
        ],
        "slide": [
            doc,
            _opt("--mesh", st.sampled_from(
                ["line:0,0,0:1,0,0", "plane:0,0,0:0,0,1", "line:0,0,0:1,1,1",
                 "plane:0,0,0:0,0,0", "mesh:0,0,0:1,0,0:0,1,0", "bogus"])),
            _opt("--shift", st.sampled_from(["1,0,0", "1,1,1", "0,0,0", "5,0,0", "x"])),
            _flag("--scan"), _opt("--max-shift-norm", st.integers(-1, 2)),
            _flag("--no-validate"),
        ],
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = [command]
    for part in options[command] + [_flag("--json")]:
        argv += draw(part)
    return argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_exit_codes_are_bounded(fuzz_dir, data):
    from hc3 import cli

    argv = data.draw(cli_argvs(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv, with its usage
            assert exc.code in (0, 1, 2, 3), argv
            return
    assert code in (0, 1, 2, 3), argv
    # the stream contract: stderr holds pack's "# nodes=" line or excite's
    # "# warning:" line, and one "error: " line on a failure that printed no
    # verdict
    errors = err.getvalue().splitlines()
    if errors[:1] and errors[0].startswith(("# nodes=", "# warning: ")):
        errors = errors[1:]
    if code == 0:
        assert errors == [], argv
    elif out.getvalue():  # a verdict: inadmissible, an invalid slide, incomplete
        assert errors == [], argv
    else:
        assert len(errors) == 1 and errors[0].startswith("error: "), argv
