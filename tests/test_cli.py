import copy
import json
import os
import random
import subprocess
import sys

import pytest

from tropilink import cli, connectivity
from tropilink.canonical import are_isomorphic
from tropilink.certificates import StrongLinkFailure
from tropilink.graphs import (InternalConsistencyError, build_graph,
                              dumps_canonical, from_json_dict, k4_graph,
                              petersen_graph, theta_graph, dumbbell_graph,
                              to_json_dict)
from tropilink.atlas import enumerate_p_regular
from tropilink.linkage import link
from tropilink.normal_form import build_polygon

from certificate_json_oracle import certificate_to_json_dict
from conftest import cli_env, perfbench_module


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tropilink.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


def write_graph(path, g):
    path.write_text(dumps_canonical(to_json_dict(g)))


def test_polygon_k4(tmp_path):
    r = run_cli("polygon", "--p", "3", "--gamma", "4")
    assert r.returncode == 0
    g = from_json_dict(json.loads(r.stdout))
    assert are_isomorphic(g, k4_graph())


def test_polygon_dot():
    r = run_cli("polygon", "--p", "3", "--gamma", "4", "--format", "dot")
    assert r.returncode == 0
    assert r.stdout.startswith("graph")


def test_link_verify_roundtrip(tmp_path):
    write_graph(tmp_path / "theta.json", theta_graph())
    write_graph(tmp_path / "dumbbell.json", dumbbell_graph())
    r = run_cli("link", "theta.json", "dumbbell.json", "-o", "cert.json",
                cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    r2 = run_cli("verify", "cert.json", "--p", "3", cwd=tmp_path)
    assert r2.returncode == 0
    report = json.loads(r2.stdout)
    assert report["valid"] is True


def test_link_3ec_petersen(tmp_path):
    write_graph(tmp_path / "petersen.json", petersen_graph())
    r = run_cli("polygon", "--p", "3", "--gamma", "10", "-o", "p10.json",
                cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    r2 = run_cli("link", "petersen.json", "p10.json", "--mode", "3ec",
                 "-o", "cert.json", cwd=tmp_path)
    assert r2.returncode == 0, r2.stdout + r2.stderr
    r3 = run_cli("verify", "cert.json", "--mode", "3ec", cwd=tmp_path)
    assert r3.returncode == 0, r3.stdout + r3.stderr


def test_link_legged_3ec_exits_2(tmp_path, capsys):
    """3ec linkage is not defined on legged graphs: the mode is refused, not
    dropped in favour of a plain certificate."""
    a, b = enumerate_p_regular(3, 1, legs=2)[:2]
    write_graph(tmp_path / "a.json", a)
    write_graph(tmp_path / "b.json", b)
    out = tmp_path / "cert.json"
    argv = ["link", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "-o", str(out)]
    assert cli.main(argv + ["--mode", "3ec"]) == 2
    assert "error" in json.loads(capsys.readouterr().out)
    assert not out.exists()
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["mode"] == "plain"


@pytest.mark.parametrize("argv", [
    ["link", "{theta}", "{dumbbell}"],
    ["enumerate", "--p", "3", "--genus", "2"],
    ["poset", "--genus", "2"],
    ["polygon", "--p", "3", "--gamma", "4"],
], ids=["link", "enumerate", "poset", "polygon"])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, where):
    """An output file that cannot be opened is reported like an unreadable
    input: exit 2, a JSON error and no traceback."""
    write_graph(tmp_path / "theta.json", theta_graph())
    write_graph(tmp_path / "dumbbell.json", dumbbell_graph())
    out = str(tmp_path / "no_such_dir" / "x.json") if where == "missing_dir" \
        else str(tmp_path)
    argv = [a.format(theta=tmp_path / "theta.json",
                     dumbbell=tmp_path / "dumbbell.json") for a in argv]
    assert cli.main(argv + ["-o", out]) == 2
    stdout, stderr = capsys.readouterr()
    assert json.loads(stdout)["error"].startswith(f"cannot write output file {out}: ")
    assert "Traceback" not in stderr


def test_link_prints_the_bytes_it_writes(tmp_path, capsys):
    write_graph(tmp_path / "petersen.json", petersen_graph())
    write_graph(tmp_path / "p10.json", build_polygon(3, 10))
    out = tmp_path / "cert.json"
    argv = ["link", str(tmp_path / "petersen.json"), str(tmp_path / "p10.json"),
            "--mode", "3ec"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main(argv + ["-o", str(out)]) == 0
    assert out.read_text() == printed
    assert json.loads(printed)["steps"][1]["cycles"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_link_to_a_full_device_exits_2(tmp_path):
    """A write that fails after the file opened (no space left) is an
    unwritable output file too: exit 2, a JSON error and no traceback."""
    write_graph(tmp_path / "petersen.json", petersen_graph())
    write_graph(tmp_path / "p10.json", build_polygon(3, 10))
    r = run_cli("link", "petersen.json", "p10.json", "-o", "/dev/full",
                cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"].startswith(
        "cannot write output file /dev/full: ")
    assert "Traceback" not in r.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_full_stdout_exits_2(tmp_path, command):
    """When stdout itself cannot be written, the JSON error goes to stderr
    with exit 2, and nothing fails again when the interpreter flushes
    stdout at exit: stderr holds the error object and nothing else."""
    if command == "verify":
        write_graph(tmp_path / "theta.json", theta_graph())
        write_graph(tmp_path / "dumbbell.json", dumbbell_graph())
        assert run_cli("link", "theta.json", "dumbbell.json", "-o",
                       "cert.json", cwd=tmp_path).returncode == 0
        argv = ["verify", "cert.json"]
    else:
        argv = ["enumerate", "--p", "3", "--genus", "3"]
    with open("/dev/full", "w") as full:
        r = subprocess.run([sys.executable, "-m", "tropilink.cli", *argv],
                           stdout=full, stderr=subprocess.PIPE, text=True,
                           cwd=tmp_path, env=cli_env())
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["error"].startswith("cannot write to stdout: ")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_link_streams_a_large_certificate_in_little_memory(tmp_path):
    """`link` on the seeded 80-vertex simple cubic pair writes a 34 MB
    certificate chunk by chunk: the child's peak RSS stays below 100 MB
    (it was 204 MB while the whole text was built first)."""
    inputs = perfbench_module("inputs")
    rng = random.Random(80)
    for name in ("a.json", "b.json"):
        inputs.write_graph(tmp_path / name,
                           inputs.random_regular(rng, 80, 3, simple=True))
    out = tmp_path / "cert.json"
    child = subprocess.Popen(
        [sys.executable, "-m", "tropilink.cli", "link", "a.json", "b.json",
         "-o", str(out)], cwd=tmp_path, env=cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    assert out.stat().st_size > 30_000_000
    out.unlink()
    assert usage.ru_maxrss < 100 * 1024


def test_verify_rejects_corruption(tmp_path):
    write_graph(tmp_path / "theta.json", theta_graph())
    write_graph(tmp_path / "dumbbell.json", dumbbell_graph())
    r0 = run_cli("link", "theta.json", "dumbbell.json", "-o", "cert.json",
                 cwd=tmp_path)
    assert r0.returncode == 0, r0.stdout + r0.stderr
    cert = json.loads((tmp_path / "cert.json").read_text())
    step = cert["steps"][0]
    k = sorted(step["witness"]["vertices"])[0]
    step["witness"]["vertices"][k] += 1
    (tmp_path / "bad.json").write_text(json.dumps(cert))
    r = run_cli("verify", "bad.json", cwd=tmp_path)
    assert r.returncode == 1
    assert json.loads(r.stdout)["valid"] is False


def test_verify_certificate_without_graphs_is_invalid(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"mode": "plain", "p": 3, "graphs": [],
                                "steps": []}))
    assert cli.main(["verify", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert [pr["code"] for pr in report["problems"]] == ["empty"]


def test_enumerate_json():
    r = run_cli("enumerate", "--p", "3", "--genus", "2")
    assert r.returncode == 0
    classes = json.loads(r.stdout)
    assert len(classes) == 2
    r3 = run_cli("enumerate", "--p", "3", "--genus", "2", "--3ec")
    assert len(json.loads(r3.stdout)) == 1


def test_movegraph_dot_and_json():
    r = run_cli("movegraph", "--p", "3", "--genus", "2")
    assert r.returncode == 0
    assert r.stdout.startswith("graph moves")
    assert r.stdout.count("--") == 1
    r2 = run_cli("movegraph", "--p", "3", "--genus", "3", "--format", "json")
    data = json.loads(r2.stdout)
    assert data["connected"] is True
    r3 = run_cli("movegraph", "--p", "3", "--genus", "1", "--legs", "2",
                 "--format", "json")
    assert json.loads(r3.stdout)["connected"] is True


def test_poset_and_codim1(tmp_path):
    r = run_cli("poset", "--genus", "2", "--legs", "0")
    data = json.loads(r.stdout)
    assert len(data["strata"]) == 7
    r2 = run_cli("poset", "--genus", "2", "--legs", "0", "--format", "dot")
    assert r2.stdout.startswith("digraph")
    r3 = run_cli("check-codim1", "--genus", "2", "--legs", "0")
    assert r3.returncode == 0
    assert json.loads(r3.stdout)["connected"] is True
    r4 = run_cli("check-codim1", "--genus", "2", "--legs", "0",
                 "--locus", "3ec")
    assert r4.returncode == 0
    r5 = run_cli("check-codim1", "--genus", "3", "--legs", "0",
                 "--locus", "preg:4")
    assert r5.returncode == 0


def test_malformed_input_gives_json_error(tmp_path):
    (tmp_path / "bad.json").write_text("not json at all")
    write_graph(tmp_path / "theta.json", theta_graph())
    r = run_cli("link", "bad.json", "theta.json", cwd=tmp_path)
    assert r.returncode == 2
    assert "error" in json.loads(r.stdout)
    r2 = run_cli("poset", "--genus", "0", "--legs", "0")
    assert r2.returncode == 2
    assert "error" in json.loads(r2.stdout)


UNREADABLE = {
    "deep-array": b"[" * 200_000 + b"]" * 200_000,
    "not-utf8": b'"\xff\xfe"',
    "long-integer": b"1" * 5000,
}


def _unreadable_argv(tmp_path, command, content):
    """argv running `command` on a file holding `content`."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if command == "verify":
        return ["verify", str(bad)]
    write_graph(tmp_path / "theta.json", theta_graph())
    return ["link", str(bad), str(tmp_path / "theta.json")]


@pytest.mark.parametrize("command", ["link", "verify"])
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_input_file_exits_2(tmp_path, capsys, command, kind):
    """A file too deep to parse, not UTF-8, or holding an integer past the
    interpreter's digit limit cannot be read: malformed input, exit 2."""
    argv = _unreadable_argv(tmp_path, command, UNREADABLE[kind])
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert list(doc) == ["error"] and "cannot read" in doc["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["link", "verify"])
def test_deep_input_file_exits_2_in_a_fresh_interpreter(tmp_path, command):
    argv = _unreadable_argv(tmp_path, command, UNREADABLE["deep-array"])
    r = run_cli(*argv)
    assert r.returncode == 2, r.stdout + r.stderr
    assert list(json.loads(r.stdout)) == ["error"]
    assert "Traceback" not in r.stderr


def _set(path, value):
    """Mutation of a graph's JSON: set the field at `path` to `value`."""
    def mutate(doc):
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return mutate


def _theta_lengths(first):
    """Mutation adding theta lengths, the first one replaced by `first`."""
    def mutate(doc):
        keys = [str(h["id"]) for h in doc["half_edges"] if h["id"] < h["partner"]]
        doc["lengths"] = {k: 1.0 for k in keys}
        doc["lengths"][keys[0]] = first
    return mutate


LEGGED = build_graph([(0, 1), (0, 1)], legs=[(0, 1), (1, 2)])


@pytest.mark.parametrize("graph,mutate", [
    (theta_graph(), _set(("vertices", 0, "weight"), "x")),
    (theta_graph(), _set(("vertices", 0, "weight"), 1.5)),
    (theta_graph(), _set(("vertices", 1, "id"), True)),
    (theta_graph(), _set(("half_edges", 0, "id"), 0.0)),
    (theta_graph(), _set(("half_edges", 0, "vertex"), False)),
    (theta_graph(), _set(("half_edges", 0, "partner"), "1")),
    (theta_graph(), _set(("half_edges", 1), {"id": 0, "vertex": 0, "partner": 1})),
    (LEGGED, _set(("legs", 0, "half_edge"), 4.0)),
    (LEGGED, _set(("legs", 0, "label"), True)),
    (theta_graph(), _set(("lengths",), {"a": 1.0})),
    (theta_graph(), _set(("lengths",), [])),
    (theta_graph(), _theta_lengths("x")),
    (theta_graph(), _theta_lengths(True)),
    (theta_graph(), _theta_lengths(None)),
    (theta_graph(), _theta_lengths(10 ** 400)),
    (theta_graph(), _set(("color",), "red")),
    (theta_graph(), _set(("legs",), "")),
    (theta_graph(), _set(("legs",), {})),
    (theta_graph(), _set(("vertices", 0, "color"), "red")),
    (theta_graph(), _set(("half_edges", 2, "length"), 1)),
    (LEGGED, _set(("legs", 1, "name"), "a")),
    (theta_graph(), _set(("vertices", 1), [1, 0])),
], ids=["weight-string", "weight-float", "vertex-id-bool", "half-edge-id-float",
        "half-edge-vertex-bool", "half-edge-partner-string", "half-edge-duplicate",
        "leg-half-edge-float", "leg-label-bool", "lengths-key", "lengths-list",
        "length-string", "length-bool", "length-null", "length-overflow",
        "unknown-field", "legs-string", "legs-object", "vertex-unknown-field",
        "half-edge-unknown-field", "leg-unknown-field", "vertex-array"])
def test_malformed_graph_fields_exit_2(tmp_path, capsys, graph, mutate):
    doc = to_json_dict(graph)
    mutate(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    write_graph(tmp_path / "good.json", graph)
    rc = cli.main(["link", str(tmp_path / "bad.json"), str(tmp_path / "good.json")])
    assert rc == 2
    assert "malformed graph JSON" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("argv, message", [
    (["poset", "--genus", "2", "--legs", "-1"], "legs must be >= 0"),
    (["check-codim1", "--genus", "2", "--legs", "-1"], "legs must be >= 0"),
    (["enumerate", "--p", "3", "--genus", "2", "--legs", "-1"],
     "legs must be >= 0"),
    (["poset", "--genus", "2", "--locus", "preg:x"], "unknown locus"),
    (["poset", "--genus", "2", "--locus", "preg:"], "unknown locus"),
    (["poset", "--genus", "-1", "--legs", "5"], "the genus must be >= 0"),
    (["check-codim1", "--genus", "-1", "--legs", "5"],
     "the genus must be >= 0"),
])
def test_out_of_range_arguments_exit_2(capsys, argv, message):
    assert cli.main(argv) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("command", ["poset", "check-codim1", "enumerate"])
@pytest.mark.parametrize("locus", ["all", "preg:4"])
def test_negative_legs_name_the_legs(capsys, command, locus):
    """A negative --legs is reported as such, whatever the locus, and not
    as a missing p-regular class."""
    argv = [command, "--genus", "2", "--legs", "-1"]
    argv += ["--p", "3"] if command == "enumerate" else ["--locus", locus]
    assert cli.main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == "the number of legs must be >= 0"


def test_missing_p_regular_classes_keep_their_message(capsys):
    assert cli.main(["poset", "--genus", "2", "--locus", "preg:5"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == "no 5-regular pure classes at genus 2"


def test_graph_json_round_trip_via_cli(tmp_path):
    r = run_cli("polygon", "--p", "4", "--gamma", "6")
    blob = r.stdout
    again = dumps_canonical(to_json_dict(from_json_dict(json.loads(blob))))
    assert again == blob


def test_outputs_deterministic(tmp_path):
    a = run_cli("movegraph", "--p", "3", "--genus", "3", "--format", "json").stdout
    b = run_cli("movegraph", "--p", "3", "--genus", "3", "--format", "json").stdout
    assert a == b
    write_graph(tmp_path / "petersen.json", petersen_graph())
    r = run_cli("polygon", "--p", "3", "--gamma", "10", "-o", "p10.json", cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    for out in ("c1.json", "c2.json"):
        r = run_cli("link", "petersen.json", "p10.json", "-o", out, cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "c1.json").read_text() == (tmp_path / "c2.json").read_text()


def test_jobs_flag_rejected():
    for argv in (("--jobs", "4", "polygon"), ("polygon", "--jobs", "4")):
        r = run_cli(*argv, "--p", "3", "--gamma", "4")
        assert r.returncode == 2
        assert r.stdout == "" and "usage: tropilink" in r.stderr


@pytest.fixture(scope="module")
def petersen_3ec_cert():
    """The 3ec certificate from Petersen to P10, as JSON; some of its steps
    record cycles."""
    cert = link(petersen_graph(), build_polygon(3, 10), mode="3ec")
    return certificate_to_json_dict(cert)


def _verify_mutated(tmp_path, cert, edit):
    d = copy.deepcopy(cert)
    edit(d)
    (tmp_path / "bad.json").write_text(json.dumps(d))
    return run_cli("verify", "bad.json", cwd=tmp_path)


def _first_step_with_cycles(d):
    return next(s for s in d["steps"] if "cycles" in s)


def test_verify_unknown_leg_mode_is_malformed(tmp_path, petersen_3ec_cert):
    def edit(d):
        d["leg_mode"] = -1
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "leg mode" in json.loads(r.stdout)["error"]


def test_verify_unlabeled_leg_mode_is_malformed(tmp_path, petersen_3ec_cert):
    """Legs are labeled in every certificate; "unlabeled" is not a mode."""
    def edit(d):
        d["leg_mode"] = "unlabeled"
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "leg mode" in json.loads(r.stdout)["error"]


def test_verify_missing_leg_mode_means_labeled(tmp_path, petersen_3ec_cert):
    def edit(d):
        del d["leg_mode"]
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout)["valid"] is True


def test_verify_witness_value_object_is_malformed(tmp_path, petersen_3ec_cert):
    def edit(d):
        w = d["steps"][0]["witness"]["vertices"]
        w[sorted(w, key=int)[0]] = {}
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "witness vertex value" in json.loads(r.stdout)["error"]


@pytest.mark.parametrize("entry", [None, [], True, 2.0])
def test_verify_cycle_entry_not_an_int_is_malformed(tmp_path, petersen_3ec_cert,
                                                     entry):
    def edit(d):
        _first_step_with_cycles(d)["cycles"][0][1] = entry
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "cycle edge" in json.loads(r.stdout)["error"]


@pytest.mark.parametrize("edges, message", [({"x": 0}, "witness edge key"),
                                             ([0, 1], "malformed certificate")])
def test_verify_witness_edges_malformed(tmp_path, petersen_3ec_cert, edges,
                                        message):
    def edit(d):
        w = d["steps"][0]["witness"]
        w["edges"] = dict(w["edges"], **edges) if isinstance(edges, dict) else edges
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert message in json.loads(r.stdout)["error"]


def test_verify_one_recorded_cycle_is_malformed(tmp_path, petersen_3ec_cert):
    def edit(d):
        _first_step_with_cycles(d)["cycles"].pop()
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "two cycles" in json.loads(r.stdout)["error"]


@pytest.mark.parametrize("cycle", [[], [10 ** 6]])
def test_verify_impossible_cycle_is_invalid(tmp_path, petersen_3ec_cert, cycle):
    def edit(d):
        _first_step_with_cycles(d)["cycles"][0] = cycle
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 1, r.stdout + r.stderr
    assert json.loads(r.stdout)["problems"][0]["code"] == "cert_cycles"


@pytest.mark.parametrize("p", ["3", True, None, 1.0, 3.0, 2, 1])
def test_verify_p_not_an_integer_from_3_is_malformed(tmp_path, petersen_3ec_cert,
                                                      p):
    def edit(d):
        d["p"] = p
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "p must be" in json.loads(r.stdout)["error"]


@pytest.mark.parametrize("step, left_index", [(0, -1), (0, 2), (1, 0),
                                              (0, "0")])
def test_verify_left_index_off_its_position_is_malformed(
        tmp_path, petersen_3ec_cert, step, left_index):
    # step i links graphs[i] to graphs[i+1]; any other left_index is malformed
    def edit(d):
        d["steps"][step]["left_index"] = left_index
    r = _verify_mutated(tmp_path, petersen_3ec_cert, edit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "left_index" in json.loads(r.stdout)["error"]


def _respell(kind, key, spelling):
    """Edit renaming witness key `key` of step 0's `kind` map."""
    def edit(d):
        m = d["steps"][0]["witness"][kind]
        m[spelling] = m.pop(key)
    return edit


def _insert(path, key):
    """Edit adding the field `key` to the object at `path`."""
    def edit(d):
        node = d
        for step in path:
            node = node[step]
        node[key] = 0
    return edit


@pytest.mark.parametrize("edit, message", [
    (_insert((), "comment"), "unknown fields ['comment'] in the certificate"),
    (_insert(("steps", 1), "note"), "unknown fields ['note'] in step 1"),
    (_insert(("steps", 0, "witness"), "faces"),
     "unknown fields ['faces'] in the witness of step 0"),
    (_insert(("graphs", 1, "vertices", 0), "color"),
     "unknown fields ['color'] in a vertex"),
    (_insert(("graphs", 0, "half_edges", 3), "length"),
     "unknown fields ['length'] in a half-edge"),
    (_respell("vertices", "9", " 9"), "key ' 9'"),
    (_respell("vertices", "9", "9 "), "key '9 '"),
    (_respell("vertices", "9", "09"), "key '09'"),
    (_respell("vertices", "9", "+9"), "key '+9'"),
    (_respell("vertices", "9", "\u0669"), "is not a decimal integer"),
    (_respell("edges", "10", "1_0"), "key '1_0'"),
    (_respell("edges", "0", "-0"), "key '-0'"),
], ids=["top-level", "step", "witness", "vertex", "half-edge", "key-space-before",
        "key-space-after", "key-leading-zero", "key-plus", "key-arabic-indic",
        "key-underscore", "key-minus-zero"])
def test_verify_unknown_fields_and_respelled_keys_are_malformed(
        tmp_path, capsys, petersen_3ec_cert, edit, message):
    """Strictness below the top level: in-process, each edit exits 2 where
    the unedited certificate verifies."""
    for d, want in ((petersen_3ec_cert, 0), (copy.deepcopy(petersen_3ec_cert), 2)):
        if want == 2:
            edit(d)
        (tmp_path / "cert.json").write_text(json.dumps(d))
        assert cli.main(["verify", str(tmp_path / "cert.json")]) == want
        out = json.loads(capsys.readouterr().out)
    assert "malformed" in out["error"] and message in out["error"], out


SESSION = [
    ["polygon", "--p", "3", "--gamma", "4"],
    ["polygon", "--p", "3"],
    ["enumerate", "--p", "3", "--genus", "2", "--3ec"],
    ["nosuch", "--p", "3"],
    ["polygon", "--p", "4", "--gamma", "5", "--format", "dot"],
    ["enumerate", "--p", "3", "--genus", "2"],
    ["link", "theta.json", "dumbbell.json", "-o", "cert.json"],
    ["verify", "cert.json", "--p", "4", "--mode", "3ec"],
    ["verify", "cert.json", "--p"],
    ["verify", "cert.json"],
    ["check-codim1", "--genus", "2", "--locus", "3ec"],
    ["check-codim1", "--genus", "2"],
]


def _session_call(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse errors exit 2
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_parser_built_once_gives_fresh_results(tmp_path, monkeypatch, capsys):
    """`main` shares one parser across calls.  A session of different
    subcommands, with argparse errors between them, gives the exit codes
    and bytes of calls that each build a fresh parser."""
    write_graph(tmp_path / "theta.json", theta_graph())
    write_graph(tmp_path / "dumbbell.json", dumbbell_graph())
    monkeypatch.chdir(tmp_path)
    fresh = []
    for argv in SESSION:
        cli.build_parser.cache_clear()
        fresh.append(_session_call(argv, capsys))
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    shared = [_session_call(argv, capsys) for argv in SESSION]
    assert cli.build_parser() is parser
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 2, 0, 2, 0, 0, 0, 1, 2, 0, 0, 0]


def test_check_codim1_undocumented_locus_exits_2():
    r = run_cli("check-codim1", "--genus", "2", "--legs", "0",
                "--locus", "three_ec")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "unknown locus" in json.loads(r.stdout)["error"]


@pytest.mark.parametrize("spelled", ["preg:03", "preg:+3", "preg:3_0", "preg:2"])
def test_check_codim1_respelled_preg_locus_exits_2(capsys, spelled):
    # preg:3 is the one spelling of its locus; p < 3 is no locus at all
    argv = ["check-codim1", "--genus", "3", "--locus"]
    assert cli.main(argv + [spelled]) == 2
    assert "unknown locus" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(argv + ["preg:3"]) == 0
    assert json.loads(capsys.readouterr().out)["locus"] == "preg:3"


def test_cycle_search_budget_exits_3(tmp_path, monkeypatch, capsys):
    write_graph(tmp_path / "petersen.json", petersen_graph())
    write_graph(tmp_path / "p10.json", build_polygon(3, 10))
    monkeypatch.setattr(connectivity, "CYCLE_SEARCH_BUDGET", 10)
    rc = cli.main(["link", str(tmp_path / "petersen.json"),
                   str(tmp_path / "p10.json")])
    assert rc == 3
    assert "budget 10 exhausted" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("exc", [
    InternalConsistencyError("frame lost"),
    StrongLinkFailure("not_isomorphic", "contractions are not isomorphic"),
    KeyError(7)], ids=["internal", "strong_link", "other"])
def test_internal_errors_exit_4(monkeypatch, capsys, exc):
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli.atlas, "enumerate_p_regular", broken)
    rc = cli.main(["enumerate", "--p", "3", "--genus", "2"])
    assert rc == 4
    out, err = capsys.readouterr()
    message = json.loads(out)["error"]
    assert message.startswith("internal error: " + type(exc).__name__)
    assert "Traceback" in err and type(exc).__name__ in err


def test_link_with_a_certificate_that_fails_to_verify_exits_4(
        tmp_path, monkeypatch, capsys):
    # a certificate of link's own that fails to verify is a failed
    # consistency check, not malformed input
    real_link = cli.link

    def corrupted(g1, g2, mode="plain"):
        cert = real_link(g1, g2, mode)
        cert.steps[0].witness = ({}, {}, {})
        return cert
    monkeypatch.setattr(cli, "link", corrupted)
    write_graph(tmp_path / "theta.json", theta_graph())
    write_graph(tmp_path / "dumbbell.json", dumbbell_graph())
    out = tmp_path / "cert.json"
    rc = cli.main(["link", str(tmp_path / "theta.json"),
                   str(tmp_path / "dumbbell.json"), "-o", str(out)])
    assert rc == 4
    message = json.loads(capsys.readouterr().out)["error"]
    assert message.startswith("internal error: InternalConsistencyError: "
                              "produced certificate fails to verify")
    assert not out.exists()


@pytest.mark.parametrize("p", ["2", "1", "0", "-1"])
def test_verify_p_below_3_exits_2(tmp_path, capsys, p):
    cert = link(theta_graph(), dumbbell_graph())
    path = tmp_path / "cert.json"
    path.write_text(dumps_canonical(certificate_to_json_dict(cert)))
    assert cli.main(["verify", str(path), "--p", p]) == 2
    assert "--p must be >= 3" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(["verify", str(path), "--p", "3"]) == 0


def test_link_weighted_graph_exits_2(tmp_path, capsys):
    """Linkage is defined on unweighted graphs: a weighted theta (genus 4 as
    a weighted graph) is malformed input, not the plain theta."""
    write_graph(tmp_path / "heavy.json",
                build_graph([(0, 1)] * 3, weights={0: 1, 1: 1}))
    write_graph(tmp_path / "theta.json", theta_graph())
    rc = cli.main(["link", str(tmp_path / "heavy.json"),
                   str(tmp_path / "theta.json")])
    assert rc == 2
    assert "vertex weights {0: 1, 1: 1}" in \
        json.loads(capsys.readouterr().out)["error"]


def test_verify_weighted_certificate_graph_exits_2(tmp_path, capsys):
    doc = certificate_to_json_dict(link(theta_graph(), dumbbell_graph()))
    doc["graphs"][0]["vertices"][0]["weight"] = 3
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    assert "vertex weights {0: 3}" in json.loads(capsys.readouterr().out)["error"]
