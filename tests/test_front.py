"""Input parsing, the end-to-end check, reports, and exports."""

import glob
import hashlib
import io
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obfloer import floer
from obfloer.floer import domain_census
from obfloer.front import (_render_svg, _render_text, export_diagram, main,
                           parse_input, run_check)
from obfloer.heegaard import build_diagram
from obfloer.nicify import lazy_frontier, make_nice

from oracles import read_dump

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

TORUS = "page g=1 b=1\ncurve a: 1+\ncurve b: 2+\n"
LANTERN = ("page g=0 b=4\ncurve d4: 1+ 2+ 3+\ncurve f1: 1+ 3+\n"
           "curve f2: 1+ 2+\n")
LADDER = {
    "torus_ab2.obk": TORUS + "twists: +a +b +a +b\n",
    "torus_ab3.obk": TORUS + "twists: +a +b +a +b +a +b\n",
    "torus_abinv1.obk": TORUS + "twists: +a -b\n",
    "torus_abinv2.obk": TORUS + "twists: +a -b +a -b\n",
    "lantern_word1.obk": LANTERN + "twists: +d4 -f1 +f2\n",
}


def torus_word(letters, k):
    return TORUS + "twists: " + " ".join([letters] * k) + "\n"


# the ladder of bench/workloads.py
BENCH_LADDER = {
    **{f"torus_ab{k}.obk": torus_word("+a +b", k) for k in (2, 3, 4)},
    **{f"torus_abinv{k}.obk": torus_word("+a -b", k) for k in (1, 2, 3)},
    "lantern_word1.obk": LANTERN + "twists: +d4 -f1 +f2\n",
}


def corpus_path(name):
    return os.path.join(CORPUS, name)


def test_parse_lantern_file():
    book = parse_input(open(corpus_path("lantern.obk")).read())
    assert book.page.genus == 0
    assert book.page.boundary_components == 4
    assert list(book.curves) == ["d1", "d2", "d3", "d4", "f1"]
    assert book.letters == (("d1", 1), ("d2", 1), ("d3", 1), ("d4", 1),
                            ("f1", -1))
    assert len(book.word.letters) == 5
    assert book.options == {}


def test_parse_annulus_identity():
    book = parse_input("page g=0 b=2\ntwists:\n")
    assert book.page.n_arcs == 1
    assert book.letters == ()
    assert book.word.letters == ()


def test_parse_skips_comments_and_blanks():
    text = ("# a comment\n\npage g=0 b=2   # trailing\n"
            "curve core: 1+\n\ntwists: +core\n")
    book = parse_input(text)
    assert book.letters == (("core", 1),)


@pytest.mark.parametrize("text, message", [
    ("pages g=0 b=2\ntwists:\n",
     "line 1, column 1: unknown directive 'pages'"),
    ("page g=0\ntwists:\n",
     "line 1, column 1: expected: page g=<int> b=<int>"),
    ("page g=0 b=2\ncurve core: 1x\ntwists:\n",
     "line 2, column 13: malformed crossing token '1x'; "
     "expected <arc><+|->"),
    ("page g=0 b=2\ncurve core:\ntwists:\n",
     "line 2, column 7: curve 'core' needs at least one crossing token"),
    ("page g=0 b=2\ntwists: +q\n",
     "line 2, column 9: curve 'q' is not defined"),
    ("page g=0 b=2\ncurve core: 1+\ntwists: core\n",
     "line 3, column 9: malformed twist letter 'core'; "
     "expected +<name> or -<name>"),
    ("page g=0 b=2\ncurve core: 1+\ncurve core: 1-\ntwists:\n",
     "line 3, column 7: curve 'core' is already defined"),
    ("page g=0 b=2\npage g=0 b=2\ntwists:\n",
     "line 2, column 1: the page was already given"),
    ("page g=0 b=2\ntwists:\ntwists:\n",
     "line 3, column 1: the twist word was already given"),
    ("page g=0 b=2\ntwists:\noption color=red\n",
     "line 3, column 8: unknown option 'color'"),
    ("page g=0 b=2\ntwists:\noption lazy=true\noption lazy=false\n",
     "line 4, column 8: option 'lazy' is already set"),
    ("curve core: 1+\npage g=0 b=2\ntwists:\n",
     "line 1, column 1: the page line must come before curves"),
    ("twists:\n", "line 2, column 1: the file never defines a page"),
    ("page g=0 b=2\n", "line 2, column 1: the file never gives a twist word"),
    ("page g=0 b=2\ncurve core: 9+\ntwists:\n",
     "line 2, column 13: unknown arc index 9 (page has 1 arcs)"),
    ("page g=0 b=2\ntwists:\noption threads=2\n",
     "line 3, column 8: unknown option 'threads'"),
    ("page g=0 b=2\ntwists:\noption lazy=yes\n",
     "line 3, column 13: option 'lazy' takes true or false, not 'yes'"),
    ("page g=0 b=2\ntwists:\noption rank=1\n",
     "line 3, column 13: option 'rank' takes true or false, not '1'"),
    ("page g=0 b=2\ntwists:\noption trace=TRUE\n",
     "line 3, column 14: option 'trace' takes true or false, not 'TRUE'"),
    ("page g=0 b=2\ntwists:\noption format=png\n",
     "line 3, column 15: option 'format' takes text or svg, not 'png'"),
    ("page g=0 b=2\ncurve core: 1+ 0+\ntwists:\n",
     "line 2, column 16: unknown arc index 0 (page has 1 arcs)"),
])
def test_parse_errors_carry_positions(text, message):
    with pytest.raises(ValueError) as err:
        parse_input(text)
    assert str(err.value) == message


def test_round_trip_is_identity_on_corpus():
    files = sorted(glob.glob(corpus_path("*.obk")))
    assert len(files) == 9
    for path in files:
        text = open(path).read()
        assert parse_input(text).render() == text, path


def test_render_normalizes_options_order():
    text = ("page g=0 b=2\ncurve core: 1+\ntwists: +core\n"
            "option trace=true\noption lazy=true\n")
    rendered = parse_input(text).render()
    assert rendered.endswith("option lazy=true\noption trace=true\n")
    assert parse_input(rendered).render() == rendered


OPTION_VALUES = {"export-post": "post.txt", "export-pre": "pre.svg",
                 "format": ("text", "svg"), "lazy": ("true", "false"),
                 "rank": ("true", "false"), "report": "out.txt",
                 "trace": ("true", "false")}
FUZZ = settings(derandomize=True, max_examples=200, deadline=None,
                database=None)
POSITIONED = re.compile(r"line (\d+), column (\d+): \S")


@st.composite
def book_texts(draw):
    """Well-formed-looking files: a page, curves, a word, options."""
    g = draw(st.integers(0, 2))
    b = draw(st.integers(1, 4))
    top = max(1, 2 * g + b - 1)
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "core"]),
                          max_size=3, unique=True))
    lines = [f"page g={g} b={b}"]
    for name in names:
        tokens = draw(st.lists(st.tuples(st.integers(1, top),
                                         st.sampled_from("+-")),
                               min_size=1, max_size=4))
        lines.append(f"curve {name}: "
                     + " ".join(f"{arc}{sign}" for arc, sign in tokens))
    letters = draw(st.lists(st.tuples(st.sampled_from("+-"),
                                      st.sampled_from(names or ["a"])),
                            max_size=4 if names else 0))
    lines.append(" ".join(["twists:"] + [s + n for s, n in letters]))
    keys = draw(st.lists(st.sampled_from(sorted(OPTION_VALUES)), max_size=3,
                         unique=True))
    for key in keys:
        values = OPTION_VALUES[key]
        value = (draw(st.sampled_from(values))
                 if isinstance(values, tuple) else values)
        lines.append(f"option {key}={value}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "  # end\n"]))


def assert_renders_to_fixed_point(text):
    book = parse_input(text)
    rendered = book.render()
    again = parse_input(rendered)
    assert (again.curve_tokens, again.letters, again.options) == (
        book.curve_tokens, book.letters, book.options)
    assert again.render() == rendered


def assert_parses_or_points(text):
    try:
        assert_renders_to_fixed_point(text)
    except ValueError as err:
        found = POSITIONED.match(str(err))
        assert found, str(err)
        line, column = int(found[1]), int(found[2])
        assert 1 <= line <= len(text.splitlines()) + 1
        assert column >= 1


@FUZZ
@given(book_texts())
def test_parsed_files_render_to_a_fixed_point(text):
    assert_parses_or_points(text)


GARBAGE_TOKENS = st.one_of(
    st.sampled_from(["page", "curve", "twists:", "option", "g=0", "g=1",
                     "b=1", "b=3", "g=", "b=x", "a:", ":", "1+", "2-",
                     "0+", "1x", "+", "-", "+a", "-q", "lazy=true",
                     "rank=no", "format=svg", "threads=2", "=", "#"]),
    st.text(alphabet="abgq=+-:#0123", min_size=1, max_size=4))
GARBAGE_LINES = st.builds(
    lambda head, tail: " ".join([head] + tail),
    st.one_of(st.sampled_from(["page", "curve", "twists:", "option"]),
              GARBAGE_TOKENS),
    st.lists(GARBAGE_TOKENS, max_size=4))


@FUZZ
@given(st.one_of(st.sampled_from(["page g=0 b=2", "page g=1 b=2"]),
                 GARBAGE_LINES),
       st.lists(GARBAGE_LINES, max_size=5))
def test_garbage_fails_only_with_a_position(first, lines):
    assert_parses_or_points("\n".join([first] + lines))


@pytest.mark.parametrize("name, code, verdict", [
    ("annulus_id.obk", 0, "NONVANISHING"),
    ("pos_hopf.obk", 0, "NONVANISHING"),
    ("neg_hopf.obk", 1, "VANISHING"),
    ("lantern.obk", 0, "NONVANISHING"),
    ("annulus_id_stab.obk", 0, "NONVANISHING"),
    ("annulus_id_negstab.obk", 1, "VANISHING"),
    ("pos_hopf_stab.obk", 0, "NONVANISHING"),
    ("neg_hopf_stab.obk", 1, "VANISHING"),
    ("lantern_stab.obk", 0, "NONVANISHING"),
])
def test_run_check_exit_codes(name, code, verdict):
    got, report = run_check(corpus_path(name), out=io.StringIO())
    assert got == code
    assert report.verdict == verdict


def test_golden_reports_match():
    for path in sorted(glob.glob(corpus_path("*.obk"))):
        stem = os.path.basename(path)[:-4]
        golden = open(corpus_path(os.path.join("golden",
                                               stem + ".report"))).read()
        _, report = run_check(path, out=io.StringIO())
        assert "\n".join(report.machine_lines()) + "\n" == golden, stem


def test_run_check_error_paths(tmp_path):
    code, report = run_check(str(tmp_path / "missing.obk"),
                             out=io.StringIO())
    assert code == 2 and report is None
    bad = tmp_path / "bad.obk"
    bad.write_text("page g=0 b=2\ntwists: +q\n")
    sink = io.StringIO()
    code, report = run_check(str(bad), out=sink)
    assert code == 2 and report is None
    assert sink.getvalue().startswith("error: line 2, column 9:")


def test_out_of_memory_exits_2_and_names_the_stage(monkeypatch, capsys):
    # exit 1 would read as "the class vanishes"
    def exhausted(diagram, emit):
        raise MemoryError
    monkeypatch.setattr(floer, "walk_domains", exhausted)
    assert main(["check", corpus_path("pos_hopf.obk")]) == 2
    out, err = capsys.readouterr()
    assert out == "error: out of memory in floer.boundary_matrix\n"
    assert "Traceback" not in err


DISK = "page g=0 b=1\ntwists:\n"


def test_disk_page_runs_the_pipeline(tmp_path):
    path = tmp_path / "disk.obk"
    path.write_text(DISK)
    for lazy in (False, True):
        for rank in (False, True):
            code, report = run_check(str(path), lazy=lazy, rank=rank,
                                     out=io.StringIO())
            assert code == 0
            assert report.verdict == "NONVANISHING"
            assert report.generators == 1
            assert report.rank == (1 if rank else None)
            assert (report.crossings_pre, report.crossings_post,
                    report.regions_pre, report.regions_post,
                    report.moves) == (0, 0, 1, 1, 0)


def test_disk_page_exports_the_sphere(tmp_path, capsys):
    path = tmp_path / "disk.obk"
    path.write_text(DISK)
    pre, post = tmp_path / "pre.txt", tmp_path / "post.svg"
    assert main(["check", str(path), "--export-pre", str(pre)]) == 0
    assert main(["check", str(path), "--export-post", str(post),
                 "--format", "svg"]) == 0
    assert "regions: 1 -> 1" in capsys.readouterr().out
    assert pre.read_text() == (
        "diagram arcs=0 vertices=0 edges=0 regions=1 z0=0\n"
        "census flat=0 oversized=0 nondisk=0 pointed_sides=0\n"
        "region 0 euler=2 sides=0 pointed=yes cycles=\n")
    sphere = read_dump(pre.read_text())
    sphere.validate()
    assert _render_text(sphere) == pre.read_text()
    assert post.read_text().startswith("<svg")


def test_options_from_file_merge(tmp_path):
    out_path = tmp_path / "machine.report"
    path = tmp_path / "opts.obk"
    path.write_text("page g=0 b=2\ncurve core: 1+\ntwists: -core\n"
                    f"option lazy=true\noption rank=true\n"
                    f"option report={out_path}\n")
    sink = io.StringIO()
    code, report = run_check(str(path), out=sink)
    assert code == 1
    assert report.lazy_mode is True
    assert report.rank == 1
    lines = out_path.read_text().splitlines()
    assert lines[1] == "verdict=VANISHING"
    assert lines[3] == "lazy=yes"
    assert "homology rank: 1" in sink.getvalue()


def test_lazy_flag_reports_lazy_complex():
    sink = io.StringIO()
    code, report = run_check(corpus_path("lantern.obk"), lazy=True, out=sink)
    assert code == 0
    assert report.lazy_mode is True
    assert report.verdict == "NONVANISHING"
    assert report.moves == 2


def test_lazy_rank_trace_comes_from_one_flattening(tmp_path):
    paths = sorted(glob.glob(corpus_path("*.obk")))
    for name, text in LADDER.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    for path in paths:
        sink = io.StringIO()
        _, lazy = run_check(path, lazy=True, rank=True, trace=True, out=sink)
        pokes = sum(map(int, re.findall(r"^finger .* crossings=(\d+) ",
                                        sink.getvalue(), re.M)))
        assert pokes == lazy.moves, path
        _, full = run_check(path, rank=True, out=io.StringIO())
        assert (lazy.verdict, lazy.rank) == (full.verdict, full.rank), path
        assert ((lazy.generators, lazy.crossings_post, lazy.regions_post,
                 lazy.moves) == (full.generators, full.crossings_post,
                                 full.regions_post, full.moves)), path


@pytest.mark.parametrize("name, censuses", [
    ("torus_abinv3.obk", 1), ("lantern_word1.obk", 2)])
def test_lazy_rank_fallback_runs_each_census_once(tmp_path, monkeypatch,
                                                  name, censuses):
    # the lazy test falls back on both; (a b^-1)^3's frontier diagram is
    # already flat, so one walk of its disks serves the decision and the
    # rank, and lantern x1 adds one on its partly flat frontier diagram
    path = tmp_path / name
    path.write_text(BENCH_LADDER[name])
    _, full = run_check(str(path), rank=True, out=io.StringIO())
    seen = []
    walk = floer.walk_domains

    def counted(diagram, emit):
        seen.append(diagram)
        walk(diagram, emit)

    monkeypatch.setattr(floer, "walk_domains", counted)
    _, lazy = run_check(str(path), lazy=True, rank=True, out=io.StringIO())
    assert len(seen) == censuses
    assert len({id(d) for d in seen}) == censuses
    assert not seen[-1].bad_regions()
    assert (lazy.verdict, lazy.rank, lazy.generators) == (
        full.verdict, full.rank, full.generators)


def test_trace_prints_finger_lines():
    sink = io.StringIO()
    run_check(corpus_path("lantern.obk"), trace=True, out=sink)
    lines = sink.getvalue().splitlines()
    assert lines[0].startswith("finger region=")
    assert lines[1].startswith("finger region=")


def test_trace_streams_before_a_failure(monkeypatch):
    # finger lines reach the output as they are made, so a check that
    # dies after flattening still shows them
    def broken(diagram):
        raise RuntimeError("internal error: assembly failed")

    monkeypatch.setattr(floer, "boundary_matrix", broken)
    sink = io.StringIO()
    code, report = run_check(corpus_path("lantern.obk"), trace=True,
                             out=sink)
    assert (code, report) == (2, None)
    lines = sink.getvalue().splitlines()
    assert lines[-1] == "error: internal error: assembly failed"
    assert len(lines) > 1
    assert all(line.startswith("finger region=") for line in lines[:-1])


def test_text_export_is_byte_stable(tmp_path):
    book = parse_input(open(corpus_path("lantern.obk")).read())
    dia = build_diagram(book.page, book.word)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    export_diagram(dia, "text", str(a))
    export_diagram(dia, "text", str(b))
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "diagram arcs=3 vertices=10 edges=20 regions=6 z0=0"
    assert lines[1] == "census flat=3 oversized=2 nondisk=0 pointed_sides=16"
    post = make_nice(dia)
    export_diagram(post, "text", str(a))
    assert ("census flat=9 oversized=0 nondisk=0 pointed_sides=24"
            in a.read_text())


def test_svg_export_is_byte_stable(tmp_path):
    book = parse_input(open(corpus_path("neg_hopf.obk")).read())
    dia = build_diagram(book.page, book.word)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    export_diagram(dia, "svg", str(a))
    export_diagram(dia, "svg", str(b))
    assert a.read_bytes() == b.read_bytes()
    svg = a.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 2
    assert "c1" in svg and "basepoint" in svg


def test_export_rejects_unknown_format(tmp_path):
    book = parse_input(open(corpus_path("pos_hopf.obk")).read())
    dia = build_diagram(book.page, book.word)
    with pytest.raises(ValueError, match="format must be"):
        export_diagram(dia, "png", str(tmp_path / "x.png"))


def test_cli_main(tmp_path, capsys):
    assert main(["check", corpus_path("lantern.obk")]) == 0
    assert "lantern.obk: NONVANISHING" in capsys.readouterr().out
    assert main(["check", corpus_path("neg_hopf.obk"), "--rank"]) == 1
    assert "homology rank: 1" in capsys.readouterr().out
    assert main(["check", str(tmp_path / "gone.obk")]) == 2
    capsys.readouterr()
    post = tmp_path / "post.svg"
    assert main(["check", corpus_path("lantern.obk"), "--lazy",
                 "--export-post", str(post), "--format", "svg"]) == 0
    capsys.readouterr()
    assert post.read_text().startswith("<svg")


def test_module_runs_as_a_command():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-m", "obfloer", "check", corpus_path("lantern.obk")],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "lantern.obk: NONVANISHING" in run.stdout.splitlines()



def test_hash_seed_changes_no_report_or_dump(tmp_path):
    # Python salts str hashes per process; nothing a check writes may
    # depend on the salt
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    written = {}
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        for name in ("lantern.obk", "lantern_stab.obk", "neg_hopf_stab.obk"):
            out = tmp_path / seed / name[:-len(".obk")]
            out.mkdir(parents=True)
            book = out / name
            book.write_text(open(corpus_path(name)).read()
                            + f"option report={out / 'report'}\n")
            run = subprocess.run(
                [sys.executable, "-m", "obfloer", "check", str(book),
                 "--export-pre", str(out / "pre.txt"),
                 "--export-post", str(out / "post.txt"), "--format", "text"],
                capture_output=True, text=True, env=env, timeout=60)
            assert run.returncode in (0, 1), run.stdout + run.stderr
            written[seed, name] = [(out / f).read_bytes()
                                   for f in ("report", "pre.txt", "post.txt")]
    for name in ("lantern.obk", "lantern_stab.obk", "neg_hopf_stab.obk"):
        assert written["0", name] == written["1", name], name


# sha256 of _render_text of the built and the flattened diagram
FRONT_HALF_SHA256 = {
    "annulus_id.obk": (
        "23b0b629da8886a35a8a7e8e64786c9ce0908b3a43a6a5fc0514ebd065327779",
        "23b0b629da8886a35a8a7e8e64786c9ce0908b3a43a6a5fc0514ebd065327779"),
    "annulus_id_negstab.obk": (
        "49e1393e38081861553e5f5cf1c2f7ba6e005becb66a2346a7670c24c2df710e",
        "49e1393e38081861553e5f5cf1c2f7ba6e005becb66a2346a7670c24c2df710e"),
    "annulus_id_stab.obk": (
        "f048a2f7fc73a8e4588aa8a70be5ed1e791bd0dec5ceded50618bda5881d5ea2",
        "f048a2f7fc73a8e4588aa8a70be5ed1e791bd0dec5ceded50618bda5881d5ea2"),
    "lantern.obk": (
        "43cdc6e8d868c9edb4f06f8f724eef95e20c497e110e886d81d989c241daf11c",
        "4a40c99714148fe57ef4070148c9fd12dfd5fcd05b12c6c3519dd46d3247fa7c"),
    "lantern_stab.obk": (
        "9fccfc769fb65b42cfede93775a4ea1f1a036b886b53ac0268fc5f6787ee29a6",
        "548c57fe7ecdb6bbec845af51e86552b4d9354203bde022d506ba39b82e5087b"),
    "neg_hopf.obk": (
        "0d2c55235bd02cef1d9f3830ca74e2f034d197c6161b61ab88c24d50cd2e3a9b",
        "0d2c55235bd02cef1d9f3830ca74e2f034d197c6161b61ab88c24d50cd2e3a9b"),
    "neg_hopf_stab.obk": (
        "f53fe24f36ebe8b218b0e46fd8d385c790bfb3502ff4cb67c376084c99a130f0",
        "f53fe24f36ebe8b218b0e46fd8d385c790bfb3502ff4cb67c376084c99a130f0"),
    "pos_hopf.obk": (
        "4d8fa18fef08499aeb10febb4e7d710cf3f8b123127d2c64365da0281bf7d60b",
        "4d8fa18fef08499aeb10febb4e7d710cf3f8b123127d2c64365da0281bf7d60b"),
    "pos_hopf_stab.obk": (
        "1db7c5e70e9cb5736e89c2c2ec3973626c97ef943b2a36d9df5885fc84fbda37",
        "1db7c5e70e9cb5736e89c2c2ec3973626c97ef943b2a36d9df5885fc84fbda37"),
    "torus_ab2.obk": (
        "d2de2c4616f8aa6784b19f10420908df793bc28996df52474c94076efd1cbfbc",
        "f11386c4e28359ecd818659e9188986ad5e4fd40aa788aa8de1322b88c7cabe6"),
    "torus_ab3.obk": (
        "a599e6309afc1e93d96837bac952e133f983db0c2a4c30ed87c3fb78f0575286",
        "07a9c33dea38d7f5f9de742f3f4ee570f096e213290810b4f71342938bba8f10"),
    "torus_ab4.obk": (
        "448029774261010a91714883faf80038c8ad3f36803f12c1f305d4e60f5beed7",
        "84b6a615882d5f38543e279bd7472ee77553a3c0745fca160a763cc86be03845"),
    "torus_abinv1.obk": (
        "d3d512ac42cfebcc58e987e6ec6695e8b9728757d2e99f1f7a5f2be9c3699a0f",
        "d3d512ac42cfebcc58e987e6ec6695e8b9728757d2e99f1f7a5f2be9c3699a0f"),
    "torus_abinv2.obk": (
        "989c23dae114c989e123f28364f01cd0215d6adf25254c28fc2875fc088b84d0",
        "989c23dae114c989e123f28364f01cd0215d6adf25254c28fc2875fc088b84d0"),
    "torus_abinv3.obk": (
        "757c44dddb804c297031a630d1eccdbb43ecbf564c3e32cfca65b0c27b9df9f7",
        "757c44dddb804c297031a630d1eccdbb43ecbf564c3e32cfca65b0c27b9df9f7"),
    "lantern_word1.obk": (
        "f58af5fa445bf3807b255bf2f3410b0eca8643c6c5e683030ee8d6e5f909ac8f",
        "773b4c493b3c26235fdfce4fefa7a3e840023a4a609f2f8df3b841a3299801fc"),
    "lantern_word2.obk": (
        "0ce53e9eac8564f7af1feada82b28da3d36679efea9feb9eefc2d7a962927cbf",
        "515b8cce2eb52b048d491193282023ef68b2ee59ef4def80722f3c1f460c622c"),
    "torus_abinv5.obk": (
        "88a589c7c26f39213bd8962062c1b9941c5f83a1760c5b7e490d087d57ad96e1",
        "88a589c7c26f39213bd8962062c1b9941c5f83a1760c5b7e490d087d57ad96e1"),
    "torus_ab6.obk": (
        "0523a225c39acfb0ea7f10b2b3a534be366f39b4cb82565b515d40c2dab456fd",
        "6fe5c4c93503a9d90d23db8593150b8f8b5cbb91f7652454283ea6c769d09adf"),
}


def test_front_half_diagrams_are_pinned():
    books = {os.path.basename(p): open(p).read()
             for p in glob.glob(corpus_path("*.obk"))}
    books.update(BENCH_LADDER)
    books["lantern_word2.obk"] = LANTERN + "twists: +d4 -f1 +f2 +d4 -f1 +f2\n"
    # long words whose images share long prefixes, where ranking the
    # strands takes the most rounds
    books["torus_abinv5.obk"] = torus_word("+a -b", 5)
    books["torus_ab6.obk"] = torus_word("+a +b", 6)
    got = {}
    for name, text in books.items():
        book = parse_input(text)
        built = build_diagram(book.page, book.word)
        got[name] = tuple(hashlib.sha256(_render_text(d).encode()).hexdigest()
                          for d in (built, make_nice(built)))
    assert got == FRONT_HALF_SHA256


# sha256 of _render_svg of the built and the flattened corpus diagram
SVG_SHA256 = {
    "annulus_id.obk": (
        "fb64d7b78938d9c76c20307f84f9622f99e871269f39b735c1a36bae3a95eeb1",
        "fb64d7b78938d9c76c20307f84f9622f99e871269f39b735c1a36bae3a95eeb1"),
    "annulus_id_negstab.obk": (
        "d3f583efc2b9b62b46d1e1c47ee5eb581b3e94077cdfa9535a664c50f31f42c9",
        "d3f583efc2b9b62b46d1e1c47ee5eb581b3e94077cdfa9535a664c50f31f42c9"),
    "annulus_id_stab.obk": (
        "b4ea45630084d36d4394d69d491d9106eb55806249b606663243c60889ad19b7",
        "b4ea45630084d36d4394d69d491d9106eb55806249b606663243c60889ad19b7"),
    "lantern.obk": (
        "60fb522e63768003c3bc85b5f80cd8df39f0032c7f7298a8805e5a1075e8e49d",
        "cb5f7f49a320e43fcf9b219ea41659810d57d0b0b7db8f087789996d36471bc8"),
    "lantern_stab.obk": (
        "cfd6df167b55cd7c27a35604ff30e396f1fc2f11bc3b22cc7f7725e56e172861",
        "7c2c7c9926c2d2057b82ec0d41df48f7ce2f7d97964fe31af96085f7cd91d8f0"),
    "neg_hopf.obk": (
        "8501ae67af49dc9764200a5c11b141b201ec80d59c7317685af15a47f46e8aa7",
        "8501ae67af49dc9764200a5c11b141b201ec80d59c7317685af15a47f46e8aa7"),
    "neg_hopf_stab.obk": (
        "c3d86a36664b042d71d83113a78e3e81ea2954f9e65abf2653276c26ea520765",
        "c3d86a36664b042d71d83113a78e3e81ea2954f9e65abf2653276c26ea520765"),
    "pos_hopf.obk": (
        "48cc9986d9fb175c521df85f2a5bb01f4f91be002eb2964365a14b211ef8a767",
        "48cc9986d9fb175c521df85f2a5bb01f4f91be002eb2964365a14b211ef8a767"),
    "pos_hopf_stab.obk": (
        "5dfaff1f2229c41ae43795d791f8714fe9e13c46ab740bc25d791d5d7c24459d",
        "5dfaff1f2229c41ae43795d791f8714fe9e13c46ab740bc25d791d5d7c24459d"),
}


def test_svg_exports_are_pinned():
    got = {}
    for path in sorted(glob.glob(corpus_path("*.obk"))):
        book = parse_input(open(path).read())
        built = build_diagram(book.page, book.word)
        got[os.path.basename(path)] = tuple(
            hashlib.sha256(_render_svg(d).encode()).hexdigest()
            for d in (built, make_nice(built)))
    assert got == SVG_SHA256


def test_dump_is_a_complete_record():
    texts = [open(p).read() for p in sorted(glob.glob(corpus_path("*.obk")))]
    for text in texts + list(BENCH_LADDER.values()):
        book = parse_input(text)
        built = build_diagram(book.page, book.word)
        for d in (built, make_nice(built), lazy_frontier(built)):
            dump = _render_text(d)
            back = read_dump(dump)
            back.validate()
            assert _render_text(back) == dump
            assert back.walks() == d.walks()
            assert domain_census(back) == domain_census(d)
