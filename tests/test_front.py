"""Input parsing, the end-to-end check, reports, and exports."""

import glob
import io
import os
import re

import pytest

from obfloer.front import export_diagram, main, parse_input, run_check
from obfloer.heegaard import build_diagram
from obfloer.nicify import make_nice

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


def test_disk_page_short_circuits(tmp_path):
    path = tmp_path / "disk.obk"
    path.write_text("page g=0 b=1\ntwists:\n")
    code, report = run_check(str(path), rank=True, out=io.StringIO())
    assert code == 0
    assert report.verdict == "NONVANISHING"
    assert report.generators == 1
    assert report.rank == 1
    assert report.crossings_pre == 0


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


def test_trace_prints_finger_lines():
    sink = io.StringIO()
    run_check(corpus_path("lantern.obk"), trace=True, out=sink)
    lines = sink.getvalue().splitlines()
    assert lines[0].startswith("finger region=")
    assert lines[1].startswith("finger region=")


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
