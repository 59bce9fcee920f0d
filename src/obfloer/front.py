"""Input files, the end-to-end check, reporting, and diagram export.

The input format is line-based.  `#` starts a comment, blank lines are
skipped, and the directives are:

    page g=<int> b=<int>
    curve <name>: <arc><+|-> ...
    twists: <+|-><name> ...
    option <key>=<value>

The page line must come first.  Twist letters apply rightmost first.
Recognized options are lazy, rank, trace, format, export-pre,
export-post, and report; command line flags override them.  lazy, rank
and trace take true or false, format takes text or svg.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass

from . import floer
from .heegaard import HeegaardDiagram, build_diagram
from .mapping import TwistWord
from .nicify import make_nice
from .surface import make_page, parse_curve

_OPTION_KEYS = ("export-post", "export-pre", "format", "lazy", "rank",
                "report", "trace")
_OPTION_CHOICES = {"format": ("text", "svg"), "lazy": ("true", "false"),
                   "rank": ("true", "false"), "trace": ("true", "false")}
# ASCII digits only: int() also takes signs, underscores and other scripts
_CROSSING = re.compile(r"[0-9]+[+-]")
_PAGE_INT = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class OpenBookFile:
    """A parsed input file, keeping enough structure to re-render it."""

    page: object
    curves: dict          # name -> Curve, in definition order
    curve_tokens: dict    # name -> tuple of raw crossing tokens
    letters: tuple        # (name, sign) twist letters, leftmost outermost
    word: TwistWord
    options: dict

    def render(self) -> str:
        """Normalized text form; parse(render(...)) is the identity."""
        out = [f"page g={self.page.genus} b={self.page.boundary_components}"]
        for name, tokens in self.curve_tokens.items():
            out.append(f"curve {name}: " + " ".join(tokens))
        letters = " ".join(("+" if s > 0 else "-") + name
                           for name, s in self.letters)
        out.append(("twists: " + letters).rstrip())
        for key in sorted(self.options):
            out.append(f"option {key}={self.options[key]}")
        return "\n".join(out) + "\n"


def _fail(line: int, col: int, msg: str):
    raise ValueError(f"line {line}, column {col}: {msg}")


def _tokens(raw: str):
    """(token, 1-based column) pairs of one line, comments stripped."""
    line = raw.split("#", 1)[0]
    out = []
    col = 0
    for piece in line.split():
        col = line.index(piece, col)
        out.append((piece, col + 1))
        col += len(piece)
    return out


def parse_input(text: str) -> OpenBookFile:
    """Parse an open book description, or fail with line and column."""
    page = None
    curves = {}
    curve_tokens = {}
    letters = None
    options = {}
    n_lines = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        n_lines = ln
        tokens = _tokens(raw)
        if not tokens:
            continue
        head, col0 = tokens[0]
        if head == "page":
            if page is not None:
                _fail(ln, col0, "the page was already given")
            if len(tokens) != 3 or not tokens[1][0].startswith("g=") \
                    or not tokens[2][0].startswith("b="):
                _fail(ln, col0, "expected: page g=<int> b=<int>")
            for tok, col in tokens[1:]:
                if not _PAGE_INT.fullmatch(tok[2:]):
                    _fail(ln, col + 2, f"'{tok[0]}' takes an integer, "
                          f"not '{tok[2:]}'")
            try:
                page = make_page(int(tokens[1][0][2:]),
                                 int(tokens[2][0][2:]))
            except ValueError as err:
                _fail(ln, tokens[1][1], str(err))
        elif head == "curve":
            if page is None:
                _fail(ln, col0, "the page line must come before curves")
            if len(tokens) < 2 or not tokens[1][0].endswith(":"):
                _fail(ln, col0, "expected: curve <name>: <tokens>")
            name = tokens[1][0][:-1]
            if not name:
                _fail(ln, tokens[1][1], "the curve needs a name")
            if name in curves:
                _fail(ln, tokens[1][1], f"curve '{name}' is already defined")
            if len(tokens) == 2:
                _fail(ln, tokens[1][1],
                      f"curve '{name}' needs at least one crossing token")
            sides = []
            for tok, col in tokens[2:]:
                if not _CROSSING.fullmatch(tok):
                    _fail(ln, col, f"malformed crossing token '{tok}'; "
                          "expected <arc><+|->")
                arc = int(tok[:-1])
                try:
                    page.check_arc_index(arc)
                except ValueError as err:
                    _fail(ln, col, str(err))
                sides.append((arc, 1 if tok[-1] == "+" else -1))
            try:
                curves[name] = parse_curve(page, sides)
            except ValueError as err:
                _fail(ln, tokens[2][1], str(err))
            curve_tokens[name] = tuple(tok for tok, _ in tokens[2:])
        elif head == "twists:":
            if letters is not None:
                _fail(ln, col0, "the twist word was already given")
            letters = []
            for tok, col in tokens[1:]:
                if tok[0] not in "+-" or len(tok) < 2:
                    _fail(ln, col, f"malformed twist letter '{tok}'; "
                          "expected +<name> or -<name>")
                name = tok[1:]
                if name not in curves:
                    _fail(ln, col, f"curve '{name}' is not defined")
                letters.append((name, 1 if tok[0] == "+" else -1))
        elif head == "option":
            if len(tokens) != 2 or "=" not in tokens[1][0]:
                _fail(ln, col0, "expected: option <key>=<value>")
            key, _, value = tokens[1][0].partition("=")
            if key not in _OPTION_KEYS:
                _fail(ln, tokens[1][1], f"unknown option '{key}'")
            if key in options:
                _fail(ln, tokens[1][1], f"option '{key}' is already set")
            choices = _OPTION_CHOICES.get(key)
            if choices and value not in choices:
                _fail(ln, tokens[1][1] + len(key) + 1,
                      f"option '{key}' takes {' or '.join(choices)}, "
                      f"not '{value}'")
            if not value:
                _fail(ln, tokens[1][1] + len(key) + 1,
                      f"option '{key}' needs a path")
            options[key] = value
        else:
            _fail(ln, col0, f"unknown directive '{head}'")
    if page is None:
        _fail(n_lines + 1, 1, "the file never defines a page")
    if letters is None:
        _fail(n_lines + 1, 1, "the file never gives a twist word")
    word = TwistWord(tuple((curves[name], s) for name, s in letters))
    return OpenBookFile(page=page, curves=curves, curve_tokens=curve_tokens,
                        letters=tuple(letters), word=word, options=options)


@dataclass(frozen=True)
class Report:
    """Everything one check run measured.

    The machine rendering is a flat key=value block and leaves out the
    wall time, so repeated runs on one input are byte-identical; the
    human rendering includes it.  moves counts pokes: crossings pushed
    during flattening, two new intersection points each.
    """

    input: str
    verdict: str
    exit_code: int
    lazy_mode: bool
    generators: int
    rank: int | None
    crossings_pre: int
    crossings_post: int
    regions_pre: int
    regions_post: int
    moves: int
    wall_time: float

    def machine_lines(self) -> list[str]:
        out = [f"input={self.input}",
               f"verdict={self.verdict}",
               f"exit={self.exit_code}",
               f"lazy={'yes' if self.lazy_mode else 'no'}",
               f"generators={self.generators}"]
        if self.rank is not None:
            out.append(f"rank={self.rank}")
        out += [f"crossings_pre={self.crossings_pre}",
                f"crossings_post={self.crossings_post}",
                f"regions_pre={self.regions_pre}",
                f"regions_post={self.regions_post}",
                f"moves={self.moves}"]
        return out

    def human_lines(self) -> list[str]:
        claim = ("the contact class is nonzero: the structure is tight"
                 if self.verdict == floer.NONVANISHING
                 else "the contact class vanishes")
        out = [f"{self.input}: {self.verdict}",
               f"  {claim}",
               f"  generators: {self.generators}"]
        if self.rank is not None:
            out.append(f"  homology rank: {self.rank}")
        out.append(f"  crossings: {self.crossings_pre} -> "
                   f"{self.crossings_post} after {self.moves} moves")
        out.append(f"  regions: {self.regions_pre} -> {self.regions_post}")
        out.append(f"  wall time: {self.wall_time:.3f}s")
        return out


def _check_book(book: OpenBookFile, name: str, *, lazy: bool, rank: bool,
                export_pre=None, export_post=None, fmt: str = "text",
                trace=None) -> Report:
    """Run the pipeline on a parsed book and measure it."""
    t0 = time.perf_counter()
    dia = build_diagram(book.page, book.word)
    if export_pre:
        export_diagram(dia, fmt, export_pre)
    rank_val = None
    # the rank needs the full complex, so the lazy test could only add a walk
    if lazy and not rank:
        verdict = floer.decide_lazy(dia, trace=trace)
        post = verdict.diagram
    else:
        post = make_nice(dia, trace=trace)
        if rank:
            m = floer.boundary_matrix(post)
            verdict = floer.decide_vanishing(m, floer.contact_class(post))
            rank_val = floer.homology_rank(m)
        else:
            verdict = floer.decide(post)
    if export_post:
        export_diagram(post, fmt, export_post)
    return Report(
        input=name, verdict=verdict.outcome,
        exit_code=0 if verdict.outcome == floer.NONVANISHING else 1,
        lazy_mode=lazy, generators=verdict.generator_count, rank=rank_val,
        crossings_pre=dia.n_vertices, crossings_post=post.n_vertices,
        regions_pre=len(dia.regions), regions_post=len(post.regions),
        moves=(post.n_vertices - dia.n_vertices) // 2,
        wall_time=time.perf_counter() - t0)


def run_check(path: str, *, lazy: bool = False, rank: bool = False,
              trace: bool = False, export_pre=None, export_post=None,
              fmt: str = None, out=None):
    """Check one input file.  Returns (exit code, Report or None)."""
    out = sys.stdout if out is None else out
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        book = parse_input(text)
        opts = book.options
        lazy = lazy or opts.get("lazy") == "true"
        rank = rank or opts.get("rank") == "true"
        trace = trace or opts.get("trace") == "true"
        export_pre = export_pre or opts.get("export-pre")
        export_post = export_post or opts.get("export-post")
        fmt = fmt or opts.get("format", "text")
        if fmt not in ("text", "svg"):
            raise ValueError(f"format must be 'text' or 'svg', not '{fmt}'")
        name = path.rsplit("/", 1)[-1]
        # trace lines stream as the flattening makes them
        emit = (lambda line: print(line, file=out, flush=True)) if trace \
            else None
        report = _check_book(book, name, lazy=lazy, rank=rank,
                             export_pre=export_pre, export_post=export_post,
                             fmt=fmt, trace=emit)
        for line in report.human_lines():
            print(line, file=out)
        if "report" in opts:
            with open(opts["report"], "w", encoding="utf-8") as fh:
                fh.write("\n".join(report.machine_lines()) + "\n")
        return report.exit_code, report
    except (MemoryError, RecursionError) as err:
        # a RecursionError is a RuntimeError whose message names no stage
        what = ("out of memory" if isinstance(err, MemoryError)
                else "recursion too deep")
        print(f"error: {what} in {_innermost_stage(err)}", file=out)
        return 2, None
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=out)
        return 2, None


def _innermost_stage(err: BaseException) -> str:
    """module.function of the innermost package frame err unwound.

    From Python 3.11 on, a method is named Class.method, and a nested
    function by the function it is defined in.
    """
    stage, tb = "front.run_check", err.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith(__package__ + "."):
            code = tb.tb_frame.f_code
            name = getattr(code, "co_qualname", code.co_name)
            stage = (module[len(__package__) + 1:] + "."
                     + name.split(".<locals>.")[0])
        tb = tb.tb_next
    return stage


def _tag_text(tag) -> str:
    return ":".join(str(part) for part in tag)


def _render_text(d: HeegaardDiagram) -> str:
    """Canonical dump of the diagram, byte-stable across runs."""
    lines = [f"diagram arcs={d.n} vertices={d.n_vertices} "
             f"edges={d.n_edges} regions={len(d.regions)} z0={d.z0_region}"]
    plain = [r for i, r in enumerate(d.regions) if i != d.z0_region]
    flat = sum(1 for r in plain if r.is_bigon or r.is_square)
    oversized = sum(1 for r in plain
                    if r.is_disk and not (r.is_bigon or r.is_square))
    nondisk = sum(1 for r in plain if not r.is_disk)
    lines.append(f"census flat={flat} oversized={oversized} "
                 f"nondisk={nondisk} "
                 f"pointed_sides={d.regions[d.z0_region].corner_count}")
    for v in range(d.n_vertices):
        lines.append(f"vertex {v} arc={d.v_alpha[v]} pushoff={d.v_beta[v]} "
                     f"tag={_tag_text(d.v_tag[v])}")
    for e in range(d.n_edges):
        fam, idx = d.edge_label[e]
        lines.append(f"edge {e} label={fam}{idx} "
                     f"from={d.he_origin[2 * e]} to={d.he_origin[2 * e + 1]}")
    for r, region in enumerate(d.regions):
        cycles = "|".join(" ".join(str(h) for h in cyc)
                          for cyc in region.cycles)
        pointed = "yes" if r == d.z0_region else "no"
        lines.append(f"region {r} euler={region.euler} "
                     f"sides={region.corner_count} pointed={pointed} "
                     f"cycles={cycles}")
    return "\n".join(lines) + "\n"


_PALETTE = ("#b13", "#16b", "#180", "#a50", "#519", "#066")


def _layout(d: HeegaardDiagram, alpha):
    """Chart and position of every vertex, from the α circles' walks.

    Vertices go in the chart their page tag names; flattening vertices
    inherit the chart of the nearest tagged neighbor along their arc.
    """
    sheet = {}
    place = {}
    for i, walk in enumerate(alpha):
        verts = [d.he_origin[h] for h in walk]
        sheets = []
        for v in verts:
            kind = d.v_tag[v][0]
            sheets.append({"contact": 0, "token": 1}.get(kind))
        for k, s in enumerate(sheets):
            if s is None:
                back = next((sheets[(k - t) % len(sheets)]
                             for t in range(1, len(sheets))
                             if sheets[(k - t) % len(sheets)] is not None), 0)
                sheets[k] = back
        rows = [0, 0]
        for v, s in zip(verts, sheets):
            sheet[v] = s
            place[v] = (i, rows[s])
            rows[s] += 1
    return sheet, place


def _render_svg(d: HeegaardDiagram) -> str:
    """Schematic drawing: the two half-page charts, strands, basepoint."""
    alpha, beta = d.walks()
    sheet, place = _layout(d, alpha)
    col_w, row_h, pad, gap = 90, 34, 50, 60
    rows = [1, 1]
    for v, (c, r) in place.items():
        rows[sheet[v]] = max(rows[sheet[v]], r + 1)
    box_w = pad * 2 + col_w * d.n
    box_h = [pad * 2 + row_h * rows[0], pad * 2 + row_h * rows[1]]
    width = box_w + 240
    height = box_h[0] + gap + box_h[1] + 40

    def xy(v):
        c, r = place[v]
        x = pad + col_w * c + col_w // 2
        y = pad + row_h * r + row_h // 2
        if sheet[v] == 1:
            y += box_h[0] + gap
        return x, y

    pointed = d.z0_region
    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width}" height="{height}" '
           f'font-family="monospace" font-size="13">']
    svg.append(f'<rect x="2" y="2" width="{box_w}" height="{box_h[0]}" '
               'fill="#f8f6f0" stroke="#333"/>')
    y1 = box_h[0] + gap
    svg.append(f'<rect x="2" y="{y1}" width="{box_w}" height="{box_h[1]}" '
               'fill="#f0f4f8" stroke="#333"/>')
    svg.append(f'<text x="8" y="{box_h[0] + 16}">top half page</text>')
    svg.append(f'<text x="8" y="{y1 - 6 + box_h[1] + 20}">'
               'bottom half page</text>')
    # arc strands: one column per arc circle, in both charts
    for i in range(d.n):
        x = pad + col_w * i + col_w // 2
        svg.append(f'<line x1="{x}" y1="{pad // 2}" x2="{x}" '
                   f'y2="{box_h[0] - pad // 2}" stroke="#999"/>')
        svg.append(f'<line x1="{x}" y1="{y1 + pad // 2}" x2="{x}" '
                   f'y2="{y1 + box_h[1] - pad // 2}" stroke="#999"/>')
        svg.append(f'<text x="{x - 10}" y="{pad // 2 - 4}">a{i + 1}</text>')
    # basepoint shading under every edge of the pointed region
    for cyc in d.regions[pointed].cycles:
        for h in cyc:
            ax, ay = xy(d.he_origin[h])
            bx, by = xy(d.head(h))
            if sheet[d.he_origin[h]] == sheet[d.head(h)]:
                svg.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                           'stroke="#ddd" stroke-width="9"/>')
    # pushoff strands
    for j, walk in enumerate(beta):
        color = _PALETTE[j % len(_PALETTE)]
        verts = [d.he_origin[h] for h in walk]
        m = len(verts)
        for k, v in enumerate(verts):
            w = verts[(k + 1) % m]
            ax, ay = xy(v)
            bx, by = xy(w)
            if sheet[v] == sheet[w]:
                svg.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                           f'stroke="{color}" stroke-width="2"/>')
            else:
                # the strand dives through the binding between charts
                svg.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                           f'stroke="{color}" stroke-width="1" '
                           'stroke-dasharray="6 4" opacity="0.6"/>')
    # crossings, with the distinguished tuple ringed
    contact = set(d.contact_tuple())
    for v in range(d.n_vertices):
        x, y = xy(v)
        svg.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#000"/>')
        if v in contact:
            svg.append(f'<circle cx="{x}" cy="{y}" r="8" fill="none" '
                       'stroke="#b13" stroke-width="2"/>')
            svg.append(f'<text x="{x + 10}" y="{y - 6}" fill="#b13">'
                       f'c{d.v_alpha[v]}</text>')
    lx = box_w + 16
    svg.append(f'<text x="{lx}" y="24">arcs: {d.n}</text>')
    svg.append(f'<text x="{lx}" y="44">crossings: {d.n_vertices}</text>')
    svg.append(f'<text x="{lx}" y="64">regions: {len(d.regions)}</text>')
    svg.append(f'<text x="{lx}" y="84">shaded: region {pointed} '
               '(basepoint)</text>')
    for j in range(d.n):
        color = _PALETTE[j % len(_PALETTE)]
        yleg = 104 + 20 * j
        svg.append(f'<line x1="{lx}" y1="{yleg}" x2="{lx + 24}" y2="{yleg}" '
                   f'stroke="{color}" stroke-width="2"/>')
        svg.append(f'<text x="{lx + 30}" y="{yleg + 4}">b{j + 1}</text>')
    svg.append("</svg>")
    return "\n".join(svg) + "\n"


def export_diagram(d: HeegaardDiagram, format: str, path: str) -> None:
    """Write the diagram to path as a canonical dump or a schematic."""
    if format == "text":
        payload = _render_text(d)
    elif format == "svg":
        payload = _render_svg(d)
    else:
        raise ValueError(f"format must be 'text' or 'svg', not '{format}'")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="obfloer",
        description="Decide whether an open book's contact class vanishes.")
    sub = parser.add_subparsers(dest="command", required=True)
    chk = sub.add_parser("check", help="check one open book file")
    chk.add_argument("file")
    chk.add_argument("--lazy", action="store_true",
                     help="flatten only next to the page crossings first")
    chk.add_argument("--rank", action="store_true",
                     help="also compute the homology rank (full complex)")
    chk.add_argument("--trace", action="store_true",
                     help="print one line per flattening move")
    chk.add_argument("--export-pre", metavar="PATH",
                     help="write the diagram before flattening")
    chk.add_argument("--export-post", metavar="PATH",
                     help="write the diagram after flattening")
    chk.add_argument("--format", choices=("text", "svg"), default=None,
                     help="export format (default text)")
    args = parser.parse_args(argv)
    code, _report = run_check(
        args.file, lazy=args.lazy, rank=args.rank, trace=args.trace,
        export_pre=args.export_pre, export_post=args.export_post,
        fmt=args.format)
    return code


__all__ = ["OpenBookFile", "Report", "export_diagram", "main", "parse_input",
           "run_check"]


if __name__ == "__main__":
    sys.exit(main())
