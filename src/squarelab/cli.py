"""Command-line interface: generate, find, verify, scan, measure.

One executable (`squarelab`) with verb subcommands.  Set data goes to stdout
or --out files in the plain-text formats of :mod:`squarelab.core_sets`;
diagnostics and the one-line JSON summaries of `find` go to stderr.  Exit
status: 0 success, 1 a verification/bound check failed, 2 usage, parameter,
format, or budget errors.

Parsing the command line loads no numpy and no other squarelab module: each
handler imports the modules its command runs when it is called, core_sets
among them, so `--help`, a usage error and each command load only what they
use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import DEFAULT_SEED, _FAMILIES, _VERIFY_PARAMS, _main_lemma

if TYPE_CHECKING:
    from .core_sets import IntSet1D, PointSet2D

__all__ = ["main", "build_parser", "run"]


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning as one stderr line, in the form of the error lines."""
    _say(f"warning: {message}")


def _write(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or its blocks one at a time, to the file at `path`."""
    with open(path, "w") as f:
        f.writelines((text,) if isinstance(text, str) else text)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines((text,) if isinstance(text, str) else text)
    else:
        _write(out, text)
        _say(f"wrote {out}")


def _read_intset(path: str) -> IntSet1D:
    from .core_sets import parse_intset_text
    return parse_intset_text(Path(path), source=path)


def _read_pointset(path: str) -> PointSet2D:
    from .core_sets import parse_pointset_text
    return parse_pointset_text(Path(path), source=path)


# ---------------------------------------------------------------------------
# gen

def _cmd_gen_set(gen: str, param: str, what: str, args: argparse.Namespace) -> int:
    """Write the set that the generator named `gen` builds from `param`."""
    from . import constructions as cons
    from .core_sets import _format_blocks
    value = getattr(args, param)
    s = getattr(cons, gen)(value)
    _emit(_format_blocks(s.as_array()[:, None], f"{what} {value}, {len(s)} elements"),
          args.out)
    return 0


def _cmd_gen_example(gen: str, noun: str, args: argparse.Namespace) -> int:
    """Write the point set B and the center grid S of a `noun` example."""
    from . import constructions as cons
    from .core_sets import _format_blocks
    b, s = getattr(cons, gen)(args.k)
    _write(args.out_b, _format_blocks(b.as_array(), f"{noun} example points, level {args.k}"))
    _write(args.out_s, _format_blocks(s.as_array(), f"{noun} example centers, level {args.k}"))
    _say(f"wrote {args.out_b} ({len(b)} points) and {args.out_s} ({len(s)} centers)")
    return 0


def _cmd_gen_cantor(args: argparse.Namespace) -> int:
    from . import constructions as cons
    from .core_sets import _FORMAT_BLOCK, _format_blocks
    trunc = cons.gen_cantor_truncation(args.s, args.p)
    side = args.which
    if trunc.mode == "exact":
        chosen = trunc.a_set if side == "a" else trunc.t_set
        _emit(_format_blocks(chosen.as_array()[:, None],
                             f"cantor truncation {side}-side, s={trunc.s}, "
                             f"depth {trunc.depth}, scale {trunc.scale}"), args.out)
    else:
        vals = trunc.a_floats if side == "a" else trunc.t_floats
        header = (f"# cantor truncation {side}-side, s={trunc.s}, depth {trunc.depth}, "
                  f"float mode, abs error <= {trunc.error_bound:.3e}\n")
        _emit(chain([header], ("\n".join(map(repr, vals[i:i + _FORMAT_BLOCK].tolist())) + "\n"
                               for i in range(0, len(vals), _FORMAT_BLOCK))), args.out)
        _say("float mode: output is a report, not a round-trippable integer set")
    return 0


def _cmd_gen_countable(args: argparse.Namespace) -> int:
    from . import constructions as cons
    from .core_sets import _format_blocks
    trunc = cons.gen_countable_truncation(args.alpha, args.K)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"alpha": trunc.alpha, "K": trunc.K, "scale": trunc.scale, "blocks": []}
    for blk in trunc.blocks:
        s_file, b_file = f"block{blk.k}_s.txt", f"block{blk.k}_b.txt"
        _write(out / s_file, _format_blocks(blk.centers.as_array(),
                                            f"block {blk.k} centers (scaled)"))
        _write(out / b_file, _format_blocks(blk.boundary_set.as_array(),
                                            f"block {blk.k} strip points (scaled)"))
        manifest["blocks"].append({
            "k": blk.k, "n": blk.n, "factor": blk.factor,
            "offset": list(blk.offset), "s_file": s_file, "b_file": b_file,
            "s_size": len(blk.centers), "b_size": len(blk.boundary_set),
        })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    _say(f"wrote {len(trunc.blocks)} blocks and manifest.json under {out}")
    return 0


def _cmd_gen_splice(args: argparse.Namespace) -> int:
    from . import constructions as cons
    from .core_sets import (FormatError, PointSet2D, _decode_text, format_intset_text,
                            format_pointset_text, make_intset)
    try:
        raw = json.loads(_decode_text(Path(args.patterns).read_bytes(), args.patterns))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not JSON: {exc.msg}", source=args.patterns,
                          lineno=exc.lineno) from None
    patterns = raw.get("patterns") if isinstance(raw, dict) else raw
    shape_ok = isinstance(patterns, list) and all(isinstance(lvl, list) for lvl in patterns)
    if shape_ok and args.d == 2:
        shape_ok = all(isinstance(cell, list) for lvl in patterns for cell in lvl)
    if not shape_ok:
        raise FormatError("expected a list of per-level cell lists ([x, y] cells for "
                          "--d 2), or an object with one under 'patterns'",
                          source=args.patterns)
    cells = cons.splice_En(patterns, args.a, d=args.d)
    _emit(format_intset_text(make_intset(cells)) if args.d == 1
          else format_pointset_text(PointSet2D(cells)), args.out)
    return 0


# ---------------------------------------------------------------------------
# find

def _find(args: argparse.Namespace, size: int, m: int | None, find) -> int:
    """Call the finder once: print the count (mode='count') or the rows of
    the centers in ascending order, then the JSON summary of the bound
    |S|**3 <= 16 * m**4, decided exactly (none when m is None)."""
    from .core_sets import _format_blocks
    if args.count:
        count = find(mode="count")
        _emit(f"{count}\n", args.out)
    else:
        found = find(mode="enumerate")
        count = len(found)
        _emit(_format_blocks(found.as_array()), args.out)
    lhs, rhs = (0, 0) if m is None else _main_lemma(count, m)
    bound_ok = lhs <= rhs
    line = json.dumps({"input_size": size, "centers": count,
                       "bound": None if m is None else float(2 * m) ** (4 / 3),
                       "bound_ok": bound_ok})
    _say(line)
    if args.summary:
        Path(args.summary).write_text(line + "\n")
    return 0 if bound_ok else 1


def _cmd_find_centers1d(args: argparse.Namespace) -> int:
    from .finders import find_centers_1d
    a = _read_intset(getattr(args, "in"))
    return _find(args, len(a), len(a) ** 2, partial(find_centers_1d, a))


def _cmd_find_vertices(args: argparse.Namespace) -> int:
    from .finders import find_vertex_centers_2d
    b = _read_pointset(getattr(args, "in"))
    return _find(args, len(b), len(b), partial(find_vertex_centers_2d, b))


def _cmd_find_boundaries(args: argparse.Namespace) -> int:
    from .finders import _check_r_max, find_boundary_centers_2d
    _check_r_max(args.rmax)  # before the input, which can run to millions of lines
    b = _read_pointset(getattr(args, "in"))
    # No per-run counting theorem pins boundary pairs; the summary stays vacuous.
    return _find(args, len(b), None, partial(find_boundary_centers_2d, b, args.rmax))


# ---------------------------------------------------------------------------
# verify / scan / measure

def _cmd_verify(args: argparse.Namespace) -> int:
    from .bounds_report import build_report, verify_construction
    params = {name: getattr(args, name) for name in _VERIFY_PARAMS[args.target]}
    seed = getattr(args, "seed", None)  # only `verify an` samples
    checks = verify_construction(args.target, seed=seed, **params)
    if seed is not None and checks[0].sizes["exhaustive"]:
        seed = None  # an exhaustive replay draws nothing
    report = build_report(f"verify:{args.target}", checks, seed=seed)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    bad = [c for c in checks if not c.ok]
    for c in bad:
        _say(f"FAILED {c.name}: lhs={c.lhs} rhs={c.rhs}")
    return 1 if bad else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .bounds_report import build_report, family_scan
    ks = list(range(args.kmin, args.kmax + 1))
    rep = family_scan(args.family, ks)
    if args.format == "csv":
        lines = ["param,n1,n2,slope,target"]
        slope_by_hi = {s.hi: s for s in rep.slopes}
        for param, n1, n2 in rep.rows:
            s = slope_by_hi.get(param)
            slope_txt = "" if s is None or not s.ok else f"{s.slope:.6f}"
            lines.append(f"{param},{n1},{n2},{slope_txt},{rep.target:.6f}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        report = build_report(f"scan:{args.family}", [], reports=[rep])
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    from .dimension_lab import _check_length, covering_count_1d
    _check_length(args.len)  # before the input, as `find boundaries` checks --rmax
    a = _read_intset(getattr(args, "in"))
    _emit(f"{covering_count_1d(a, args.len)}\n", args.out)
    return 0


def _cmd_boxcount(args: argparse.Namespace) -> int:
    from .dimension_lab import _check_level, dyadic_box_count_2d
    levels = [_check_level(m) for m in args.m]  # every level before the input
    pts = _read_pointset(getattr(args, "in"))
    if len(levels) == 1:
        _emit(f"{dyadic_box_count_2d(pts, levels[0])}\n", args.out)
    else:
        lines = ["scale,count"]
        lines += [f"{m},{dyadic_box_count_2d(pts, m)}" for m in levels]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_ratios(args: argparse.Namespace) -> int:
    from .dimension_lab import falconer_ratios
    rows = falconer_ratios(args.s, args.jmax, args.which, sequence=args.sequence)
    lines = ["j,ratio,target"]
    lines += [f"{r.j},{r.value:.9f},{r.target:.9f}" for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _int_list(text: str) -> list[int]:
    """A comma list of integers, as --a and --m take them."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squarelab",
        description="Generate, search, and verify discrete axis-parallel "
                    "square configurations.")
    sub = parser.add_subparsers(dest="command")

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output here instead of stdout")

    gen = sub.add_parser("gen", help="generate a construction").add_subparsers(
        dest="what")

    g = gen.add_parser("dk", help="level-k digit set")
    g.add_argument("--k", type=int, required=True)
    add_out(g)
    g.set_defaults(func=partial(_cmd_gen_set, "gen_Dk", "k", "digit set, level"))

    g = gen.add_parser("an", help="depth-p interpolating set")
    g.add_argument("--p", type=int, required=True)
    add_out(g)
    g.set_defaults(func=partial(_cmd_gen_set, "gen_AN", "p", "interpolating set, depth"))

    g = gen.add_parser("vertex-example", help="square-vertex example (B, S)")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--out-b", required=True, help="file for the point set B")
    g.add_argument("--out-s", required=True, help="file for the center grid S")
    g.set_defaults(func=partial(_cmd_gen_example, "gen_vertex_example", "vertex"))

    g = gen.add_parser("boundary-example", help="square-boundary example (B, S)")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--out-b", required=True)
    g.add_argument("--out-s", required=True)
    g.set_defaults(func=partial(_cmd_gen_example, "gen_boundary_example", "boundary"))

    g = gen.add_parser("cantor", help="Cantor-type truncation (scaled integer sets)")
    g.add_argument("--s", required=True, help="dimension parameter, e.g. 2 or 8/5")
    g.add_argument("--p", type=int, required=True, help="truncation depth")
    g.add_argument("--which", choices=("a", "t"), default="a",
                   help="emit the sparse (a) or full (t) side")
    add_out(g)
    g.set_defaults(func=_cmd_gen_cantor)

    g = gen.add_parser("countable", help="scaled block family (writes a directory)")
    g.add_argument("--alpha", type=int, required=True)
    g.add_argument("--K", type=int, required=True, help="number of blocks")
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=_cmd_gen_countable)

    g = gen.add_parser("splice", help="concatenate dyadic cell patterns")
    g.add_argument("--patterns", required=True,
                   help="JSON file: list of per-level cell lists")
    g.add_argument("--a", type=_int_list, required=True,
                   help="depth checkpoints, e.g. 0,2,4")
    g.add_argument("--d", type=int, choices=(1, 2), default=1)
    add_out(g)
    g.set_defaults(func=_cmd_gen_splice)

    find = sub.add_parser("find", help="search a set file for square centers"
                          ).add_subparsers(dest="what")

    def add_find_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", required=True, help="input set file")
        p.add_argument("--count", action="store_true",
                       help="print only the center count")
        p.add_argument("--summary", help="also write the JSON summary here")
        add_out(p)

    f = find.add_parser("centers1d", help="common-radius center pairs of a 1D set")
    add_find_common(f)
    f.set_defaults(func=_cmd_find_centers1d)

    f = find.add_parser("vertices", help="four-corner square centers in a 2D set")
    add_find_common(f)
    f.set_defaults(func=_cmd_find_vertices)

    f = find.add_parser("boundaries", help="full square boundaries in a 2D set")
    add_find_common(f)
    f.add_argument("--rmax", type=int, required=True, help="largest radius to try")
    f.set_defaults(func=_cmd_find_boundaries)

    ver = sub.add_parser("verify", help="replay a construction's defining property"
                         ).add_subparsers(dest="target")
    for target, names in _VERIFY_PARAMS.items():
        v = ver.add_parser(target)
        for name in names:
            v.add_argument(f"--{name}", type=int, required=True)
        if target == "an":
            v.add_argument("--seed", type=int, default=DEFAULT_SEED)
        add_out(v)
        v.set_defaults(func=_cmd_verify)

    sc = sub.add_parser("scan", help="size-law scan across a family")
    sc.add_argument("--family", required=True, choices=_FAMILIES)
    sc.add_argument("--kmin", type=int, required=True)
    sc.add_argument("--kmax", type=int, required=True)
    sc.add_argument("--format", choices=("csv", "json"), default="csv")
    add_out(sc)
    sc.set_defaults(func=_cmd_scan)

    c = sub.add_parser("cover", help="minimal interval cover count of a 1D set")
    c.add_argument("--in", required=True)
    c.add_argument("--len", type=int, required=True, help="interval length")
    add_out(c)
    c.set_defaults(func=_cmd_cover)

    c = sub.add_parser("boxcount", help="dyadic box count of a 2D set")
    c.add_argument("--in", required=True)
    c.add_argument("--m", type=_int_list, required=True,
                   help="level, or comma list of levels for a CSV table")
    add_out(c)
    c.set_defaults(func=_cmd_boxcount)

    c = sub.add_parser("ratios", help="finite dimension-ratio table (CSV)")
    c.add_argument("--s", required=True, help="dimension parameter, e.g. 2 or 8/5")
    c.add_argument("--jmax", type=int, required=True)
    c.add_argument("--which", choices=("upper", "lower"), required=True)
    c.add_argument("--sequence", choices=("t", "a"), default="t",
                   help="full digit boxes (t) or sparse digit sets (a)")
    add_out(c)
    c.set_defaults(func=_cmd_ratios)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_help(sys.stderr)
        return 2
    from .core_sets import SquareLabError
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return func(args)
        except (SquareLabError, OSError) as exc:
            _say(f"error: {exc}")
            return 2


def run() -> None:
    """The process entry of `squarelab` and `python -m squarelab.cli`: main(),
    then os._exit with its status once stdout and stderr are flushed, skipping
    the interpreter's teardown (every file a command writes is closed by then)."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # the reader left before the last block: as main reports it
        if code == 0:
            _say(f"error: {exc}")
            code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
