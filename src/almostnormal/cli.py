"""Command line front end.

Every artifact (matrix JSON, report JSON, CSV table) embeds the resolved
configuration that produced it, so a rerun with the same arguments is byte
identical.  Exit codes: 0 success, 2 usage or validation failure, 3 domain
failure (input violates a mathematical precondition, e.g. not normal).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import fileio
from .core import (
    normal_spectral_decomp,
    normality_defect,
    operator_norm,
    self_commutator,
)
from .errors import DomainError, NotNormal
from .experiments import (
    SCATTER_COLUMNS,
    TRUNCATE_COLUMNS,
    GridSpec,
    laurent_truncation_model,
    pseudospectrum,
    truncation_scaling,
    f_scatter,
)
from .fileio import ARTIFACT_VERSION
from .gallery import (
    EnsembleSpec,
    _comm_bound,
    _real,
    almost_commuting_pair,
    laurent_multiplication,
    perturbed_normal,
    shift_example,
)
from .nearest import MAX_SWEEPS, OBJ_TOL, nearest_normal
from .partition import Cover, OpenDisc, OpenSquare, finite_spectrum_approx, square_cover
from .surgery import (
    Affine,
    BoundaryPush,
    RadialCollapse,
    graph_normal_approx,
    remove_arc,
    remove_region,
    transport,
)


# ---------------------------------------------------------------- argument types

def _complex_arg(text: str) -> complex:
    """'re' or 're,im'."""
    try:
        return fileio.parse_complex(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _list_arg(kind: str, convert, sep: str = ","):
    """argparse type: the nonempty list of convert(token) over the tokens
    of the text split at sep."""

    def parse(text: str) -> list:
        try:
            out = [convert(tok.strip()) for tok in text.split(sep) if tok.strip()]
        except (ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(f"cannot parse {kind} list {text!r}: {exc}") from None
        if not out:
            raise argparse.ArgumentTypeError(f"empty {kind} list")
        return out

    return parse


def _schatten_index(tok: str):
    """'inf' (or 'infinity', 'oo') as math.inf; integral values as int."""
    if tok.lower() in ("inf", "infinity", "oo"):
        return math.inf
    val = float(tok)
    return int(val) if val == int(val) else val


_complex_list_arg = _list_arg("complex", _complex_arg, ";")
_real_coeff_list_arg = _list_arg("coefficient", _complex_arg)


def _coeff_list_arg(text: str) -> list[complex]:
    """Symbol coefficients: '0,0,1' (reals) or '1,0;0,0;1,0' (complex)."""
    return (_complex_list_arg if ";" in text else _real_coeff_list_arg)(text)


# ---------------------------------------------------------------- config echo

def _config(args: argparse.Namespace, **resolved) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg.update(resolved)
    return fileio._sanitize(cfg)


def _comments(cfg: dict, extra=()) -> list[str]:
    config = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return [f"version={ARTIFACT_VERSION}", f"config={config}", *extra]


def _meta(args: argparse.Namespace, **extra) -> dict:
    return {"version": ARTIFACT_VERSION, "config": _config(args), **extra}


# ---------------------------------------------------------------- gallery

def cmd_gallery_shift(args) -> None:
    a = shift_example(args.m)
    fileio.save_matrix(args.out, a, metadata=_meta(args))
    print(f"wrote {args.out} (shift contraction, dim {a.shape[0]})")


def cmd_gallery_pair(args) -> None:
    a, b = almost_commuting_pair(args.m)
    fileio.save_matrix(args.out_a, a, metadata=_meta(args, role="A"))
    fileio.save_matrix(args.out_b, b, metadata=_meta(args, role="B"))
    m = args.m
    # dense recomputation, independent of the structural certificates
    norm_a = operator_norm(a)
    norm_b = operator_norm(b)
    comm_bb = operator_norm(self_commutator(b))
    comm_ab = operator_norm(a @ b - b @ a)
    slack = 1e-9
    passed = (
        abs(norm_a - 1.0) <= 1e-12
        and norm_b <= 1.0 + 1e-12
        and comm_bb <= 4.0 / m + slack
        and comm_ab <= 2.0 / m + slack
    )
    payload = _meta(
        args,
        m=m,
        dim=a.shape[0],
        norm_a=norm_a,
        norm_b=norm_b,
        comm_self_b=comm_bb,
        comm_self_b_bound=4.0 / m,
        comm_ab=comm_ab,
        comm_ab_bound=2.0 / m,
        passed=passed,
    )
    if args.report:
        fileio.write_report(args.report, payload)
    print(
        f"wrote {args.out_a}, {args.out_b} (dim {a.shape[0]}); "
        f"||[B*,B]||={comm_bb:.6g} <= {4.0 / m:.6g}, "
        f"||[A,B]||={comm_ab:.6g} <= {2.0 / m:.6g}, passed={passed}"
    )
    if not passed:
        raise ArithmeticError("almost-commuting pair failed dense verification")


def cmd_gallery_perturbed(args) -> None:
    a = perturbed_normal(args.dim, args.delta, args.seed)
    fileio.save_matrix(args.out, a, metadata=_meta(args))
    print(f"wrote {args.out} (perturbed normal, dim {args.dim}, delta {args.delta})")


def cmd_gallery_laurent(args) -> None:
    g, a = laurent_multiplication(args.coeffs, args.K)
    bound = _comm_bound(args.coeffs)
    fileio.save_matrix(args.out_a, a, metadata=_meta(args, role="A", comm_bound=bound))
    fileio.save_matrix(args.out_g, g, metadata=_meta(args, role="G"))
    print(f"wrote {args.out_a}, {args.out_g} (dim {a.shape[0]}, ||[G,A]|| <= {bound:.6g})")


# ---------------------------------------------------------------- nearest

def cmd_nearest(args) -> None:
    a, _ = fileio.load_matrix(args.matrix)
    rep = nearest_normal(a, p_list=tuple(args.p), **_optimizer_args(args))
    payload = _meta(
        args,
        dim=a.shape[0],
        objective=rep.objective,
        frobenius_exact=rep.frobenius_exact,
        sweeps=rep.sweeps,
        converged=rep.converged,
        objective_history=rep.objective_history,
        restart_objectives=rep.restart_objectives,
        restart_sweeps=rep.restart_sweeps,
        restart_pivots=rep.restart_pivots,
        restart_stop_reasons=rep.restart_stop_reasons,
        restart_stationarity=rep.restart_stationarity,
        distances={str(p): v for p, v in rep.distances.items()},
        lower_bounds={str(p): v for p, v in rep.lower_bounds.items()},
        # which side of the true distance each number lies on
        directions={"frobenius_exact": "upper", "distances": "upper", "lower_bounds": "lower"},
    )
    fileio.write_report(args.report, payload)
    if args.witness:
        fileio.save_matrix(args.witness, rep.witness, metadata=_meta(args))
    if not rep.converged:
        print(
            f"warning: nearest did not converge: {rep.sweeps} sweeps used, "
            f"cap --max-sweeps {args.max_sweeps}",
            file=sys.stderr,
        )
    shown = ", ".join(f"p={p}: {v:.6g}" for p, v in rep.distances.items())
    print(
        f"wrote {args.report} (dim {a.shape[0]}, sweeps {rep.sweeps}, "
        f"frobenius_exact {rep.frobenius_exact:.6g}; witness distances {shown})"
    )


def _write_table(args, columns, rows) -> None:
    """The optimizer rows of truncate or scatter as a CSV, and a warning
    on stderr when some row's optimizer hit the sweep cap."""
    fileio.write_csv(
        args.out, columns, [[r[c] for c in columns] for r in rows],
        comments=_comments(_config(args)),
    )
    missed = sum(not r["converged"] for r in rows)
    if missed:
        print(
            f"warning: {args.command}: {missed} of {len(rows)} rows did not converge, "
            f"cap --max-sweeps {args.max_sweeps}",
            file=sys.stderr,
        )


# ---------------------------------------------------------------- partition

# region kind in a cover or report -> (region class, name of its size field)
REGION_KINDS = {"disc": (OpenDisc, "radius"), "square": (OpenSquare, "side")}


def _json_file(path):
    """The JSON document in path; nesting too deep to decode is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _cover_from_file(path) -> Cover:
    doc = _json_file(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("regions"), list):
        raise ValueError("cover JSON must be an object with a 'regions' list")
    regions = []
    for i, item in enumerate(doc["regions"]):
        if not isinstance(item, dict):
            raise ValueError(f"region {i}: expected an object, got {item!r}")
        kind = item.get("kind")
        if kind not in REGION_KINDS:
            raise ValueError(f"region {i}: unknown kind {kind!r} (want disc|square)")
        cls, size = REGION_KINDS[kind]
        try:
            x, y = (_real(item["center"][k], "center") for k in (0, 1))
            regions.append(cls(complex(x, y), _real(item[size], size)))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"region {i}: bad center or size: {exc}") from None
    return Cover(tuple(regions))


def _region_doc(region) -> dict:
    kind, size = next((k, f) for k, (cls, f) in REGION_KINDS.items() if isinstance(region, cls))
    return {
        "kind": kind,
        "center": [region.center.real, region.center.imag],
        size: getattr(region, size),
        "diameter": region.diameter(),
    }


def _write_move(args, move, matrix, report, **fields) -> None:
    """Write a spectrum move's output to the matrix path and its report, the
    fields beside the config, to the report path, each only where its path
    is given: the n x n output is built only when it is written."""
    if matrix:
        fileio.save_matrix(matrix, move.output, metadata=_meta(args))
    if report:
        fileio.write_report(report, _meta(args, **fields))


def cmd_partition(args) -> None:
    dec = normal_spectral_decomp(fileio.load_matrix(args.matrix)[0])
    if args.side is not None:
        cover = square_cover(dec.eigenvalues, args.side)
    else:
        cover = _cover_from_file(args.cover)
    fsa = finite_spectrum_approx(dec, cover)
    roi = fsa.resolution
    _write_move(
        args, fsa, args.approx, args.report,
        dim=dec.dim,
        regions=[_region_doc(r) for r in cover.regions],
        labels=roi.labels,
        assignment=roi.assignment,
        ranks=roi.ranks,
        multiplicity=roi.multiplicity,
        max_diameter=cover.max_diameter(),
        error_bound=fsa.bound,
        error_actual=fsa.perturbation_norm,
    )
    print(
        f"wrote {args.report} ({len(cover.regions)} regions, "
        f"error {fsa.perturbation_norm:.6g} <= bound {fsa.bound:.6g})"
    )


# ---------------------------------------------------------------- surgery

def cmd_surgery_remove(args) -> None:
    dec = normal_spectral_decomp(fileio.load_matrix(args.matrix)[0])
    disc = OpenDisc(center=args.center, radius=args.radius)
    if args.op == "remove-arc":
        res = remove_arc(dec, disc, args.e_minus, args.e_plus)
    else:
        res = remove_region(dec, disc, args.mu if args.mu is not None else disc.center)
    _write_move(args, res, args.out, args.report, moved_count=res.moved_count,
                perturbation_norm=res.perturbation_norm, bound=res.bound)
    print(
        f"wrote {args.out} (moved {res.moved_count} eigenvalues, "
        f"perturbation {res.perturbation_norm:.6g} <= {res.bound:.6g})"
    )


def cmd_surgery_transport(args) -> None:
    dec = normal_spectral_decomp(fileio.load_matrix(args.matrix)[0])
    if args.map == "affine":
        if args.a is None or args.b is None:
            raise ValueError("--map affine requires --a and --b")
        phi = Affine(a=args.a, b=args.b)
    elif args.map == "radial-collapse":
        if args.center is None or args.radius is None:
            raise ValueError("--map radial-collapse requires --center and --radius")
        phi = RadialCollapse(disc=OpenDisc(center=args.center, radius=args.radius))
    else:  # boundary-push
        if args.center is None or args.radius is None or args.anchor is None:
            raise ValueError("--map boundary-push requires --center, --radius, --anchor")
        phi = BoundaryPush(
            disc=OpenDisc(center=args.center, radius=args.radius), anchor=args.anchor
        )
    res = transport(dec, phi)
    _write_move(args, res, args.out, args.report, perturbation_norm=res.perturbation_norm,
                map=args.map)
    print(f"wrote {args.out} (map {args.map}, perturbation {res.perturbation_norm:.6g})")


def cmd_surgery_graph(args) -> None:
    dec = normal_spectral_decomp(fileio.load_matrix(args.matrix)[0])
    res = graph_normal_approx(dec, args.eps)
    out_norm = operator_norm(res.output)
    _write_move(
        args, res, args.out, args.report,
        **res.details,
        perturbation_norm=res.perturbation_norm,
        bound=res.bound,
        output_defect=normality_defect(res.output),
        output_norm=out_norm,
    )
    print(
        f"wrote {args.out} (graph approx, perturbation {res.perturbation_norm:.6g} "
        f"<= {res.bound:.6g}, output norm {out_norm:.6g})"
    )


# ---------------------------------------------------------------- truncate

def cmd_truncate(args) -> None:
    model = laurent_truncation_model(args.coeffs, args.K)
    rows = truncation_scaling(model, args.grid, **_optimizer_args(args))
    _write_table(args, TRUNCATE_COLUMNS, rows)
    n_pass = sum(r["passed"] for r in rows)
    print(f"wrote {args.out} ({len(rows)} levels, {n_pass}/{len(rows)} passed)")
    if n_pass != len(rows):
        raise ArithmeticError("a truncation inequality failed; see the CSV")


# ---------------------------------------------------------------- pseudospec

def cmd_pseudospec(args) -> None:
    # eps sets the default grid, so it is checked before the grid is built
    if not (args.eps > 0 and math.isfinite(args.eps)):
        raise ValueError(f"eps must be positive, got {args.eps}")
    a, _ = fileio.load_matrix(args.matrix)
    nrm = operator_norm(a)
    center = args.center if args.center is not None else 0j
    half_width = (
        args.half_width if args.half_width is not None else abs(center) + nrm + 2.0 * args.eps
    )
    grid = GridSpec(center=center, half_width=half_width, resolution=args.resolution)
    if args.reference is not None:
        ref = args.reference
    else:
        try:
            ref = normal_spectral_decomp(a).eigenvalues
        except NotNormal:
            ref = ()
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    rep = pseudospectrum(a, args.eps, grid, reference=ref, threads=threads)
    # threads is echoed as given: the core count changes no number
    cfg = _config(args, center=center, half_width=half_width, reference=ref)
    extra = [
        f"members={rep.members.size}",
        f"d_eps={fileio.format_float(rep.d_eps)}",
        f"grid_step={fileio.format_float(grid.step())}",
        f"evaluated={rep.evaluated}",
    ]
    rows = zip(rep.members.real.tolist(), rep.members.imag.tolist(), rep.sigma_min.tolist())
    fileio.write_csv(args.out, ("re", "im", "sigma_min"), rows, comments=_comments(cfg, extra))
    print(
        f"wrote {args.out} ({rep.members.size} members of the {args.eps:g}-pseudospectrum, "
        f"d_eps {rep.d_eps:.6g}, grid step {grid.step():.6g})"
    )
    print(f"sigma_min at {rep.evaluated} of {grid.resolution ** 2} grid points")


# ---------------------------------------------------------------- scatter

def _specs_from_file(path) -> list[EnsembleSpec]:
    doc = _json_file(path)
    if not isinstance(doc, list) or not doc:
        raise ValueError("ensemble spec JSON must be a nonempty list")
    specs = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "kind" not in item:
            raise ValueError(f"spec {i}: expected an object with a 'kind' field")
        params, seed = item.get("params") or {}, item.get("seed")
        if not isinstance(params, dict):
            raise ValueError(f"spec {i}: 'params' must be an object, got {params!r}")
        if not (seed is None or type(seed) is int and seed >= 0):  # a bool is not a seed
            raise ValueError(f"spec {i}: 'seed' must be a non-negative integer, got {seed!r}")
        specs.append(EnsembleSpec(kind=str(item["kind"]), params=dict(params), seed=seed))
    return specs


def cmd_scatter(args) -> None:
    if args.shift is not None:
        specs = [EnsembleSpec(kind="shift_example", params={"m": m}) for m in args.shift]
    else:
        specs = _specs_from_file(args.spec)
    rows = f_scatter(specs, **_optimizer_args(args))
    _write_table(args, SCATTER_COLUMNS, rows)
    print(f"wrote {args.out} ({len(rows)} scatter rows)")


# ---------------------------------------------------------------- parser

def _add_optimizer_args(p, restarts: int) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, default=restarts, help="random restarts")
    p.add_argument("--max-sweeps", type=int, default=MAX_SWEEPS, dest="max_sweeps",
                   help="per start, cap on Jacobi sweeps plus trust-region steps")
    p.add_argument("--obj-tol", type=float, default=OBJ_TOL, dest="obj_tol",
                   help="a start stops once its last sweep gained, or its next "
                        "trust-region step would gain, less than this times ||A||_F^2")


def _optimizer_args(args) -> dict:
    """The optimizer keywords of nearest, truncate and scatter."""
    return {"seed": args.seed, "restarts": args.restarts, "max_sweeps": args.max_sweeps,
            "obj_tol": args.obj_tol}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="almostnormal",
        description="Distance to normality: witnesses, bounds, spectrum surgery.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    # gallery
    g = sub.add_parser("gallery", help="generate benchmark matrices")
    gs = g.add_subparsers(dest="generator", required=True, metavar="generator")

    shift = gs.add_parser("shift", help="paired-shift contraction (even dim)")
    shift.add_argument("--m", type=int, required=True, help="dimension, even")
    shift.add_argument("--out", required=True, help="output matrix JSON")
    shift.set_defaults(func=cmd_gallery_shift)

    pair = gs.add_parser("pair", help="almost-commuting Hermitian/contraction pair")
    pair.add_argument("--m", type=int, required=True, help="commutator scale 1/m")
    pair.add_argument("--out-a", required=True, dest="out_a")
    pair.add_argument("--out-b", required=True, dest="out_b")
    pair.add_argument("--report", help="certificate report JSON")
    pair.set_defaults(func=cmd_gallery_pair)

    pert = gs.add_parser("perturbed", help="random normal plus a norm-delta bump")
    pert.add_argument("--dim", type=int, required=True)
    pert.add_argument("--delta", type=float, required=True)
    pert.add_argument("--seed", type=int, required=True)
    pert.add_argument("--out", required=True)
    pert.set_defaults(func=cmd_gallery_perturbed)

    lau = gs.add_parser("laurent", help="banded multiplication window (G, A)")
    lau.add_argument(
        "--coeffs", type=_coeff_list_arg, required=True,
        help="symbol coefficients c_-d..c_d: '0,0,1' or 're,im;re,im;...'",
    )
    lau.add_argument("--K", type=int, required=True, help="window half-size")
    lau.add_argument("--out-a", required=True, dest="out_a")
    lau.add_argument("--out-g", required=True, dest="out_g")
    lau.set_defaults(func=cmd_gallery_laurent)

    # nearest
    ne = sub.add_parser("nearest", help="witness distance to the normal matrices")
    ne.add_argument("--matrix", required=True, help="input matrix (JSON or CSV)")
    ne.add_argument("--p", type=_list_arg("p", _schatten_index), default=[1, 2, math.inf],
                    help="Schatten indices, e.g. '1,2,inf'")
    _add_optimizer_args(ne, restarts=4)
    ne.add_argument("--report", required=True, help="output report JSON")
    ne.add_argument("--witness", help="optional output matrix JSON for the witness")
    ne.set_defaults(func=cmd_nearest)

    # partition
    pa = sub.add_parser("partition", help="finite-spectrum approximant from a cover")
    pa.add_argument("--matrix", required=True, help="normal input matrix")
    grp = pa.add_mutually_exclusive_group(required=True)
    grp.add_argument("--side", type=float, help="lattice square side for an automatic cover")
    grp.add_argument("--cover", help="cover JSON ({'regions': [...]})")
    pa.add_argument("--report", required=True)
    pa.add_argument("--approx", help="optional output matrix JSON for the approximant")
    pa.set_defaults(func=cmd_partition)

    # surgery
    su = sub.add_parser("surgery", help="move spectrum of a normal matrix")
    ss = su.add_subparsers(dest="op", required=True, metavar="op")

    # the flags every op shares, and those of the two disc ops
    paths = argparse.ArgumentParser(add_help=False)
    paths.add_argument("--matrix", required=True)
    paths.add_argument("--out", required=True)
    paths.add_argument("--report")
    disc = argparse.ArgumentParser(add_help=False)
    disc.add_argument("--center", type=_complex_arg, required=True)
    disc.add_argument("--radius", type=float, required=True)

    rd = ss.add_parser("remove-disc", parents=[paths, disc],
                       help="push spectrum out of an open disc")
    rd.add_argument("--mu", type=_complex_arg, help="push anchor, default the center")
    rd.set_defaults(func=cmd_surgery_remove)

    ra = ss.add_parser("remove-arc", parents=[paths, disc],
                       help="snap chord spectrum to the chord endpoints")
    ra.add_argument("--e-minus", type=_complex_arg, required=True, dest="e_minus")
    ra.add_argument("--e-plus", type=_complex_arg, required=True, dest="e_plus")
    ra.set_defaults(func=cmd_surgery_remove)

    tr = ss.add_parser("transport", parents=[paths], help="apply a plane map to the spectrum")
    tr.add_argument("--map", choices=("affine", "radial-collapse", "boundary-push"),
                    required=True)
    tr.add_argument("--a", type=_complex_arg, help="affine scale")
    tr.add_argument("--b", type=_complex_arg, help="affine offset")
    tr.add_argument("--center", type=_complex_arg)
    tr.add_argument("--radius", type=float)
    tr.add_argument("--anchor", type=_complex_arg)
    tr.set_defaults(func=cmd_surgery_transport)

    gr = ss.add_parser("graph", parents=[paths], help="normal approximant with norm control")
    gr.add_argument("--eps", type=float, required=True)
    gr.set_defaults(func=cmd_surgery_graph)

    # truncate
    tu = sub.add_parser("truncate", help="spectral truncation inequalities and scaling")
    tu.add_argument("--coeffs", type=_coeff_list_arg, required=True,
                    help="symbol coefficients c_-d..c_d")
    tu.add_argument("--K", type=int, required=True)
    tu.add_argument("--grid", type=_list_arg("float", float), required=True,
                    help="ascending cutoff levels, e.g. '4,8,12,16'")
    _add_optimizer_args(tu, restarts=2)
    tu.add_argument("--out", required=True, help="output CSV")
    tu.set_defaults(func=cmd_truncate)

    # pseudospec
    ps = sub.add_parser("pseudospec", help="grid members of the eps-pseudospectrum")
    ps.add_argument("--matrix", required=True)
    ps.add_argument("--eps", type=float, required=True)
    ps.add_argument("--center", type=_complex_arg,
                    help="grid center, default 0")
    ps.add_argument("--half-width", type=float, dest="half_width",
                    help="default |center| + ||A|| + 2 eps")
    ps.add_argument("--resolution", type=int, default=201)
    ps.add_argument("--reference", type=_complex_list_arg,
                    help="reference set 're,im;re,im;...'; default sigma(A) when A is normal")
    ps.add_argument("--threads", type=int, help="worker threads, default cpu count")
    ps.add_argument("--out", required=True, help="output CSV")
    ps.set_defaults(func=cmd_pseudospec)

    # scatter
    sc = sub.add_parser("scatter", help="defect versus witness distance over an ensemble")
    grp = sc.add_mutually_exclusive_group(required=True)
    grp.add_argument("--spec", help="ensemble spec JSON (list of {kind, params, seed})")
    grp.add_argument("--shift", type=_list_arg("int", int),
                     help="shift-family dims, e.g. '2,4,8,16'")
    _add_optimizer_args(sc, restarts=2)
    sc.add_argument("--out", required=True, help="output CSV")
    sc.set_defaults(func=cmd_scatter)

    return p


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process: argparse takes some 35 times longer to build
    # it than to parse a command line, and parse_args leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the handler is looked up by name at each call, so one that is replaced
    # on this module after the parser was built (say, wrapped by a tracer)
    # still runs in its current form
    handler = globals()[args.func.__name__]
    try:
        handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
