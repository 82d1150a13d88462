"""Command surface: ``gmt-epi <command> [--chain FILE] [--config FILE] ...``.

Commands
--------
generate  write a generator chain file (``--kind`` plus ``--params`` JSON)
analyze   chain statistics: mass, size, boundary mass, cone check
excess    layer decomposition and cylindrical excess over a base plane
epi       the comparison-surface pipeline and its ratio report
moments   moment polynomials, first moment, trace at (x, r)
scan      multiscale flatness scan over support points
probe     almost-minimality probe against the cone competitor
verify    the full inequality suite, one row per check

Reports land in ``--out`` as a CSV table plus a JSON summary echoing the
command, configuration and seed.  Exit code 0 on success, 2 when a
hypothesis gate fails, 1 on errors, usage errors included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chainfile import load_chain, save_chain, write_report
from .chains import boundary, is_cone, mass, size
from .epi import EpiConfig, StageError, build_comparison
from .generators import KINDS, generate
from .groups import group_gap
from .layers import (ConstancyError, GeneralPositionError, align_base_to_chain,
                     cylindrical_excess, decompose_layers)
from .mono import Gauge, almost_minimal_probe
from .moments import moments_all, quad_form, select_plane
from .planes import OrientedPlane
from .scan import extract_graph, multiscale_scan
from .verify import run_verify

GATE_EXIT = 2


#: The scalar config keys and the Python type of their values; an int
#: also serves where a float is asked for.
_CONFIG_TYPES = {
    "seed": int, "radius": float, "r0": float, "depth": int, "max_points": int,
    "gauge_c": float, "gauge_alpha": float, "quick": bool,
    **{f.name: type(f.default) for f in dataclasses.fields(EpiConfig)},
}

#: The least value of each numeric config key, and whether it is excluded.
_CONFIG_LEAST = {"radius": (0, True), "r0": (0, True), "depth": (0, False), "max_points": (1, False)}

_JSON_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string", list: "an array",
               dict: "an object", type(None): "null"}


def _config(args, chain=None) -> dict:
    """The ``--config`` file's object with the seed added.  A top level
    that is not an object, a scalar key of the wrong type or out of its
    range, or an array key that is not an array of finite numbers of its
    shape for ``chain`` raises ``ValueError`` naming the file and the key."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config file {args.config}: the top level is {_JSON_KINDS[type(cfg)]}, not an object")
        for key, want in _CONFIG_TYPES.items():
            value = cfg.get(key, want())
            if type(value) is not want and not (want is float and type(value) is int):
                raise ValueError(f"config file {args.config}: {key!r} must be {_JSON_KINDS[want]}, "
                                 f"not {_JSON_KINDS[type(value)]}")
        for key, (least, strict) in _CONFIG_LEAST.items():
            value = cfg.get(key, least + 1)
            if not (math.isfinite(value) and (value > least if strict else value >= least)):
                raise ValueError(f"config file {args.config}: {key!r} must be "
                                 f"{f'a finite number > {least}' if strict else f'at least {least}'}, not {value}")
        # a point, points and the rows spanning the base plane; None is any
        # positive length
        m, n = (None, None) if chain is None else (chain.m, chain.n)
        for key, shape in (("x", (n,)), ("points", (None, n)), ("plane", (m, n))):
            if key in cfg and not _is_array(cfg[key], shape):
                text = ", ".join("k" if w is None else str(w) for w in shape) + ("," if len(shape) == 1 else "")
                raise ValueError(f"config file {args.config}: {key!r} must be an array of finite numbers "
                                 f"of shape ({text})")
    cfg.setdefault("seed", args.seed)
    return cfg


def _is_array(value, shape: tuple) -> bool:
    """Whether a JSON value is a nested array of finite numbers of
    ``shape``, where None allows any positive length."""
    a = np.array(value, dtype=object)
    fits = a.ndim == len(shape) and all(d == w or (w is None and d > 0) for d, w in zip(a.shape, shape))
    return fits and all(type(v) in (int, float) and math.isfinite(v) for v in a.flat)


def _need_chain(args):
    if not args.chain:
        raise SystemExit("this command needs --chain FILE")
    return load_chain(args.chain)


def cmd_generate(args) -> int:
    params = json.loads(args.params) if args.params else {}
    chain, meta = generate(args.kind, params, seed=args.seed)
    out = args.chain or os.path.join(args.out, f"{args.kind}.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    save_chain(out, chain, meta)
    print(f"wrote {out}: {len(chain)} simplices, mass {mass(chain):.6g}")
    return 0


def cmd_analyze(args) -> int:
    chain, meta = _need_chain(args)
    cfg = _config(args, chain)
    bd = boundary(chain)
    rows = [
        {"quantity": "terms", "value": len(chain)},
        {"quantity": "mass", "value": mass(chain)},
        {"quantity": "size", "value": size(chain)},
        {"quantity": "boundary_mass", "value": mass(bd)},
        {"quantity": "is_cone", "value": is_cone(chain)},
        {"quantity": "group_gap", "value": group_gap(chain.group)},
    ]
    summary = {r["quantity"]: r["value"] for r in rows}
    summary["metadata"] = meta
    write_report(args.out, "analyze", "analyze", cfg, rows, summary)
    print(f"analyze: mass {summary['mass']:.6g}, size {summary['size']:.6g}")
    return 0


def _base_plane(chain, cfg) -> OrientedPlane:
    if "plane" in cfg:
        return OrientedPlane.from_span(np.array(cfg["plane"], dtype=float))
    plane, _ = select_plane(quad_form(chain, np.zeros(chain.n), cfg.get("radius", 1.0)), chain.m)
    return plane


def cmd_excess(args) -> int:
    chain, _meta = _need_chain(args)
    cfg = _config(args, chain)
    plane = align_base_to_chain(_base_plane(chain, cfg), chain)
    try:
        decomp = decompose_layers(chain, plane, radius=cfg.get("radius", 1.0))
        exc = cylindrical_excess(decomp, radius=cfg.get("radius", 1.0))
    except (GeneralPositionError, ConstancyError) as err:
        print(f"excess gate failure: {err}", file=sys.stderr)
        return GATE_EXIT
    rows = [{"quantity": "cylindrical_excess", "value": exc},
            {"quantity": "layers", "value": len(decomp.domains)},
            {"quantity": "g0_norm", "value": decomp.g0_norm}]
    write_report(args.out, "excess", "excess", cfg, rows, {r["quantity"]: r["value"] for r in rows})
    print(f"excess: {exc:.6g} over {len(decomp.domains)} layers (||g0|| = {decomp.g0_norm:.6g})")
    return 0


def cmd_epi(args) -> int:
    chain, _meta = _need_chain(args)
    cfg = _config(args, chain)
    epi_cfg = EpiConfig(**{k: v for k, v in cfg.items() if k in EpiConfig.__dataclass_fields__})
    try:
        _s, rep = build_comparison(chain, epi_cfg)
    except StageError as err:
        print(f"pipeline gate failure: {err}", file=sys.stderr)
        return GATE_EXIT
    rows = [{"quantity": k, "value": getattr(rep, k)} for k in (
        "eps", "rho", "exc_P", "exc_S", "exc_P_zone", "exc_S_zone",
        "ratio_zone", "ratio_full", "lambda_theory", "cone_energy", "h_energy",
        "energy_ratio", "w1_sup", "plane_drift", "boundary_defect")]
    summary = {r["quantity"]: r["value"] for r in rows}
    summary["degenerate"] = rep.degenerate
    summary["notes"] = rep.notes
    write_report(args.out, "epi", "epi", cfg, rows, summary)
    if rep.degenerate:
        print("epi: input excess is at the numerical floor; ratio degenerate")
    else:
        print(f"epi: zone ratio {rep.ratio_zone:.4f}, full ratio {rep.ratio_full:.4f}, "
              f"lambda {rep.lambda_theory:.6f}")
    return 0


def cmd_moments(args) -> int:
    chain, _meta = _need_chain(args)
    cfg = _config(args, chain)
    x = np.array(cfg.get("x", [0.0] * chain.n), dtype=float)
    r = cfg.get("radius", 1.0)
    rec = moments_all(chain, x, r)
    rows = [{"quantity": "V", "value": rec.V},
            {"quantity": "V_hat", "value": rec.V_hat},
            {"quantity": "identity_gap", "value": rec.identity_gap},
            {"quantity": "trace_Q", "value": rec.trace_Q},
            {"quantity": "b_norm", "value": float(np.linalg.norm(rec.b_n))}]
    rows += [{"quantity": f"P{k}", "value": rec.P[k]} for k in range(5)]
    write_report(args.out, "moments", "moments", cfg, rows, {r_["quantity"]: r_["value"] for r_ in rows})
    print(f"moments: V {rec.V:.6g}, identity gap {rec.identity_gap:.2e}, tr Q {rec.trace_Q:.6g}")
    return 0


def cmd_scan(args) -> int:
    chain, meta = _need_chain(args)
    cfg = _config(args, chain)
    pts = cfg.get("points")
    if pts is None:
        verts = chain.vertex_array().reshape(-1, chain.n)
        step = max(1, len(verts) // cfg.get("max_points", 24))
        pts = verts[::step]
    pts = np.array(pts, dtype=float)
    r0 = cfg.get("r0", 0.1)
    depth = cfg.get("depth", 4)
    rep = multiscale_scan(chain, pts, r0, depth)
    rows = []
    for (pi, k), cell in sorted(rep.cells.items()):
        rows.append({
            "point": pi, "scale": k, "radius": cell.radius,
            "beta2": cell.beta2, "beta_inf": cell.beta_inf,
            "beta_inf_centered": cell.beta_inf_centered,
            "hausdorff": cell.hausdorff, "density": cell.density_ratio,
            "eta": cell.eta, "frame": cell.frame_found,
            "ambiguous": cell.ambiguous_plane,
        })
    certs = {}
    for pi in range(len(pts)):
        c = extract_graph(rep, chain, pi)
        certs[str(pi)] = {"ok": c.ok, "reason": c.reason, "eta_hat": c.eta_hat,
                          "exponent": c.fitted_exponent}
    write_report(args.out, "scan", "scan", cfg, rows, {"certificates": certs, "metadata": meta})
    ok = sum(1 for c in certs.values() if c["ok"])
    print(f"scan: {len(rows)} cells, {ok}/{len(certs)} graph certificates")
    return 0


def cmd_probe(args) -> int:
    chain, _meta = _need_chain(args)
    cfg = _config(args, chain)
    x = np.array(cfg.get("x", [0.0] * chain.n), dtype=float)
    r = cfg.get("radius", 0.5)
    xi = Gauge.power(cfg.get("gauge_c", 0.1), cfg.get("gauge_alpha", 1.0))
    rep = almost_minimal_probe(chain, x, r, [], xi)
    rows = [{"competitor": i, "mass_ratio": v} for i, v in enumerate(rep.ratios)]
    write_report(args.out, "probe", "probe", cfg, rows,
                 {"verdict": rep.verdict, "worst_ratio": rep.worst_ratio})
    print(f"probe: {rep.verdict} (worst mass ratio {rep.worst_ratio:.6f})")
    return 0 if rep.verdict == "not refuted" else GATE_EXIT


def cmd_verify(args) -> int:
    cfg = _config(args)
    if args.quick:
        cfg["quick"] = True
    rows = run_verify(seed=args.seed, quick=cfg.get("quick", False))
    table = [r.as_dict() for r in rows]
    passed = sum(r.passed for r in rows)
    write_report(args.out, "verify", "verify", cfg, table,
                 {"passed": passed, "total": len(rows)})
    width = max(len(r.name) for r in rows)
    for r in rows:
        print(f"{r.name:<{width}}  measured {r.measured:>12.5g}  bound {r.bound:>12.5g}  "
              f"{'pass' if r.passed else 'FAIL'}")
    print(f"verify: {passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else GATE_EXIT


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, so that exit code 2 means a failed gate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="gmt-epi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"gmt-epi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {}
    for name, fn in (("generate", cmd_generate), ("analyze", cmd_analyze),
                     ("excess", cmd_excess), ("epi", cmd_epi), ("moments", cmd_moments),
                     ("scan", cmd_scan), ("probe", cmd_probe), ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("--chain", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default="reports")
        p.add_argument("--seed", type=int, default=0)
        if name == "generate":
            p.add_argument("--kind", required=True, choices=KINDS)
            p.add_argument("--params", default=None, help="generator parameters as JSON")
        if name == "verify":
            p.add_argument("--quick", action="store_true", help="the quick suite; same as config quick: true")
        handlers[name] = fn
    args = parser.parse_args(argv)
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return GATE_EXIT
    except Exception as err:  # noqa: BLE001
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
