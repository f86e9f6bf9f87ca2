"""Command-line surface.

All rationals are serialized as decimal numerator/denominator strings,
never floats, and reports are emitted with sorted keys so identical
(input, seed) pairs produce byte-identical output.

Exit codes: 0 success, 1 computational failure (with a machine-readable
diagnostic on stdout), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import library
from .errors import BistellarError, parsing
from .gamma2 import Gamma2Chain, decompose_cycle
from .pontryagin import XiCache, p1_dual_direct, p1_dual_local
from .reduction import reduce_to_boundary
from .simplicial import Complex, OrientedComplex, orient
from .spheres import is_combinatorial_manifold, is_combinatorial_sphere
from .sw import is_mod2_boundary, sw_duals


def _rat(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _load(path: str) -> Complex:
    K, _ = library.read_facet_file(path)
    return K


def _load_oriented(path: str) -> OrientedComplex:
    """The complex of a facet file with the file's orientation, if it gives
    one, else with the one ``orient`` propagates."""
    K, signs = library.read_facet_file(path)
    OK = orient(K)  # also rejects a complex that is no closed pseudomanifold
    return OK if signs is None else OrientedComplex(K, signs)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=None, separators=(",", ":")))
        return
    for key in sorted(report):
        print(f"{key}: {report[key]}")


def cmd_check(args) -> int:
    K = _load(args.complex)
    report = {
        "dimension": K.dim,
        "f_vector": list(K.f_vector),
        "euler_characteristic": K.euler_characteristic,
    }
    if K.dim <= 3:
        v = is_combinatorial_sphere(K, budget=args.budget, seed=args.seed)
        report["sphere"] = {True: "yes", False: "no", None: "unknown"}[v.verdict]
        report["sphere_reason"] = v.reason
    m = is_combinatorial_manifold(K, budget=args.budget, seed=args.seed)
    report["manifold"] = {True: "yes", False: "no", None: "unknown"}[m.verdict]
    report["manifold_reason"] = m.reason
    _emit(report, args.format)
    return 0


def cmd_reduce(args) -> int:
    seq = reduce_to_boundary(_load_oriented(args.complex), budget=args.budget, seed=args.seed)
    report = {"certificate": seq.to_json(), "length": len(seq.moves)}
    _emit(report, args.format)
    return 0


def cmd_sw(args) -> int:
    report = {"chains": []}
    # sw_duals raises unless every W_k is a cycle
    for k, ch in enumerate(sw_duals(_load(args.complex))):
        entry = {"degree": k, "simplex_count": len(ch.simplices), "is_cycle": True}
        if k == 1:
            entry["bounds"] = is_mod2_boundary(ch)
        report["chains"].append(entry)
    _emit(report, args.format)
    return 0


def cmd_p1(args) -> int:
    K = _load_oriented(args.complex)
    cache = XiCache(args.xi_cache)
    if args.procedure == "local":
        chain = p1_dual_local(K, budget=args.budget, seed=args.seed, cache=cache)
    else:
        chain = p1_dual_direct(K, budget=args.budget, seed=args.seed, cache=cache)
    if args.xi_cache:
        cache.save()
    report = {
        "procedure": args.procedure,
        "degree": chain.degree,
        "chain": [
            {"simplex": list(s), **_rat(v)} for s, v in sorted(chain.terms.items())
        ],
        "is_cycle": True,  # _p1_dual raises NotACycle otherwise
    }
    if K.dim == 4:
        report["p1_number"] = _rat(chain.total())
    _emit(report, args.format)
    return 0


def cmd_gamma2_decompose(args) -> int:
    with open(args.chain) as fh, parsing(args.chain):
        chain = Gamma2Chain.from_json(json.load(fh))
    parts = decompose_cycle(chain, order_seed=args.seed or None)
    report = {
        "value": _rat(sum((n * g.value for n, g in parts), Fraction(0))),
        "pieces": [
            {
                "coefficient": n,
                "kind": g.kind,
                "params": list(g.params),
                "sign": g.sign,
                **({"chain": g.chain.to_json()} if args.trace else {}),
            }
            for n, g in parts
        ],
    }
    _emit(report, args.format)
    return 0


def cmd_enumerate(args) -> int:
    from .enumeration import oriented_sphere_classes, spheres_by_expansion

    per = spheres_by_expansion(args.max_vertices)
    oriented = oriented_sphere_classes(per)
    report = {
        "unoriented_counts": {str(n): len(ks) for n, ks in per.items()},
        "oriented_counts": {str(n): oriented[n] for n in oriented},
    }
    _emit(report, args.format)
    return 0


def _common_flags() -> argparse.ArgumentParser:
    """Shared flags, accepted both before and after the subcommand.

    A flag given in both places takes the value given after the subcommand.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--xi-cache", default=argparse.SUPPRESS, help="path of the persistent xi/certificate store"
    )
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument(
        "--trace", action="store_true", default=argparse.SUPPRESS, help="include chain-level traces"
    )
    return common


def main(argv=None) -> int:
    # argparse shares a parent's Action objects with every parser built from
    # it, and set_defaults rewrites their `default`.  The top-level parser
    # therefore gets its own copy of the shared flags: if it shared `common`,
    # the defaults below would replace SUPPRESS in the subparsers too, and
    # each subparser would overwrite a flag given before the subcommand.
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="bistellar",
        description="Exact combinatorial characteristic classes from facet lists.",
        parents=[_common_flags()],
    )
    ap.set_defaults(seed=0, budget=4000, xi_cache=None, format="json", trace=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="sphere/manifold verdicts for a facet list")
    p.add_argument("complex")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reduce", parents=[common], help="reduction certificate to a simplex boundary")
    p.add_argument("complex")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("sw", parents=[common], help="Stiefel-Whitney dual chains mod 2")
    p.add_argument("complex")
    p.set_defaults(fn=cmd_sw)

    p = sub.add_parser("p1", parents=[common], help="Poincare dual of the first Pontryagin class")
    p.add_argument("procedure", choices=("local", "direct"))
    p.add_argument("complex")
    p.set_defaults(fn=cmd_p1)

    # the group parser needs its own copy too: a flag placed between
    # `gamma2` and `decompose` is parsed by the group parser
    p = sub.add_parser("gamma2", parents=[_common_flags()], help="move-graph chain utilities")
    g2 = p.add_subparsers(dest="subcommand", required=True)
    pd = g2.add_parser("decompose", parents=[common], help="decompose a cycle into elementary cycles")
    pd.add_argument("chain", help="JSON chain file")
    pd.set_defaults(fn=cmd_gamma2_decompose)

    p = sub.add_parser("enumerate-spheres", parents=[common], help="2-sphere classes by bistellar expansion")
    p.add_argument("--max-vertices", type=int, required=True)
    p.set_defaults(fn=cmd_enumerate)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BistellarError as exc:
        report = {"error": type(exc).__name__, "message": str(exc), **exc.diagnostics()}
        print(json.dumps(report, sort_keys=True))
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
