"""
Command line interface.  One subcommand per operation; results go to
stdout, diagnostics to stderr.  Every command takes --format {text,json}.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

from .calc import _check_below, lr_coefficients, schubert, skew, skew_expansion
from .chains import chain_monomial, chain_to_json_obj, increasing_chains, padded_type
from .perms import Perm, all_perms, embed_all, perm_from_str, perm_to_str
from .poly import Poly, poly_to_json_obj, poly_to_text
from .rcgraphs import enumerate_rcgraphs, render_ascii, rcgraph_to_json_obj
from .verify import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser = argparse.ArgumentParser(
        prog="schub",
        description="Schubert polynomials, rc-graphs, labeled Bruhat chains, "
                    "and Littlewood-Richardson coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_: str, run, n: int | None = None) -> argparse.ArgumentParser:
        # --n stays off the shared parent, whose actions every subparser would share
        p = sub.add_parser(name, help=help_, parents=[common])
        p.add_argument("--n", type=int, default=n)
        p.set_defaults(run=run)
        return p

    p = add_parser("schubert", "Schubert polynomial of a permutation", cmd_schubert)
    p.add_argument("perm")
    p.add_argument("--method", choices=("chain", "rcgraph"), default="chain")

    p = add_parser("skew", "skew Schubert polynomial of w over u", cmd_skew)
    p.add_argument("w")
    p.add_argument("u")
    p.add_argument("--method", choices=("normalform", "chains", "lr"),
                   default="normalform")
    p.add_argument("--expand", action="store_true",
                   help="print the Schubert-basis expansion instead, always "
                        "as a JSON object")

    p = add_parser("lr", "Littlewood-Richardson coefficients of S_u * S_v", cmd_lr)
    p.add_argument("u", nargs="?")
    p.add_argument("v", nargs="?")
    p.add_argument("--all", action="store_true",
                   help="every ordered pair u, v of S_n (needs --n) instead of one")

    p = add_parser("rcgraphs", "enumerate the rc-graphs of w", cmd_rcgraphs)
    p.add_argument("w")
    p.add_argument("--render", choices=("json", "ascii"), default=None,
                   help="per-graph rendering (default follows --format)")

    p = add_parser("chains", "enumerate increasing chains from u to w", cmd_chains)
    p.add_argument("u")
    p.add_argument("w")
    p.add_argument("--type", dest="type_", default=None,
                   help="keep only chains of this type, e.g. 1,2,0")

    p = add_parser("verify", "run self-verification suites", cmd_verify, n=4)
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _resolve(perms: Sequence[str], n: int | None) -> tuple[list[Perm], int]:
    return embed_all([perm_from_str(s) for s in perms], n)


def _print_poly(p: Poly, n: int, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(poly_to_json_obj(p, n)))
    else:
        print(poly_to_text(p))


def cmd_schubert(args: argparse.Namespace) -> int:
    (w,), n = _resolve([args.perm], args.n)
    _print_poly(schubert(w, n, method=args.method), n, args.format)
    return 0


def cmd_skew(args: argparse.Namespace) -> int:
    (w, u), n = _resolve([args.w, args.u], args.n)
    if args.expand:
        expansion = skew_expansion(w, u, n)
        print(json.dumps(expansion.to_json_obj(), sort_keys=True,
                         separators=(",", ":")))
    else:
        _print_poly(skew(w, u, n, method=args.method), n, args.format)
    return 0


def _lr_pairs(args: argparse.Namespace) -> tuple[Iterable[tuple[Perm, Perm]], int]:
    if not args.all:
        if args.v is None:
            raise ValueError("lr needs two permutations u v, or --all")
        (u, v), n = _resolve([args.u, args.v], args.n)
        return [(u, v)], n
    if args.u is not None or args.n is None:
        raise ValueError("lr --all takes no permutations and needs --n")
    # lr_coefficients itself returns at once on the products that vanish
    return ((u, v) for u in all_perms(args.n) for v in all_perms(args.n)), args.n


def cmd_lr(args: argparse.Namespace) -> int:
    pairs, n = _lr_pairs(args)
    for u, v in pairs:
        us, vs = perm_to_str(u), perm_to_str(v)
        for w, c in lr_coefficients(u, v, n).to_json_obj().items():
            if args.format == "json":
                print(json.dumps({"n": n, "u": us, "v": vs, "w": w, "c": c}, sort_keys=True))
            elif args.all:
                print(f"{us} {vs} {w} {c}")
            else:
                print(f"{w} {c}")
    return 0


def cmd_rcgraphs(args: argparse.Namespace) -> int:
    (w,), n = _resolve([args.w], args.n)
    render = args.render or ("json" if args.format == "json" else "ascii")
    for i, graph in enumerate(enumerate_rcgraphs(w)):
        if render == "json":
            print(json.dumps(rcgraph_to_json_obj(graph)))
        else:  # blocks separated by a blank line
            print(("\n" if i else "") + render_ascii(graph))
    return 0


def _chain_text(chain) -> str:
    parts = [perm_to_str(chain.start)]
    for lab, p in zip(chain.labels, chain.perms[1:]):
        parts.append(f"--({lab[0]},{lab[1]})--> {perm_to_str(p)}")
    return " ".join(parts)


def cmd_chains(args: argparse.Namespace) -> int:
    (u, w), n = _resolve([args.u, args.w], args.n)
    _check_below(u, w)
    wanted = None
    if args.type_ is not None:
        wanted = padded_type([int(x) for x in args.type_.split(",")], n)
    for chain in increasing_chains(u, w):
        if wanted is not None and chain_monomial(chain) != wanted:
            continue
        if args.format == "json":
            print(json.dumps(chain_to_json_obj(chain)))
        else:
            print(_chain_text(chain))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    all_ok = True
    for suite in suites:
        report = run_suite(suite, n=args.n, seed=args.seed)
        all_ok = all_ok and report.passed
        if args.format == "json":
            print(json.dumps({
                "suite": report.suite, "n": report.n, "seed": report.seed,
                "checks": report.checks, "passed": report.passed,
                "status": report.status, "failures": report.failures[:20],
            }, sort_keys=True))
        else:
            print(f"{report.suite}: {report.status} ({report.checks} checks)")
        for failure in report.failures[:20]:
            print(f"  {failure}", file=sys.stderr)
    return 0 if all_ok else 1


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.n is not None and args.n < 1:
            raise ValueError("--n must be at least 1")
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
