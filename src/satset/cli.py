"""Command-line interface.

Every command is deterministic given its full flag set (seeds included).
Every construction is proven saturating by the library, with one
independent recount, before it returns, so `construct` reports
"verified": true for any set it prints; a failed proof exits 1 with a
one-line message because it would mean a library bug, not bad luck.
Exit codes: 0 success/verified, 1 semantic failure (not saturating, bound
violated), 2 usage or input error.  `main` is the one place that turns a
`ValueError` the library raises into exit 2 with its message.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import baer, formulas, hypergraph, plane as plane_mod, saturation
from .gf import factor_prime_power
from .plane import ProjectivePlane, canonical_plane, load_plane, load_point_set
from .rng import generator_from_seed


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(text: str, output: str | None, parser) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:
        parser.error(f"cannot write output: {exc}")


def _check_destination(path: str | None, what: str, parser) -> None:
    """Refuse a path that cannot become a file before any work; it only looks."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        parser.error(f"cannot write {what}: {path} is not a file in an existing directory")


def _plane_order(value: str, parser, flag: str = "--q") -> int:
    if not value.strip():
        parser.error(f"empty order in {flag}")
    if (q := plane_mod._decimal(value)) is None:
        parser.error(f"{plane_mod._echo(value)} is not a prime power")
    if q < 2:       # factor_prime_power would echo it in full
        parser.error(f"{plane_mod._echo(str(q))} is not a prime power")
    plane_mod.check_table_bytes(q)    # cheap, so before the trial division
    factor_prime_power(q)
    return q


def _typed(kind):
    """argparse type for int (by `plane._decimal`) or float; `_echo` cuts a bad value."""
    def parse(value: str):
        try:
            parsed = plane_mod._decimal(value) if kind is int else kind(value)
        except ValueError:
            parsed = None
        if parsed is None:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {plane_mod._echo(repr(value))}")
        return parsed
    return parse


def _seed(value: str) -> int:
    """argparse type for every --seed: a non-negative integer."""
    if (seed := _typed(int)(value)) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {plane_mod._echo(str(seed))}")
    return seed


def _resolve_plane(args, parser) -> ProjectivePlane:
    if (args.q is None) == (args.plane is None):
        parser.error("exactly one of --q and --plane is required")
    if args.q is not None:
        return canonical_plane(_plane_order(args.q, parser))
    try:
        return load_plane(args.plane)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load plane file: {exc}")


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _trace_rows(trace):
    return [{"i": r.step, "point": r.point, "benefit": r.benefit,
             "r_before": r.r_before, "r_after": r.r_after,
             "skew_line": r.skew_line,
             "min_skew_intersection": r.min_skew_intersection}
            for r in trace]


def cmd_construct(args, parser) -> int:
    if args.method == "random" and args.seed is None:
        parser.error("--seed is required with --method random")
    for flag, value, method in (("--p", args.p, "random"), ("--variant", args.variant, "greedy"),
                                ("--stop-rule", args.stop_rule, "greedy"),
                                ("--cap", args.cap, "greedy"), ("--seed", args.seed, "random")):
        if value is not None and args.method != method:
            parser.error(f"{flag} only applies to --method {method}")
    if args.cap is not None and args.stop_rule != "step-cap":
        parser.error("--cap only applies with --stop-rule step-cap")
    if args.cap is not None and args.cap < 2:
        parser.error("--cap must be >= 2 (the starting pair is always in), "
                     f"got {plane_mod._echo(str(args.cap))}")
    _check_destination(args.output, "output", parser)
    pl = _resolve_plane(args, parser)

    variant = stop_rule = seed = None
    stats = None
    trace = []
    if args.method == "greedy":
        variant = args.variant or "skew"
        stop_rule = args.stop_rule or "benefit-floor"
        points, trace = saturation.greedy_construct(
            pl, variant=variant, stop_rule=stop_rule, step_cap=args.cap)
        if stop_rule == "step-cap":
            cap = formulas.default_step_cap(pl.q) if args.cap is None else args.cap
            stop_rule = f"step-cap:{cap}"
    elif args.method == "random":
        seed = args.seed
        points, stats = saturation.random_construct(pl, seed, args.p)
    else:
        points = baer.three_subline_construction(baer.baer_subplane(pl))

    doc = {
        "q": pl.q,
        "n": pl.n,
        "method": args.method,
        "variant": variant,
        "stop_rule": stop_rule,
        "seed": seed,
        "size": len(points),
        "points": sorted(points),
        "verified": True,
        "bound_theorem": formulas.theorem_bound(pl.q),
        "bound_lunelli_sce": float(_fmt(formulas.lunelli_sce_bound(pl.q))),
    }
    if stats is not None:
        doc["stats"] = {"X": stats.sample_size, "Y": stats.unsaturated_size}
    doc["trace"] = _trace_rows(trace)
    _emit(json.dumps(doc, indent=2) + "\n", args.output, parser)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args, parser) -> int:
    if args.random_trials < 0:
        parser.error("--random-trials must be >= 0")
    if args.random_trials and args.seed is None:
        parser.error("--seed is required with --random-trials")
    saturation.check_sample_bytes(args.random_trials)    # mc's ceiling, before any plane
    _check_destination(args.output, "output", parser)
    qs = []
    for tok in args.q_list.split(","):
        qs.append(_plane_order(tok.strip(), parser, "--q-list"))
    rows = ["q,lower_bound,theorem_bound,greedy_size,random_mean_size"]
    for q in qs:
        pl = canonical_plane(q)
        points, _ = saturation.greedy_construct(pl, variant="skew")
        mean_text = ""
        if args.random_trials:
            sizes = [len(saturation.random_construct(pl, args.seed + k)[0])
                     for k in range(args.random_trials)]
            mean_text = _fmt(float(np.mean(sizes)))
        rows.append(f"{q},{_fmt(formulas.lunelli_sce_bound(q))},"
                    f"{formulas.theorem_bound(q)},{len(points)},{mean_text}")
    _emit("\n".join(rows) + "\n", args.output, parser)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, parser) -> int:
    pl = _resolve_plane(args, parser)
    try:
        points = load_point_set(args.points)
        missing = sorted(saturation.unsaturated(pl, sorted(points)))  # names the lowest bad index
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load point set: {exc}")
    if not missing and len(points) >= 2:
        print(f"saturating: size={len(points)} q={pl.q}")
        return 0
    if len(points) < 2:
        print(f"not saturating: only {len(points)} points (need >= 2)")
    for p in missing:
        print(p)
    return 1


# ---------------------------------------------------------------------------
# mc / minsat / hypergraph / plane
# ---------------------------------------------------------------------------

def cmd_mc(args, parser) -> int:
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    saturation.check_sample_bytes(args.trials)    # before the plane is built
    if args.p is not None and not 0.0 <= args.p <= 1.0:
        parser.error(f"--p must lie in [0, 1], got {args.p}")
    pl = _resolve_plane(args, parser)
    p = args.p if args.p is not None else formulas.sampling_probability(pl.q)
    mean, stderr = saturation.monte_carlo_expectation(pl, p, args.trials, args.seed)
    formula = formulas.expected_unsaturated(pl.q, p) if p < 1.0 else 0.0
    print(f"q={pl.q} n={pl.n} p={_fmt(p)} trials={args.trials} seed={args.seed}")
    print(f"mean={_fmt(mean)} stderr={_fmt(stderr)}")
    print(f"formula={_fmt(formula)}")
    if stderr > 0:
        print(f"z={_fmt((mean - formula) / stderr)}")
    return 0


def cmd_minsat(args, parser) -> int:
    pl = _resolve_plane(args, parser)
    size, witness = saturation.minsat_bruteforce(pl)
    print(f"q={pl.q} n={pl.n}")
    print(f"minimum={size}")
    print("witness=" + " ".join(str(v) for v in sorted(witness)))
    print(f"lower_bound={_fmt(formulas.lunelli_sce_bound(pl.q))}")
    return 0


def cmd_hypergraph(args, parser) -> int:
    if args.s0_size < 2:
        parser.error("--s0-size must be >= 2")
    pl = _resolve_plane(args, parser)
    if args.s0_size > pl.n:
        parser.error(f"--s0-size cannot exceed {pl.n}")
    rng = generator_from_seed(args.seed)
    seed_set = set(int(v) for v in
                   rng.choice(pl.n, size=args.s0_size, replace=False))
    family = hypergraph.saturation_family(pl, seed_set)
    result = hypergraph.greedy_transversal(family)
    augmented = saturation._proven(pl, seed_set | set(result.vertices))
    print(f"q={pl.q} n={pl.n} s0_size={args.s0_size} seed={args.seed}")
    print("s0=" + " ".join(str(v) for v in sorted(seed_set)))
    print(f"m={len(family)}")
    if len(family) == 0:
        print("seed set already saturating; nothing to cover")
        return 0
    r, t = hypergraph.check_uniform_intersecting(family)
    print(f"r={r} t={t if t is not None else 'NA'}")
    ok = True
    if len(family) >= 2:
        verdict = hypergraph.intersection_lemma_holds(pl, family, seed_set)
        ok &= verdict
        print(f"lemma_check={'PASS' if verdict else 'FAIL'}")
    bound = (hypergraph.transversal_bound(r, t, len(family))
             if r is not None and len(family) >= 2 else None)
    print(f"transversal_size={len(result.vertices)} "
          f"bound={bound if bound is not None else 'NA'}")
    if bound is not None:
        ok &= len(result.vertices) <= bound
        # over any edge H, the sum of deg(v) for v in H is at least r + t(m-1)
        degree_floor = 1 + -(-t * (len(family) - 1) // r)
        print(f"first_pick_degree={result.covered_counts[0]} floor={degree_floor}")
        ok &= result.covered_counts[0] >= degree_floor
    # _proven proved it, so saturating is always True here
    print(f"augmented_size={len(augmented)} saturating=True")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Refuses a value outside the choices that `_echo` cuts by the cut value alone,
    without the choice list the usage line shows; subparsers inherit the class."""

    def _check_value(self, action, value):
        if (action.choices is not None and value not in action.choices
                and (cut := plane_mod._echo(repr(value))) != repr(value)):
            raise argparse.ArgumentError(action, f"invalid choice: {cut}")
        super()._check_value(action, value)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="satset",
        description="Construct and verify saturating sets in projective planes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_plane_args(p):
        p.add_argument("--q", help="prime-power order of the canonical plane")
        p.add_argument("--plane", help="path to a PLANE v1 incidence file")

    p_construct = sub.add_parser("construct", help="build a verified saturating set")
    add_plane_args(p_construct)
    p_construct.add_argument("--method", required=True,
                             choices=["greedy", "random", "baer"])
    p_construct.add_argument("--variant", choices=list(saturation.VARIANTS),
                             help="greedy only (default skew)")
    p_construct.add_argument("--stop-rule", choices=list(saturation.STOP_RULES),
                             help="greedy only (default benefit-floor)")
    p_construct.add_argument("--cap", type=_typed(int), help="step cap for --stop-rule step-cap")
    p_construct.add_argument("--seed", type=_seed, help="seed (required for random)")
    p_construct.add_argument("--p", type=_typed(float), help="sampling probability override")
    p_construct.add_argument("--output", help="write the JSON document here")

    p_bounds = sub.add_parser("bounds", help="CSV table of bounds and achieved sizes")
    p_bounds.add_argument("--q-list", required=True,
                          help="comma-separated prime powers")
    p_bounds.add_argument("--random-trials", type=_typed(int), default=0,
                          help="add a mean random-construction column")
    p_bounds.add_argument("--seed", type=_seed)
    p_bounds.add_argument("--output")

    p_verify = sub.add_parser("verify", help="check a point-set file for saturation")
    add_plane_args(p_verify)
    p_verify.add_argument("--points", required=True)

    p_mc = sub.add_parser("mc", help="Monte-Carlo estimate of the undetermined count")
    add_plane_args(p_mc)
    p_mc.add_argument("--p", type=_typed(float))
    p_mc.add_argument("--trials", type=_typed(int), required=True)
    p_mc.add_argument("--seed", type=_seed, required=True)

    p_minsat = sub.add_parser("minsat", help="exact minimum by exhaustive search")
    add_plane_args(p_minsat)

    p_hyper = sub.add_parser("hypergraph", help="saturation family diagnostics")
    add_plane_args(p_hyper)
    p_hyper.add_argument("--s0-size", type=_typed(int), required=True)
    p_hyper.add_argument("--seed", type=_seed, required=True)

    p_plane = sub.add_parser("plane", help="generate or check plane files")
    p_plane.add_argument("action", choices=["gen", "check"])
    p_plane.add_argument("--q")
    p_plane.add_argument("--file", required=True)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handler = {"construct": cmd_construct, "bounds": cmd_bounds,
               "verify": cmd_verify, "mc": cmd_mc, "minsat": cmd_minsat,
               "hypergraph": cmd_hypergraph, "plane": cmd_plane}[args.command]
    try:
        return handler(args, parser)
    except saturation.VerificationError as exc:
        print(f"satset: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))


def cmd_plane(args, parser) -> int:
    if args.action == "gen":
        if args.q is None:
            parser.error("plane gen needs --q")
        _check_destination(args.file, "plane file", parser)
        pl = canonical_plane(_plane_order(args.q, parser))
        try:
            plane_mod.save_plane(pl, args.file)
        except OSError as exc:
            parser.error(f"cannot write plane file: {exc}")
        print(f"wrote q={pl.q} plane ({pl.n} lines) to {args.file}")
        return 0
    if args.q is not None:
        parser.error("--q only applies to plane gen")
    try:
        pl = load_plane(args.file)
    except plane_mod.PlaneAxiomError as exc:
        print(exc)
        return 1
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load plane file: {exc}")
    print(f"plane file OK: q={pl.q} n={pl.n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
