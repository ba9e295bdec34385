"""Command-line front end tying construction, analysis, storage simulation,
and batch certification into reproducible runs.

Exit status contract: 0 all checks pass; 1 domain refusal (bad parameters
or command line, enumeration budget, unreadable input, failed
certification); 2 internal cross-check mismatch between enumeration and the
closed forms.

Each command imports the modules it runs when it runs, so `reconstruct`
loads no search code and `analyze` no field arithmetic.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .errors import FrepkitError, ParameterError, _decimal

BUDGET_ENV = "FREPKIT_BUDGET"

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_CROSS_CHECK = 2


def _integers(fields, source: str) -> list[int]:
    values = []
    for field in fields:
        try:
            values.append(_decimal(field))
        except ValueError:
            raise ParameterError(f"{source}: {field!r} is not an integer") from None
    return values


def _budget(args) -> int | None:
    """--budget, else FREPKIT_BUDGET (store has no flag), else the default."""
    if getattr(args, "budget", None) is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    return _integers([raw], BUDGET_ENV)[0] if raw else None


def _parse_nodes(text: str, flag: str) -> list[int]:
    return _integers(text.replace(",", " ").split(), flag)


def _int_option(text: str) -> int:
    """The type of every integer option: ASCII decimal, as in .frc files."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frepkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a code family and write a .frc file")
    p.add_argument("family", choices=["turan", "td", "cage", "plane"])
    p.add_argument("--n", type=_int_option, help="vertex count (turan)")
    p.add_argument("--r", type=_int_option, help="part count (turan)")
    p.add_argument("--rho", type=_int_option, help="block size / group count (td)")
    p.add_argument("--alpha", type=_int_option, help="group size (td)")
    p.add_argument("--name", help="cage name (cage)")
    p.add_argument("--q", type=_int_option, help="plane order (plane)")
    p.add_argument("--out", required=True, help="output .frc path")

    p = sub.add_parser("analyze", help="capacity profile of a .frc code")
    p.add_argument("code")
    p.add_argument("--k-max", type=_int_option, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--budget", type=_int_option, default=None)

    p = sub.add_parser("store", help="encode and persist a file as a DRESS system")
    p.add_argument("--code", required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--seed", type=_int_option, default=None, help="seed for a random file")
    p.add_argument("--file", default=None, help="path holding M whitespace-separated symbols")
    p.add_argument("--field-q", type=_int_option, default=None)

    p = sub.add_parser("reconstruct", help="recover the file from k nodes")
    p.add_argument("--root", required=True)
    p.add_argument("--nodes", required=True, help="comma-separated node ids")

    p = sub.add_parser("repair", help="plan (and run) a single-node repair")
    p.add_argument("--root", required=True)
    p.add_argument("--failed", type=_int_option, required=True)
    p.add_argument("--policy", default="lowest", help="lowest or spread (the same plan)")
    p.add_argument("--dead", default="", help="additional dead node ids")
    p.add_argument("--plan-only", action="store_true")

    p = sub.add_parser("batch", help="batch retrievability of a .frc code")
    p.add_argument("code")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-t", action="store_true")
    group.add_argument("--t", type=_int_option, default=None)
    p.add_argument("--budget", type=_int_option, default=None)

    p = sub.add_parser("certify-frb", help="FRB parameter tuple with property checks")
    p.add_argument("code")
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--budget", type=_int_option, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _require(args: argparse.Namespace, names: list[str]) -> list:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise FrepkitError(f"--{name} is required for this family")
        values.append(value)
    return values


def _cmd_construct(args) -> int:
    from . import construct, incidence
    if args.family == "turan":
        n, r = _require(args, ["n", "r"])
        code = incidence.from_graph(construct.turan(n, r))
    elif args.family == "td":
        rho, alpha = _require(args, ["rho", "alpha"])
        code = incidence.from_design(construct.transversal_design(rho, alpha))
    elif args.family == "cage":
        (name,) = _require(args, ["name"])
        code = incidence.from_graph(construct.cage(name))
    else:
        (q,) = _require(args, ["q"])
        code = incidence.from_design(construct.projective_plane(q))
    incidence.save(code, args.out)
    print(f"wrote {args.out}: (n, theta, alpha, rho) = "
          f"({code.n}, {code.theta}, {code.alpha}, {code.rho})")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import analyze, incidence
    code = incidence.load(args.code)
    budget = _budget(args)
    profile = analyze.capacity_profile(code, k_max=args.k_max, budget=budget)
    sys.stdout.write(profile.to_json() if args.format == "json" else profile.to_text())
    problems = profile.cross_check()
    if problems:
        for problem in problems:
            print(f"cross-check failed: {problem}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    return EXIT_OK


def _cmd_store(args) -> int:
    from . import analyze, dress, incidence
    from .galois import GF, default_field_for
    code = incidence.load(args.code)
    field = GF(args.field_q) if args.field_q is not None else default_field_for(code.theta)
    budget = _budget(args)
    m_size = analyze.file_size(code, args.k, budget=budget)
    if args.file is not None:
        with open(args.file, encoding="ascii", errors="replace") as fh:
            symbols = _integers(fh.read().split(), args.file)
        seed = None
    else:
        seed = args.seed if args.seed is not None else 0
        rng = random.Random(seed)
        symbols = [rng.randrange(field.q) for _ in range(m_size)]
    system = dress.store(code, args.k, symbols, args.root, field=field, seed=seed,
                         budget=budget)
    print(f"stored {system.m_size} symbols over GF({system.field.q}) in "
          f"{system.code.n} node files of {system.code.alpha} symbols each "
          f"under {args.root}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    from . import dress
    nodes = _parse_nodes(args.nodes, "--nodes")
    recovered = dress.reconstruct(dress.load_system(args.root), nodes)
    print("file:", " ".join(str(v) for v in recovered))
    print("digest: matches manifest")
    return EXIT_OK


def _cmd_repair(args) -> int:
    from . import dress
    dead = _parse_nodes(args.dead, "--dead")
    system = dress.load_system(args.root)
    plan = dress.plan_repair(system, args.failed, policy=args.policy, dead=dead)
    for symbol, donor in plan.transfers:
        print(f"symbol {symbol} <- node {donor}")
    print(f"bandwidth: {plan.bandwidth} symbols from {plan.d} donors (beta={plan.beta})")
    if not args.plan_only:
        dress.execute_repair(system, plan)
        print(f"node {plan.failed} restored, checksum verified")
    return EXIT_OK


def _cmd_batch(args) -> int:
    from . import batch, incidence
    if args.t is not None and args.t < 1:
        raise ParameterError(f"--t: {args.t} is not a positive subset size")
    code = incidence.load(args.code)
    if args.t is not None and args.t > code.theta:
        raise ParameterError(f"--t: {args.t} exceeds the code's theta = {code.theta} symbols")
    budget = _budget(args)
    detail = batch.batch_t_detail(code, budget=budget)
    if args.max_t:
        print(f"t = {detail.t}")
        print(f"certificate: no deficient symbol set of size <= {detail.t} exists, "
              f"so every {detail.t}-subset is retrievable")
        if detail.witness is None:
            print(f"every symbol subset up to theta = {code.theta} is retrievable")
        else:
            print(f"maximality witness: symbols {list(detail.witness)} "
                  f"touch only nodes {list(detail.witness_nodes)}")
        return EXIT_OK
    if detail.t >= args.t:
        print(f"certified: every {args.t}-subset of symbols is retrievable "
              f"(exact t = {detail.t})")
        return EXIT_OK
    print(f"not retrievable at t = {args.t}: symbols {list(detail.witness)} "
          f"touch only nodes {list(detail.witness_nodes)}")
    return EXIT_REFUSED


def _cmd_certify_frb(args) -> int:
    from . import analyze, batch, incidence
    code = incidence.load(args.code)
    budget = _budget(args)
    cert = batch.frb_certify(code, args.k, budget=budget)
    if args.format == "json":
        import json  # here, so that a text certificate loads no json
        # the certification block joins the capacity report in one document
        profile = analyze.capacity_profile(code, budget=budget)
        doc = json.loads(profile.to_json())
        doc["frb"] = cert.to_json_dict()
        print(json.dumps(doc, sort_keys=True, indent=2))
        # M(k) reaches the two halves by two exact searches: file_size's and the profile's
        if args.k <= len(profile.rows) and profile.row(args.k).exact != cert.file_size:
            print(f"cross-check failed: M({args.k}) = {cert.file_size} in the certificate "
                  f"but {profile.row(args.k).exact} in the capacity profile", file=sys.stderr)
            return EXIT_CROSS_CHECK
    else:
        print(f"FRB tuple: {cert.tuple_str}")
        for (label, _), ok in zip(batch.FRB_PROPERTIES, cert.properties):
            print(f"property: {label}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if cert.all_properties_hold else EXIT_REFUSED


_HANDLERS = {
    "construct": _cmd_construct,
    "analyze": _cmd_analyze,
    "store": _cmd_store,
    "reconstruct": _cmd_reconstruct,
    "repair": _cmd_repair,
    "batch": _cmd_batch,
    "certify-frb": _cmd_certify_frb,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a cross-check mismatch here
        return EXIT_REFUSED if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except FrepkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
