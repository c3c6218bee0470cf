"""Scenario-driven command line.

Every subcommand loads a scenario file, brings the simulated cluster to
convergence, then performs its action. Exit codes: 0 success, 1 the
operation ran but failed (lost pings, convergence failure, rejected
input), 2 bad usage or an invalid scenario/policy file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .bgp import parse_policy_file
from .errors import SimError, ValidationError
from .graph import VECTOR_MAX
from .scenario import load_scenario
from .sim import Simulation, load_configmap_docs

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _boot(args) -> Simulation:
    return Simulation(load_scenario(args.scenario, args.mode, args.seed)).start()


def cmd_run(args) -> int:
    sim = _boot(args)
    print(sim.report_json())
    return EXIT_OK


def cmd_ping(args) -> int:
    if args.count < 1:
        raise ValidationError(f"--count {args.count} is not positive")
    sim = _boot(args)
    report = sim.ping(args.src, args.dst, count=args.count, family=args.family)
    print(
        f"{report.sent} sent, {report.delivered} delivered, "
        f"{report.dropped} dropped"
    )
    for reason in report.drop_reasons:
        print(f"drop: {reason}")
    return EXIT_OK if report.delivered == report.sent else EXIT_FAILED


def cmd_trace(args) -> int:
    sim = _boot(args)
    trace = sim.trace(args.src, args.dst, family=args.family)
    print(trace.render())
    return EXIT_OK if trace.deliver_node == sim.pods[args.dst].node else EXIT_FAILED


def cmd_show(args) -> int:
    sim = _boot(args)
    print(sim.show(args.node, args.what))
    return EXIT_OK


def cmd_inject(args) -> int:
    sim = _boot(args)
    for path in args.policy:
        update = parse_policy_file(Path(path).read_text(), path=path)
        sim.inject(update)
        print(f"injected policy bsid {update.bsid} endpoint {update.endpoint}")
    return EXIT_OK


def cmd_apply_configmap(args) -> int:
    sim = _boot(args)
    docs = load_configmap_docs(Path(args.file).read_text(), path=args.file)
    if not docs:
        print("no documents in file", file=sys.stderr)
        return EXIT_FAILED
    for line in sim.apply_configmaps(docs):
        print(line)
    return EXIT_OK


def cmd_bench(args) -> int:
    """Time ``--packets`` one-packet pings against one ping of that many
    packets, which the tx path runs in vectors of up to VECTOR_MAX."""
    if args.packets < 1:
        raise ValidationError(f"--packets {args.packets} is not positive")
    sim = _boot(args)
    lines, delivered = ["batch,packets,seconds,pps"], 0
    for batch, counts in ((1, [1] * args.packets), (VECTOR_MAX, [args.packets])):
        start = time.perf_counter()
        for count in counts:
            delivered += sim.ping(args.src, args.dst, count=count, family=args.family).delivered
        seconds = time.perf_counter() - start
        lines.append(f"{batch},{args.packets},{seconds:.6f},{args.packets / seconds:.1f}")
    print("\n".join(lines))
    return EXIT_OK if delivered == 2 * args.packets else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srv6sim", description="SRv6 overlay cluster simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_opts(p):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument(
            "--mode", choices=("bgp", "configmap"), help="override the control mode"
        )

    p = sub.add_parser("run", help="converge the scenario and print the report")
    scenario_opts(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ping", help="send pings between two pods")
    scenario_opts(p)
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--family", choices=("v4", "v6"), default="v6")
    p.set_defaults(func=cmd_ping)

    p = sub.add_parser("trace", help="trace one packet between two pods")
    scenario_opts(p)
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--family", choices=("v4", "v6"), default="v6")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("show", help="show a node's SRv6 state")
    scenario_opts(p)
    p.add_argument("node")
    p.add_argument(
        "what", choices=("localsids", "policies", "steering", "encap-source")
    )
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("inject", help="inject SR policies from files")
    scenario_opts(p)
    p.add_argument("--policy", action="append", required=True, help="policy YAML")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("apply-configmap", help="apply policy documents")
    scenario_opts(p)
    p.add_argument("--file", required=True, help="document or manifest YAML")
    p.set_defaults(func=cmd_apply_configmap)

    p = sub.add_parser("report", help="print the converged-state report")
    scenario_opts(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="time pings at batch 1 and 256 on a converged scenario")
    scenario_opts(p)
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--packets", type=int, default=4096)
    p.add_argument("--family", choices=("v4", "v6"), default="v6")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
