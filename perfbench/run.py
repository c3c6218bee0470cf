"""srv6sim benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload pod-traffic --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
runs the same rounds in untraced/traced pairs and prints every per-layer
metric plus the tracing overhead. Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record (environment, sample counts, digests, guard
failures) goes to ``perfbench/out/``, and the traced run's spans to a
gzipped JSON-lines file beside it.

The package is imported from ``src/`` under the current directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer, write_spans

OUT = Path(__file__).resolve().parent / "out"


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 when there is no sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class MissingPackage(Exception):
    pass


def import_package(root: Path):
    src = root / "src"
    if not (src / "srv6sim" / "__init__.py").is_file():
        raise MissingPackage(f"no package at {src / 'srv6sim'}; run from the repository root")
    sys.path.insert(0, str(src))
    import srv6sim
    import srv6sim.underlay  # noqa: F401  (submodules the benchmark reaches by attribute)

    if Path(srv6sim.__file__).resolve().parent != (src / "srv6sim").resolve():
        raise MissingPackage(f"imported srv6sim from {srv6sim.__file__}, not {src}")
    return srv6sim


def environment(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src_hash.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "src_sha256": src_hash.hexdigest(),
    }


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Check:
    """Correctness guards that span rounds."""

    def __init__(self):
        self.errors: list[str] = []
        self.state_digest = None
        self.by_seed: dict = {}

    def add(self, r) -> None:
        self.errors.extend(r.errors)
        if r.state_digest is None:
            return
        if self.state_digest is None:
            self.state_digest = r.state_digest
        elif r.state_digest != self.state_digest:
            self.errors.append(f"converged state differs under round seed {r.seed}")
        if r.report_digest is None:
            return
        outputs = (r.report_digest, json.dumps(r.counts, sort_keys=True))
        first = self.by_seed.setdefault(r.seed, outputs)
        if first != outputs:
            self.errors.append(f"round seed {r.seed} repeated with a different report or counts")


def measure(runner, seconds: float, trace: bool):
    """Run rounds (or untraced/traced round pairs) until ``seconds`` pass."""
    check = Check()
    setups = []  # (wall-clock seconds, scaled seconds)
    for i in range(workloads.EXTRA_SETUPS):
        _sim, *times = runner.setup(runner.scenario_text(workloads.round_seed(runner.seed, i)))
        if i:
            setups.append(times)
    rounds, traced, tracers = [], [], []
    started = time.perf_counter()
    k = 0
    while True:
        if trace:
            tracer = Tracer(runner.pkg)
            pair = []
            for traced_side in ((False, True) if k % 2 == 0 else (True, False)):
                if traced_side:
                    with tracer.installed():
                        pair.append((True, runner.run_round(k, tracer)))
                else:
                    pair.append((False, runner.run_round(k)))
            for is_traced, r in pair:
                (traced if is_traced else rounds).append(r)
                check.add(r)
            tracers.append(tracer)
        else:
            r = runner.run_round(k)
            rounds.append(r)
            check.add(r)
        k += 1
        elapsed = time.perf_counter() - started
        if k >= (1 if trace else runner.wl.min_rounds) and elapsed * (k + 1) / k > seconds:
            break
    setups.extend((wall, scaled) for r in rounds for kind, wall, scaled in r.timed if kind == "setup")
    return check, setups, rounds, traced, tracers


def e2e_metrics(setups, rounds, scaled: bool = True) -> dict:
    """End-to-end metrics from the (wall-clock, scaled) set-up times and the
    rounds' timed operations; ``scaled`` picks which of the two times."""
    pick = 1 if scaled else 0

    def times(kind: str) -> list:
        return [t[1 + pick] for r in rounds for t in r.timed if t[0] == kind]

    updates, pings, bulk_s = times("update"), times("ping"), sum(times("bulk"))
    delivered = sum(r.bulk_delivered for r in rounds)
    return {
        "setup_s": (percentile([t[pick] for t in setups], 50), "s"),
        "converge_s": (percentile(times("converge"), 50), "s"),
        "update_ms_p50": (percentile(updates, 50) * 1e3, "ms"),
        "update_ms_p95": (percentile(updates, 95) * 1e3, "ms"),
        "ping_ms_p50": (percentile(pings, 50) * 1e3, "ms"),
        "ping_ms_p95": (percentile(pings, 95) * 1e3, "ms"),
        "ping_pps": (delivered / bulk_s if bulk_s else 0.0, "1/s"),
        "peak_rss_mb": (workloads.peak_rss_mb(), "MB"),
    }


def layer_metrics(rounds, traced, tracers) -> dict:
    first, tracer = traced[0], tracers[0]
    totals = [t.layer_totals() for t in tracers]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (totals[0].get(layer, (0, 0.0))[0], "count")
        self_s = sum(t.get(layer, (0, 0.0))[1] for t in totals) / len(totals)
        metrics[f"{layer}.self_s"] = (self_s, "s")
    c = tracer.counts
    polls = totals[0].get("k8s.poll", (0, 0.0))[0]
    overheads = [t.work_s - u.work_s for t, u in zip(traced, rounds)]
    overhead = statistics.median(overheads)
    metrics.update({
        "sim.steps": (c["sim.steps"], "count"),
        "bgp.messages.step1": (c["bgp.messages.step1"], "count"),
        "bgp.messages.safi73": (c["bgp.messages.safi73"], "count"),
        "bgp.queue_depth.max": (tracer.queue_depth_max, "messages"),
        "agent.install_ratio": (first.counts.get("install_ratio", 0.0), "ratio"),
        "k8s.poll.useful_ratio": (c["k8s.poll.scan_units"] / polls if polls else 0.0, "ratio"),
        "graph.packets_per_vector": (
            c["graph.packets"] / c["graph.vectors"] if c["graph.vectors"] else 0.0, "packets"),
        "underlay.hops_per_packet": (
            c["underlay.hops"] / c["underlay.packets"] if c["underlay.packets"] else 0.0, "hops"),
        "dataplane.mutations": (first.counts.get("mutations", 0), "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_ratio": (overhead / statistics.median(u.work_s for u in rounds), "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        package = import_package(root)
    except MissingPackage as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    runner = workloads.Runner(package, wl, args.seed)
    check, setups, rounds, traced, tracers = measure(runner, args.seconds, bool(args.trace))

    everything = rounds + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    complete = all(r.report_digest is not None for r in everything)
    correct = not check.errors and failed == 0 and complete
    if args.trace:
        metrics = layer_metrics(rounds, traced, tracers)
    else:
        metrics = e2e_metrics(setups, rounds)
        wall = e2e_metrics(setups, rounds, scaled=False)

    env = environment(root)
    samples = {
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "setups": len(setups),
        "bring_ups": sum(r.count("converge") for r in rounds),
        "updates": sum(r.count("update") for r in rounds),
        "pings": sum(r.count("ping") for r in rounds),
        "bulk_pings": sum(r.count("bulk") for r in rounds),
    }
    print(f"# srv6sim benchmark: workload={wl.name} seed={args.seed} trace={args.trace}")
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# samples: {json.dumps(samples)}")
    if not args.trace:
        print(f"# wall-clock, not scaled to the reference speed: "
              f"{json.dumps({name: value for name, (value, _) in wall.items()})}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"fail_ratio = {failed / attempted if attempted else 0.0} "
          f"(failed {failed} of {attempted} attempted: packets sent + updates + bring-ups)")
    for error in check.errors[:20]:
        print(f"benchmark: check failed: {error}", file=sys.stderr)

    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "samples": samples, "correct": correct,
        "attempted": attempted, "failed": failed, "errors": check.errors,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "rounds": [
            {"seed": r.seed, "state_digest": r.state_digest, "report_digest": r.report_digest,
             "counts": r.counts, "timed": r.timed, "bulk_delivered": r.bulk_delivered}
            for r in everything
        ],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        write_spans(OUT / f"{stem}.spans.jsonl.gz", tracers)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
