"""One benchmark run of one workload, in a process of its own.

run.py starts this file as `python3 child.py SPEC` where SPEC is a JSON
object:

    kind     "cli" (argv holds the bohmlab CLI arguments) or
             "sg-history" (the library pipeline of criterion 07)
    argv     CLI arguments, for kind "cli"
    seed, n, out
             ensemble seed, ensemble size and output directory, for
             kind "sg-history"
    mode     "run": the workload, untraced;
             "setup": stop at the workload's first library call;
             "trace": the workload with every public library call that
             bohmlab.cli and bohmlab.stern_gerlach make recorded as a
             span, then the layer measurements that need the run's own
             timeline and ensemble
    stamps   file that receives the CLOCK_MONOTONIC instants (ns) of the
             first library call ("setup") and of the workload's end
             ("done"); with mode "trace" it also receives the spans, the
             layer measurements and the tracing overhead

The traced run also counts work where the library does it: every call of
propagation._step_arrays (one split step) and every call of
trajectories._interp_quotient (one velocity evaluation of a batch of
particles, and the batch's size) is added to the innermost open span.
These are private names; if the library renames them, the counts read 0
and this file needs the new names.

Only the standard library is imported before the clock starts counting
set-up: numpy and bohmlab are imported inside `main`, so their import
cost lands in set-up time as it does for a user of the CLI.
"""

import functools
import json
import sys
import threading
import time
from pathlib import Path

# Repetitions of the thread-count and history probes: at most this many
# rounds, and no new round once this budget is spent.
PROBE_ROUNDS = 3
PROBE_BUDGET_NS = 20 * 10**9


def now_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so the parent can
    # subtract its spawn instant from these stamps.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans of wrapped calls: name, parent, start, end and work counts.

    Wrapped functions are only ever called from the main thread (the
    transport's worker threads run private code), so one stack suffices.
    Counted functions may run on worker threads; the main thread then
    waits inside the span they are added to.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, list] = {}
        self._stack: list[int] = []
        self._lock = threading.Lock()

    def count(self, module, attr: str, key: str, items=None) -> None:
        """Replace module.attr by a wrapper that counts its calls.

        Each call adds 1 to the innermost open span's key + ".calls" and,
        given items, items(args, kwargs) to its key + ".items"; calls
        outside any span are not counted.
        """
        func = getattr(module, attr, None)
        if func is None:
            return

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if self._stack:
                with self._lock:
                    span = self.spans[self._stack[-1]]
                    span[key + ".calls"] = span.get(key + ".calls", 0) + 1
                    if items is not None:
                        span[key + ".items"] = span.get(key + ".items", 0) + items(args, kwargs)
            return func(*args, **kwargs)

        setattr(module, attr, counted)

    def wrap(self, func):
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = now_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = now_ns()
                self._stack.pop()
            self.calls.setdefault(name, []).append((func, args, kwargs, result, span))
            return result

        return traced

    def install(self, module) -> None:
        """Wrap every public bohmlab function reachable as a global of module."""
        import inspect

        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if not value.__module__.startswith("bohmlab.") or attr == "main":
                continue
            setattr(module, attr, self.wrap(value))


def _bound(func, args, kwargs) -> dict:
    import inspect

    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _span_ns(span: dict) -> int:
    return span["end"] - span["start"]


def _add_work_counts(tracer: Tracer) -> None:
    """Annotate spans with the work their call's arguments ask for.

    Draws of sample, samples of ks_distance, and particles and RK4 steps
    of integrate_ensemble. These sizes of the request divide the spans'
    times into per-item costs; the work actually done is counted by
    Tracer.count.
    """
    for name, calls in tracer.calls.items():
        for func, args, kwargs, _, span in calls:
            a = _bound(func, args, kwargs)
            if name == "sampling.sample":
                span["items"] = int(a["n"])
            elif name == "sampling.ks_distance":
                span["items"] = _size(a["samples"])
            elif name == "trajectories.integrate_ensemble":
                timeline = a["timeline"]
                dt_traj = a["dt_traj"] or timeline.spacing / 4.0
                span["items"] = _size(a["q0"])
                span["steps"] = int(round(timeline.duration / dt_traj))
                span["threads"] = int(a["threads"])
                span["keep_history"] = bool(a["keep_history"])


def _size(values) -> int:
    import numpy as np

    return int(np.asarray(values).size)


def _median(values: list) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def _median_ns(func, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = now_ns()
        func()
        times.append(now_ns() - t0)
    return _median(times)


def _transport_probes(tracer: Tracer) -> dict:
    """Layer measurements on the traced run's own timeline and ensemble.

    The workload's integrate_ensemble call is timed as traced; it is
    repeated at the other thread count (and, with history kept, without
    history), and every repetition must give bit-identical final
    positions.
    """
    import numpy as np

    from bohmlab import trajectories

    calls = tracer.calls.get("trajectories.integrate_ensemble")
    if not calls:
        return {}
    func, args, kwargs, paths, span = max(calls, key=lambda call: call[4]["items"])
    a = _bound(func, args, kwargs)
    timeline, q0 = a["timeline"], np.asarray(a["q0"], dtype=np.float64)
    integrate = trajectories.integrate_ensemble
    velocity = trajectories.velocity

    probes: dict = {}
    one = _median_ns(lambda: [velocity(f, 0.0) for f in timeline.fields], 3)
    probes["flow_table_ns_per_record"] = one / len(timeline.fields)
    field0 = timeline.fields[0]
    t_one = _median_ns(lambda: velocity(field0, 0.0), 7)
    t_all = _median_ns(lambda: velocity(field0, q0), 7)
    probes["velocity_ns_per_particle"] = (t_all - t_one) / q0.size

    def timed(**changes):
        call = dict(a, **changes)
        t0 = now_ns()
        result = integrate(**call)
        return now_ns() - t0, result

    # Alternate the workload's own settings with the other thread count
    # (and, when history is kept, with no history), so a slow phase of the
    # machine hits both sides; the workload's traced call is the first
    # sample of its own side.
    own_threads = int(a["threads"])
    variants = {"own": {}, "other": {"threads": 1 if own_threads == 2 else 2}}
    if a["keep_history"]:
        variants["flat"] = {"keep_history": False}
    times = {"own": [_span_ns(span)], "other": [], "flat": []}
    identical = True
    deadline = now_ns() + PROBE_BUDGET_NS
    for _ in range(PROBE_ROUNDS):
        for name in ("other", "flat", "own"):
            if name in variants:
                elapsed, result = timed(**variants[name])
                times[name].append(elapsed)
                identical &= bool(np.array_equal(paths.q_final, result.q_final))
        if now_ns() > deadline:
            break
    own, other = _median(times["own"]), _median(times["other"])
    probes["thread_speedup"] = (own / other) if own_threads == 1 else (other / own)
    if times["flat"]:
        probes["history_ratio"] = own / _median(times["flat"])
    probes["bit_identical"] = identical
    probes["probe_samples"] = {name: len(values) for name, values in times.items()}
    return probes


def _batch_size(args, kwargs) -> int:
    """Particles in one _interp_quotient(num_row, den_row, grid, q, vmax) call."""
    import numpy as np

    return int(np.size(args[3] if len(args) > 3 else kwargs["q"]))


def _count_work(tracer: Tracer) -> None:
    from bohmlab import propagation, trajectories

    tracer.count(propagation, "_step_arrays", "split")
    tracer.count(trajectories, "_interp_quotient", "velocity", _batch_size)


def _tracing_overhead(tracer: Tracer) -> dict:
    """Time the tracing adds to the workload, measured on no-op calls.

    The extra time of a wrapped over a plain no-op call, times the spans
    the workload recorded, plus the extra time of a counted over a plain
    no-op call, times the counted calls.
    """
    import types

    import numpy as np

    def noop(*args, **kwargs):
        return None

    scratch = Tracer()
    wrapped = scratch.wrap(noop)
    holder = types.SimpleNamespace(noop=noop)
    scratch.count(holder, "noop", "noop", _batch_size)
    counted = holder.noop
    scratch._stack.append(0)
    scratch.spans.append({})
    calls, q = 5000, np.zeros(2)

    def per_call(func) -> float:
        def batch():
            for _ in range(calls):
                func(None, None, None, q, None)
        return _median_ns(batch, 5) / calls

    plain = per_call(noop)
    span_ns = max(per_call(wrapped) - plain, 0.0)
    count_ns = max(per_call(counted) - plain, 0.0)
    spans = len(tracer.spans)
    counted_calls = sum(v for s in tracer.spans for k, v in s.items() if k.endswith(".calls"))
    return {
        "overhead_ns": spans * span_ns + counted_calls * count_ns,
        "span_ns": span_ns, "spans": spans,
        "count_ns": count_ns, "counted_calls": counted_calls,
    }


def _run_cli(argv, mode: str, tracer: Tracer | None, stamps: dict) -> int:
    from bohmlab import cli, stern_gerlach

    if tracer is not None:
        tracer.install(cli)
        tracer.install(stern_gerlach)
        _count_work(tracer)
    run = cli.run

    def first_call(config, *, threads=1):
        stamps["setup"] = now_ns()
        if mode == "setup":
            return 0
        return run(config, threads=threads)

    cli.run = first_call
    return cli.main(argv)


def _run_sg_history(spec: dict, mode: str, tracer: Tracer | None, stamps: dict) -> int:
    import numpy as np

    from bohmlab import sampling, stern_gerlach
    from bohmlab.sampling import KS_COEFF

    lib = {
        "build_timeline": stern_gerlach.build_timeline,
        "run_sg": stern_gerlach.run_sg,
        "no_crossing_check": stern_gerlach.no_crossing_check,
        "ks_distance": sampling.ks_distance,
    }
    if tracer is not None:
        tracer.install(stern_gerlach)
        _count_work(tracer)
        lib = {name: tracer.wrap(func) for name, func in lib.items()}
    setup = stern_gerlach.SGSetup(**spec["setup"])
    packet = stern_gerlach.PacketSpec(**spec["packet"])
    numerics = stern_gerlach.SGNumerics(**spec["numerics"])
    a, b = complex(*spec["spin_up"]), complex(*spec["spin_down"])
    n, seed = int(spec["n"]), int(spec["seed"])

    stamps["setup"] = now_ns()
    if mode == "setup":
        return 0
    timeline = lib["build_timeline"](setup, a, b, packet, numerics)
    stats, ensemble = lib["run_sg"](
        setup, a, b, packet, n, seed, numerics,
        keep_history=True, threads=int(spec["threads"]), timeline=timeline,
    )
    crossing_free = lib["no_crossing_check"](ensemble)
    ks = lib["ks_distance"](ensemble.q_final, timeline.fields[-1])
    band = KS_COEFF / np.sqrt(n)

    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "q0.npy", ensemble.q0)
    np.save(out / "q_final.npy", ensemble.q_final)
    summary = {
        "checks_passed": {
            "no_crossing": bool(crossing_free),
            "ks_within_band": bool(ks <= band),
        },
        "ks_distance": repr(float(ks)),
        "ks_band": repr(float(band)),
        "counts": stats.counts,
        "history_shape": list(ensemble.positions.shape),
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    tracer = Tracer() if mode == "trace" else None
    stamps: dict = {}
    if spec["kind"] == "cli":
        code = _run_cli(spec["argv"], mode, tracer, stamps)
    else:
        code = _run_sg_history(spec, mode, tracer, stamps)
    stamps["done"] = now_ns()
    record = {"stamps": stamps, "exit": code}
    if tracer is not None and code == 0:
        _add_work_counts(tracer)
        record["spans"] = tracer.spans
        record["probes"] = _transport_probes(tracer)
        record["overhead"] = _tracing_overhead(tracer)
    with open(spec["stamps"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
