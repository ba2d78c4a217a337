"""Workloads of the cyclolog benchmark: seeded inputs, the ops that run them,
the exact check of every output, and the timed and traced runs.

One caller drives each workload in a closed loop: the next op starts only
after the previous one returned.  Nothing here imports cyclolog at module
level, because the set-up probe times that import.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# -- workload definitions ---------------------------------------------------

VERIFY_CONTEXTS = ((3, 8), (5, 6), (7, 5))
# weights 2:1, so the median op lies in the first context's cost cluster
LOG_CONTEXTS = {
    "log-deep": ((3, 256), (3, 256), (7, 256)),
    "log-wide": ((101, 32), (101, 32), (211, 8)),
}
# valuation of u - 1; v = 1 is the majority kind
VALUATIONS = (1, 2, 1, 3, 1)
# an odd number of equally weighted commands
CLI_KINDS = (
    ("preimage", 3, 32),
    ("preimage", 13, 12),
    ("roots", 11, 10),
    ("table", 3, 6),
    ("log", 5, 16),
)
# ops in one period of each mix; a timed run covers whole periods, and a
# traced run exactly the first period
PERIOD = {"verify": 3, "log-deep": 15, "log-wide": 15, "cli": 5}
# distinct pre-generated inputs per run, in whole periods; a run that
# outlasts them starts over
POOL = {"verify": 20 * 3, "log-deep": 64 * 15, "log-wide": 256 * 15, "cli": 200 * 5}
WORKLOADS = tuple(PERIOD)
# fresh-interpreter set-ups per run: at least the first number, and more, up
# to the second, while they have taken less than SETUP_PROBE_SECONDS
SETUP_PROBES = (3, 9)
SETUP_PROBE_SECONDS = 10
STARTUP_PROBES = 5
# stop mid-period once a run exceeds this many times its --seconds
HARD_STOP = 3
# seconds a child interpreter may take before it counts as failed
CHILD_TIMEOUT = 60

# (name, unit) of the end-to-end metrics in the result line of a timed run
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# (name, unit) of the per-layer metrics in the result line of a traced run;
# every one is defined on every workload.  The rest of the traced metrics
# (for example self times of layers idle on some workload) are printed and
# written to the result file.
PER_LAYER = (
    ("ring.mul.calls", "count"),
    ("ring.mul.self_s", "s"),
    ("ring.addsub.calls", "count"),
    ("ring.addsub.self_s", "s"),
    ("ring.invert_unit.calls", "count"),
    ("ring.div_pi_power.calls", "count"),
    ("ring.normalize.calls", "count"),
    ("series.plog.calls", "count"),
    ("series.plog.self_s", "s"),
    ("series.pexp.calls", "count"),
    ("series.mul_per_plog", "mul/call"),
    ("series.mul_per_pexp", "mul/call"),
    ("preimage.preimage.calls", "count"),
    ("preimage.preimage_all.calls", "count"),
    ("preimage.roots_of_unity.calls", "count"),
    ("preimage.plog_per_preimage", "plog/call"),
    ("verify.run_all.calls", "count"),
    ("verify.plog_per_unit", "plog/unit"),
    ("cli.main.calls", "count"),
    ("cli.startup_ms", "ms"),
    ("ring.errors", "count"),
    ("series.errors", "count"),
    ("preimage.errors", "count"),
    ("verify.errors", "count"),
    ("cli.errors", "count"),
    ("trace.overhead_s", "s"),
)


def unit_of(name: str) -> str:
    """Unit of any metric the benchmark prints."""
    units = dict(END_TO_END + PER_LAYER)
    if name in units:
        return units[name]
    if name.endswith("_ms") or name.startswith("op_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "share"
    return "count"


def _digit_string(digits) -> str:
    return ",".join(map(str, digits))


def _make_input(workload: str, rng: random.Random, i: int) -> tuple:
    """Input of op i, as plain ints and strings."""
    if workload == "verify":
        p, n = VERIFY_CONTEXTS[i % len(VERIFY_CONTEXTS)]
        return ("verify", p, n, rng.randrange(1 << 31))
    if workload == "cli":
        kind, p, n = CLI_KINDS[i % len(CLI_KINDS)]
        argv = [kind, "--p", str(p), "--prec", str(n)]
        if kind == "preimage":
            argv += ["--y", _digit_string([0, 0, *rng.choices(range(p), k=n - 2)]), "--all"]
        elif kind == "log":
            argv += ["--unit", _digit_string([1, *rng.choices(range(p), k=n - 1)])]
        return ("cli", tuple(argv))
    contexts = LOG_CONTEXTS[workload]
    p, n = contexts[i % len(contexts)]
    v = VALUATIONS[i % len(VALUATIONS)]
    digits = (1,) + (0,) * (v - 1) + (rng.randrange(1, p),) + tuple(rng.choices(range(p), k=n - v - 1))
    return ("log", p, n, v, digits)


def generate(workload: str, seed: int, count: int | None = None) -> tuple[tuple, list[tuple]]:
    """The warm-up input and the op inputs of one run, all from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    warm = _make_input(workload, rng, 0)
    count = POOL[workload] if count is None else count
    return warm, [_make_input(workload, rng, i) for i in range(count)]


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def inputs_digest(inputs) -> str:
    return digest(json.dumps(x) for x in inputs)


def use_source() -> None:
    """Import cyclolog from this checkout's src, or exit without a result."""
    if not (SRC / "cyclolog" / "__init__.py").is_file():
        sys.exit(f"error: no cyclolog sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- binding inputs to cyclolog calls -----------------------------------------


def _contexts(workload: str):
    if workload == "verify":
        return VERIFY_CONTEXTS
    if workload == "cli":
        return tuple((p, n) for _, p, n in CLI_KINDS)
    return LOG_CONTEXTS[workload]


class Ops:
    """Turns inputs into zero-argument op callables and checks their outputs.

    Constructing it imports cyclolog and builds the workload's contexts.  Ops
    look cyclolog's functions up at call time, so a tracer installed later
    sees every call.  CLI ops run `python -m cyclolog` as a subprocess, or
    call `cyclolog.cli.main` in this process when `in_process` is set.
    """

    def __init__(self, workload: str, in_process: bool = True):
        self.cy = importlib.import_module("cyclolog")
        self.cli = importlib.import_module("cyclolog.cli")
        if not Path(self.cy.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"cyclolog imported from {self.cy.__file__}, not {SRC}")
        self.in_process = in_process
        self.ctx = {pn: self.cy.Context(*pn) for pn in _contexts(workload)}

    def prepare(self, inp):
        cy = self.cy
        if inp[0] == "verify":
            _, p, n, rseed = inp
            ctx = self.ctx[p, n]
            return lambda: cy.run_all(ctx, rseed)
        if inp[0] == "log":
            _, p, n, _, digits = inp
            u = cy.PiElement(digits, self.ctx[p, n])

            def roundtrip():
                y = cy.plog(u)
                return y, cy.pexp(y)

            return roundtrip
        argv = list(inp[1])
        if self.in_process:
            return lambda: self._main(argv)
        cmd = [sys.executable, "-m", "cyclolog", *argv]
        env = child_env()
        return lambda: self._spawn(cmd, env)

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    @staticmethod
    def _spawn(cmd, env):
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT)
        return res.returncode, res.stdout

    @staticmethod
    def render(out) -> str:
        """Canonical text of an output, for digests."""
        if isinstance(out, Exception):
            return f"error {type(out).__name__}: {out}"
        if isinstance(out, tuple) and isinstance(out[0], int):
            return f"{out[0]}\n{out[1]}"
        if isinstance(out, tuple):
            return f"{out[0]}|{out[1]}"
        return out.to_json()

    def check(self, inp, out) -> bool:
        """Exact check of one op's output; malformed output fails it."""
        if isinstance(out, Exception):
            return False
        try:
            if inp[0] == "verify":
                return self._check_verify(inp, out)
            if inp[0] == "log":
                return self._check_log(inp, out)
            code, text = out
            kind, p, n = inp[1][0], int(inp[1][2]), int(inp[1][4])
            return code == 0 and getattr(self, f"_check_cli_{kind}")(inp[1], self.ctx[p, n], text.splitlines())
        except (ValueError, IndexError, KeyError, self.cy.CyclologError):
            return False

    def _check_log(self, inp, out) -> bool:
        _, p, n, v, digits = inp
        ctx = self.ctx[p, n]
        u = self.cy.PiElement(digits, ctx)
        y, e = out
        if y.digits[0] or y.digits[1]:
            return False
        if v >= 2:
            return e == u
        # On the annulus u / pexp(plog(u)) is a p-th root of unity.  Its p-th
        # power cannot see the top p - 1 digits (none when p >= N), so also
        # require that pexp(y) lies in 1 + m^2 and is the log-preimage of y
        # there, which fixes it uniquely.
        return (
            (u * e.invert_unit()) ** p == ctx.one()
            and e.digits[:2] == (1, 0)
            and self.cy.plog(e) == y
        )

    def _check_verify(self, inp, report) -> bool:
        _, p, n, _ = inp
        checks = {c.name: c.counts for c in report.checks}
        annulus = checks["annulus_image"]
        return (
            report.all_passed
            and annulus["images"] == p ** (n - 2)
            and annulus["min_fiber"] == annulus["max_fiber"] == p - 1
            and checks["square_isomorphism"]["images"] == p ** (n - 2)
            and checks["full_image_and_index"]["index"] == p
        )

    def _check_cli_preimage(self, argv, ctx, lines) -> bool:
        y = argv[argv.index("--y") + 1]
        target = ctx.parse(y)
        if len(lines) != ctx.p - 1:
            return False
        for branch, line in enumerate(lines, start=1):
            head, _, rest = line.partition(": ")
            unit_text, _, log_text = rest.partition("  log=")
            unit = ctx.parse(unit_text)
            if head != f"branch {branch}" or log_text != y or unit.digits[:2] != (1, branch):
                return False
            if self.cy.plog(unit) != target:
                return False
        return True

    def _check_cli_roots(self, argv, ctx, lines) -> bool:
        p = ctx.p
        one = ctx.one()
        roots = set()
        for branch, line in enumerate(lines, start=1):
            head, _, rest = line.partition(": ")
            root_text, _, power_text = rest.partition(f"  root^{p}=")
            root = ctx.parse(root_text)
            if head != f"branch {branch}" or power_text != str(one):
                return False
            if root == one or root ** p != one:
                return False
            roots.add(root)
        return len(lines) == len(roots) == p - 1

    def _check_cli_table(self, argv, ctx, lines) -> bool:
        p, n = ctx.p, ctx.precision
        targets = p ** (n - 2)
        if len(lines) != targets + 1 or lines[-1] != f"{(p - 1) * targets} units / {targets} targets":
            return False
        seen = set()
        for line in lines[:-1]:
            y_text, _, fiber = line.partition(": ")
            y = ctx.parse(y_text)
            units = fiber.split(" ")
            if y.digits[:2] != (0, 0) or len(units) != p - 1 or len(set(units)) != len(units):
                return False
            if any(self.cy.plog(ctx.parse(u)) != y for u in units):
                return False
            seen.add(y)
        return len(seen) == targets

    def _check_cli_log(self, argv, ctx, lines) -> bool:
        unit = ctx.parse(argv[argv.index("--unit") + 1])
        return len(lines) == 2 and lines[0] == str(self.cy.plog(unit)) and lines[1].startswith("= ")


# -- runs ---------------------------------------------------------------------


def _loop(prepared, period: int, seconds: float | None, op_span=None):
    """Run ops in a closed loop; returns latencies, outputs and wall time.

    With `seconds`, cycle over `prepared` in whole periods of the mix and stop
    at the period boundary nearest to `seconds`, or mid-period past
    HARD_STOP times `seconds`; the first period always completes.  Without
    `seconds`, run each op once.
    """
    latencies, outputs = [], []
    clock = time.perf_counter
    t0 = end = clock()
    i = 0
    while True:
        op = prepared[i % len(prepared)]
        start = clock()
        try:
            if op_span is None:
                out = op()
            else:
                with op_span(i):
                    out = op()
        except Exception as exc:  # a failed op is counted, never retried
            out = exc
        end = clock()
        latencies.append(end - start)
        outputs.append(out)
        i += 1
        elapsed = end - t0
        if seconds is None:
            if i == len(prepared):
                break
        elif i % period == 0:
            half_period = elapsed / (i // period) / 2
            if elapsed + half_period >= seconds:
                break
        elif i > period and elapsed >= HARD_STOP * seconds:
            break
    return latencies, outputs, end - t0


def tail_percentile(n: int) -> int | None:
    """The highest of p90, p99, p999 with at least ten samples beyond it."""
    best = None
    for q in (90, 99, 99.9):
        if n * (100 - q) / 100 >= 10:
            best = q
    return best


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times from fresh interpreters: import, contexts, one warm-up op."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    fewest, most = SETUP_PROBES
    times = []
    start = time.perf_counter()
    while len(times) < fewest or (len(times) < most and time.perf_counter() - start < SETUP_PROBE_SECONDS):
        res = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(), check=True, timeout=CHILD_TIMEOUT
        )
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def startup_ms() -> float:
    """Median wall time of a fresh interpreter that imports cyclolog.cli."""
    cmd = [sys.executable, "-c", "import cyclolog.cli"]
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=CHILD_TIMEOUT)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def diagnostics() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run that gives every end-to-end metric."""
    warm, pool = generate(workload, seed)
    ops = Ops(workload, in_process=workload != "cli")
    prepared = [ops.prepare(x) for x in pool]
    ops.prepare(warm)()
    children = resource.RUSAGE_CHILDREN
    cpu0 = time.process_time()
    child0 = resource.getrusage(children)
    latencies, outputs, wall = _loop(prepared, PERIOD[workload], seconds)
    cpu = time.process_time() - cpu0
    child1 = resource.getrusage(children)
    cpu += (child1.ru_utime - child0.ru_utime) + (child1.ru_stime - child0.ru_stime)
    if workload == "cli":
        rss_kb = child1.ru_maxrss  # the largest `python -m cyclolog` child
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(outputs)
    inputs = [pool[i % len(pool)] for i in range(n)]
    failures = [i for i, (x, out) in enumerate(zip(inputs, outputs)) if not ops.check(x, out)]
    period = PERIOD[workload]
    metrics = {
        "ops_per_s": n / wall,
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(setup_seconds(workload, seed)),
        "peak_rss_mb": rss_kb / 1024,
    }
    printed = {"failed_frac": len(failures) / n}
    q = tail_percentile(n)
    if q is not None:
        printed[f"op_ms_p{q:g}"] = percentile(latencies, q) * 1e3
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "attempted": n,
        "failed": len(failures),
        "failed_ops": [
            {"op": i, "input": inputs[i], "output": Ops.render(outputs[i])[:500]} for i in failures[:5]
        ],
        "pool_wraps": (n - 1) // len(pool),
        "metrics": metrics,
        "printed_metrics": printed,
        "inputs_digest": inputs_digest([warm, *pool]),
        "outputs_digest": digest(Ops.render(o) for o in outputs[:period]),
        "outputs_digest_ops": period,
        "latencies_ms": [x * 1e3 for x in latencies],
        "wall_s": wall,
        "cpu_s": cpu,
        "cpu_per_wall": cpu / wall,
        **diagnostics(),
    }


def layer_metrics(tracer, inputs) -> dict:
    """Every per-layer metric the trace yields, named <module>.<function>.<stat>."""
    m = {}
    for name in tracer.names:
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    for layer in tracer.errors:
        m[f"{layer}.self_s"] = sum(tracer.self_s(n) for n in tracer.names if n.split(".")[0] == layer)
        m[f"{layer}.errors"] = tracer.errors[layer]

    def ratio(a, b):
        return a / b if b else 0.0

    m["series.mul_per_plog"] = ratio(tracer.ring_calls_under("ring.mul", "series.plog"), m["series.plog.calls"])
    m["series.mul_per_pexp"] = ratio(tracer.ring_calls_under("ring.mul", "series.pexp"), m["series.pexp.calls"])
    m["preimage.plog_per_preimage"] = ratio(
        tracer.child_calls("series.plog", "preimage.preimage"), m["preimage.preimage.calls"]
    )
    units = sum(x[1] ** (x[2] - 1) for x in inputs if x[0] == "verify")
    m["verify.plog_per_unit"] = ratio(tracer.calls_within("series.plog", "verify.run_all"), units)
    return m


def traced_run(workload: str, seed: int, limit: int | None = None) -> dict:
    """Untraced and traced passes over the first period of the workload's ops,
    or over its first `limit` ops.

    The op list is fixed by the seed, so call counts repeat exactly.  CLI ops
    call `cyclolog.cli.main` in-process in both passes.
    """
    warm, fixed = generate(workload, seed, limit or PERIOD[workload])
    ops = Ops(workload, in_process=True)
    prepared = [ops.prepare(x) for x in fixed]
    ops.prepare(warm)()
    _, plain, plain_wall = _loop(prepared, len(prepared), None)
    tracer = Tracer()
    with tracer.installed():
        _, traced, traced_wall = _loop(prepared, len(prepared), None, tracer.op_span)
    failures = sum(
        not ops.check(x, out) for outs in (plain, traced) for x, out in zip(fixed, outs)
    )
    plain_digest = digest(Ops.render(o) for o in plain)
    traced_digest = digest(Ops.render(o) for o in traced)
    metrics = layer_metrics(tracer, fixed)
    metrics["cli.startup_ms"] = startup_ms()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"spans-{workload}-seed{seed}.json.gz")
    return {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "attempted": 2 * len(fixed),
        "failed": failures,
        "digests_match": plain_digest == traced_digest,
        "metrics": metrics,
        "inputs_digest": inputs_digest([warm, *fixed]),
        "outputs_digest": plain_digest,
        "traced_outputs_digest": traced_digest,
        "outputs_digest_ops": len(fixed),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        **diagnostics(),
    }
