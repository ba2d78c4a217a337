"""Self-tests of the benchmark: the tracer, the exact checks and determinism.

    python3 -m pytest perfbench/test_perfbench.py
    python3 -m unittest discover -s perfbench

No assertion ties a count to today's algorithms: counts are only compared
with each other, across runs of one seed.
"""

import json
import unittest
from pathlib import Path

import harness

harness.use_source()

import cyclolog  # noqa: E402
from tracer import LAYERS, RING_METHODS, Tracer, public_functions  # noqa: E402

SEED = 11


class TracerBinding(unittest.TestCase):
    def test_every_lookup_resolves_to_the_wrapper(self):
        tracer = Tracer()
        originals = {}
        for layer, module in tracer.modules.items():
            for name, fn in public_functions(module).items():
                originals[f"{layer}.{name}"] = (
                    fn,
                    [(ns, key) for ns in tracer.namespaces() for key, v in vars(ns).items() if v is fn],
                )
        ring_originals = {attr: tracer.piel.__dict__[attr] for attr in RING_METHODS}
        with tracer.installed():
            for qualified, (fn, bindings) in originals.items():
                self.assertTrue(bindings, qualified)
                wrappers = {id(getattr(ns, key)) for ns, key in bindings}
                self.assertEqual(len(wrappers), 1, qualified)
                for ns, key in bindings:
                    bound = getattr(ns, key)
                    self.assertIsNot(bound, fn, f"{ns.__name__}.{key}")
                    self.assertIs(bound.__wrapped__, fn)
            for attr, fn in ring_originals.items():
                self.assertIs(getattr(cyclolog.PiElement, attr).__wrapped__, fn, attr)
            # plog is looked up in series, preimage, verify, cli and the package
            for ns in (cyclolog, *(tracer.modules[m] for m in ("series", "preimage", "verify", "cli"))):
                self.assertIs(ns.plog.__wrapped__, originals["series.plog"][0], ns.__name__)
        for qualified, (fn, bindings) in originals.items():
            for ns, key in bindings:
                self.assertIs(getattr(ns, key), fn, f"{ns.__name__}.{key} not restored")
        for attr, fn in ring_originals.items():
            self.assertIs(cyclolog.PiElement.__dict__[attr], fn)

    def test_self_times_partition_the_op(self):
        tracer = Tracer()
        ctx = cyclolog.Context(5, 6)
        with tracer.installed():
            with tracer.op_span(0):
                cyclolog.preimage_all(ctx.zero())
        root = tracer.spans[0]
        self.assertEqual(root[0], "bench.op")
        self.assertTrue(all(span[4] == 0 for span in tracer.spans))
        self.assertTrue(all(span[3] is not None for span in tracer.spans[1:]))
        # every instant of the op belongs to exactly one span's or ring call's self time
        total = sum(span[5] for span in tracer.spans) + sum(a[2] for a in tracer.ring.values())
        self.assertAlmostEqual(total, root[2] - root[1], delta=1e-6)
        self.assertTrue(all(span[5] >= 0 for span in tracer.spans))
        self.assertEqual(tracer.calls("preimage.preimage_all"), 1)
        self.assertEqual(tracer.calls("preimage.preimage"), ctx.p - 1)

    def test_escaping_exceptions_are_counted_per_layer(self):
        tracer = Tracer()
        ctx = cyclolog.Context(5, 6)
        with tracer.installed():
            with self.assertRaises(cyclolog.NotPrincipalUnit):
                cyclolog.plog(ctx.zero())
        self.assertEqual(tracer.errors["series"], 1)
        self.assertEqual(sum(tracer.errors.values()), 1)


class Determinism(unittest.TestCase):
    def test_inputs_repeat_for_a_seed(self):
        for workload in harness.WORKLOADS:
            a = harness.generate(workload, SEED, 20)
            b = harness.generate(workload, SEED, 20)
            c = harness.generate(workload, SEED + 1, 20)
            self.assertEqual(a, b, workload)
            self.assertNotEqual(harness.inputs_digest(a[1]), harness.inputs_digest(c[1]), workload)

    def test_traced_runs_repeat_and_match_untraced_digits(self):
        # the cheap workloads in full, the costly ones on a prefix of their period
        limits = {"log-wide": None, "cli": None, "log-deep": 2, "verify": 1}
        for workload, limit in limits.items():
            with self.subTest(workload=workload):
                first = harness.traced_run(workload, SEED, limit)
                self.assertEqual(first["failed"], 0)
                self.assertTrue(first["digests_match"])
                self.assertEqual(first["outputs_digest"], first["traced_outputs_digest"])
                if workload in ("log-wide", "cli"):
                    second = harness.traced_run(workload, SEED, limit)
                    self.assertEqual(second["outputs_digest"], first["outputs_digest"])
                    counts = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
                    again = {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
                    self.assertEqual(counts, again)
                    self.assertTrue(any(counts.values()))
                for layer in LAYERS:
                    self.assertEqual(first["metrics"][f"{layer}.errors"], 0)
                for name, _ in harness.PER_LAYER:
                    self.assertIn(name, first["metrics"])

    def test_timed_runs_of_a_seed_compute_the_traced_digits(self):
        for workload in ("log-wide", "cli"):
            with self.subTest(workload=workload):
                first = harness.timed_run(workload, SEED, 0)
                second = harness.timed_run(workload, SEED, 0)
                traced = harness.traced_run(workload, SEED)
                self.assertEqual(first["failed"], 0)
                self.assertEqual(first["inputs_digest"], second["inputs_digest"])
                self.assertEqual(first["outputs_digest"], second["outputs_digest"])
                self.assertEqual(first["outputs_digest"], traced["outputs_digest"])
                for name, _ in harness.END_TO_END:
                    self.assertGreater(first["metrics"][name], 0)

    def test_subprocess_and_in_process_cli_print_the_same(self):
        _, inputs = harness.generate("cli", SEED, len(harness.CLI_KINDS))
        spawned = harness.Ops("cli", in_process=False)
        local = harness.Ops("cli", in_process=True)
        for inp in inputs:
            out = spawned.prepare(inp)()
            self.assertTrue(spawned.check(inp, out), inp)
            self.assertEqual(harness.Ops.render(out), harness.Ops.render(local.prepare(inp)()))


class Checks(unittest.TestCase):
    """Each exact check rejects a wrong output."""

    def test_log_check_rejects_a_changed_digit(self):
        ops = harness.Ops("log-wide")
        _, inputs = harness.generate("log-wide", SEED, 5)
        for inp in inputs:
            y, e = ops.prepare(inp)()
            self.assertTrue(ops.check(inp, (y, e)))
            d = list(e.digits)
            d[-1] = (d[-1] + 1) % e.ctx.p
            self.assertFalse(ops.check(inp, (y, cyclolog.PiElement(d, e.ctx))), inp[:4])
            d = list(y.digits)
            d[1] = 1
            self.assertFalse(ops.check(inp, (cyclolog.PiElement(d, y.ctx), e)), inp[:4])

    def test_cli_check_rejects_changed_output(self):
        ops = harness.Ops("cli")
        _, inputs = harness.generate("cli", SEED, len(harness.CLI_KINDS))
        for inp in inputs:
            code, text = ops.prepare(inp)()
            self.assertTrue(ops.check(inp, (code, text)), inp)
            self.assertFalse(ops.check(inp, (1, text)), inp)
            lines = text.splitlines()
            self.assertFalse(ops.check(inp, (code, "\n".join(lines[:-1]) + "\n")), inp)
            first = lines[0]
            i = first.index(",") - 1  # digit 0 of the first printed element
            wrong = first[:i] + str((int(first[i]) + 1) % 3) + first[i + 1:]
            self.assertFalse(ops.check(inp, (code, "\n".join([wrong, *lines[1:]]))), inp)

    def test_errors_and_garbage_are_failures(self):
        ops = harness.Ops("log-wide")
        _, inputs = harness.generate("log-wide", SEED, 1)
        self.assertFalse(ops.check(inputs[0], RuntimeError("boom")))
        cli = harness.Ops("cli")
        for inp in harness.generate("cli", SEED, len(harness.CLI_KINDS))[1]:
            self.assertFalse(cli.check(inp, (0, "branch 1: 9,x  log=\n")), inp)


class Contract(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        spec = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(harness.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(harness.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(harness.PER_LAYER))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(harness.tail_percentile(99))
        self.assertEqual(harness.tail_percentile(100), 90)
        self.assertEqual(harness.tail_percentile(1000), 99)
        self.assertEqual(harness.percentile(list(range(1, 101)), 90), 90)


if __name__ == "__main__":
    unittest.main()
