"""Span self-time arithmetic and the patching rules."""

import json
import os
import sys
import tempfile
import types
import unittest

from herdbench.layers import Target
from herdbench.tracer import END, NAME, OP, PARENT, START, Tracer, resolve


def _tracer_with(spans):
    """A tracer holding hand-written ``(name, start, end, parent,
    op)`` spans."""
    tracer = Tracer()
    for name, start, end, parent, op in spans:
        record = [0] * 5
        record[NAME], record[START], record[END] = \
            tracer.name_id(name), start, end
        record[PARENT], record[OP] = parent, op
        tracer.spans.append(record)
    return tracer


class SelfTime(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        tracer = _tracer_with([
            ("bench.op", 0.0, 10.0, -1, 0),    # 0: root, 10 s
            ("core", 1.0, 9.0, 0, 0),          # 1: 8 s, children 5 s
            ("crypto", 2.0, 4.0, 1, 0),        # 2: 2 s
            ("crypto", 5.0, 8.0, 1, 0),        # 3: 3 s, child 1 s
            ("kdf", 6.0, 7.0, 3, 0),           # 4: 1 s
        ])
        ops = tracer.aggregate()["bench.op"]
        self.assertEqual(ops["bench.op"], [2.0, 1])   # unattributed
        self.assertEqual(ops["core"], [3.0, 1])
        self.assertEqual(ops["crypto"], [4.0, 2])
        self.assertEqual(ops["kdf"], [1.0, 1])
        # Self times partition the root's duration exactly.
        self.assertEqual(sum(busy for busy, _ in ops.values()), 10.0)

    def test_spans_are_grouped_by_their_root(self):
        tracer = _tracer_with([
            ("bench.setup", 0.0, 4.0, -1, -1),
            ("crypto", 1.0, 3.0, 0, -1),
            ("bench.op", 4.0, 6.0, -1, 0),
            ("crypto", 4.5, 5.0, 2, 0),
        ])
        agg = tracer.aggregate()
        self.assertEqual(agg["bench.setup"]["crypto"], [2.0, 1])
        self.assertEqual(agg["bench.op"]["crypto"], [0.5, 1])
        self.assertEqual(tracer.root_durations("bench.op"), [2.0])

    def test_recorded_nesting_matches_the_call_tree(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda: 1, "inner")
        outer = tracer.wrap(lambda: inner() + inner(), "outer")
        tracer.on = True
        tracer.op = 7
        with tracer.span("bench.op"):
            self.assertEqual(outer(), 2)
        names = [tracer.names[s[NAME]] for s in tracer.spans]
        self.assertEqual(names, ["bench.op", "outer", "inner",
                                 "inner"])
        self.assertEqual([s[PARENT] for s in tracer.spans],
                         [-1, 0, 1, 1])
        self.assertEqual({s[OP] for s in tracer.spans}, {7})
        for span in tracer.spans:
            self.assertGreaterEqual(span[END], span[START])
        self.assertEqual(tracer.stack, [-1])

    def test_a_raising_call_still_closes_its_span(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        traced = tracer.wrap(boom, "boom")
        tracer.on = True
        with self.assertRaises(KeyError):
            traced()
        self.assertEqual(tracer.stack, [-1])
        self.assertGreater(tracer.spans[0][END], 0.0)

    def test_jsonl_has_one_object_per_span(self):
        tracer = _tracer_with([("bench.op", 0.0, 2.0, -1, 3),
                               ("crypto", 0.5, 1.0, 0, 3)])
        with tempfile.TemporaryDirectory(
                dir=os.path.dirname(__file__)) as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            self.assertEqual(tracer.write_jsonl(path), 2)
            with open(path, encoding="utf-8") as handle:
                rows = [json.loads(line) for line in handle]
        self.assertEqual(rows[0], {"id": 0, "name": "bench.op",
                                   "start": 0.0, "end": 2.0,
                                   "parent": None, "op": 3})
        self.assertEqual(rows[1]["parent"], 0)


class Patching(unittest.TestCase):
    """Targets are patched where they are defined *and* re-bound; a
    target that is gone is reported, never raised."""

    def setUp(self):
        self.defining = types.ModuleType("hbfake.lib")
        self.user = types.ModuleType("hbfake.user")
        exec("def work(x):\n    return x + 1\n"
             "class Box:\n"
             "    def get(self):\n        return work(1)\n"
             "    @classmethod\n"
             "    def make(cls):\n        return cls()\n"
             "    @property\n"
             "    def size(self):\n        return 3\n",
             vars(self.defining))
        self.user.work = self.defining.work  # from hbfake.lib import work
        package = types.ModuleType("hbfake")
        package.__path__ = []
        sys.modules.update({"hbfake": package,
                            "hbfake.lib": self.defining,
                            "hbfake.user": self.user})

    def tearDown(self):
        for name in ("hbfake", "hbfake.lib", "hbfake.user"):
            sys.modules.pop(name, None)

    def test_function_is_patched_in_every_module_that_binds_it(self):
        original = self.defining.work
        tracer = Tracer()
        tracer.install([Target("lib", "hbfake.lib.work")])
        self.assertIsNot(self.defining.work, original)
        self.assertIs(self.user.work, self.defining.work)
        self.assertEqual(tracer.bindings["hbfake.lib.work"],
                         ["hbfake.lib", "hbfake.user"])
        self.assertEqual(self.user.work(1), 2)
        self.assertEqual(len(tracer.spans), 1)
        tracer.uninstall()
        self.assertIs(self.defining.work, original)
        self.assertIs(self.user.work, original)
        self.user.work(1)
        self.assertEqual(len(tracer.spans), 1)

    def test_methods_classmethods_and_properties(self):
        tracer = Tracer()
        tracer.install([Target("box", "hbfake.lib.Box.get"),
                        Target("box", "hbfake.lib.Box.make"),
                        Target("box", "hbfake.lib.Box.size")])
        box = self.defining.Box.make()
        self.assertEqual(box.get(), 2)
        self.assertEqual(box.size, 3)
        self.assertEqual(tracer.aggregate()["box"]["box"][1], 3)
        tracer.uninstall()
        self.assertEqual(self.defining.Box().size, 3)

    def test_missing_targets_are_listed_not_raised(self):
        tracer = Tracer()
        tracer.install([Target("lib", "hbfake.lib.work"),
                        Target("gone", "hbfake.lib.renamed"),
                        Target("gone", "hbfake.lib.Box.nope"),
                        Target("gone", "hbfake.nomodule.f")])
        self.assertEqual(tracer.missing,
                         ["hbfake.lib.renamed", "hbfake.lib.Box.nope",
                          "hbfake.nomodule.f"])
        self.assertIsNone(resolve("hbfake.lib.renamed"))
        tracer.uninstall()

    def test_counter_runs_inside_the_span(self):
        def count(counters, args, kwargs, result):
            counters["n"] = counters.get("n", 0) + result

        tracer = Tracer()
        tracer.install([Target("lib", "hbfake.lib.work", count)])
        self.defining.work(4)
        self.assertEqual(tracer.counters, {"n": 5})
        tracer.uninstall()


if __name__ == "__main__":
    unittest.main()
