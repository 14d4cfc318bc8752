"""Outside-in tracing for the GenDT benchmark.

The tracer replaces public functions and methods of the program with thin
wrappers that record one span per call: name, start, end, parent span and
route id.  Spans stay in memory and are written out when the run ends.
Nothing under ``src/`` is modified on disk; :meth:`Tracer.uninstall` puts
every original back, so untraced phases run the program exactly as shipped.

``Tensor.__init__`` gets a counting wrapper instead of a span (tensor
constructions are far too many to record one by one), and
``WindowAssembler.assemble`` also counts the windows it is given.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Dict, List, Optional

import repro.analysis.graph as graph_mod
import repro.core.uncertainty as uncertainty_mod
from repro.baselines.fdas import FDaS
from repro.context.windows import ContextBuilder
from repro.core import model as model_mod
from repro.core.features import WindowAssembler
from repro.core.generator import GenDTGenerator
from repro.core.model import GenDT
from repro.core.networks import AggregationNetwork, Discriminator, GnnNodeNetwork, ResGen
from repro.core.stochastic_lstm import StochasticLSTM
from repro.core.training import GenDTTrainer
from repro.nn.lstm import LSTM
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor
from repro.runtime.guards import HealthGuard
from repro.serving import runner as runner_mod
from repro.serving.ladder import LadderExecutor

#: Span index fields: [name, start_ns, end_ns, parent, route].
NAME, START, END, PARENT, ROUTE = range(5)


def _level_name(args, kwargs) -> str:
    level = kwargs.get("level", args[2] if len(args) > 2 else "?")
    return f"serving.attempt.{level}"


class Tracer:
    """Records spans around the program's public entry points.

    ``route_ids`` maps ``id(trajectory)`` to the benchmark's route index, so
    a span whose call receives a known trajectory is tagged with its route;
    every other span inherits its parent's route.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.route_ids: Dict[int, int] = {}
        self.tensors = 0
        self.sizes: Counter = Counter()
        self._stack: List[int] = []
        self._opaque = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Spans opened by the benchmark itself (setup, one client operation)
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(
        self,
        owner,
        attr: str,
        name,
        route_arg: Optional[int] = None,
        size_arg: Optional[int] = None,
        opaque: bool = False,
    ) -> None:
        original = owner.__dict__[attr]
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._opaque:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            route = spans[parent][ROUTE] if parent >= 0 else -1
            if route_arg is not None and len(args) > route_arg:
                route = tracer.route_ids.get(id(args[route_arg]), route)
            label = name(args, kwargs) if callable(name) else name
            if size_arg is not None:
                tracer.sizes[label] += len(args[size_arg])
            index = len(spans)
            record = [label, 0, 0, parent, route]
            spans.append(record)
            stack.append(index)
            if opaque:
                tracer._opaque += 1
            record[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = clock()
                if opaque:
                    tracer._opaque -= 1
                stack.pop()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _count_tensors(self) -> None:
        original = Tensor.__dict__["__init__"]
        tracer = self

        @functools.wraps(original)
        def counting_init(*args, **kwargs):
            tracer.tensors += 1
            original(*args, **kwargs)

        Tensor.__init__ = counting_init
        self._patches.append((Tensor, "__init__", original))

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per install/uninstall)."""
        if self._patches:
            return
        wrap = self._wrap
        # Set-up layers.
        wrap(GenDT, "load", "runtime.checkpoint_load")
        wrap(graph_mod, "verify", "analysis.verify", opaque=True)
        wrap(FDaS, "fit", "fdas.fit")
        # Context and features.
        wrap(ContextBuilder, "windows_for_trajectory", "context.windows", route_arg=1)
        wrap(WindowAssembler, "assemble", "features.assemble", size_arg=1)
        for module in (model_mod, runner_mod):
            wrap(module, "validate_trajectory", "runtime.validate", route_arg=0)
            wrap(module, "validate_windows", "runtime.validate")
        # Generation.
        wrap(GenDT, "generate_normalized", "gen.generate", route_arg=1)
        wrap(GenDTGenerator, "generate_batch", "gen.generate_batch")
        wrap(GnnNodeNetwork, "forward", "gen.g_n")
        wrap(AggregationNetwork, "forward", "gen.g_a")
        wrap(ResGen, "sample", "gen.resgen")
        wrap(StochasticLSTM, "forward", "nn.lstm_fwd")
        wrap(LSTM, "forward", "nn.lstm_fwd")
        # Training.
        wrap(GenDT, "fit", "train.fit")
        wrap(GenDTTrainer, "fit", "train.loop")
        wrap(GenDTGenerator, "forward_teacher_forced", "train.gen_fwd")
        wrap(Discriminator, "forward", "train.disc_fwd")
        wrap(Tensor, "backward", "nn.backward")
        wrap(Adam, "step", "nn.optim")
        wrap(Optimizer, "clip_grad_norm", "nn.optim")
        for method in ("attach", "begin_step", "inspect_gradients", "after_step"):
            wrap(HealthGuard, method, "runtime.guard")
        # Serving and the FDaS fallback.
        wrap(runner_mod.CampaignRunner, "run", "serving.run")
        wrap(LadderExecutor, "attempt", _level_name, route_arg=1)
        wrap(FDaS, "generate", "fdas.generate", route_arg=1)
        # Uncertainty probe (subset_uncertainties calls it by module global).
        wrap(uncertainty_mod, "mc_dropout_uncertainty", "uncertainty.probe", route_arg=1)
        self._count_tensors()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times_ns(self, first: int = 0) -> List[int]:
        """Per-span self time: duration minus the time its children cover."""
        spans = self.spans
        own = [s[END] - s[START] for s in spans]
        for index in range(first, len(spans)):
            parent = spans[index][PARENT]
            if parent >= first:
                own[parent] -= spans[index][END] - spans[index][START]
        return own

    def layer_totals(self, first: int = 0):
        """Self ns, inclusive ns and call count per span name from ``first`` on."""
        own = self.self_times_ns(first)
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter()
        for index in range(first, len(self.spans)):
            name, start, end = self.spans[index][:3]
            self_ns[name] += own[index]
            incl_ns[name] += end - start
            calls[name] += 1
        return self_ns, incl_ns, calls

    def call_counts(self, first: int, last: int) -> Counter:
        return Counter(self.spans[i][NAME] for i in range(first, last))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, route in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "route": route}
                    )
                    + "\n"
                )
