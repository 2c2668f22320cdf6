"""In-memory span tracing of cecsim's public functions, from outside `src/`.

`Tracer.install` replaces each traced function or method with a wrapper
that records one span (name, start, end, parent) per call.  The wrapper is
put wherever the original object is bound: on the class for methods, and in
every loaded `cecsim` and `perfbench` module for functions imported by name.
`Tracer.uninstall` puts the originals back.  Spans live in flat arrays and
are written out once, by `Tracer.dump`, when the benchmark ends.

Self time of a span is its duration minus the durations of its direct
children.  Calls run on one thread and nest, so the children never overlap
and this is exactly the part of the span that no child covers.
"""

import json
import sys
import time
from array import array

from cecsim import attacks  # noqa: F401  (defines the attack actors wrapped below)
from cecsim import bus, devices, frames, ids, relay, scenarios, topology, transfer

# Functions and methods wrapped, by layer.  Actor callbacks are added for
# every subclass of bus.Actor in `actor_targets`.
TARGETS = (
    (frames, ("CecFrame.__post_init__", "parse_frame", "encode_frame")),
    (topology, ("build_topology", "assign_physical_addresses", "propagation_domains")),
    (devices, ("react", "apply_user_action", "announcement_frames")),
    (
        bus,
        (
            "Simulator.start",
            "Simulator.allocate_logical_address",
            "Simulator.run",
            "Simulator.deliver",
            "Trace.render_log",
            "Trace.render_state_log",
            "parse_trace_line",
        ),
    ),
    (transfer, ("write_transfer_artifacts",)),
    (relay, ("RelayState.handle",)),
    (ids, ("Detector.feed", "detect", "apply_mitigation")),
    (scenarios, ("load_scenario", "run_scenario", "evaluate_checks", "write_artifacts")),
)

ACTOR_CALLBACKS = ("on_tick", "on_event")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _actor_classes() -> list[type]:
    found, frontier = [], [bus.Actor]
    while frontier:
        for cls in frontier.pop().__subclasses__():
            if cls.__module__.startswith("cecsim.") and cls not in found:
                found.append(cls)
                frontier.append(cls)
    return found


def actor_targets() -> list[tuple[str, type, str]]:
    """(span name, class, attribute) for each actor callback."""
    out = []
    for cls in _actor_classes():
        layer = cls.__module__.rsplit(".", 1)[1]
        for attr in ACTOR_CALLBACKS:
            out.append(("%s.%s.%s" % (layer, cls.__name__, attr), cls, attr))
    return out


def _useful_reaction(args, result) -> bool:
    """A reaction did something when it changed state, answered, or
    counted as control pressure."""
    state = args[1]
    return result.state is not state or bool(result.responses) or result.control_pressure


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        # Calls of `devices.react` for which `_useful_reaction` holds.
        self.useful_reactions = 0
        self.actor_names: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        stack, name_ix, starts, ends, parents = (
            self._stack, self.name_ix, self.start, self.end, self.parent
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(name_ix)
            name_ix.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finish = clock()
                stack.pop()
                starts[index] = begin
                ends[index] = finish

        traced.__wrapped__ = fn
        return traced

    def _wrap_react(self, fn):
        """`devices.react`, also counting the reactions that did something."""
        traced = self._wrap(fn, "devices.react")

        def react(*args, **kwargs):
            result = traced(*args, **kwargs)
            if _useful_reaction(args, result):
                self.useful_reactions += 1
            return result

        react.__wrapped__ = fn
        return react

    def span_count(self) -> int:
        return len(self.name_ix)

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr) if had_own else None, had_own))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "cecsim" or n.startswith(("cecsim.", "perfbench")))
        ]
        for module, names in TARGETS:
            layer = module.__name__.rsplit(".", 1)[1]
            for dotted in names:
                name = "%s.%s" % (layer, dotted)
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, attr, self._wrap(getattr(cls, attr), name))
                    continue
                original = getattr(module, dotted)
                if name == "devices.react":
                    wrapper = self._wrap_react(original)
                else:
                    wrapper = self._wrap(original, name)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)
        for name, cls, attr in actor_targets():
            self.actor_names.append(name)
            self._patch(cls, attr, self._wrap(getattr(cls, attr), name))

    def uninstall(self):
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self, path: str):
        """Write every span: a JSON header line naming the fields and the
        span names, then the four arrays as raw native-endian bytes."""
        header = {
            "names": self.names,
            "count": len(self.name_ix),
            "arrays": [
                [field, arr.typecode]
                for field, arr in (
                    ("name", self.name_ix), ("start_ns", self.start),
                    ("end_ns", self.end), ("parent", self.parent),
                )
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_ix, self.start, self.end, self.parent):
                arr.tofile(fh)


class SpanStats:
    """Totals over the spans `first` to `last` of a tracer: calls, inclusive
    and self nanoseconds per name; the self nanoseconds per layer spent
    while a `layer_root` span was open; and the calls per name made while a
    `count_root` span was open.  A root's own spans count as inside it."""

    def __init__(self, tracer: Tracer, first: int, last: int, layer_root: str, count_root: str):
        self._ids = dict(tracer._name_ids)
        names, name_ix, start, end, parent = (
            tracer.names, tracer.name_ix, tracer.start, tracer.end, tracer.parent
        )
        size = last - first
        duration = array("q", (end[i] - start[i] for i in range(first, last)))
        child = array("q", bytes(8 * size))
        for offset in range(size - 1, -1, -1):
            p = parent[first + offset] - first
            if p >= 0:
                child[p] += duration[offset]
        self.calls = [0] * len(names)
        self.incl_ns = [0] * len(names)
        self.self_ns = [0] * len(names)
        self.calls_under = [0] * len(names)
        self.layer_self_ns: dict[str, int] = {}
        layer_id, count_id = self._ids.get(layer_root, -1), self._ids.get(count_root, -1)
        in_layer_root, in_count_root = bytearray(size), bytearray(size)
        layer_names = [layer_of(n) for n in names]
        for offset in range(size):
            nid = name_ix[first + offset]
            d = duration[offset]
            s = d - child[offset]
            self.calls[nid] += 1
            self.incl_ns[nid] += d
            self.self_ns[nid] += s
            p = parent[first + offset] - first
            if nid == layer_id or (p >= 0 and in_layer_root[p]):
                in_layer_root[offset] = 1
                layer = layer_names[nid]
                self.layer_self_ns[layer] = self.layer_self_ns.get(layer, 0) + s
            if nid == count_id or (p >= 0 and in_count_root[p]):
                in_count_root[offset] = 1
                self.calls_under[nid] += 1

    def count(self, name: str, under_root: bool = False) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return (self.calls_under if under_root else self.calls)[nid]

    def inclusive_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.incl_ns[nid] / 1e9

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9
