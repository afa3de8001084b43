"""Outside-in layer tracing of schubcalc by rebinding its public functions.

install() wraps every public function defined in the layer modules and
replaces each binding of it in every schubcalc module namespace, so
`from .lr import inscribes` in shimura is wrapped too.  Each call opens a
span (name, start, end, parent, query id).  A span's self time is its
duration minus the time its child spans cover; self time, call count and
raise count are summed per function as spans close.  Private helpers are
not wrapped: their time is part of the public function that called them.

Spans are kept in memory, up to SPAN_CAP of them, and written by
write_spans() when the run ends.  Totals are exact whatever the cap.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

SPAN_CAP = 500_000


class Tracer:
    def __init__(self, layers, observers=None, clock=time.perf_counter):
        """layers: module names under schubcalc.  observers: {"layer.func":
        fn(args, kwargs, result)}, called after each call that returns, for
        counters that need the arguments or the result."""
        self.layers = tuple(layers)
        self.observers = dict(observers or {})
        self.clock = clock
        self.names = []  # function id -> "layer.func"
        self.calls = []
        self.raised = []
        self.self_s = []
        self.query = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self._stack = []  # [span index or -1, child seconds, start] per open call
        self._bindings = []  # (namespace dict, attribute, original)

    # -------------------------------------------------------- install

    def install(self):
        wrappers = {}
        for layer in self.layers:
            mod = importlib.import_module("schubcalc." + layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(len(self.names), obj)
                self.names.append("%s.%s" % (layer, attr))
                self.calls.append(0)
                self.raised.append(0)
                self.self_s.append(0.0)
        for modname, mod in list(sys.modules.items()):
            if modname != "schubcalc" and not modname.startswith("schubcalc."):
                continue
            space = vars(mod)
            for attr, obj in list(space.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((space, attr, obj))
                    space[attr] = wrappers[obj]
        return self

    def uninstall(self):
        for space, attr, original in reversed(self._bindings):
            space[attr] = original
        self._bindings = []

    def _wrap(self, fid, fn):
        clock, stack, enter, leave = self.clock, self._stack, self._enter, self._leave
        observer = self.observers.get("%s.%s" % (fn.__module__.rpartition(".")[2], fn.__name__))

        if inspect.isgeneratorfunction(fn):
            # the body runs as the consumer resumes it: one span per resume
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[fid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    enter(fid)
                    try:
                        value = next(gen)
                    except StopIteration:
                        leave(fid, False)
                        return
                    except BaseException:
                        leave(fid, True)
                        raise
                    leave(fid, False)
                    yield value

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[fid] += 1
            enter(fid)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                leave(fid, raised)
            if observer is not None:
                # the observer's own time is charged to no span
                start = clock()
                observer(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - start
            return result

        return traced

    def _enter(self, fid):
        self._stack.append([self._open(fid), 0.0, self.clock()])

    def _leave(self, fid, raised):
        end = self.clock()
        span, child, start = self._stack.pop()
        duration = end - start
        self.self_s[fid] += duration - child
        if raised:
            self.raised[fid] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if span >= 0:
            self.span_start[span] = start
            self.span_end[span] = end

    def _open(self, fid):
        if len(self.span_name) >= SPAN_CAP:
            self.spans_dropped += 1
            return -1
        index = len(self.span_name)
        self.span_name.append(fid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_query.append(self.query)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return index

    # -------------------------------------------------------- results

    def per_function(self):
        """{"layer.func": (calls, self seconds, raised)} for every wrapped function."""
        return {
            name: (self.calls[i], self.self_s[i], self.raised[i]) for i, name in enumerate(self.names)
        }

    def per_layer(self):
        """{layer: (calls, self seconds)}."""
        out = {layer: [0, 0.0] for layer in self.layers}
        for name, (calls, self_s, _) in self.per_function().items():
            entry = out[name.partition(".")[0]]
            entry[0] += calls
            entry[1] += self_s
        return {layer: tuple(v) for layer, v in out.items()}

    def write_spans(self, path):
        """Tab-separated spans: index, name, parent index, query, start, end."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tquery\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    "%d\t%s\t%d\t%d\t%.9f\t%.9f\n"
                    % (
                        i,
                        self.names[self.span_name[i]],
                        self.span_parent[i],
                        self.span_query[i],
                        self.span_start[i],
                        self.span_end[i],
                    )
                )


# ------------------------------------------------------------ schubcalc layers

LAYERS = ("partition", "skew", "tableau", "lr", "cohomology", "shimura", "cli")

# Functions with their own per-layer metrics; none is a private helper,
# which later refactors may delete.
NAMED_CALLS = ("lr.lr_coefficient", "lr.multi_lr_coefficient", "lr.inscribes", "shimura.make_pair")
NAMED_SELF = (
    "lr.lr_coefficient",
    "lr.schur_expand",
    "lr.multi_lr_coefficient",
    "shimura.enumerate_pairs",
    "cli.build_parser",
)


class _Outcomes:
    """Result counters gathered by tracer observers."""

    def __init__(self):
        self.chains = 0  # rectangle_decomposition calls that found a chain
        self.lr_nonzero = 0
        self.lr_repeat = 0
        self.lr_seen = set()
        self.inscribes_positive = 0

    def rectangle_decomposition(self, args, kwargs, result):
        self.chains += result is not None

    def lr_coefficient(self, args, kwargs, result):
        self.lr_nonzero += result != 0
        key = tuple(tuple(a) for a in args)
        self.lr_repeat += key in self.lr_seen
        self.lr_seen.add(key)

    def inscribes(self, args, kwargs, result):
        self.inscribes_positive += bool(result)


def make_tracer():
    outcomes = _Outcomes()
    t = Tracer(
        LAYERS,
        observers={
            "skew.rectangle_decomposition": outcomes.rectangle_decomposition,
            "lr.lr_coefficient": outcomes.lr_coefficient,
            "lr.inscribes": outcomes.inscribes,
        },
    )
    t.outcomes = outcomes
    return t


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(t):
    """The per-layer metrics of a finished traced pass, by name."""
    fns = t.per_function()
    out = {}
    for layer, (calls, self_s) in t.per_layer().items():
        out[layer + ".calls"] = calls
        out[layer + ".self_s"] = self_s
    for name in NAMED_CALLS:
        out[name + ".calls"] = fns[name][0]
    for name in NAMED_SELF:
        out[name + ".self_s"] = fns[name][1]
    o = t.outcomes
    lr_calls = fns["lr.lr_coefficient"][0]
    out["skew.chain_ratio"] = _ratio(o.chains, fns["skew.rectangle_decomposition"][0])
    out["shimura.make_pair.reject_ratio"] = _ratio(fns["shimura.make_pair"][2], fns["shimura.make_pair"][0])
    out["lr.lr_coefficient.nonzero_ratio"] = _ratio(o.lr_nonzero, lr_calls)
    out["lr.lr_coefficient.repeat_ratio"] = _ratio(o.lr_repeat, lr_calls)
    out["lr.inscribes.positive_ratio"] = _ratio(o.inscribes_positive, fns["lr.inscribes"][0])
    return out
