"""Layer tracer for latticeforge, installed from outside the package.

Every public function of a layer module, and every public method of a class
defined there (plus ``Matrix.__matmul__``), is replaced by a wrapper in each
namespace that bound it by name.  A call that crosses from one layer into
another opens a span; calls that stay inside the caller's layer are only
counted.  When a span closes it is folded into in-memory aggregates (inclusive
time per function, self time per layer); nothing is written until the run
ends, and memory stays constant however many spans a run opens.

A layer's self time is the duration of its spans minus the durations of the
spans of other layers opened directly inside them.  The tracer is not
thread-safe: the benchmark runs the program with ``--jobs 1``.
"""

import functools
import inspect
import sys
import time

# Layers are the modules of latticeforge.  The value is the ROADMAP level the
# module stands for (L0-L5); `lattice` and `catalog` have none.  `errors`
# does no work and is not traced.
LAYERS = {
    "linalg": "L0",
    "lattice": None,
    "discform": "L1",
    "shortvec": "L2",
    "glue": "L3",
    "isom": "L3",
    "catalog": None,
    "verify": "L4",
    "cli": "L5",
}

# Inclusive timings summed over the spans of these functions, i.e. over calls
# entered from another layer (the outermost call inside the layer).
GROUPS = {
    "linalg.elim": ("linalg.det", "linalg.bareiss_det", "linalg.inverse",
                    "linalg.smith_normal_form", "linalg.hermite_normal_form",
                    "linalg.integer_kernel", "linalg.rational_signature"),
    "linalg.apply": ("linalg.Matrix.apply", "linalg.Matrix.__matmul__"),
    "shortvec.ball": ("shortvec.vectors_up_to",),
    "shortvec.shell": ("shortvec.vectors_of_norm", "shortvec.count_vectors",
                       "shortvec.minimum", "shortvec.has_square_one",
                       "shortvec.root_report"),
    "shortvec.isometry": ("shortvec.definite_isometric",),
    "discform.iso": ("discform.forms_isomorphic",),
    "isom.spinor": ("isom.spinor_norm",),
    "verify.lambda_p": ("verify.verify_lambda_p",),
    "verify.k3": ("verify.verify_k3_table",),
    "verify.candidates": ("verify.derive_og10_order3_candidates",),
    "verify.cubic": ("verify.verify_cubic_tables",),
    "verify.lsv": ("verify.verify_lsv_table",),
}

_EXTRA_METHODS = ("__matmul__",)


class Tracer:
    """Wraps callables, counts calls and aggregates spans per layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}  # qualified name -> calls, nested ones included
        self.span_calls = {}  # qualified name -> spans (calls from another layer)
        self.span_s = {}  # qualified name -> inclusive seconds of its spans
        self.layer_self_s = {layer: 0.0 for layer in LAYERS}
        self.layer_spans = {layer: 0 for layer in LAYERS}
        self.observed = {
            "vectors_returned": 0,
            "isometry_searches": 0,
            "isometry_found": 0,
            "iso_true": 0,
            "iso_group_order_max": 0,
            "rows": 0,
        }
        # frames are [layer, seconds spent in child spans]; the root frame
        # belongs to no layer, so the first call into any layer opens a span
        self._stack = [[None, 0.0]]
        self._parse_cache = None
        self._parse_cache_start = None

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, layer, observe=None):
        """Return a wrapper of `fn` that records calls under `name`."""
        clock = self.clock
        stack = self._stack
        calls = self.calls
        span_calls = self.span_calls
        span_s = self.span_s
        layer_self_s = self.layer_self_s
        layer_spans = self.layer_spans
        calls[name] = 0
        span_calls[name] = 0
        span_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    stack[-1][1] += duration
                    span_calls[name] += 1
                    span_s[name] += duration
                    layer_spans[layer] += 1
                    layer_self_s[layer] += duration - frame[1]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self, package="latticeforge"):
        """Wrap every public callable of the layer modules of `package`."""
        modules = [sys.modules[name] for name in sorted(sys.modules)
                   if name == package or name.startswith(package + ".")]
        observers = self._observers()
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (package, layer)]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, observers)
                elif _defined_function(obj, mod):
                    name = "%s.%s" % (layer, attr)
                    wrapper = self.wrap(obj, name, layer, observers.get(name))
                    if hasattr(obj, "cache_info"):
                        # keep the lru_cache reachable; hits are read from it
                        wrapper.cache_info = obj.cache_info
                        wrapper.cache_clear = obj.cache_clear
                        if name == "lattice.from_expression":
                            self._parse_cache = obj
                            self._parse_cache_start = obj.cache_info()
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, key, wrapper)

    def _wrap_class(self, cls, layer, observers):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _EXTRA_METHODS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = self.wrap(value.__func__, name, layer, observers.get(name))
                setattr(cls, attr, type(value)(wrapped))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, name, layer, observers.get(name)))

    def _observers(self):
        obs = self.observed

        def vectors(args, kwargs, result):
            if isinstance(result, dict):  # vectors_up_to buckets
                obs["vectors_returned"] += sum(len(v) for v in result.values())
            elif isinstance(result, tuple):  # count_vectors(want_list=True)
                obs["vectors_returned"] += result[0]
            elif isinstance(result, int):
                obs["vectors_returned"] += result
            else:
                obs["vectors_returned"] += len(result)

        def isometry(args, kwargs, result):
            obs["isometry_searches"] += 1
            obs["isometry_found"] += result is not None

        def forms_iso(args, kwargs, result):
            ok = result[0] if isinstance(result, tuple) else result
            obs["iso_true"] += bool(ok)
            orders = max(args[0].group_order, args[1].group_order)
            obs["iso_group_order_max"] = max(obs["iso_group_order_max"], orders)

        def rows(args, kwargs, result):
            report = result[0] if isinstance(result, tuple) else result
            obs["rows"] += len(report.rows)

        table = {name: rows for name in (
            "verify.verify_lambda_p", "verify.verify_k3_table",
            "verify.derive_og10_order3_candidates", "verify.verify_cubic_tables",
            "verify.verify_lsv_table")}
        table.update({
            "shortvec.vectors_of_norm": vectors,
            "shortvec.vectors_up_to": vectors,
            "shortvec.count_vectors": vectors,
            "shortvec.definite_isometric": isometry,
            "discform.forms_isomorphic": forms_iso,
        })
        return table

    # -- results ------------------------------------------------------------

    def group_s(self, group):
        return sum(self.span_s.get(name, 0.0) for name in GROUPS[group])

    def group_calls(self, group):
        return sum(self.span_calls.get(name, 0) for name in GROUPS[group])

    def parse_hit_ratio(self):
        if self._parse_cache is None:
            return 0.0
        now = self._parse_cache.cache_info()
        hits = now.hits - self._parse_cache_start.hits
        misses = now.misses - self._parse_cache_start.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self):
        """Per-layer metrics by name: counts, seconds and ratios."""
        calls = self.calls
        obs = self.observed
        self_s = self.layer_self_s
        searches = obs["isometry_searches"]
        iso_calls = calls.get("discform.forms_isomorphic", 0)
        out = {
            "linalg.elim_calls": (self.group_calls("linalg.elim"), "count"),
            "linalg.elim_s": (self.group_s("linalg.elim"), "s"),
            "linalg.apply_calls": (self.group_calls("linalg.apply"), "count"),
            "linalg.apply_s": (self.group_s("linalg.apply"), "s"),
            "linalg.self_s": (self_s["linalg"], "s"),
            "lattice.inner_calls": (calls.get("lattice.Lattice.inner", 0), "count"),
            "lattice.self_s": (self_s["lattice"], "s"),
            "lattice.parse_calls": (calls.get("lattice.from_expression", 0), "count"),
            "lattice.parse_hit_ratio": (self.parse_hit_ratio(), "ratio"),
            "shortvec.calls": (self.layer_spans["shortvec"], "count"),
            "shortvec.self_s": (self_s["shortvec"], "s"),
            "shortvec.vectors_returned": (obs["vectors_returned"], "count"),
            "shortvec.ball_s": (self.group_s("shortvec.ball"), "s"),
            "shortvec.shell_s": (self.group_s("shortvec.shell"), "s"),
            "shortvec.isometry_s": (self.group_s("shortvec.isometry"), "s"),
            "shortvec.isometry_found_ratio": (
                obs["isometry_found"] / searches if searches else 0.0, "ratio"),
            "discform.self_s": (self_s["discform"], "s"),
            "discform.form_calls": (calls.get("discform.discriminant_form", 0), "count"),
            "discform.iso_calls": (iso_calls, "count"),
            "discform.iso_s": (self.group_s("discform.iso"), "s"),
            "discform.iso_group_order_max": (obs["iso_group_order_max"], "count"),
            "discform.iso_true_ratio": (
                obs["iso_true"] / iso_calls if iso_calls else 0.0, "ratio"),
            "discform.gauss_calls": (calls.get("discform.milgram_signature", 0), "count"),
            "glue.self_s": (self_s["glue"], "s"),
            "glue.calls": (self.layer_spans["glue"], "count"),
            "glue.extension_calls": (calls.get("glue.overlattice", 0), "count"),
            "isom.self_s": (self_s["isom"], "s"),
            "isom.calls": (self.layer_spans["isom"], "count"),
            "isom.spinor_s": (self.group_s("isom.spinor"), "s"),
            "catalog.self_s": (self_s["catalog"], "s"),
            "catalog.fixture_calls": (calls.get("catalog.fixture_lattices", 0), "count"),
            "verify.self_s": (self_s["verify"], "s"),
            "verify.rows": (obs["rows"], "count"),
            "cli.self_s": (self_s["cli"], "s"),
            "cli.calls": (self.layer_spans["cli"], "count"),
        }
        for table in ("lambda_p", "k3", "candidates", "cubic", "lsv"):
            out["verify.%s_s" % table] = (self.group_s("verify." + table), "s")
        return out


def _defined_function(obj, mod):
    """True for plain or lru_cache-wrapped functions defined in `mod`."""
    fn = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__
