"""Per-layer timing from outside the program, by wrapping its public functions.

`LayerTracer.install()` replaces every public function of every
`satake` module with a timing wrapper, in every `satake` namespace that
holds it: `spherical` calls `expand_product` through its own imported
name, so patching `cone_series` alone would miss that call.  Module-level
dicts of functions (the preset table) are patched the same way, and the
arithmetic operators of `QLaurent` are wrapped on the class.

A module's public functions are the functions named in its `__all__`;
for a module that declares none (`root_weyl`, `linalg`) they are every
module-level function defined there whose name has no leading
underscore.  The lattice-vector helpers in `HOT_HELPERS` (`pair`,
`vadd`, `intify`, ...) are left unwrapped: they run tens of millions of
times, so a wrapper would time itself; their time counts as self time
of the calling layer.  The rendering methods of the public classes
(`RENDER_METHODS`: `QLaurent.render`, `ConeSeries.serialize`,
`HeckeValueTable.to_tsv`, ...) are wrapped on their classes, so the time
spent printing a result is charged to the layer that owns the class.

Every wrapped call opens a span with a parent; a layer's self time is
its span time minus the time of the wrapped spans inside it.  Spans are
kept in memory and written out when the run ends.  `QLaurent` operator
calls are summed into per-operator counters instead of being stored one
by one, since a run makes millions of them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("qlaurent", "root_weyl", "linalg", "cone_series", "rep_chars",
          "spherical", "li_oracle", "datumfile", "cli")

HOT_HELPERS = frozenset({"intify", "vadd", "vsub", "vneg", "vscale", "pair", "reflect",
                         "reflection_matrix", "mat_apply", "mat_mul", "identity_matrix"})

RENDER_METHODS = ("render", "serialize", "to_tsv", "to_records")

QLAURENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


def public_functions(satake) -> dict[str, object]:
    """Map "layer.name" to each public function of the package."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{satake.__name__}.{layer}")
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_") and n not in HOT_HELPERS]
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out[f"{layer}.{name}"] = fn
    return out


def render_methods(satake) -> list[tuple[str, type, str]]:
    """("layer.Class.method", class, method) for each rendering method."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"{satake.__name__}.{layer}")
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and not name.startswith("_")):
                out += [(f"{layer}.{name}.{m}", cls, m) for m in RENDER_METHODS
                        if inspect.isfunction(cls.__dict__.get(m))]
    return out


class LayerTracer:
    """Span recorder; install() patches the package in place."""

    def __init__(self, satake):
        self.satake = satake
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end)
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [child_s, id, name, job]
        self._next_id = 0
        self._seen: dict[str, set] = {}
        self.patched: list[tuple] = []  # (module, class or dict; name; original)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, job=None) -> list:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, self._next_id, name, job if parent is None else parent[3], parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float, record: bool = True) -> None:
        self._stack.pop()
        dt = end - start
        stat = self.stats.setdefault(frame[2], [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - frame[0]
        parent = frame[4]
        if parent is not None:
            parent[0] += dt
        if record:
            self.spans.append((frame[1], parent[1] if parent else None, frame[3], frame[2], start, end))

    @contextlib.contextmanager
    def job(self, job_id: int):
        """The root span of one job; every span inside it carries job_id."""
        frame = self._open("bench.job", job_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def wrap(self, name: str, fn, record: bool = True, after=None):
        """A timing wrapper of fn; after(frame, args, result) runs on return."""
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, clock(), record)
            if after is not None:
                after(frame, args, result)
            return result

        return wrapper

    # -- counters measured where the work happens -------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _distinct(self, key: str, item) -> None:
        seen = self._seen.setdefault(key, set())
        if item not in seen:
            seen.add(item)
            self._count(key + ".distinct")

    def _after_hooks(self) -> dict:
        def macdonald(frame, args, result):
            self._count("spherical.macdonald_p.terms_out", len(result.terms))

        def series_out(frame, args, result):
            parent = frame[4]
            if parent is None or not parent[2].startswith("cone_series."):
                self._count("cone_series.terms_out", len(result.support()))

        def partition(frame, args, result):
            d, mu = args[0], args[1]
            self._distinct("li_oracle.li_partition", (frame[3], id(d), tuple(mu)))

        def weyl_of(frame, args, result):
            self._distinct("root_weyl.weyl_of", args[0])

        def enumerate_weyl(frame, args, result):
            self._count("root_weyl.weyl_elements", len(result))

        hooks = {
            "spherical.macdonald_p": macdonald,
            "li_oracle.li_partition": partition,
            "root_weyl.weyl_of": weyl_of,
            "root_weyl.enumerate_weyl": enumerate_weyl,
        }
        for name in ("series_mul", "expand_product", "geometric_inverse", "restrict_antidominant"):
            hooks[f"cone_series.{name}"] = series_out
        return hooks

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        originals = public_functions(self.satake)
        hooks = self._after_hooks()
        wrappers = {id(fn): self.wrap(name, fn, after=hooks.get(name))
                    for name, fn in originals.items()}
        prefix = self.satake.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, wrappers[id(item)])
        cls = self.satake.qlaurent.QLaurent
        for op in QLAURENT_OPS:
            self._patch(cls, op, self.wrap(f"qlaurent.{op}", cls.__dict__[op], record=False))
        for name, cls, method in render_methods(self.satake):
            # QLaurent.render runs once per printed coefficient: counted, not stored
            self._patch(cls, method, self.wrap(name, cls.__dict__[method],
                                               record=not name.startswith("qlaurent.")))

    def _patch(self, where, key, wrapper) -> None:
        if isinstance(where, dict):
            self.patched.append((where, key, where[key]))
            where[key] = wrapper
        else:
            self.patched.append((where, key, vars(where)[key]))
            setattr(where, key, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for where, key, original in reversed(self.patched):
            if isinstance(where, dict):
                where[key] = original
            else:
                setattr(where, key, original)
        self.patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of a traced pass that took wall_s.

        Self times are in seconds.  A layer or entry point the workload
        never calls reads 0 s, with a call count of 0 beside it.
        """
        m: dict[str, float] = {"trace.wall_s": wall_s}

        def stat(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum((v[2] for k, v in self.stats.items()
                                        if k.split(".")[0] == layer), 0.0)
        m["bench.self_s"] = stat("bench.job")[2]
        for name in ("spherical.macdonald_p", "spherical.pairing", "cone_series.series_mul",
                     "cone_series.expand_product", "rep_chars.lowest_weight_rep",
                     "root_weyl.enumerate_weyl", "linalg.find_witness", "linalg.cone_facets",
                     "datumfile.parse_datum", "li_oracle.li_partition"):
            m[f"{name}.calls"] = stat(name)[0]
            m[f"{name}.self_s"] = stat(name)[2]
        for name in ("spherical.inverse_satake_lfun", "li_oracle.li_coefficient", "cli.main"):
            m[f"{name}.self_s"] = stat(name)[2]
        m["spherical.macdonald_p.terms_out"] = self.counts.get("spherical.macdonald_p.terms_out", 0)
        m["cone_series.terms_out"] = self.counts.get("cone_series.terms_out", 0)
        m["qlaurent.ops"] = sum(stat(f"qlaurent.{op}")[0] for op in QLAURENT_OPS)
        calls = stat("li_oracle.li_partition")[0]
        distinct = self.counts.get("li_oracle.li_partition.distinct", 0)
        m["li_oracle.li_partition.distinct"] = distinct
        m["li_oracle.partition_hit_ratio"] = (calls - distinct) / calls if calls else 0.0
        m["root_weyl.weyl_elements"] = self.counts.get("root_weyl.weyl_elements", 0)
        calls = stat("root_weyl.weyl_of")[0]
        distinct = self.counts.get("root_weyl.weyl_of.distinct", 0)
        m["root_weyl.weyl_of.hit_ratio"] = (calls - distinct) / calls if calls else 0.0
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "job", "name", "start", "end"), span))) + "\n")
