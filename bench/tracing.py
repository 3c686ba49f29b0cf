"""Span tracing around eomkit's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in *every*
``eomkit`` module that bound it by name (``process``, ``transforms`` and
``verify`` all import ``normalization_constant`` from ``models``), and a
traced method on its class.  Each call records one span

    (function index, start, end, parent span, request id, items, argument key)

in an in-memory list, so call counts and sizes are taken at the same boundary
as the times.  ``summarize`` turns a span list into per-function figures:

* ``calls``: number of spans;
* ``self_s``: span time minus the part of it that child spans cover;
* ``items``: rows or entries produced (bytes for ``to_json``);
* ``distinct``: distinct argument keys, counted within each state lifetime
  (one request for the CLI, the whole run for a session); over ``calls`` it
  gives the ``distinct_frac`` the benchmark reports.
"""

import functools
import importlib
import itertools
import sys
import time
import weakref

#: traced functions as ``<module>.<function>`` or ``<module>.<Class>.<method>``
TRACED = (
    "combinat.enumerate_compositions",
    "combinat.distinct_permutations",
    "combinat.enumerate_labels",
    "models.weight_model",
    "models.normalization_constant",
    "models.sample_exact",
    "models.label_distribution",
    "models.is_exchangeable",
    "models.conditional_from_iid",
    "transforms.erase_cell",
    "transforms.drop_particle",
    "transforms.condition_on_partial_sum",
    "transforms.check_drop_closure",
    "transforms.product_form_weights",
    "process.build_process",
    "process.count_distribution",
    "process.structure_function",
    "process.FiniteProcess.marginal",
    "process.check_characterizations",
    "process.check_mixed_geometric_form",
    "process.check_structure_recursion",
    "process.transition_probability",
    "verify.eom_suite",
    "verify.transforms_suite",
    "verify.theorem_suite",
    "verify.classic_suite",
    "serialize.to_json",
    "serialize.table_doc",
    "serialize.rows_to_csv",
    "cli.main",
)
#: span name of a whole request; its self time is work outside every traced call
REQUEST = "request"
NAMES = TRACED + (REQUEST,)


def _table_size(d) -> int:
    return len(d.table)


ITEMS = {
    "combinat.enumerate_compositions": len,
    "combinat.distinct_permutations": len,
    "combinat.enumerate_labels": len,
    "models.weight_model": _table_size,
    "models.label_distribution": _table_size,
    "models.conditional_from_iid": _table_size,
    "transforms.erase_cell": _table_size,
    "transforms.drop_particle": _table_size,
    "transforms.condition_on_partial_sum": _table_size,
    "process.build_process": lambda p: len(p.joint),
    "process.count_distribution": len,
    "process.FiniteProcess.marginal": len,
    "serialize.table_doc": lambda doc: len(doc["entries"]),
    "serialize.to_json": len,
    "serialize.rows_to_csv": lambda text: text.count("\n") - 1,
}
#: functions whose argument keys are recorded for ``distinct_frac``
KEYED = ("models.normalization_constant", "process.count_distribution")


class Tracer:
    """Records spans while installed; ``request`` tags the spans that follow."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack = [-1]
        self._saved: list = []  # (namespace, attribute, original)
        self._identities: dict = {}  # id -> (weakref, serial)
        self._serials = itertools.count(1)

    # ------------------------------------------------------------ install
    def install(self, package: str = "eomkit") -> None:
        for dotted in TRACED:
            importlib.import_module(f"{package}.{dotted.partition('.')[0]}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for index, dotted in enumerate(TRACED):
            module_name, _, attr = dotted.partition(".")
            module = sys.modules[f"{package}.{module_name}"]
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(index, dotted, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, dotted, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def _patch(self, namespace, name, value) -> None:
        self._saved.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def uninstall(self) -> None:
        while self._saved:
            namespace, name, original = self._saved.pop()
            setattr(namespace, name, original)

    # -------------------------------------------------------------- spans
    def _wrap(self, index: int, dotted: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        items = ITEMS.get(dotted)
        key = self._key if dotted in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (
                    index, start, end, parent, self.request,
                    items(result) if items and result is not None else 0,
                    key(args) if key else None,
                )

        return traced

    def begin_request(self, request_id: int) -> int:
        """Open the root span of a request; returns its slot."""
        self.request = request_id
        slot = len(self.spans)
        self.spans.append((len(TRACED), time.perf_counter(), None, -1, request_id, 0, None))
        self._stack.append(slot)
        return slot

    def end_request(self, slot: int) -> None:
        self._stack.pop()
        name, start, _, parent, request, items, key = self.spans[slot]
        self.spans[slot] = (name, start, time.perf_counter(), parent, request, items, key)

    def _identity(self, obj) -> int:
        """Serial number of a live object; a new object at a reused id gets a new one."""
        entry = self._identities.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), next(self._serials))
            self._identities[id(obj)] = entry
        return entry[1]

    def _key(self, args) -> int:
        """Hash of the arguments: by value, or by identity where unhashable."""
        try:
            return hash(args)
        except TypeError:
            return hash(tuple(self._identity(a) if _unhashable(a) else a for a in args))


def _unhashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return True
    return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def summarize(spans, per_request_scope: bool) -> dict:
    """Per-function calls, self_s, items and distinct argument keys of a span list."""
    stats = {name: {"calls": 0, "self_s": 0.0, "items": 0, "distinct": set()}
             for name in NAMES}
    for span, own in zip(spans, self_times(spans)):
        entry = stats[NAMES[span[0]]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["items"] += span[5]
        if span[6] is not None:
            entry["distinct"].add((span[4] if per_request_scope else 0, span[6]))
    for entry in stats.values():
        entry["distinct"] = len(entry["distinct"])
    return stats
