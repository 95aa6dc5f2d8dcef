"""Outside-in span tracer for the stealthdeg package.

``Tracer.install`` wraps every public function and every public method (plus
``__init__``) of each package module, then rebinds the wrapper at every name
a caller looks up: the defining module, the package namespace and every
module that imported the function by name.  Patching only the defining
module would miss, say, ``experiment_harness.greedy_maximize``.  Nothing in
the package is edited on disk; ``uninstall`` restores the originals.

Spans live in flat in-memory lists (name, start, end, parent) and are
written out once at the end.  A span's self time is its duration minus the
durations of its direct children.  Generator functions are counted per
yielded item instead of timed, since their body runs inside the caller's
loop.
"""

import enum
import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

import numpy as np

OBJECTIVE = "degradation_opt.ObjectiveEvaluator.objective"
ENTRY = "cli.main"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.labels = []
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.yields = Counter()
        self.redundant_objective = 0
        self._seen_phi = set()
        self._stack = []
        self._label_ids = {}
        self._undo = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        pkg = self.package
        names = sorted(info.name for info in pkgutil.iter_modules(pkg.__path__))
        return [importlib.import_module(f"{pkg.__name__}.{n}") for n in names]

    def _setattr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = self._modules()
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in [self.package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._setattr(mod, attr, wrapped[obj])

    def _wrap_class(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            label = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                self._setattr(cls, attr, self._wrap(label, member))
            elif isinstance(member, classmethod):
                self._setattr(cls, attr, classmethod(self._wrap(label, member.__func__)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- recording ----------------------------------------------------------

    def _label_id(self, label):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _on_entry(self, label, args):
        if label == ENTRY:
            self._seen_phi.clear()
        elif label == OBJECTIVE:
            key = np.asarray(args[1], dtype=float).tobytes()
            if key in self._seen_phi:
                self.redundant_objective += 1
            else:
                self._seen_phi.add(key)

    def _wrap(self, label, fn):
        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    yields[label] += 1
                    yield item

            return counting

        label_id = self._label_id(label)
        observe = label in (ENTRY, OBJECTIVE)
        name, start, end, parent, stack = (
            self.name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if observe:
                self._on_entry(label, args)
            i = len(start)
            name.append(label_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return span

    # -- results ------------------------------------------------------------

    def aggregate(self):
        """{label: (calls, inclusive seconds, self seconds)}."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        children = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        own = dur - children
        names = np.asarray(self.name, dtype=np.int64)
        out = {}
        for label_id, label in enumerate(self.labels):
            mask = names == label_id
            out[label] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
        return out

    def write(self, path):
        """Write spans as CSV: id, root (one per CLI call), parent, name, start, end."""
        root = []
        with open(path, "w", newline="\n") as fh:
            fh.write("id,root,parent,name,start_s,end_s\n")
            for i, (label_id, p, s, e) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)):
                root.append(i if p < 0 else root[p])
                fh.write(f"{i},{root[i]},{p},{self.labels[label_id]},{s!r},{e!r}\n")
