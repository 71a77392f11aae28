"""Outside-in tracing of the liemat layers.

The library is not instrumented.  Instead, ``Tracer.install`` replaces the
entry points of each ``liemat`` module with wrappers, in every module
namespace that holds a reference to them (private helpers such as
``_rref_in_place`` are imported by name into other modules), and
``Tracer.uninstall`` puts every original back and checks that it did.

Each wrapped call outside the ``fields`` layer becomes one span
``(id, name, start, end, parent, job, fields_s)``.  Field kernels run
millions of times per pass, so they are counted and timed but not kept as
spans: the time of each outermost field call is added to the ``fields_s``
of the span that made it.  A layer's self time is then its spans'
durations minus the durations of their child spans and their ``fields_s``;
``fields.self_s`` is the sum of ``fields_s``.

Wrappers only record while a job is running (``Tracer.job`` is set), so
the benchmark's own output checks never show up in the counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

from liemat import centralizers, cli, fields, jsonio, lie, matrices, recovery, subspaces

_clock = time.perf_counter
_MARK = "__perfbench_wrapped__"


# -- counting hooks ----------------------------------------------------------
# ``pre`` hooks see the arguments before the call, ``post`` hooks see the
# arguments and the result after it returned.

def _mul_zeros(tr, args):
    left = args[0]
    is_zero = left.field.is_zero
    tr.counts["matrices.mul.zeros"] += sum(is_zero(a) for row in left.entries for a in row)
    tr.counts["matrices.mul.entries"] += left.nrows * left.ncols


def _rref_cells(tr, args):
    rows = args[0]
    tr.counts["matrices.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _insert_grew(tr, args, grew):
    tr.counts["subspaces.insert.grew"] += bool(grew)


def _contains_in_certify(tr, args):
    if tr.active["lie.certify"]:
        tr.counts["lie.certify.checks"] += 1


def _preimage_cells(tr, args):
    domain, _images, target = args[:3]
    if domain and not target.is_full:
        tr.counts["subspaces.preimage.cells"] += target.ambient_dim * (len(domain) + target.dim)


def _closure_rounds(tr, args, result):
    tr.counts["lie.closure.rounds"] += result.rounds


def _chain_levels(tr, args, result):
    tr.counts["centralizers.chain.levels"] += len(result.levels)


def _branch_tried(tr, args):
    if tr.active["recovery.decompose"]:
        tr.counts["recovery.decompose.branches_tried"] += 1


def _branch_kept(tr, args, result):
    tr.counts["recovery.decompose.branches_kept"] += 1


def _parse_bytes(tr, args):
    tr.counts["jsonio.parse.bytes"] += os.path.getsize(args[0])


def _emit_bytes(tr, args, result):
    tr.counts["jsonio.emit.bytes"] += len(json.dumps(result, sort_keys=True))


# -- what gets wrapped ---------------------------------------------------------
# (span name, owner, attribute, pre hook, post hook).  The owner is a class
# (the attribute is replaced there) or a module (every liemat module that
# holds the same function object gets the wrapper).

SPANS = [
    ("matrices.mul", matrices.Matrix, "__mul__", _mul_zeros, None),
    ("matrices.add", matrices.Matrix, "__add__", None, None),
    ("matrices.sub", matrices.Matrix, "__sub__", None, None),
    ("matrices.scale", matrices.Matrix, "scale", None, None),
    ("matrices.inverse", matrices.Matrix, "inverse", None, None),
    ("matrices.kernel", matrices.Matrix, "kernel_vectors", None, None),
    ("matrices.rref", matrices, "_rref_in_place", _rref_cells, None),
    ("subspaces.insert", subspaces.SpanBuilder, "insert", None, _insert_grew),
    ("subspaces.contains", subspaces.Subspace, "contains_vec", _contains_in_certify, None),
    ("subspaces.span", subspaces.Subspace, "span", None, None),
    ("subspaces.preimage", subspaces, "preimage", _preimage_cells, None),
    ("lie.bracket", lie, "bracket", None, None),
    ("lie.left_normed", lie, "left_normed", None, None),
    ("lie.closure", lie, "closure", None, _closure_rounds),
    ("lie.certify", lie, "_certify_closed", None, None),
    ("centralizers.level", centralizers, "_next_level", None, None),
    ("centralizers.chain", centralizers, "centralizer_chain", None, _chain_levels),
    ("centralizers.nilpotency", centralizers, "nilpotency_report", None, None),
    ("centralizers.hereditary", centralizers, "hereditary_centralizer", None, None),
    ("recovery.recover_auto", recovery, "recover_automorphism", _branch_tried, None),
    ("recovery.recover_anti", recovery, "recover_antiautomorphism", _branch_tried, None),
    ("recovery.build", recovery, "conjugator_from_images", None, None),
    ("recovery.verify", recovery, "_verify_all_units", None, None),
    ("recovery.classify", recovery, "classify_map", None, None),
    ("recovery.decompose", recovery, "decompose_lie_automorphism", None, _branch_kept),
    ("jsonio.load", jsonio, "load_path", _parse_bytes, None),
    ("jsonio.map_from_json", jsonio, "algebra_map_from_json", None, None),
    ("jsonio.matrix_to_json", jsonio, "matrix_to_json", None, _emit_bytes),
    ("cli.dispatch", cli, "dispatch", None, None),
]

# (counter stem, method, counts terms), wrapped on every field class that
# defines the method; ``Field`` too, since subclasses that do not override a
# method use the base class's.
_FIELD_CLASSES = (fields.Field, fields.Rationals, fields.PrimeField, fields.ExtensionField)
FIELD_KERNELS = [
    ("fields.dot", "dot", True),
    ("fields.vec_submul", "vec_submul", True),
    ("fields.vec_scale", "vec_scale", True),
    ("fields.mul", "mul", False),
    ("fields.inv", "inv", False),
    ("fields.add", "add", False),
    ("fields.sub", "sub", False),
]

# per-layer metric -> span names whose outermost inclusive time it sums
BUSY = {
    "matrices.mul.s": ("matrices.mul",),
    "matrices.rref.s": ("matrices.rref",),
    "matrices.inverse.s": ("matrices.inverse",),
    "subspaces.insert.s": ("subspaces.insert",),
    "subspaces.contains.s": ("subspaces.contains",),
    "subspaces.preimage.s": ("subspaces.preimage",),
    "lie.closure.s": ("lie.closure",),
    "lie.certify.s": ("lie.certify",),
    "centralizers.level.s": ("centralizers.level",),
    "recovery.build.s": ("recovery.build",),
    "recovery.verify.s": ("recovery.verify",),
    "recovery.classify.s": ("recovery.classify",),
    "jsonio.parse.s": ("jsonio.load", "jsonio.map_from_json"),
    "jsonio.emit.s": ("jsonio.matrix_to_json",),
}
LAYERS = ("fields", "matrices", "subspaces", "lie", "centralizers", "recovery", "jsonio", "cli")
COUNTS = (
    "fields.dot.calls", "fields.dot.terms", "fields.vec_submul.calls",
    "fields.vec_submul.terms", "fields.mul.calls", "fields.inv.calls",
    "matrices.mul.calls", "matrices.rref.calls", "matrices.rref.cells",
    "matrices.inverse.calls", "subspaces.insert.calls", "subspaces.insert.grew",
    "subspaces.contains.calls", "subspaces.preimage.calls", "subspaces.preimage.cells",
    "lie.closure.rounds", "lie.bracket.calls", "lie.certify.checks",
    "centralizers.level.calls", "centralizers.chain.levels",
    "recovery.decompose.branches_tried", "recovery.decompose.branches_kept",
    "jsonio.parse.bytes", "jsonio.emit.bytes",
)


def _liemat_modules():
    return [m for name, m in list(sys.modules.items()) if name == "liemat" or name.startswith("liemat.")]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # span name -> calls of it now open
        self.job = None
        self._stack: list[list] = []  # [id, name, parent, start, fields_s]
        self._next_id = 0
        self._in_field = False
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- span bookkeeping ------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, parent, _clock(), 0.0])
        self._next_id += 1
        self.active[name] += 1

    def start_job(self, job) -> None:
        self.job = job
        self.begin("bench.job")

    def end_job(self) -> None:
        self.end()
        self.job = None

    def end(self):
        end = _clock()
        sid, name, parent, start, fields_s = self._stack.pop()
        self.active[name] -= 1
        self.spans.append((sid, name, start, end, parent, self.job, fields_s))

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, name, fn, pre, post):
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            if pre is not None:
                pre(self, args)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if post is not None:
                post(self, args, result)
            return result

        setattr(wrapped, _MARK, True)
        return wrapped

    def _field_wrapper(self, stem, fn, terms):
        calls, terms_key = stem + ".calls", stem + ".terms"

        @functools.wraps(fn)
        def wrapped(field, *args):
            if self.job is None:
                return fn(field, *args)
            self.counts[calls] += 1
            if terms:
                self.counts[terms_key] += len(args[0])
            if self._in_field:
                return fn(field, *args)
            self._in_field = True
            start = _clock()
            try:
                return fn(field, *args)
            finally:
                self._stack[-1][4] += _clock() - start
                self._in_field = False

        setattr(wrapped, _MARK, True)
        return wrapped

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        for name, owner, attr, pre, post in SPANS:
            original = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(original, staticmethod):
                    new = staticmethod(self._span_wrapper(name, original.__func__, pre, post))
                else:
                    new = self._span_wrapper(name, original, pre, post)
                self._patch(owner, attr, new)
                continue
            new = self._span_wrapper(name, original, pre, post)
            for module in _liemat_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, new)
        for stem, attr, terms in FIELD_KERNELS:
            for cls in _FIELD_CLASSES:
                if attr in vars(cls):
                    self._patch(cls, attr, self._field_wrapper(stem, vars(cls)[attr], terms))

    def uninstall(self):
        """Restore every patched attribute; raise if any wrapper survives."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        stale = [f"{owner.__name__}.{attr}" for owner, attr, original in patches
                 if vars(owner)[attr] is not original]
        classes = {owner for _n, owner, *_ in SPANS if isinstance(owner, type)}
        for owner in _liemat_modules() + sorted(classes | set(_FIELD_CLASSES), key=repr):
            for key, value in vars(owner).items():
                inner = value.__func__ if isinstance(value, staticmethod) else value
                if getattr(inner, _MARK, False):
                    stale.append(f"{owner.__name__}.{key}")
        if stale:
            raise RuntimeError("wrapped attributes not restored: " + ", ".join(sorted(set(stale))))

    # -- per-layer metrics from the spans ------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of this pass (times in s, the rest counts
        or ratios), derived from the recorded spans and counters."""
        child_s = defaultdict(float)
        by_id = {}
        for sid, name, start, end, parent, _job, _fs in self.spans:
            by_id[sid] = (name, parent)
            if parent is not None:
                child_s[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_s["fields"] = sum(s[6] for s in self.spans)
        busy = dict.fromkeys(BUSY, 0.0)
        owners = defaultdict(list)
        for metric, names in BUSY.items():
            for name in names:
                owners[name].append(metric)
        for sid, name, start, end, parent, _job, fields_s in self.spans:
            layer = name.split(".", 1)[0]
            if layer in self_s:
                self_s[layer] += end - start - child_s[sid] - fields_s
            for metric in owners.get(name, ()):
                if not self._nested_in(parent, BUSY[metric], by_id):
                    busy[metric] += end - start
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update(busy)
        out.update({key: self.counts[key] for key in COUNTS})
        c = self.counts
        out["matrices.mul.zero_frac"] = c["matrices.mul.zeros"] / c["matrices.mul.entries"] if c["matrices.mul.entries"] else 0.0
        out["subspaces.insert.useful_ratio"] = c["subspaces.insert.grew"] / c["subspaces.insert.calls"] if c["subspaces.insert.calls"] else 0.0
        return out

    @staticmethod
    def _nested_in(sid, names, by_id) -> bool:
        while sid is not None:
            name, parent = by_id[sid]
            if name in names:
                return True
            sid = parent
        return False

    def write_spans(self, fh, pass_index: int) -> None:
        """One JSON array per span: pass, id, name, start, end, parent, job, fields_s."""
        for span in self.spans:
            fh.write(json.dumps([pass_index, *span]) + "\n")
