"""Outside-in span tracer for the mobiusboot layers.

The tracer wraps the functions that form each module's public boundary and
records one span per call: name, parent span, start and end.  Nothing in the
package is edited; the wrappers are installed at run time.

Modules import each other's functions by name (``from .resampling import
apply_S``), so every module holds its own binding of the same function
object.  A wrapper placed only on the defining module would miss calls made
through the other bindings, so ``install`` replaces every binding, in every
loaded ``mobiusboot`` module, that refers to a wrapped function.

Spans stay in memory as a flat integer array and are written out once, by
``dump``, when the traced process ends.
"""

import functools
import json
import os
import sys
import time
from array import array

LAYERS = ("lattice", "moments", "resampling", "debias", "mc", "cli")

# The public functions each layer is timed through.  Small helpers called once
# per merge (falling_factorial, bell, ...) are left out on purpose: a span per
# call there would cost more than the work it measures.
BOUNDARY = {
    "lattice": (
        "enumerate_partitions",
        "coarsenings",
        "cover_edges",
        "zeta_matrix",
        "mobius_matrix",
    ),
    "moments": (
        "evaluate",
        "empirical_moment",
        "normal_moment_table",
        "reachable_blocks",
        "polynomial_from_dict",
        "polynomial_to_dict",
        "dataset_from_csv",
    ),
    "resampling": (
        "apply_S",
        "sampling_matrix",
        "factorization",
        "reduced_matrix",
        "one_norm_direct",
        "one_norm_id_minus_S",
        "one_norm_id_minus_scaled",
    ),
    "debias": (
        "exact_bias",
        "richardson_debias",
        "richardson_neumann",
        "nonstationary_debias",
        "bias_bound",
    ),
    "mc": (
        "expansion_coefficients",
        "resample",
        "mc_estimate",
        "exhaustive_estimate",
        "bias_experiment",
    ),
    "cli": ("main",),
}

METHODS = {"cli": (("Artifact", "add_table"), ("Artifact", "write"))}

SPAN_FIELDS = 5  # span id, name index, parent span id (-1 at the root), start ns, end ns


def _bit_length(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _count_apply_S(counts, args, kwargs, result, bell):
    F = args[0] if args else kwargs["F"]
    counts["resampling.apply_S.terms_in"] += len(F.terms)
    counts["resampling.apply_S.terms_out"] += len(result.terms)
    counts["resampling.apply_S.merges"] += sum(bell(t.block_count) for t in F.terms)


def _count_sampling_matrix(counts, args, kwargs, result, bell):
    counts["resampling.sampling_matrix.cells"] += len(result.index) ** 2


def _count_exact_bias(counts, args, kwargs, result, bell):
    for rec in result.records:
        terms = rec.estimator.terms
        counts["debias.iterate_terms_max"] = max(counts["debias.iterate_terms_max"], len(terms))
        if rec.estimator.exact:
            bits = max((_bit_length(c) for c in terms.values()), default=0)
            counts["debias.coeff_bits_max"] = max(counts["debias.coeff_bits_max"], bits)


def _count_mc_estimate(counts, args, kwargs, result, bell):
    counts["mc.replicas"] += result.replicas


def _count_bias_experiment(counts, args, kwargs, result, bell):
    counts["mc.replicas"] += sum(row.report.replicas for row in result)


def _count_write(counts, args, kwargs, result, bell):
    base = args[1] if len(args) > 1 else kwargs["base"]
    for suffix in (".csv", ".json"):
        counts["cli.artifact_bytes"] += os.path.getsize(f"{base}{suffix}")


COUNTERS = {
    "resampling.apply_S": _count_apply_S,
    "resampling.sampling_matrix": _count_sampling_matrix,
    "debias.exact_bias": _count_exact_bias,
    "mc.mc_estimate": _count_mc_estimate,
    "mc.bias_experiment": _count_bias_experiment,
    "cli.Artifact.write": _count_write,
}

COUNT_NAMES = (
    "resampling.apply_S.terms_in",
    "resampling.apply_S.terms_out",
    "resampling.apply_S.merges",
    "resampling.sampling_matrix.cells",
    "debias.iterate_terms_max",
    "debias.coeff_bits_max",
    "mc.replicas",
    "cli.artifact_bytes",
    "moments.Dataset.constructed",
) + tuple(f"{layer}.errors" for layer in LAYERS)


class Tracer:
    """Span recorder for one process; ``install`` once, ``dump`` at the end."""

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = [-1]
        self._next_id = 0

    def _wrap(self, layer, name, fn, bell):
        key = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        errors = f"{layer}.errors"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, key, parent, start, end))
            if counter is not None:
                counter(counts, args, kwargs, result, bell)
            return result

        return traced

    def install(self):
        """Wrap the boundary functions at every binding, and the listed methods."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mobiusboot" or name.startswith("mobiusboot."))
        ]
        lattice = sys.modules["mobiusboot.lattice"]
        moments = sys.modules["mobiusboot.moments"]
        bell = lattice.bell

        wrappers = {}
        for layer, names in BOUNDARY.items():
            mod = sys.modules[f"mobiusboot.{layer}"]
            for attr in names:
                fn = getattr(mod, attr)
                wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{attr}", fn, bell))

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        for layer, methods in METHODS.items():
            mod = sys.modules[f"mobiusboot.{layer}"]
            for cls_name, attr in methods:
                cls = getattr(mod, cls_name)
                name = f"{layer}.{cls_name}.{attr}"
                setattr(cls, attr, self._wrap(layer, name, getattr(cls, attr), bell))

        counts = self.counts
        dataset_init = moments.Dataset.__init__

        @functools.wraps(dataset_init)
        def counted_init(ds, *args, **kwargs):
            counts["moments.Dataset.constructed"] += 1
            dataset_init(ds, *args, **kwargs)

        moments.Dataset.__init__ = counted_init

    def dump(self, path):
        """Write the names and counts to PATH and the spans to PATH.spans."""
        with open(f"{path}.spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counts": self.counts}, fh)


def load(path):
    """Read back a dump: (names, counts, list of span tuples)."""
    with open(path) as fh:
        meta = json.load(fh)
    spans = array("q")
    with open(f"{path}.spans", "rb") as fh:
        spans.frombytes(fh.read())
    rows = [tuple(spans[i : i + SPAN_FIELDS]) for i in range(0, len(spans), SPAN_FIELDS)]
    return meta["names"], meta["counts"], rows


def self_times(names, spans):
    """Per-name (total self ns, call count, root ns).

    Self time is a span's duration minus the durations of its direct children;
    the calls are strictly nested on one thread, so children never overlap.
    Root ns sums the durations of spans without a parent.
    """
    child_ns = {}
    for sid, key, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    out = {name: [0, 0] for name in names}
    root_ns = 0
    for sid, key, parent, start, end in spans:
        entry = out[names[key]]
        entry[0] += end - start - child_ns.get(sid, 0)
        entry[1] += 1
        if parent < 0:
            root_ns += end - start
    return out, root_ns
