"""Span recorder for the traced run: wraps public functions of each
`bdspace` module from outside the program and derives per-layer metrics.

A span is [name, layer, start, end, parent span, op id]; spans stay in
memory and are written out when the run ends.  The span name is the
per-layer time metric it feeds, and its layer is the module, so a layer's
self time is the sum of its spans' self times: a span's duration minus
the time its child spans cover.

A wrapped function opens a span on every call when it feeds a named
metric ("always"); the rest open one only when called from another layer
("boundary"), so calls inside a layer stay in their caller's span.  Hot
accessors (`Registry.rank_of`, `gammas_up_to`, `Engine.c_star`,
`prefix_estar`) and every `Func` method are not wrapped: they run up to
10^6 times per pass, and their time stays in the span of their caller.

Counters are read only from public objects: `len(registry)`,
`count_up_to`, `StageMatrix` rows and columns, `Point.e_cache` growth,
support sizes.  Counters marked computed are derived from input sizes.
"""

import functools
import json
import time

from bdspace import analysis, certificates, cli, engine, mtnorm, norms, \
    registry, spaces

MODULES = (analysis, certificates, cli, engine, mtnorm, norms, registry,
           spaces)

ROOT = "trace.unattributed_s"


# -- counters: (before(args) -> state, after(counts, args, result, state)) ----

def _stage_matrix(counts, args, sm, _):
    counts["engine.stage_matrix_nnz"] += (
        sum(len(r) for r in sm.rows.values())
        + sum(len(c) for c in sm.columns.values()))


def _biorth(counts, args, _, __):
    counts["engine.biorth_pairs"] += len(args[0].ids) ** 2


def _evaluate_before(args):
    return len(args[1].e_cache)


def _evaluate(counts, args, cache, before):
    new = len(cache) - before
    counts["engine.evaluate_calls"] += 1
    counts["engine.evaluate_filled"] += new
    values = reversed(cache.values())  # entries are appended in fill order
    counts["engine.evaluate_nonzero"] += sum(
        1 for _, v in zip(range(new), values) if v)


def _sup_norm(counts, args, _, __):
    eng, x, n = args[:3]
    counts["norms.sup_norm_calls"] += 1
    if not x.is_zero():
        counts["norms.gammas_scanned"] += eng.registry.count_up_to(n)


def _next_block(counts, args, _, __):
    counts["analysis.blocks"] += 1


def _mt_norm(counts, args, _, __):
    n = sum(1 for v in dict(args[0]).values() if v)
    counts["mtnorm.support_sum"] += n
    counts["mtnorm.windows"] += n * (n + 1) // 2


def _generate_stage(counts, args, new_ids, _):
    counts["spaces.elements_generated"] += len(new_ids)


def _size_before(args):
    return len(args[0])


def _forged(counts, args, _, before):
    counts["spaces.elements_forged"] += len(args[0]) - before


def _intern(counts, args, _, before):
    counts["registry.intern_calls"] += 1
    counts["registry.elements"] += len(args[0]) - before


def _base(counts, args, _, before):
    counts["registry.elements"] += len(args[0]) - before


# (owner, attribute, span name, always, counter before, counter after)
WRAPS = [
    (engine.Engine, "stage_matrix", "engine.stage_matrix_s", True, None,
     _stage_matrix),
    (engine.StageMatrix, "biorthogonality_defects", "engine.biorth_s", True,
     None, _biorth),
    (engine.Engine, "fdd_row_norms", "engine.fdd_s", True, None, None),
    (engine.Engine, "basis_constant", "engine.basis_constant_s", True, None,
     None),
    (engine.Engine, "analysis_identity_sides", "engine.analysis_identity_s",
     True, None, None),
    (engine.Engine, "evaluate", "engine.evaluate_s", True, _evaluate_before,
     _evaluate),
] + [(engine.Engine, name, "engine.other_s", False, None, None)
     for name in ("d_star", "project_prefix", "project_l1", "project_open",
                  "evaluation_analysis", "value", "pair", "ran",
                  "fdd_project", "point_from_d", "eval_after_projection",
                  "extend", "range_and_local_support")] + [
    (norms, "sup_norm_interval", "norms.sup_norm_s", True, None, _sup_norm),
    (analysis.CarrierSource, "next_block", "analysis.self_s", False, None,
     _next_block),
] + [(analysis, name, "analysis.self_s", False, None, None)
     for name in ("hi_probe", "make_dependent_sequence", "make_exact_pair",
                  "check_ris", "suggested_js", "lower_estimate_witness",
                  "basic_inequality_witness")] + [
    (mtnorm, "mt_norm", "mtnorm.dp_s", True, None, _mt_norm),
    (mtnorm, "mt_norm_exhaustive", "mtnorm.oracle_s", True, None, None),
    (mtnorm, "verify_norming_tree", "mtnorm.verify_s", False, None, None),
    (spaces, "generate_up_to", "spaces.generate_s", False, None, None),
    (spaces, "generate_stage", "spaces.generate_s", False, None,
     _generate_stage),
    (spaces, "forge_even", "spaces.forge_s", False, _size_before, _forged),
    (spaces, "forge_odd_chain", "spaces.forge_s", False, _size_before,
     _forged),
    (spaces, "check_treelike", "spaces.treelike_s", False, None, None),
    (registry.Registry, "intern", "registry.intern_s", True, _size_before,
     _intern),
    (registry.Registry, "base", "registry.intern_s", False, _size_before,
     _base),
    (registry.Registry, "export_stage_table", "registry.export_s", True,
     None, None),
] + [(certificates, name, "certificates.s", False, None, None)
     for name in ("make_certificate", "canonical_json")] + [
    (certificates.Ledger, "add", "certificates.s", False, None, None),
] + [(cli, name, "cli.self_s", False, None, None)
     for name in ("suite_biorthogonality", "suite_eval_analysis",
                  "suite_projections", "suite_treelike", "suite_mt_oracle",
                  "run_hi_probes", "build_registry", "write_rows")]

TIME_METRICS = sorted({name for _, _, name, _, _, _ in WRAPS} | {ROOT})
COUNT_METRICS = ["analysis.blocks", "engine.biorth_pairs",
                 "engine.evaluate_calls", "engine.evaluate_filled",
                 "engine.stage_matrix_nnz", "mtnorm.support_sum",
                 "mtnorm.windows", "norms.gammas_scanned",
                 "norms.sup_norm_calls", "registry.elements",
                 "registry.intern_calls", "spaces.elements_forged",
                 "spaces.elements_generated"]
COMPUTED = {"engine.biorth_pairs", "mtnorm.windows"}


class Tracer:
    """Installs the span wrappers; one root span per traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = dict.fromkeys(COUNT_METRICS + ["engine.evaluate_nonzero"],
                                    0)
        self._saved = []

    def _wrap(self, fn, name, always, before, after):
        layer = name.split(".", 1)[0]
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            if always or spans[stack[-1]][1] != layer:
                idx = len(spans)
                span = [name, layer, clock(), None, stack[-1], self.op]
                spans.append(span)
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span[3] = clock()
            else:
                result = fn(*args, **kwargs)
            if after:
                after(counts, args, result, state)
            return result
        return wrapper

    def install(self):
        """Wrap every listed function, at its definition and every module
        that imported it by name."""
        for owner, attr, name, always, before, after in WRAPS:
            fn = owner.__dict__[attr]
            wrapper = self._wrap(fn, name, always, before, after)
            targets = [owner] if isinstance(owner, type) else MODULES
            for target in targets:
                if target.__dict__.get(attr) is fn:
                    self._saved.append((target, attr, fn))
                    setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, fn in reversed(self._saved):
            setattr(target, attr, fn)
        self._saved = []

    def begin(self):
        """Open the root span of a traced pass."""
        self.spans.append([ROOT, "trace", time.perf_counter(), None, None,
                           None])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        idx = self.stack.pop()
        self.spans[idx][3] = time.perf_counter()
        return self.spans[idx][3] - self.spans[idx][2]

    def metrics(self):
        """{metric: (value, unit)}: self time per span name, the counters
        and the span count."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, layer, start, end, parent, op) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        out = {k: (v, "s") for k, v in self_s.items()}
        out.update({k: (self.counts[k],
                        "count-computed" if k in COMPUTED else "count")
                    for k in COUNT_METRICS})
        filled = self.counts["engine.evaluate_filled"]
        out["engine.evaluate_useful_ratio"] = (
            self.counts["engine.evaluate_nonzero"] / filled if filled else 0.0,
            "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}))
                fh.write("\n")
