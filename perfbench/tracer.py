"""Spans and counts at tropilink's module boundaries, installed from outside.

``Tracer.install(package)`` replaces every public function of each
tropilink module (and a few public methods) by a wrapper that opens a span,
in every module that holds a reference to it, so calls across modules and
within one module both pass through the wrapper.  Serialization helpers are
left alone: their time counts toward the caller, which is how JSON load and
dump land in ``cli.self_s`` and certificate parsing in
``certificates.parse_s``.

A span's self time is its duration minus the durations of its child spans.
Self time and calls are summed per function as the run goes; the spans of
the first traced round are also kept (up to a cap) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = ("graphs", "canonical", "connectivity", "normal_form", "hamiltonize",
          "linkage", "certificates", "atlas", "moduli", "cli")

# Serialization and argument plumbing: attributed to the caller.
UNTRACED = {"to_json_dict", "from_json_dict", "dumps_canonical", "to_dot",
            "underlying_graph", "certificate_to_json_dict",
            "poset_to_json_dict", "poset_to_dot", "build_parser"}

TRACED_METHODS = {"moduli": {"StrataPoset": ("dimension_profile", "maximal_strata",
                                             "pure_dimension_violations")}}

ENUMERATORS = ("atlas.enumerate_p_regular", "atlas.enumerate_stable")
LINKERS = ("linkage.link", "linkage.link_with_legs")
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.keep_spans = False
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._next_id = 0

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _inside(self, names) -> bool:
        return any(frame[0] in names for frame in self._stack)

    def _on_return(self, name: str, result):
        """Counts taken from a traced function's result."""
        if name == "connectivity.all_cycles":
            self.count("cycles_enumerated", len(result))
        elif name in LINKERS and not self._inside(LINKERS):
            self.count("link_steps", len(result.steps))
        elif name == "certificates.verify_certificate":
            self.count("steps_checked", result.checked_steps)
            if not result.valid:
                self.count("rejected")
        elif name in ENUMERATORS:
            self.count("classes", len(result))
        elif name == "moduli.build_poset":
            self.count("strata", len(result.strata))
            self.count("covers", len(result.covers))

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "canonical.canonical_labeling" and self._inside(ENUMERATORS):
                self.count("labelings_in_enumeration")
            span_id = self._next_id
            self._next_id += 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "certificates.certificate_from_json_dict":
                    self.count("rejected")
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                if self.keep_spans:
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((span_id, parent[3] if parent else None,
                                           name, frame[1], end))
                    else:
                        self.spans_dropped += 1
            self._on_return(name, result)
            return result

        return traced

    def install(self, modules: dict):
        """Wrap the public functions of the given {layer: module} map."""
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (callable(obj) and getattr(obj, "__module__", None) == mod.__name__
                        and not attr.startswith("_") and not isinstance(obj, type)
                        and attr not in UNTRACED):
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    setattr(cls, m, self.wrap(f"{layer}.{cls_name}.{m}", getattr(cls, m)))
        # rebind every reference, so imports like `from .graphs import contract`
        # pass through the wrapper too
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    # -- reading ---------------------------------------------------------------

    def _self(self, *names):
        return sum(self.self_s.get(n, 0.0) for n in names)

    def _calls(self, *names):
        return sum(self.calls.get(n, 0) for n in names)

    def _layer_self(self, layer, exclude=()):
        return sum(v for k, v in self.self_s.items()
                   if k.split(".", 1)[0] == layer and k not in exclude)

    def layer_metrics(self) -> dict:
        """The per-layer figures, as {name: (value, unit)}."""
        cycle_fns = ("connectivity.all_cycles", "connectivity.longest_cycle",
                     "connectivity.is_hamiltonian", "connectivity.two_cycle_criterion")
        contract_fns = ("graphs.contract", "graphs.weighted_contract")
        labelings = self.counts.get("labelings_in_enumeration", 0)
        classes = self.counts.get("classes", 0)
        c = "count"
        return {
            "connectivity.edge_conn_calls": (self._calls("connectivity.edge_connectivity_capped"), c),
            "connectivity.edge_conn_s": (self._self("connectivity.edge_connectivity_capped"), "s"),
            "connectivity.cycle_search_calls": (self._calls("connectivity.all_cycles"), c),
            "connectivity.cycle_search_s": (self._self(*cycle_fns), "s"),
            "connectivity.cycles_enumerated": (self.counts.get("cycles_enumerated", 0), c),
            "connectivity.longest_cycle_calls": (self._calls("connectivity.longest_cycle"), c),
            "hamiltonize.calls": (self._calls("hamiltonize.hamiltonize"), c),
            "hamiltonize.self_s": (self._layer_self("hamiltonize"), "s"),
            "hamiltonize.moves": (self._calls("hamiltonize.lengthen_cycle_step",
                                              "hamiltonize.remove_loop_step"), c),
            "normal_form.normalize_calls": (self._calls("normal_form.normalize"), c),
            "normal_form.self_s": (self._layer_self("normal_form"), "s"),
            "linkage.link_calls": (self._calls(*LINKERS), c),
            "linkage.self_s": (self._layer_self("linkage", ("linkage.reduce_to_polygon",)), "s"),
            "linkage.descent_calls": (self._calls("linkage.reduce_to_polygon"), c),
            "linkage.descent_s": (self._self("linkage.reduce_to_polygon"), "s"),
            "linkage.steps": (self.counts.get("link_steps", 0), c),
            "canonical.labeling_calls": (self._calls("canonical.canonical_labeling"), c),
            "canonical.labeling_s": (self._self("canonical.canonical_labeling"), "s"),
            "canonical.iso_calls": (self._calls("canonical.isomorphism_witness"), c),
            "certificates.verify_calls": (self._calls("certificates.verify_certificate"), c),
            "certificates.verify_s": (self._self("certificates.verify_certificate"), "s"),
            "certificates.parse_s": (self._self("certificates.certificate_from_json_dict"), "s"),
            "certificates.steps_checked": (self.counts.get("steps_checked", 0), c),
            "certificates.rejected": (self.counts.get("rejected", 0), c),
            "certificates.strong_link_calls": (self._calls("certificates.strong_link_check"), c),
            "certificates.strong_link_s": (self._self("certificates.strong_link_check"), "s"),
            "graphs.contract_calls": (self._calls(*contract_fns), c),
            "graphs.contract_s": (self._self(*contract_fns), "s"),
            "atlas.enumerate_calls": (self._calls(*ENUMERATORS), c),
            "atlas.enumerate_s": (self._self(*ENUMERATORS), "s"),
            "atlas.classes": (classes, c),
            "atlas.dedup_yield": (classes / labelings if labelings else 0.0, "ratio"),
            "atlas.move_graph_s": (self._self("atlas.move_graph"), "s"),
            "moduli.poset_s": (self._self("moduli.build_poset"), "s"),
            "moduli.strata": (self.counts.get("strata", 0), c),
            "moduli.covers": (self.counts.get("covers", 0), c),
            "moduli.codim1_s": (self._self("moduli.connected_through_codim_one"), "s"),
            "cli.self_s": (self._layer_self("cli"), "s"),
        }

    def dump(self, path, extra: dict):
        """Write the per-function totals and the kept spans as JSON."""
        doc = dict(extra)
        doc["functions"] = {k: {"calls": self.calls[k], "self_s": self.self_s[k]}
                            for k in sorted(self.calls)}
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans_dropped"] = self.spans_dropped
        doc["spans"] = [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                        for i, p, n, s, e in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)
