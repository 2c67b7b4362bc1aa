"""Per-layer tracing from outside the program.

For the traced pass, each listed public function is rebound, in every
``hibinccr`` module namespace that holds it, to a wrapper that records a
span: the operation it ran under, the function's name, start and end
times, and the enclosing span.  No source file changes; ``uninstall``
puts the original functions back.  Self time is a span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs timed by the traced run, grouped by layer.
TARGETS = {
    "posets": ["parse_poset", "chordless_circuits", "spanning_tree",
               "polynomial_extension_edge"],
    "classgroup": ["class_group", "parse_cone"],
    "intlattice": ["solve_rational", "smith_normal_form", "lattice_contains",
                   "find_unimodular_match"],
    "divisorial": ["conic_classes", "is_conic", "conic_polytope", "enumerate_conic"],
    "mcm": ["chamber_decomposition", "is_mcm", "semigroup_member", "non_mcm_cone",
            "mcm_region"],
    "families": ["classify", "generate_family"],
    "nccr": ["verify_nccr", "endomorphism_is_mcm", "certify_gldim",
             "replay_certificate", "koszul_terms", "is_separated"],
    "rank1": ["mcm_bound", "exchange_graph", "mutate_window"],
    "cli": ["main"],
}


def span_names() -> list[str]:
    """Every span name the traced run can record; ``class_group`` is split by
    the source of its sigma matrix (poset or cone file)."""
    out = []
    for module, funcs in TARGETS.items():
        for fn in funcs:
            if (module, fn) == ("classgroup", "class_group"):
                out += ["classgroup.class_group.hibi", "classgroup.class_group.cone"]
            else:
                out.append(f"{module}.{fn}")
    return out


# What a span keeps of its function's result, for the ratio metrics.
OBSERVE = {
    "divisorial.is_conic": lambda r: int(bool(r)),
    "nccr.certify_gldim": lambda r: len(r.certificate.steps) if r.certificate else 0,
    "nccr.endomorphism_is_mcm": lambda r: r.checked,
}


class Tracer:
    def __init__(self, package: str = "hibinccr"):
        self.package = package
        self.spans: list[list] = []  # [op, name, start, end, parent, observed]
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVE.get(name)
        split = name == "classgroup.class_group"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[0].source}" if split else name
            span = [self.op, label, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for module, funcs in TARGETS.items():
            home = sys.modules[f"{self.package}.{module}"]
            for fn_name in funcs:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart\tend\tparent\tobserved\n")
            for s in self.spans:
                fh.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in s)
                         + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Self seconds and call counts per function, plus the ratios."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        observed: dict[str, int] = defaultdict(int)
        end_is_mcm = 0
        for i, s in enumerate(self.spans):
            name = s[1]
            self_s[name] += (s[3] - s[2]) - child[i]
            calls[name] += 1
            observed[name] += s[5]
            if name == "mcm.is_mcm" and s[4] >= 0 \
                    and self.spans[s[4]][1] == "nccr.endomorphism_is_mcm":
                end_is_mcm += 1
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        conic_calls = calls["divisorial.is_conic"]
        out["divisorial.conic_hit_ratio"] = (
            observed["divisorial.is_conic"] / conic_calls if conic_calls else 0.0, "ratio")
        out["nccr.cert_steps"] = (observed["nccr.certify_gldim"], "count")
        pairs = observed["nccr.endomorphism_is_mcm"]
        out["nccr.end_distinct_ratio"] = (end_is_mcm / pairs if pairs else 0.0, "ratio")
        return out
