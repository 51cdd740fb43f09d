"""Timing spans around the public functions of each pma_lab layer.

The wrappers live in the benchmark, not in the program: ``Tracer.patch``
replaces a function in every loaded module that holds it under its name
(``pma_lab.monge_ampere.ma_field`` and ``pma_lab.evolution.ma_field`` are
the same object, imported twice), so calls made inside the program are
caught too.  ``Tracer.unpatch`` puts the originals back.

A span is (function, phase, start, end, parent).  Spans stay in memory and
are written out once, by ``Tracer.dump``, when the run ends.  A function's
self time is its span minus the spans of the wrapped calls made inside it.
"""
from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# the wrapped functions, by pma_lab module (one module per layer)
LAYERS = {
    "grid": ["build_domain", "sample", "save_csv"],
    "monge_ampere": ["ma_field", "reduced_ma_field"],
    "evolution": ["stable_dt", "evolve", "evolve_pair"],
    "geometry": ["john_ellipsoid", "centered_section", "flat_set", "legendre"],
    "analysis": ["separation_probe", "interface_exponent"],
    "exact": ["build_profile"],
    "config": ["make_state"],
}

# the per-layer metrics, in the order BENCHMARK.json lists them
METRICS = [
    ("grid.build_domain.calls", "count"),
    ("grid.build_domain.s", "s"),
    ("grid.sample.s", "s"),
    ("grid.save_csv.s", "s"),
    ("monge_ampere.ma_field.calls", "count"),
    ("monge_ampere.ma_field.s", "s"),
    ("monge_ampere.ma_field.us_per_call", "us"),
    ("monge_ampere.ma_field.mb_per_call", "MB"),
    ("monge_ampere.reduced_ma_field.calls", "count"),
    ("monge_ampere.reduced_ma_field.s", "s"),
    ("evolution.steps", "count"),
    ("evolution.us_per_step", "us"),
    ("evolution.dt_min", "t"),
    ("evolution.dt_median", "t"),
    ("evolution.stable_dt.s", "s"),
    ("evolution.evolve.s", "s"),
    ("evolution.evolve.self_s", "s"),
    ("evolution.evolve_pair.s", "s"),
    ("evolution.evolve_pair.self_s", "s"),
    ("geometry.john_ellipsoid.calls", "count"),
    ("geometry.john_ellipsoid.s", "s"),
    ("geometry.centered_section.s", "s"),
    ("geometry.flat_set.s", "s"),
    ("geometry.legendre.s", "s"),
    ("analysis.separation_probe.s", "s"),
    ("analysis.interface_exponent.s", "s"),
    ("exact.build_profile.s", "s"),
    ("config.make_state.s", "s"),
    ("trace.overhead_s", "s"),
]


def _field_bytes(args, result) -> int:
    """Bytes of the arrays one ma_field call reads or writes, each once.

    Computed from array sizes: the input values, the returned fields and the
    work arrays the kernel keeps on the domain.  Cache misses and repeated
    passes over one array are not counted.
    """
    u = args[0]
    total = u.values.nbytes
    for a in (result.values, result.slope, result.argmin_frame):
        if a is not None:
            total += a.nbytes
    work = vars(u.domain).get("work", {})
    return total + sum(a.nbytes for a in work.values())


class Tracer:
    """Spans and counters for the wrapped functions of one run."""

    def __init__(self):
        self.spans: list = []         # [name, phase, start, end, parent]
        self.dts: list[float] = []    # values stable_dt returned
        self.steps: list = []         # [phase, steps] per evolve/evolve_pair
        self.field_bytes: list = []   # [phase, bytes] per ma_field call
        self.phases: list[str] = []   # kind of each phase, by phase index
        self._stack: list[int] = []
        self._saved: list = []        # (module, attribute, original)

    def begin(self, kind: str) -> None:
        """Start a new phase ("setup" or "round"); later spans belong to it."""
        self.phases.append(kind)

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            phase = len(tracer.phases) - 1
            steps0 = args[0].steps if name in ("evolution.evolve",
                                               "evolution.evolve_pair") else 0
            k = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(k)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[k] = [name, phase, t0, t1, parent]
            if name == "evolution.stable_dt":
                tracer.dts.append(float(out))
            elif name == "evolution.evolve":
                tracer.steps.append([phase, out.state.steps - steps0])
            elif name == "evolution.evolve_pair":
                tracer.steps.append([phase, args[0].steps - steps0])
            elif name == "monge_ampere.ma_field":
                tracer.field_bytes.append([phase, _field_bytes(args, out)])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self) -> None:
        """Swap every layer function for its wrapper in every module."""
        if self._saved:
            raise RuntimeError("tracer is already patched")
        mods = [m for m in list(sys.modules.values()) if m is not None]
        for layer, names in LAYERS.items():
            home = sys.modules[f"pma_lab.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    try:
                        attrs = vars(mod)
                    except TypeError:
                        continue
                    for attr, val in list(attrs.items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def unpatch(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    # -- aggregation -------------------------------------------------------

    def _per_phase(self, kind: str):
        """{phase: {name: [calls, span seconds, self seconds]}}."""
        child = [0.0] * len(self.spans)
        for name, phase, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {k: {} for k, p in enumerate(self.phases) if p == kind}
        for k, (name, phase, t0, t1, _) in enumerate(self.spans):
            if phase in out:
                row = out[phase].setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += t1 - t0
                row[2] += t1 - t0 - child[k]
        return out

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer figures for one setup plus one round.

        Each figure is the median over the traced setups plus the median
        over the traced rounds of its per-phase total; a function that one
        workload never calls reads 0.
        """
        setups, rounds = self._per_phase("setup"), self._per_phase("round")

        def med(name: str, col: int) -> float:
            total = 0.0
            for group in (setups, rounds):
                if group:
                    total += statistics.median(
                        rows.get(name, [0, 0.0, 0.0])[col]
                        for rows in group.values())
            return total

        def phase_median(pairs) -> float:
            total = 0.0
            for group in (setups, rounds):
                if group:
                    total += statistics.median(
                        sum(v for p, v in pairs if p == ph) for ph in group)
            return total

        calls = med("monge_ampere.ma_field", 0)
        steps = phase_median(self.steps)
        evolve_s = med("evolution.evolve", 1) + med("evolution.evolve_pair", 1)
        m = {
            "grid.build_domain.calls": med("grid.build_domain", 0),
            "grid.build_domain.s": med("grid.build_domain", 1),
            "grid.sample.s": med("grid.sample", 1),
            "grid.save_csv.s": med("grid.save_csv", 1),
            "monge_ampere.ma_field.calls": calls,
            "monge_ampere.ma_field.s": med("monge_ampere.ma_field", 1),
            "monge_ampere.ma_field.us_per_call":
                1e6 * med("monge_ampere.ma_field", 1) / calls if calls else 0.0,
            "monge_ampere.ma_field.mb_per_call":
                1e-6 * phase_median(self.field_bytes) / calls if calls else 0.0,
            "monge_ampere.reduced_ma_field.calls":
                med("monge_ampere.reduced_ma_field", 0),
            "monge_ampere.reduced_ma_field.s":
                med("monge_ampere.reduced_ma_field", 1),
            "evolution.steps": steps,
            "evolution.us_per_step": 1e6 * evolve_s / steps if steps else 0.0,
            "evolution.dt_min": min(self.dts) if self.dts else 0.0,
            "evolution.dt_median":
                statistics.median(self.dts) if self.dts else 0.0,
            "evolution.stable_dt.s": med("evolution.stable_dt", 1),
            "evolution.evolve.s": med("evolution.evolve", 1),
            "evolution.evolve.self_s": med("evolution.evolve", 2),
            "evolution.evolve_pair.s": med("evolution.evolve_pair", 1),
            "evolution.evolve_pair.self_s": med("evolution.evolve_pair", 2),
            "geometry.john_ellipsoid.calls": med("geometry.john_ellipsoid", 0),
            "geometry.john_ellipsoid.s": med("geometry.john_ellipsoid", 1),
            "geometry.centered_section.s": med("geometry.centered_section", 1),
            "geometry.flat_set.s": med("geometry.flat_set", 1),
            "geometry.legendre.s": med("geometry.legendre", 1),
            "analysis.separation_probe.s": med("analysis.separation_probe", 1),
            "analysis.interface_exponent.s":
                med("analysis.interface_exponent", 1),
            "exact.build_profile.s": med("exact.build_profile", 1),
            "config.make_state.s": med("config.make_state", 1),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": float(m[name]), "unit": unit}
                for name, unit in METRICS}

    def dump(self, path) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w") as f:
            json.dump({"phases": self.phases,
                       "spans": self.spans,
                       "dt": self.dts,
                       "steps": self.steps,
                       "ma_field_bytes": self.field_bytes}, f)
