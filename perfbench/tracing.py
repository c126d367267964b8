"""Layer tracing from outside the program.

``Tracer.install`` replaces every attribute of the loaded zetadet modules
that names a traced function with a wrapper that records a span: layer,
start, end, parent span and job id.  The package binds many names at import
(``from .spectrum import certify_agmon`` in ``zetafun`` and
``determinant``), so patching only the defining module would miss those
calls.  Spans stay in memory and are written out by ``Tracer.dump``.

A layer's self time is its span's duration minus the time its child spans
cover.  Two counts ride along: ``spectrum.points_scanned`` (eigenvalues
yielded by ``points_within``) and ``kernels.em_terms`` (Euler-Maclaurin
terms requested from the Hurwitz kernel).
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# layer name -> (module, function names) of the functions it covers
LAYERS = {
    "cli.parse_config": ("cli", ("parse_config",)),
    "cli.run": ("cli", ("run",)),
    "cli.render": ("cli", ("render_json", "render_csv")),
    "circle.refined_torsion": ("circle", ("refined_torsion",)),
    "circle.ray_singer_torsion": ("circle", ("ray_singer_torsion",)),
    "circle.build": ("circle", ("build_rank1", "build_from_monodromy")),
    "circle.trs_comparison": ("circle", ("trs_comparison",)),
    "circle.monodromy": ("circle", ("monodromy",)),
    "circle.arg_derivative_check": ("circle", ("arg_derivative_check",)),
    "circle.eta_variation_check": ("circle", ("eta_variation_check",)),
    "determinant.pick_det_eta_cut": ("determinant", ("pick_det_eta_cut",)),
    "determinant.verify_det_eta": ("determinant", ("verify_det_eta",)),
    "determinant.verify_det_eta_upper": ("determinant", ("verify_det_eta_upper",)),
    "determinant.symmetric_spectrum_det": ("determinant", ("symmetric_spectrum_det",)),
    "determinant.ldet": ("determinant", ("ldet",)),
    "spectrum.certify_agmon": ("spectrum", ("certify_agmon",)),
    "spectrum.square_spectrum": ("spectrum", ("square_spectrum",)),
    "spectrum.is_symmetric_about_real_axis": ("spectrum", ("is_symmetric_about_real_axis",)),
    "spectrum.imaginary_axis_counts": ("spectrum", ("imaginary_axis_counts",)),
    "zetafun.zeta_ds_at_zero": ("zetafun", ("zeta_ds_at_zero",)),
    "zetafun.spectral_zeta": ("zetafun", ("spectral_zeta",)),
    "zetafun.eta_invariant": ("zetafun", ("eta_invariant",)),
    "kernels.hurwitz_zeta": ("kernels", ("hurwitz_zeta_raw",)),
    "kernels.log_gamma": ("kernels", ("log_gamma",)),
    "complexcut.log_cut": ("complexcut", ("log_cut",)),
    "complexcut.pow_cut": ("complexcut", ("pow_cut",)),
}
COUNTS = ("spectrum.points_scanned", "kernels.em_terms")
# spectrum classes whose points_within enumerates points itself (DirectSum
# delegates to its parts and is left out so no point is counted twice)
SCANNED_CLASSES = ("Finite", "Lattice", "QuadLattice", "HermQuadLattice", "Restricted")


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("H")
        self.job = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.job_id = -1
        self._stack: list[list] = []   # [span index, time covered by children]
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer_id: int, fn, em_terms: bool = False):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if em_terms:
                self.counts["kernels.em_terms"] += args[2]
            index = len(self.start)
            self.layer.append(layer_id)
            self.job.append(self.job_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[index] = t1
                stack.pop()
                dur = t1 - t0
                self.calls[layer_id] += 1
                self.self_s[layer_id] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def _wrap_points(self, method):
        counts = self.counts

        def points_within(spec, radius):
            for item in method(spec, radius):
                counts["spectrum.points_scanned"] += 1
                yield item

        return points_within

    def install(self):
        """Wrap every binding of a traced function in the loaded zetadet modules."""
        pkg = "zetadet"
        wrappers = {}
        for layer_id, (name, (mod, funcs)) in enumerate(LAYERS.items()):
            module = sys.modules[f"{pkg}.{mod}"]
            for f in funcs:
                fn = getattr(module, f)
                wrappers[id(fn)] = self._wrap(layer_id, fn, em_terms=name == "kernels.hurwitz_zeta")
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == pkg or modname.startswith(pkg + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        spectrum = sys.modules[f"{pkg}.spectrum"]
        for cls_name in SCANNED_CLASSES:
            cls = getattr(spectrum, cls_name)
            self._undo.append((cls, "points_within", cls.__dict__["points_within"]))
            cls.points_within = self._wrap_points(cls.points_within)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def per_job(self, jobs: int) -> dict:
        """Calls, self time (ms) and counts per traced job, by layer."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i] / jobs
            out[f"{name}.self_ms"] = 1000.0 * self.self_s[i] / jobs
        for name, value in self.counts.items():
            out[name] = value / jobs
        return out

    def dump(self, path: str):
        """Write the spans: a JSON header and the raw columns after it."""
        header = {
            "layers": self.names,
            "spans": len(self.start),
            "columns": [["layer", "H"], ["job", "l"], ["parent", "l"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.layer, self.job, self.parent, self.start, self.end):
                col.tofile(fh)
