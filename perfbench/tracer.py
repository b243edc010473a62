"""Spans around the public functions of `needlets`, installed from outside.

The package is not changed: each traced function is replaced by a wrapper in
every `needlets` module that holds a binding to it, because `fields`,
`frames`, `correlation` and `cli` each bind their own names with
`from .x import f`.  A span records name, start, end and parent; spans stay in
memory until the process ends.  Work counts are derived at the function
boundary from arguments and return values, so they are exact and computed,
not measured.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _series_facts(result, coeffs, x, offset=0):
    # one recurrence step per degree 0..top, at every point
    return {"terms": (int(offset) + len(coeffs)) * int(np.size(x))}


def _harmonic_facts(result, lmax, theta, phi):
    # points x ((L+1)^2 - 1) values
    return {"cells": int(result.size)}


def _lmax_facts(result, profile, t, eps_tail=None, squared=False):
    return {"key": (profile, float(t), eps_tail, bool(squared))}


def _profile_facts(result, profile, s):
    return {"elements": int(np.size(s))}


def _mc_facts(result, profile, spectrum, t, point_x, point_y, replicas, seed,
              eps_tail=None, chunk=1024):
    return {"draw_args": (profile, float(t), eps_tail, int(replicas), int(seed))}


def _frame_facts(result, profile, a, j_range, L, oversample=1.0, chunk=8192):
    return {"gram_args": (float(a), int(j_range[0]), int(j_range[1]), int(L),
                          float(oversample))}


# (module, function, facts); layer names are "<module>.<function>"
LAYERS = (
    ("legendre", "legendre_series", _series_facts),
    ("legendre", "sph_harm_matrix", _harmonic_facts),
    ("kernels", "choose_lmax", _lmax_facts),
    ("kernels", "profile_eval", _profile_facts),
    ("correlation", "analytic_covariance", None),
    ("correlation", "analytic_correlation", None),
    ("correlation", "zonal_decay_bound", None),
    ("correlation", "correlation_decay_check", None),
    ("differences", "multiply_cos_minus_one_power", None),
    ("spectra", "spectrum_eval", None),
    ("spectra", "verify_envelope", None),
    ("spectra", "verify_derivative_decay", None),
    ("fields", "monte_carlo_correlation", _mc_facts),
    ("frames", "estimate_frame_bounds", _frame_facts),
    ("frames", "build_grid", None),
    ("cli", "main", None),
)


class Tracer:
    """Records one span per call of every function in LAYERS."""

    def __init__(self):
        # [name, parent index or -1, start, end, facts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def _wrap(self, name, fn, facts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if facts is not None:
                span[4] = facts(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded `needlets` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "needlets" or n.startswith("needlets."))]
        for mod_name, fn_name, facts in LAYERS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"needlets.{mod_name}"], fn_name)
            self.originals[name] = original
            wrapper = self._wrap(name, original, facts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def layers(self) -> dict[str, dict]:
        """Per-layer calls, self and total time, and exact work counts."""
        out = {f"{m}.{f}": {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for m, f, _ in LAYERS}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end, facts) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[i]
            if not self._nested_in_same(i):
                rec["total_s"] += end - start
            for key, value in (facts or {}).items():
                if isinstance(value, int):
                    rec[key] = rec.get(key, 0) + value
        self._lmax_counts(out["kernels.choose_lmax"])
        self._draw_counts(out["fields.monte_carlo_correlation"])
        self._gram_counts(out["frames.estimate_frame_bounds"])
        return out

    def _nested_in_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def _facts(self, name: str, key: str) -> list:
        return [s[4][key] for s in self.spans if s[0] == name and s[4] is not None]

    def _lmax_counts(self, rec: dict) -> None:
        keys = self._facts("kernels.choose_lmax", "key")
        rec["distinct"] = len(set(keys))

    def _draw_counts(self, rec: dict) -> None:
        """Total draws, and draws not repeated within this process.

        Replica i of seed s draws stream (s, i), and a shorter draw is a prefix
        of a longer one, so stream (s, i) costs max n over the calls that
        reach it.
        """
        choose_lmax = self.originals["kernels.choose_lmax"]
        by_seed: dict[int, list[tuple[int, int]]] = {}
        draws = 0
        for profile, t, eps_tail, replicas, seed in self._facts(
                "fields.monte_carlo_correlation", "draw_args"):
            lmax = choose_lmax(profile, t, eps_tail)
            n = (lmax + 1) ** 2 - 1
            draws += replicas * n
            by_seed.setdefault(seed, []).append((n, replicas))
        unique = 0
        for calls in by_seed.values():
            covered = 0
            for n, replicas in sorted(calls, reverse=True):
                unique += n * max(0, replicas - covered)
                covered = max(covered, replicas)
        rec["draws"] = draws
        rec["unique_draws"] = unique

    def _gram_counts(self, rec: dict) -> None:
        """Analysis-matrix rows and the 2 rows ncol^2 flops of `w.T @ w`."""
        build_grid = self.originals["frames.build_grid"]
        rows = flops = 0
        for a, j_min, j_max, L, oversample in self._facts(
                "frames.estimate_frame_bounds", "gram_args"):
            n = sum(build_grid(a, j, oversample).n for j in range(j_min, j_max + 1))
            ncol = (L + 1) ** 2 - 1
            rows += n
            flops += 2 * n * ncol * ncol
        rec["gram_rows"] = rows
        rec["gram_flops"] = flops
