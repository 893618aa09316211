"""Run one nucrec CLI invocation with spans around the public functions of
each module, and capture the values that the output checks need.

Usage: python bench/tracer.py TRACE_FILE SUBCOMMAND [CLI ARGS...]

The wrappers live here, not in the program: each timed function is replaced
in every nucrec module that holds a binding to it, including bindings made
by ``from ... import`` and the runner table of the CLI.  Spans (name, start,
end, parent) and captures stay in memory and are written to TRACE_FILE, as a
pickle, when the invocation ends.  The exit code is the CLI's.
"""

import functools
import inspect
import pickle
import sys
import time

import numpy as np

# Public functions timed per module of src/nucrec.  Private helpers (the
# singular-value projection, the tensordot calls inside estimate_cmsv) are
# not wrapped; their time shows as self time of the public caller.
TIMED = {
    "cli": ("load_config",),
    "experiments": (
        "run_recover",
        "run_cmsv",
        "run_montecarlo_cmsv",
        "run_bounds_ledger",
        "run_noise_calibration",
    ),
    "ensembles": ("draw_operator", "draw_low_rank_signal"),
    "operators": ("apply_op", "adjoint", "gram_apply", "make_scenario"),
    "linalg": ("svd", "prox_nuclear", "nuclear_norm", "operator_norm"),
    "solvers": ("solve_mbp", "solve_mds", "solve_mlasso", "power_iteration_gram_norm"),
    "cmsv": ("estimate_cmsv", "brute_force_cmsv", "estimate_rcsv", "project_htau"),
    "bounds": ("verify_bound", "noise_operator_bound"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TIMED.items() for fn in fns)


class Tracer:
    """Spans and captures of one process."""

    def __init__(self, as_matrix):
        self._as_matrix = as_matrix
        self.spans = []  # (name index, start, end, parent span index or -1)
        self._stack = [-1]
        self.operators = []  # explicit m x (n1*n2) matrices, in draw order
        self._live = []  # keeps captured objects alive so their ids stay unique
        self._op_index = {}
        self.scenarios = []
        self._scn_index = {}
        self.calls = []  # (span name, captured fields) in call order

    def wrap(self, name, fn):
        name_id = SPAN_NAMES.index(name)
        capture = _CAPTURES.get(name)
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if capture is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                fields = capture(self, bound.arguments, result)
                if fields is not None:
                    self.calls.append((name, fields))
            return result

        return timed

    def op_id(self, op):
        return self._op_index.get(id(op), -1)

    def add_operator(self, op):
        self._live.append(op)
        self._op_index[id(op)] = len(self.operators)
        self.operators.append(np.array(self._as_matrix(op)))

    def add_scenario(self, scn):
        self._live.append(scn)
        self._scn_index[id(scn)] = len(self.scenarios)
        self.scenarios.append(
            {"op": self.op_id(scn.operator), "y": np.array(scn.y), "x_true": np.array(scn.x_true)}
        )

    def scenario_id(self, scn):
        return self._scn_index.get(id(scn), -1)

    def dump(self, path, exit_code):
        doc = {
            "span_names": SPAN_NAMES,
            "spans": np.array(self.spans, dtype=float).reshape(-1, 4),
            "operators": self.operators,
            "scenarios": self.scenarios,
            "calls": self.calls,
            "exit_code": exit_code,
        }
        with open(path, "wb") as fh:
            pickle.dump(doc, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _solve(param):
    def capture(tr, a, res):
        return {
            "scenario": tr.scenario_id(a["scenario"]),
            "param": float(a[param]),
            "x_hat": np.array(res.x_hat),
            "iterations": int(res.iterations),
        }

    return capture


def _estimate(tr, a, est):
    return {
        "op": tr.op_id(a["op"]),
        "tau": float(a["tau"]),
        "direction": a["direction"],
        "value": est.value,
        "witness": np.array(est.witness),
        "per_start_values": tuple(est.per_start_values),
    }


def _brute_force(tr, a, est):
    return {"op": tr.op_id(a["op"]), "samples": int(a["samples"]), "value": est.value}


def _noise_bound(tr, a, record):
    return {"values": np.array(record["values"])}


_CAPTURES = {
    "ensembles.draw_operator": lambda tr, a, op: tr.add_operator(op),
    "operators.make_scenario": lambda tr, a, scn: tr.add_scenario(scn),
    "solvers.solve_mbp": _solve("epsilon"),
    "solvers.solve_mds": _solve("lam"),
    "solvers.solve_mlasso": _solve("mu"),
    "cmsv.estimate_cmsv": _estimate,
    "cmsv.brute_force_cmsv": _brute_force,
    "bounds.noise_operator_bound": _noise_bound,
}


def install(tracer):
    """Replace every binding of each timed function in the nucrec modules."""
    import nucrec.cli  # noqa: F401  (imports every module the CLI uses)

    modules = [m for name, m in sys.modules.items() if name == "nucrec" or name.startswith("nucrec.")]
    for mod_name, fns in TIMED.items():
        home = sys.modules["nucrec." + mod_name]
        for fn_name in fns:
            orig = getattr(home, fn_name)
            timed = tracer.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, timed)
                    elif isinstance(value, dict):  # e.g. the CLI's runner table
                        for key, entry in list(value.items()):
                            if entry is orig:
                                value[key] = timed


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    from nucrec.operators import as_matrix

    tracer = Tracer(as_matrix)
    install(tracer)
    import nucrec.cli

    code = nucrec.cli.main(cli_args)
    tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
