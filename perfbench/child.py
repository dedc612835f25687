"""One benchmarked CLI invocation, run as a fresh process.

    python3 perfbench/child.py [--spans PATH] -- <nkji arguments>

Times the import of ``nkji`` plus the building of the CLI parser (what every
invocation pays before its subcommand starts), then times one
``nkji.cli.main`` call, with the fixed reference task of
:func:`reference_s` timed just before and just after it.  With ``--spans``
every public function listed in ``TRACED`` is wrapped in a span-recording
wrapper for the length of that call, and the spans are written to PATH as
JSON lines when it returns.

The last line on stdout is one JSON object:
``{"exit": int, "setup_s": float, "ref_before_s": float, "main_s": float,
"ref_after_s": float, "maxrss_kb": int}``.
"""

# Only what the setup timer needs is imported before it starts, so that
# setup_s holds every module nkji itself pulls in.
import importlib
import sys
import time


def _draw_attrs(result):
    return {"periods": result.T}


def _solve_attrs(result):
    return {"cond": result.condition_number}


def _sweep_attrs(result):
    verdicts = [cell["verdict"] for cell in result.cells]
    return {"invalid": verdicts.count("invalid"),
            "borderline": verdicts.count("borderline")}


#: (module, function, span attributes from the result) for every traced
#: public function
TRACED = (
    ("params", "validate", None),
    ("coeffs", "compute_all", None),
    ("statespace", "build", None),
    ("statespace", "eigen", None),
    ("statespace", "classify", None),
    ("statespace", "sweep", _sweep_attrs),
    ("shocks", "draw", _draw_attrs),
    ("sim", "regressor_matrix", None),
    ("sim", "simulate", None),
    ("oracle", "random_params", None),
    ("oracle", "solve_undetermined", _solve_attrs),
    ("oracle", "compare", None),
    ("oracle", "residuals", None),
    ("oracle", "stability_run", None),
    ("cli", "main", None),
)


def reference_s() -> float:
    """Time of a fixed task that uses no nkji code: small-matrix LAPACK
    calls, float formatting and dictionary work, the mix the workloads run.
    It measures how fast the machine is at that moment, so ``run.py`` can
    state its timings at a fixed machine speed."""
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.standard_normal((9, 9))
    values = rng.standard_normal(40_000)
    t0 = time.perf_counter()
    for _ in range(400):
        np.linalg.eigvals(A)
    ",".join(repr(float(x)) for x in values)
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


class SpanRecorder:
    """In-memory spans: id, parent id, name, start, end, error and
    per-function attributes.  Single-threaded: the open spans form a stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, attrs=None):
        import functools

        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "parent": open_[-1] if open_ else None,
                    "name": name}
            spans.append(span)
            open_.append(span["id"])
            span["t0"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                span["t1"] = clock()
                open_.pop()
            if attrs is not None:
                span.update(attrs(result))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of each traced function in the loaded nkji
        modules (``from .params import validate`` makes a second binding)."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nkji" or name.startswith("nkji.")]
        patched = self._patched
        for mod_name, fn_name, attrs in TRACED:
            orig = getattr(sys.modules[f"nkji.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        """Restore the bindings that :meth:`install` patched."""
        for mod, attr, orig in self._patched:
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py [--spans PATH] -- <nkji arguments>",
              file=sys.stderr)
        return 2
    cli_argv = argv[1:]

    t0 = time.perf_counter()
    cli = importlib.import_module("nkji.cli")
    cli.build_parser()
    setup_s = time.perf_counter() - t0
    ref_before = reference_s()

    recorder = SpanRecorder() if spans_path else None
    start = time.perf_counter()
    if recorder is None:
        code = cli.main(cli_argv)
    else:
        recorder.install()
        try:
            code = cli.main(cli_argv)
        finally:
            recorder.uninstall()
    main_s = time.perf_counter() - start
    ref_after = reference_s()

    import json
    import resource

    if recorder is not None:
        recorder.write(spans_path)
    print(json.dumps({
        "exit": code, "setup_s": setup_s, "ref_before_s": ref_before,
        "main_s": main_s, "ref_after_s": ref_after,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
