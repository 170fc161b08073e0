"""The process under test: runs benchmark operations against ``src/jcpair``.

Started by ``run.py`` with ``python3 -I perfbench/worker.py <src dir>``.  It
imports the package from the given source tree (never from site-packages),
then serves one JSON request per stdin line and answers with one JSON line
on stdout.  Requests:

    {"cmd": "op", "op": {...}}      run one operation, reply with its wall time
    {"cmd": "pass", "trace": bool, "config": path}
                                    start a pass: wrap the layer entry points
                                    when ``trace`` is true, unwrap otherwise,
                                    then load the workload config
    {"cmd": "quit", "spans": path}  write recorded spans, reply with peak RSS

Tracing wraps, from outside the package, the module-level names each layer
exposes to its callers, in the namespace where the caller looks them up.
Spans (name, size, start, end, parent) stay in memory and are written once,
at ``quit``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import resource
import sys
import time
import traceback

import numpy

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder; one stack, because the worker is single-threaded."""

    def __init__(self) -> None:
        # Each row: [name, n, start, end, parent index, value].
        self.rows: list[list] = []
        self.stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def begin(self, name: str, n: int = 0) -> list:
        row = [name, n, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0]
        self.stack.append(len(self.rows))
        self.rows.append(row)
        row[2] = perf_counter()
        return row

    def end(self, row: list) -> None:
        row[3] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, size=None, value=None):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            row = begin(name, size(args) if size else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(row)
            if value is not None:
                row[5] = value(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets) -> None:
        self.missing = []
        for module_name, attr, name, size, value in targets:
            module = _resolve(module_name)
            if module is None or not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if attr == "_SUITES":
                wrapped = tuple(
                    self.wrap(suite, "validate.suite." + suite.__name__.removeprefix("_suite_"))
                    for suite in original
                )
            else:
                wrapped = self.wrap(original, name, size, value)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        lines = ["id,parent,name,n,start,end,value"]
        for i, (name, n, start, end, parent, value) in enumerate(self.rows):
            lines.append(f"{i},{parent},{name},{n},{start!r},{end!r},{value}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def _matrix_n(args) -> int:
    a = args[0]
    n = getattr(a, "n", None)
    if isinstance(n, int):
        return n
    return int(getattr(a, "shape", (len(a),))[-1])


def _text_bytes(args, result) -> int:
    text = args[1] if len(args) > 1 else ""
    return len(text.encode("utf-8"))


def _sweeps(args, result) -> int:
    return int(result)


# (module, attribute, span name, size function, value function).  Each entry
# is a name some caller looks up at call time; a name that a later version
# of the package drops is reported as missing and its metrics read zero.
TARGETS = (
    ("jcpair", "load_config", "config.load", None, None),
    ("jcpair.cli", "load_config", "config.load", None, None),
    ("jcpair.cli", "main", "cli.main", None, None),
    ("jcpair.cli", "_csv_text", "cli.format", None, None),
    ("jcpair.cli", "_json_text", "cli.format", None, None),
    ("jcpair.cli", "_write_text", "cli.write", None, _text_bytes),
    ("jcpair.cli", "sweep_spectrum", "spectrum.sweep", None, None),
    ("jcpair.cli", "min_gap", "spectrum.min_gap", None, None),
    ("jcpair.spectrum", "one_excitation_energies", "spectrum.closed_form", None, None),
    ("jcpair.susceptibility", "one_excitation_energies", "spectrum.closed_form", None, None),
    ("jcpair.cli", "susceptibility_curve", "susceptibility.curve", None, None),
    ("jcpair.susceptibility", "susceptibility_curve", "susceptibility.curve", None, None),
    ("jcpair.cli", "peak_report", "susceptibility.peak_report", None, None),
    ("jcpair.susceptibility", "peak_report", "susceptibility.peak_report", None, None),
    ("jcpair.cli", "symmetry_metric", "susceptibility.symmetry_metric", None, None),
    ("jcpair.cli", "amplitudes", "eigenstates.amplitudes", None, None),
    ("jcpair.eigenstates", "amplitudes", "eigenstates.amplitudes", None, None),
    ("jcpair.susceptibility", "amplitudes", "eigenstates.amplitudes", None, None),
    ("jcpair", "build_hamiltonian", "sectors.build", None, None),
    ("jcpair.sectors", "build_hamiltonian", "sectors.build", None, None),
    ("jcpair.sectors", "build_collective_hamiltonian", "sectors.build", None, None),
    ("jcpair", "eig_sym", "linalg.eig", _matrix_n, None),
    ("jcpair.validate", "eig_sym", "linalg.eig", _matrix_n, None),
    ("jcpair.linalg._kernel", "jacobi_cycle", "linalg.kernel", _matrix_n, _sweeps),
    ("jcpair.validate", "run_all", "validate.run_all", None, None),
    ("jcpair.validate", "summary_text", "validate.summary_text", None, None),
    ("jcpair.validate", "_SUITES", "validate.suite", None, None),
)


def _resolve(dotted: str):
    """The module (or module-valued attribute) at ``dotted``, or None."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        found = getattr(obj, parts[i], None)
        if found is None:
            try:
                found = importlib.import_module(".".join(parts[: i + 1]))
            except ImportError:
                return None
        obj = found
    return obj


def run_ladder(op: dict):
    import jcpair

    p = jcpair.SystemParams(**op["params"])
    spectra = []
    for nu in range(1, op["nu_max"] + 1):
        basis = jcpair.enumerate_sector(nu)
        block = jcpair.build_hamiltonian(p, basis)
        spectra.append(jcpair.eig_sym(block.matrix).values)
    return spectra


def run_op(op: dict, tracer: Tracer | None) -> dict:
    import jcpair.cli

    row = tracer.begin("op") if tracer else None
    rc, error, payload = 0, None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if op["kind"] == "cli":
                rc = jcpair.cli.main(op["argv"])
            else:
                payload = run_ladder(op)
    except Exception:
        error = traceback.format_exc(limit=3)
    wall = perf_counter() - start
    if row is not None:
        tracer.end(row)
    if payload is not None:
        payload = [numpy.asarray(values).tolist() for values in payload]
    return {"wall": wall, "rc": rc, "error": error, "values": payload}


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import jcpair

    tracer = Tracer()
    tracing = False
    cycle = None
    out = sys.stdout

    def reply(message: dict) -> None:
        out.write(json.dumps(message) + "\n")
        out.flush()

    reply({
        "ready": True,
        "jcpair_file": jcpair.__file__,
        "backend": getattr(jcpair, "BACKEND", "unknown"),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    })
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request["cmd"]
        if cmd == "op":
            reply(run_op(request["op"], tracer if tracing else None))
        elif cmd == "pass":
            if cycle is not None:
                tracer.end(cycle)
                cycle = None
            tracer.uninstall()
            tracing = request["trace"]
            if tracing:
                tracer.install(TARGETS)
                cycle = tracer.begin("cycle")
            jcpair.load_config(request["config"])
            reply({"missing": tracer.missing})
        elif cmd == "quit":
            if cycle is not None:
                tracer.end(cycle)
            tracer.uninstall()
            if request.get("spans"):
                tracer.dump(request["spans"])
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_mb": peak_kb / 1024.0})
            return


if __name__ == "__main__":
    main()
