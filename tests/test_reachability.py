"""Every public function of the package is reached by a command.

The eight subcommands run in process on case9 under ``sys.setprofile``,
which records the code object of every Python call.  A public function or
method (name not starting with ``_``) that no command reaches belongs in
``tests/oracles.py`` if a test needs it, and nowhere if nothing does.  The
only exceptions are read by the benchmark, outside the package.
"""

import importlib
import inspect
import pkgutil
import sys

import stealthdeg
from stealthdeg import cli

# Unreached by the commands, kept because perfbench/workloads.py imports
# them: it writes its synthetic ring case and checks the ring's rank.
READ_BY_PERFBENCH = {"case_ingest.render_case", "grid_model.check_connectivity_and_rank"}


def _public_code():
    """{code object: "module.name"} of every public function and method."""
    found = {}
    for info in pkgutil.iter_modules(stealthdeg.__path__):
        mod = importlib.import_module(f"stealthdeg.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if attr is not None and attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    label = name if attr is None else f"{name}.{attr}"
                    found[member.__code__] = f"{info.name}.{label}"
    return found


def _run_commands(tmp_path):
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n1,0.5\n3,-0.25\n")
    bounds = tmp_path / "bounds.csv"
    bounds.write_text("branch_index,phi_min,phi_max\n"
                      + "".join(f"{i},-0.5,0.5\n" for i in range(1, 6)))
    pinned = tmp_path / "pinned.csv"
    pinned.write_text("branch_index,phi_min,phi_max\n1,-1,-1\n2,-0.5,0.5\n3,0,0.5\n")
    scenario = ["--case", "case9", "--rho", "0.5", "--snr-db", "30"]
    out = str(tmp_path / "out.csv")
    runs = [
        ["dump-model", "--case", "case9", "--out-dir", str(tmp_path)],
        ["classify", "--case", "case9", "--rho", "0.5", "--beta=-0.8"],
        ["evaluate", *scenario, "--spec", str(spec)],
        ["sweep-beta", *scenario, "--beta=-3:1:0.5", "--out", out],
        ["montecarlo-alpha", *scenario, "--alphas", "0.5,1", "--trials", "2", "--out", out],
        ["sweep-k", *scenario, "--ks", "2,9", "--trials", "2", "--out", out],
        ["maximize", *scenario, "--bounds", str(bounds), "--oracle", "--refine", "--out", out],
        ["mtd-plan", *scenario, "--bounds", str(pinned), "--out", out],
    ]
    return [cli.main(argv) for argv in runs]


def test_every_public_function_is_reached(tmp_path, capsys):
    public = _public_code()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    # The parser is built once per process, maybe already by another test.
    cli._parser.cache_clear()
    sys.setprofile(profile)
    try:
        codes = _run_commands(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * 8
    unreached = {label for code, label in public.items() if code not in reached}
    assert unreached == READ_BY_PERFBENCH
