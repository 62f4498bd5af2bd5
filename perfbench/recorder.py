"""Call recording at mpnike's module boundaries, installed from outside the package.

`Recorder.install()` replaces every name binding of the functions listed in
`TRACED` inside the loaded `mpnike` modules (so `kgc.params_digest` and
`nike.params_digest` are wrapped as well as `params.params_digest`) and
restores them on exit.  Nothing in `src/mpnike` is edited.

Two modes:

* counting (`spans=False`, the untraced run): only the exact counts in
  `EXACT_COUNTS` are kept, by thin wrappers with no clock reads.
* tracing (`spans=True`): one span per call of a boundary function (name,
  start, end, parent span, operation id), kept in memory and written when
  the run ends.  The hot `numt` functions keep a call count and summed
  time instead of spans.

While `paused` the wrappers call straight through, so correctness checks
made between operations leave no trace.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from mpnike import numt

# module -> functions recorded at its boundary
TRACED = {
    "numt": ("is_probable_prime", "random_prime", "mod_exp"),
    "params": (
        "setup",
        "validate",
        "find_generator",
        "params_digest",
        "load_public",
        "load_master",
        "save_public",
        "save_master",
    ),
    "kgc": ("new_keystore", "keygen", "verify_pair", "store_load", "store_save"),
    "nike": ("shared_key", "join", "kdf", "load_group", "save_group"),
    "broadcast": (
        "brod_encrypt",
        "brod_decrypt",
        "ct_to_bytes",
        "ct_from_bytes",
        "ct_save",
        "ct_load",
    ),
    "cli": (
        "main",
        "cmd_issue",
        "cmd_derive",
        "cmd_join",
        "cmd_broadcast_encrypt",
        "cmd_broadcast_decrypt",
    ),
}

# called millions of times during prime search: counts and summed time only
HOT = frozenset({"numt.is_probable_prime", "numt.random_prime", "numt.mod_exp"})

# exact counts kept in both modes; they must repeat exactly at a fixed seed
EXACT_COUNTS = (
    "numt.mod_exp.calls",
    "numt.is_probable_prime.calls",
    "numt.Rng.draws",
    "nike.shared_key.peers",
)
# the functions the untraced run wraps to keep them (Rng draws are patched apart)
EXACT_SOURCES = frozenset({"numt.mod_exp", "numt.is_probable_prime", "nike.shared_key"})


def span_name(qualname: str) -> str:
    """`cli.cmd_broadcast_encrypt` -> `cli.broadcast-encrypt`; others unchanged."""
    module, _, func = qualname.partition(".")
    if module == "cli" and func.startswith("cmd_"):
        return "cli." + func[4:].replace("_", "-")
    return qualname


# extra per-call amounts: qualname -> (metric name, f(args, result) -> int)
_AMOUNTS = {
    "nike.shared_key": ("nike.shared_key.peers", lambda a, r: len(r.members) - 1),
    "kgc.store_load": ("kgc.store_load.bytes", lambda a, r: os.path.getsize(a[0])),
    "kgc.store_save": ("kgc.store_save.bytes", lambda a, r: os.path.getsize(a[1])),
    "broadcast.ct_to_bytes": ("broadcast.ct_bytes", lambda a, r: len(r)),
    "numt.is_probable_prime": ("numt.is_probable_prime.true", lambda a, r: int(r)),
    "cli.main": ("cli.exit_nonzero", lambda a, r: int(r != 0)),
}


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    A span is `(name, start, end, parent_index, op_id)`; children of one
    parent may overlap, so their intervals are merged before subtracting.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Recorder:
    """Counters and spans for one run; see the module docstring."""

    def __init__(self, spans: bool):
        self.tracing = spans
        self.active = True
        self.op_id = None
        self.counts: dict[str, int] = defaultdict(int)
        self.hot_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def paused(self):
        """Call through without recording inside the block."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def exact_counts(self) -> dict[str, int]:
        return {k: self.counts[k] for k in EXACT_COUNTS}

    def _wrap(self, qualname: str, fn):
        """Wrapper for one traced function, or None if this mode leaves it alone."""
        rec = self
        name = span_name(qualname)
        calls = qualname + ".calls"
        amount = _AMOUNTS.get(qualname)

        def tally(args, result):
            rec.counts[calls] += 1
            if amount is not None:
                rec.counts[amount[0]] += amount[1](args, result)

        if not self.tracing:
            if qualname not in EXACT_SOURCES:
                return None

            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                if rec.active:
                    tally(args, result)
                return result

            return counting

        if qualname in HOT:

            def hot(*args, **kwargs):
                if not rec.active:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                rec.hot_time[qualname] += time.perf_counter() - t0
                tally(args, result)
                return result

            return hot

        def spanning(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            parent = rec._stack[-1] if rec._stack else None
            index = len(rec.spans)
            rec.spans.append(None)
            rec._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[index] = (name, start, end, parent, rec.op_id)
            tally(args, result)
            return result

        return spanning

    def _wrap_rng(self, method):
        rec = self

        def draw(self_rng, *args):
            if rec.active:
                rec.counts["numt.Rng.draws"] += 1
            return method(self_rng, *args)

        return draw

    @contextmanager
    def install(self):
        """Rebind every traced function in every loaded mpnike module."""
        owners = {name: importlib.import_module("mpnike." + name) for name in TRACED}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mpnike" or n.startswith("mpnike.")]
        patched: list[tuple[object, str, object]] = []
        try:
            for module_name, funcs in TRACED.items():
                owner = owners[module_name]
                for func in funcs:
                    orig = getattr(owner, func)
                    wrapper = self._wrap(f"{module_name}.{func}", orig)
                    if wrapper is None:
                        continue
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is orig:
                                patched.append((module, attr, orig))
                                setattr(module, attr, wrapper)
            for method in ("getrandbits", "randrange"):
                orig = vars(numt.Rng)[method]
                patched.append((numt.Rng, method, orig))
                setattr(numt.Rng, method, self._wrap_rng(orig))
            yield self
        finally:
            for target, attr, orig in reversed(patched):
                setattr(target, attr, orig)

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate spans and counters into `<module>.<function>.<stat>`."""
        out: dict[str, float] = defaultdict(float, self.counts)
        for qualname, secs in self.hot_time.items():
            out[qualname + ".total_s"] = secs
        for (name, start, end, _p, _op), own in zip(self.spans, self_times(self.spans)):
            out[name + ".total_s"] += end - start
            out[name + ".self_s"] += own
        calls = self.counts.get("numt.is_probable_prime.calls", 0)
        trues = self.counts.get("numt.is_probable_prime.true", 0)
        out["numt.is_probable_prime.true_ratio"] = trues / calls if calls else 0.0
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
