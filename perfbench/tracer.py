"""Round clock and span tracer, installed around codedsm's layer boundaries.

Both work by replacing the name a calling module looks up with a wrapper,
so `codedsm` itself is unchanged. A round runs from one call of
`simnet.consensus_oracle` (made once per round by both experiment loops)
to the next, or to the end of the run for the last round.

`RoundClock` reads the clock once per round and nothing else: it is what
the untraced, end-to-end passes use. `Tracer` adds one span per wrapped
call: name, start, end, parent span and round index. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (calling module, name it looks up, span name). The span name's first
# part is the layer the callee belongs to.
CALL_SITES = (
    ("simnet", "encode_states", "csm.encode_states"),
    ("simnet", "encode_commands", "csm.encode_commands"),
    ("simnet", "update_coded_states", "csm.update_coded_states"),
    ("simnet", "execute_local", "csm.execute_local"),
    ("simnet", "decode_round", "csm.decode_round"),
    ("simnet", "delegated_encode", "intermix.delegated_encode"),
    ("simnet", "delegated_update", "intermix.delegated_update"),
    ("simnet", "delegated_decode", "intermix.delegated_decode"),
    ("simnet", "run_replicated_round", "baseline.run_replicated_round"),
    ("csm", "decode", "rs.decode"),
    ("csm", "multipoint_eval", "poly.multipoint_eval"),
    ("rs", "interpolate", "poly.interpolate"),
    ("intermix", "decode", "rs.decode"),
    ("intermix", "interpolate", "poly.interpolate"),
    ("intermix", "multipoint_eval", "poly.multipoint_eval"),
    ("intermix", "run_session", "intermix.run_session"),
)

DELEGATED = {"intermix.delegated_encode", "intermix.delegated_update",
             "intermix.delegated_decode"}


class RoundClock:
    """One clock read at the start of every round."""

    def __init__(self):
        self.starts: list[float] = []

    def install(self, codedsm) -> None:
        simnet = codedsm.simnet
        oracle = simnet.consensus_oracle

        def timed_oracle(*args, **kwargs):
            self.begin_round(time.perf_counter())
            return oracle(*args, **kwargs)

        simnet.consensus_oracle = timed_oracle

    def begin_round(self, now: float) -> None:
        self.starts.append(now)

    def finish(self, end: float) -> None:
        pass

    def round_seconds(self, end: float) -> list[float]:
        bounds = self.starts + [end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


class Tracer(RoundClock):
    """Round clock plus one span per call at each wrapped layer boundary."""

    def __init__(self):
        super().__init__()
        # (id, name, start, end, parent id or None, round index; -1 = setup)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._round = -1
        self._round_open: tuple[int, float] | None = None
        self.agreement_checks = 0
        self.outcomes: list[tuple[bool, int, int]] = []

    # -- recording -----------------------------------------------------

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def begin_round(self, now: float) -> None:
        super().begin_round(now)
        self._close_round(now)
        self._round += 1
        sid = self._new_id()
        self._round_open = (sid, now)
        self._stack.append(sid)

    def _close_round(self, end: float) -> None:
        if self._round_open is None:
            return
        sid, start = self._round_open
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("round boundary inside an open span")
        self.spans.append((sid, "simnet.round", start, end, None,
                           self._round))
        self._round_open = None

    def finish(self, end: float) -> None:
        self._close_round(end)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_outcome = name in DELEGATED

        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self._round))
            if keep_outcome:
                self.outcomes.append((out.accepted, out.attempts,
                                      out.comparisons))
            return out

        return traced

    def install(self, codedsm) -> None:
        super().install(codedsm)
        for module, attr, name in CALL_SITES:
            mod = getattr(codedsm, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        machine = codedsm.machine.TransitionFunction
        machine.eval_all = self.wrap("machine.eval_all", machine.eval_all)
        rs = codedsm.rs
        agreement_set = rs.agreement_set

        def counted_agreement_set(*args, **kwargs):
            self.agreement_checks += 1
            return agreement_set(*args, **kwargs)

        rs.agreement_set = counted_agreement_set

    # -- reduction -----------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self time, and layer totals.

        A span's self time is its duration minus the durations of the
        spans directly inside it. Times are in seconds; setup spans
        (round -1) are kept apart from per-round totals.
        """
        child_s: dict[int, float] = defaultdict(float)
        by_id = {}
        for sid, name, start, end, parent, rnd in self.spans:
            by_id[sid] = (name, parent)
            if parent is not None:
                child_s[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        setup: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        kernel_in_decode = 0.0
        for sid, name, start, end, parent, rnd in self.spans:
            dur = end - start
            own = dur - child_s[sid]
            if rnd < 0:
                setup[name] += dur
                continue
            calls[name] += 1
            incl[name] += dur
            self_s[name] += own
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            if layer in ("poly", "rs") and _under(by_id, parent,
                                                  "csm.decode_round"):
                kernel_in_decode += own
        accepted = sum(1 for ok, _, _ in self.outcomes if ok)
        return {
            "spans": len(self.spans),
            "calls": dict(calls), "incl_s": dict(incl),
            "self_s": dict(self_s), "setup_s": dict(setup),
            "layer_self_s": dict(layer_self),
            "kernel_in_decode_s": kernel_in_decode,
            "agreement_checks": self.agreement_checks,
            "accepted_outcomes": accepted,
            "attempts": sum(a for _, a, _ in self.outcomes),
            "comparisons": sum(c for _, _, c in self.outcomes),
        }

    def write(self, path) -> None:
        """Write every span as one JSON array per line, after a header."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "round"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _under(by_id: dict, sid, name: str) -> bool:
    while sid is not None:
        span_name, parent = by_id[sid]
        if span_name == name:
            return True
        sid = parent
    return False
