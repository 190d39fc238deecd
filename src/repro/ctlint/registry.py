"""Seed registry for the constant-time taint linter.

The taint engine is intraprocedural: it does not follow calls across
module boundaries.  Instead, secrecy enters a function three ways:

* ``@secret_params(...)`` decorators on the function itself
  (see :mod:`repro.ctlint.annotations`);
* the ``seed_params`` map here, for functions we cannot or do not want
  to edit (keyed by bare name or ``Class.method`` qualname);
* the ``secret_returning`` name set: a call whose callee's terminal
  name appears here returns a tainted value (``sampler.sample(...)``,
  ``ff_sampling_batch(...)``), which is how secrecy crosses function
  boundaries without whole-program analysis.

``declassifiers`` go the other way: calls that reduce a secret to a
public quantity (``len`` of a fixed-size buffer, ``isinstance`` on a
public type tag) return untainted values.

The async pack's knowledge — which calls block the event loop, which
wrappers legally offload blocking work — also lives here so projects
can extend it without touching rule code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Tuple

__all__ = ["LintRegistry", "DEFAULT_REGISTRY"]


@dataclass(frozen=True)
class LintRegistry:
    """Everything the rule packs know about the codebase under lint."""

    # --- taint seeds -------------------------------------------------
    # Calls whose result is secret, matched on the callee's terminal
    # name (``self.base.sample`` matches ``sample``).
    secret_returning: frozenset = frozenset(
        {
            # sampler zoo draw paths
            "sample",
            "sample_many",
            "sample_batch",
            "sample_lanes",
            "sample_magnitude",
            "raw_batch",
            "_sample_block",
            "_refill",
            "_take_sign_bit",
            "take_signed",
            "take_bit",
            "knuth_yao_walk",
            "_coin",
            "_uniform_below",
            "_sample_binary_gaussian",
            # lazy-uniform comparison machinery (models the CDT leak)
            "byte",
            "materialize_all",
            "less_than_bytes",
            # Falcon signing spine
            "ff_sampling_batch",
            "sign_batch",
            "_attempt_lanes_scalar",
            "_attempt_lanes_numpy",
            # key material
            "generate_keys",
            "load_secret_key",
        }
    )
    # Attribute chains whose dotted suffix is secret wherever it
    # appears (``self.keys.f`` and ``sk.keys.f`` both match ``keys.f``).
    secret_attributes: frozenset = frozenset(
        {"keys.f", "keys.g", "keys.F", "keys.G"}
    )
    # Extra parameter seeds for functions not carrying a decorator,
    # keyed by bare name or ``Class.method``.
    seed_params: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    # Calls that launder taint away (public sizes, type tags, ids).
    declassifiers: frozenset = frozenset({"len", "isinstance", "type", "id"})

    # --- variable-time operations -----------------------------------
    # Callees with data-dependent latency, matched on dotted name or
    # terminal name (``math.exp`` and a module-local ``exp`` alias).
    vartime_calls: frozenset = frozenset(
        {
            "math.exp",
            "math.expm1",
            "math.log",
            "math.log2",
            "exp",
            "expm1",
            "bisect.bisect",
            "bisect.bisect_left",
            "bisect.bisect_right",
            "bisect_left",
            "bisect_right",
            "insort",
            "divmod",
            "pow",
        }
    )
    # str-producing builtins: variable-time when fed a secret.
    str_calls: frozenset = frozenset(
        {"str", "repr", "format", "ascii", "bin", "hex", "oct"}
    )

    # --- async / concurrency pack ------------------------------------
    # Dotted call names that block the event loop when not offloaded.
    blocking_calls: frozenset = frozenset(
        {
            "time.sleep",
            "select.select",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "socket.create_connection",
            "os.waitpid",
            "urllib.request.urlopen",
            "requests.get",
            "requests.post",
        }
    )
    # Bare-name builtins that do blocking I/O.
    blocking_builtins: frozenset = frozenset({"open", "input"})
    # Method names (terminal attribute) that block: pipe/socket reads,
    # sync lock acquisition, future resolution.  ``.join`` is excluded
    # on purpose — ``str.join`` would swamp the rule with noise.
    blocking_methods: frozenset = frozenset(
        {"recv", "recv_bytes", "send_bytes", "accept", "acquire", "result"}
    )
    # Callees whose arguments legally reference blocking work
    # (offloaded to a thread, not run on the loop).
    offload_wrappers: frozenset = frozenset(
        {"asyncio.to_thread", "to_thread", "run_in_executor"}
    )
    # Substrings (case-insensitive) identifying lock-like context
    # managers for the lock-across-await rule.
    lock_name_hints: Tuple[str, ...] = ("lock", "mutex", "semaphore")

    def replace(self, **changes) -> "LintRegistry":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


DEFAULT_REGISTRY = LintRegistry()
