"""Mode-knob resolution: one precedence rule for every env override.

Every tunable mode in the stack (allocator, transfer coalescing) used
to parse its own environment variable inline,
each with slightly different validation and no shared statement of who
wins when both an env var and a harness kwarg are set.  This module is
the single answer:

    **harness kwarg > environment variable > built-in default**

i.e. env vars configure *unmodified* harness runs (CI matrices, bench
sweeps), and explicit code always wins over ambient process state.

All helpers raise :class:`~repro.common.errors.ConfigError` on an
unrecognized value, naming the knob and the valid choices — a typo'd
``REPRO_NET_ALLOCATOR`` fails loudly instead of silently selecting the
default.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.common.errors import ConfigError

__all__ = [
    "resolve_mode",
    "net_allocator",
    "net_transfer_mode",
    "NET_ALLOCATORS",
    "NET_TRANSFER_MODES",
    "ENV_NET_ALLOCATOR",
    "ENV_NET_TRANSFER",
]

# Canonical knob names / valid values.  The net layer re-exports these
# (repro.net.network.ALLOCATORS, repro.net.transfer.TRANSFER_MODES) so
# existing import sites keep working.
NET_ALLOCATORS = ("incremental", "fullscan")
NET_TRANSFER_MODES = ("coalesced", "per_batch")

ENV_NET_ALLOCATOR = "REPRO_NET_ALLOCATOR"
ENV_NET_TRANSFER = "REPRO_NET_TRANSFER"


def resolve_mode(
    knob: str,
    *,
    env_var: str,
    valid: Sequence[str],
    default: str,
    override: Optional[str] = None,
) -> str:
    """Resolve *knob* to one of *valid* under the precedence rule.

    ``override`` is the harness kwarg (wins when not ``None``), then
    ``os.environ[env_var]``, then ``default``.  Whatever source
    supplies the value, it must be one of *valid*.
    """
    if override is not None:
        value, source = override, "kwarg"
    else:
        env = os.environ.get(env_var)
        if env is not None:
            value, source = env, f"env {env_var}"
        else:
            value, source = default, "default"
    if value not in valid:
        raise ConfigError(
            f"unknown {knob} {value!r} (from {source}); "
            f"valid: {', '.join(valid)}"
        )
    return value


def net_allocator(override: Optional[str] = None) -> str:
    """Resolve the flow-network allocator mode."""
    return resolve_mode(
        "allocator",
        env_var=ENV_NET_ALLOCATOR,
        valid=NET_ALLOCATORS,
        default="incremental",
        override=override,
    )


def net_transfer_mode(override: Optional[str] = None) -> str:
    """Resolve the transfer-engine batching mode."""
    return resolve_mode(
        "transfer mode",
        env_var=ENV_NET_TRANSFER,
        valid=NET_TRANSFER_MODES,
        default="coalesced",
        override=override,
    )
