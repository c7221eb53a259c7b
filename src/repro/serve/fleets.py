"""Per-tenant fleet registration with content-addressed fleet ids.

A *fleet* is one simulation scenario (seed, scale, observation window)
a tenant wants answers about.  Registration derives the fleet id from
the full config fingerprint (:func:`repro.pipeline.stages.config_key`), so the
same scenario registered twice — by one tenant or by many — maps to one
id and therefore one set of artifacts in the shared store.  Tenants own
only their *names* for fleets; the artifacts themselves are shared,
which is exactly what makes the warm path multi-tenant-cheap.

The registry persists to ``<store-dir>/fleets.json`` (atomic
write-then-rename) so a restarted server — or a worker process in a
different interpreter — sees the same fleet table.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Mapping

from ..errors import ConfigError, DataError
from .ports import FleetSpec

REGISTRY_SCHEMA = 1

#: Tenant used when a request carries no tenant at all.
DEFAULT_TENANT = "public"

#: Registration knobs and their defaults; everything else is rejected
#: so typos fail loudly instead of silently keying a different fleet.
FLEET_PARAM_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "scale": 0.25,
    "days": 365,
}


def fleet_config(params: Mapping[str, Any]):
    """Build the :class:`~repro.config.SimulationConfig` for a fleet."""
    from ..config import SimulationConfig
    from ..datacenter.builder import FleetConfig

    return SimulationConfig(
        seed=int(params["seed"]),
        n_days=int(params["days"]),
        fleet=FleetConfig(scale=float(params["scale"]),
                          observation_days=int(params["days"])),
    )


def normalize_fleet_params(raw: Mapping[str, Any]) -> dict[str, Any]:
    """Validate raw registration knobs and fill defaults."""
    unknown = sorted(set(raw) - set(FLEET_PARAM_DEFAULTS))
    if unknown:
        raise DataError(
            f"unknown fleet parameter(s) {unknown}; "
            f"accepts {sorted(FLEET_PARAM_DEFAULTS)}"
        )
    params = dict(FLEET_PARAM_DEFAULTS)
    for name, value in raw.items():
        template = FLEET_PARAM_DEFAULTS[name]
        try:
            params[name] = (float(value) if isinstance(template, float)
                            else int(value))
        except (TypeError, ValueError):
            raise DataError(
                f"fleet parameter {name} must be a number, got {value!r}"
            ) from None
    if params["seed"] < 0:
        raise DataError(f"seed must be >= 0, got {params['seed']}")
    if not 0.0 < params["scale"] <= 4.0:
        raise DataError(f"scale must be in (0, 4], got {params['scale']}")
    if params["days"] < 1:
        raise DataError(f"days must be >= 1, got {params['days']}")
    return params


def fleet_spec(params: Mapping[str, Any]) -> FleetSpec:
    """Content-addressed :class:`FleetSpec` for normalized params."""
    from ..pipeline.stages import config_key

    normalized = normalize_fleet_params(params)
    return FleetSpec(fleet_id=config_key(fleet_config(normalized)),
                     params=normalized)


class FleetRegistry:
    """Named, per-tenant fleet table over content-addressed specs.

    Args:
        path: JSON file to persist to, or None for an in-memory
            registry (tests, embedded use).
    """

    def __init__(self, path: str | pathlib.Path | None = None):
        self.path = pathlib.Path(path) if path is not None else None
        #: fleet_id -> FleetSpec
        self._fleets: dict[str, FleetSpec] = {}
        #: tenant -> name -> fleet_id
        self._names: dict[str, dict[str, str]] = {}
        if self.path is not None and self.path.exists():
            self._load()

    # -- persistence --------------------------------------------------

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError) as error:
            raise DataError(
                f"fleet registry {self.path} is corrupt: {error}"
            ) from error
        if payload.get("schema") != REGISTRY_SCHEMA:
            raise DataError(
                f"fleet registry {self.path}: schema "
                f"{payload.get('schema')!r} != {REGISTRY_SCHEMA}"
            )
        for fleet_id, params in payload.get("fleets", {}).items():
            self._fleets[fleet_id] = FleetSpec(fleet_id=fleet_id,
                                               params=dict(params))
        for tenant, names in payload.get("tenants", {}).items():
            self._names[tenant] = dict(names)

    def _save(self) -> None:
        if self.path is None:
            return
        payload = {
            "schema": REGISTRY_SCHEMA,
            "fleets": {fleet_id: dict(spec.params)
                       for fleet_id, spec in sorted(self._fleets.items())},
            "tenants": {tenant: dict(sorted(names.items()))
                        for tenant, names in sorted(self._names.items())},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.tmp-{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.path)

    # -- registration -------------------------------------------------

    def register(
        self,
        raw_params: Mapping[str, Any],
        tenant: str = DEFAULT_TENANT,
        name: str | None = None,
    ) -> FleetSpec:
        """Register a scenario for ``tenant``; idempotent per content.

        Re-registering the same scenario (even under a new name or
        tenant) reuses the existing spec and its warm artifacts.
        """
        if not tenant:
            raise ConfigError("tenant must be non-empty")
        spec = fleet_spec(raw_params)
        self._fleets.setdefault(spec.fleet_id, spec)
        names = self._names.setdefault(tenant, {})
        label = name or spec.fleet_id[:12]
        existing = names.get(label)
        if existing is not None and existing != spec.fleet_id:
            raise DataError(
                f"tenant {tenant!r} already uses name {label!r} for a "
                "different fleet; pick another name"
            )
        names[label] = spec.fleet_id
        self._save()
        return spec

    # -- lookup -------------------------------------------------------

    def resolve(self, ref: str, tenant: str = DEFAULT_TENANT) -> FleetSpec:
        """Fleet by id, id prefix (>= 8 chars) or tenant-local name."""
        named = self._names.get(tenant, {}).get(ref)
        if named is not None:
            return self._fleets[named]
        if ref in self._fleets:
            return self._fleets[ref]
        if len(ref) >= 8:
            matches = [fleet_id for fleet_id in self._fleets
                       if fleet_id.startswith(ref)]
            if len(matches) == 1:
                return self._fleets[matches[0]]
            if len(matches) > 1:
                raise DataError(f"fleet reference {ref!r} is ambiguous")
        raise DataError(f"unknown fleet {ref!r} for tenant {tenant!r}")

    def list(self, tenant: str | None = None) -> list[dict[str, Any]]:
        """JSON-safe fleet listing, optionally restricted to a tenant."""
        tenants = [tenant] if tenant is not None else sorted(self._names)
        rows = []
        for entry in tenants:
            for name, fleet_id in sorted(self._names.get(entry, {}).items()):
                spec = self._fleets[fleet_id]
                rows.append({
                    "tenant": entry,
                    "name": name,
                    "fleet_id": fleet_id,
                    "params": dict(spec.params),
                })
        return rows

    def __len__(self) -> int:
        return len(self._fleets)
