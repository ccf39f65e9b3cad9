"""Runtime physics contracts.

The correctness firewall between the solvers and the results users
consume:

* :mod:`repro.contracts.checks` — the invariant catalog
  (:func:`check_pdn_result`, :func:`check_em_monotonicity`).
* :mod:`repro.contracts.report` — :class:`ContractReport` /
  :class:`ContractCheck`, severity policies and the ``REPRO_CONTRACTS``
  environment switch.

See ``docs/CONTRACTS.md`` for the full catalog and semantics.
"""

from repro.contracts.checks import (
    EFFICIENCY_TOLERANCE,
    KCL_RELATIVE_TOLERANCE,
    PASSIVITY_RELATIVE_TOLERANCE,
    VOLTAGE_RELATIVE_MARGIN,
    check_em_monotonicity,
    check_pdn_result,
)
from repro.contracts.report import (
    CONTRACTS_ENV,
    DEFAULT_SEVERITIES,
    SEVERITIES,
    ContractCheck,
    ContractPolicy,
    ContractReport,
    ContractWarning,
    contract_policy,
    enforce,
    get_policy,
    policy_from_env,
    set_policy,
)

__all__ = [
    "check_pdn_result",
    "check_em_monotonicity",
    "KCL_RELATIVE_TOLERANCE",
    "PASSIVITY_RELATIVE_TOLERANCE",
    "EFFICIENCY_TOLERANCE",
    "VOLTAGE_RELATIVE_MARGIN",
    "ContractCheck",
    "ContractReport",
    "ContractPolicy",
    "ContractWarning",
    "contract_policy",
    "get_policy",
    "set_policy",
    "policy_from_env",
    "enforce",
    "SEVERITIES",
    "DEFAULT_SEVERITIES",
    "CONTRACTS_ENV",
]
