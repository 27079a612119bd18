"""Coded state machines over finite fields.

A library plus simulator for running replicated state machines in coded
form: states and commands are spread across nodes as evaluations of
interpolating polynomials, per-round results are recovered by
Reed-Solomon-style decoding, and expensive coding work can be delegated
to a single worker whose output is spot-checked by a sampled audit
committee.  Replication baselines, a deterministic Byzantine network
simulator, and a measurement harness round out the package.
"""

__version__ = "0.1.0"

from .field import (  # noqa: F401
    BinaryField,
    ConfigurationError,
    CounterBoard,
    Field,
    OpCounter,
    PrimeField,
    counting,
    parse_field,
)
from .machine import MACHINES, TransitionFunction, make_machine  # noqa: F401
from .csm import (  # noqa: F401
    CodingConfig,
    RoundResult,
    client_decide,
    decode_round,
    encode_commands,
    encode_states,
    execute_local,
    max_machines,
    update_coded_states,
)
from .baseline import (  # noqa: F401
    ReplicationConfig,
    run_replicated_round,
)
from .intermix import (  # noqa: F401
    AuditTranscript,
    Delegation,
    Worker,
    WorkerStrategy,
    audit,
    commoner_check,
    committee_size,
    delegated_decode,
    delegated_encode,
    delegated_update,
    elect_committee,
    intermix_cost,
    run_session,
)
from .simnet import (  # noqa: F401
    AdversaryModel,
    EventLog,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from .harness import (  # noqa: F401
    MetricsRecord,
    compute_metrics,
    run_cli,
    sweep_security,
)
