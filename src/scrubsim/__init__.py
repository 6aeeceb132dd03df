"""Elastic DDoS-scrubbing control-plane simulator."""

from .adaptation import (
    AdversaryStrategy,
    Budget,
    EstimatorState,
    RegretReport,
    adversary_next,
    best_static_hindsight,
    fpl_estimate,
    loss_accounting,
    normalized_regret,
    prev_epoch_estimate,
    regret_experiment,
    uniform_estimate,
)
from .defense_graphs import (
    AnnotatedGraph,
    AttackType,
    LogicalModule,
    PhysicalGraph,
    builtin_library,
    graph_compute_factor,
    monolithic_demand_vms,
    node_demand_vms,
)
from .oracle import OracleInstance, oracle_comparison, oracle_exact, random_tiny_instance
from .orchestration import (
    ForwardingPlan,
    TagPool,
    assign_tags,
    build_tag_pools,
    pin_bidirectional,
    rule_count_comparison,
    synthesize_rules,
    tag_space_bound,
)
from .resource_manager import (
    DspResult,
    SspResult,
    check_feasibility,
    dsp_greedy,
    evaluate_cost,
    overprovision,
    place_all,
    ssp_greedy,
)
from .simulate import (
    EpochRecord,
    Scenario,
    emit_report,
    provisioning_comparison,
    run_simulation,
    run_scenario_sweep,
)
from .topology import (
    CostParams,
    Datacenter,
    Pop,
    Topology,
    generate_topology,
)

__version__ = "0.1.0"
