"""Elastic DDoS-scrubbing control-plane simulator."""

from .adaptation import AdversaryStrategy, Budget, regret_experiment
from .defense_graphs import builtin_library
from .orchestration import build_tag_pools, synthesize_rules
from .resource_manager import check_feasibility, dsp_greedy, evaluate_cost, place_all
from .simulate import Scenario
from .topology import CostParams, generate_topology

__version__ = "0.1.0"
