"""Pipeline architecture of the reproduction (Section 4 of the paper)."""

from .annotations import (
    BindingSet,
    PostDirective,
    collect_bindings,
    write_output_bindings,
)
from .buffer import BufferCache, BufferSegment
from .joins import CompiledRuleExecutor, JoinInput, SlotMachineJoin, hash_join
from .pipeline import (
    PipelineExecutor,
    PipelineStats,
    RuleFilterNode,
    SinkNode,
    SourceNode,
)
from .plan import (
    AtomStep,
    PlanNode,
    ReasoningAccessPlan,
    RuleJoinPlan,
    SeedJoinPlan,
    backward_slice,
    compile_join_plans,
    compile_plan,
    compile_source_pushdowns,
    compile_rule_join_plan,
)
from .incremental import ResidentError, ResidentReasoner
from .reasoner import ReasoningResult, VadalogReasoner, reason
from .service import ReasoningService, predicate_dependencies
from .record_managers import (
    CsvRecordManager,
    DatabaseRecordManager,
    DataSourceRecordManager,
    FactsRecordManager,
    InMemoryRecordManager,
    RecordManager,
    managers_for_database,
    managers_for_facts,
)
from .scheduler import PullScheduler, RoundRobinScheduler, SchedulerReport
from .wrappers import TerminationWrapper, WrapperRegistry

__all__ = [
    "BindingSet",
    "PostDirective",
    "collect_bindings",
    "write_output_bindings",
    "BufferCache",
    "BufferSegment",
    "CompiledRuleExecutor",
    "JoinInput",
    "SlotMachineJoin",
    "hash_join",
    "PipelineExecutor",
    "PipelineStats",
    "RuleFilterNode",
    "SinkNode",
    "SourceNode",
    "AtomStep",
    "PlanNode",
    "ReasoningAccessPlan",
    "RuleJoinPlan",
    "SeedJoinPlan",
    "backward_slice",
    "compile_source_pushdowns",
    "compile_join_plans",
    "compile_plan",
    "compile_rule_join_plan",
    "ReasoningResult",
    "ResidentError",
    "ResidentReasoner",
    "ReasoningService",
    "predicate_dependencies",
    "VadalogReasoner",
    "reason",
    "CsvRecordManager",
    "DatabaseRecordManager",
    "DataSourceRecordManager",
    "FactsRecordManager",
    "InMemoryRecordManager",
    "RecordManager",
    "managers_for_database",
    "managers_for_facts",
    "PullScheduler",
    "RoundRobinScheduler",
    "SchedulerReport",
    "TerminationWrapper",
    "WrapperRegistry",
]
