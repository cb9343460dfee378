"""Phase-1 output: the data placement (the sets :math:`M_j`).

A :class:`Placement` records, for every task, the set of machines holding a
replica of its input data.  Phase 2 may only run a task on a machine in its
set — the simulator enforces this.  The placement also carries everything
the replication-cost models measure:

* the **replication bound model** looks at :math:`\\max_j |M_j|` (and the
  full histogram of replica counts);
* the **memory-aware model** charges each replica its task's size
  :math:`s_j` to the hosting machine and looks at
  :math:`Mem_{max} = \\max_i \\sum_{j : i \\in M_j} s_j`.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.model import Instance

__all__ = ["Placement", "single_machine_placement", "everywhere_placement", "group_placement"]


@dataclass(frozen=True)
class Placement:
    """An immutable map ``task id -> frozenset of machine ids``.

    Attributes
    ----------
    instance:
        The instance this placement belongs to.
    machine_sets:
        ``machine_sets[j]`` is :math:`M_j`, the machines allowed to run
        task ``j``.  Every set must be a non-empty subset of
        ``range(instance.m)``.
    meta:
        Free-form annotations a strategy wants to pass from Phase 1 to its
        Phase-2 policy (e.g. the group index of each task for LS-Group, or
        the fixed machine for No-Replication strategies).  Not interpreted
        by this class.
    """

    instance: Instance
    machine_sets: tuple[frozenset[int], ...]
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        inst = self.instance
        if len(self.machine_sets) != inst.n:
            raise ValueError(
                f"placement must cover all {inst.n} tasks, got {len(self.machine_sets)}"
            )
        # Strategies share one set object among many tasks (a group, or
        # every machine); checking each object once names the same first
        # offending task.
        checked: set[int] = set()
        for j, ms in enumerate(self.machine_sets):
            if id(ms) in checked:
                continue
            checked.add(id(ms))
            if not isinstance(ms, frozenset):
                raise TypeError(f"machine_sets[{j}] must be a frozenset, got {type(ms).__name__}")
            if not ms:
                raise ValueError(f"task {j} has an empty machine set — it could never run")
            for i in ms:
                if not 0 <= i < inst.m:
                    raise ValueError(
                        f"machine_sets[{j}] contains machine {i}, outside 0..{inst.m - 1}"
                    )

    # -- basic accessors -------------------------------------------------------
    def machines_for(self, tid: int) -> frozenset[int]:
        """:math:`M_j` for task ``tid``."""
        return self.machine_sets[tid]

    def __getitem__(self, tid: int) -> frozenset[int]:
        return self.machine_sets[tid]

    def allows(self, tid: int, machine: int) -> bool:
        """Whether task ``tid`` may run on ``machine``."""
        return machine in self.machine_sets[tid]

    def tasks_on(self, machine: int) -> list[int]:
        """Task ids with a replica on ``machine`` (i.e. runnable there)."""
        return [j for j, ms in enumerate(self.machine_sets) if machine in ms]

    # -- replication-bound metrics -----------------------------------------------
    def replication_count(self, tid: int) -> int:
        """:math:`|M_j|` for task ``tid``."""
        return len(self.machine_sets[tid])

    def max_replication(self) -> int:
        """:math:`\\max_j |M_j|` — the replication bound this placement uses."""
        return max(len(ms) for ms in self.machine_sets)

    def min_replication(self) -> int:
        """:math:`\\min_j |M_j|`."""
        return min(len(ms) for ms in self.machine_sets)

    def total_replicas(self) -> int:
        """:math:`\\sum_j |M_j|` — total number of data copies in the system."""
        return sum(len(ms) for ms in self.machine_sets)

    def replication_histogram(self) -> dict[int, int]:
        """``{replica_count: number_of_tasks}``."""
        return dict(Counter(len(ms) for ms in self.machine_sets))

    def is_no_replication(self) -> bool:
        """Whether every task lives on exactly one machine (Strategy 1)."""
        return self.max_replication() == 1

    def is_full_replication(self) -> bool:
        """Whether every task lives on all machines (Strategy 2)."""
        return self.min_replication() == self.instance.m

    # -- memory-aware metrics -------------------------------------------------------
    def memory_per_machine(self) -> list[float]:
        """:math:`Mem_i = \\sum_{j: i \\in M_j} s_j` for every machine.

        Every *replica* of a task charges the full task size to its host,
        matching the paper's memory model where replication multiplies the
        footprint.
        """
        mem = [0.0] * self.instance.m
        for j, ms in enumerate(self.machine_sets):
            s = self.instance.tasks[j].size
            for i in ms:
                mem[i] += s
        return mem

    def memory_max(self) -> float:
        """:math:`Mem_{max} = \\max_i Mem_i`."""
        return max(self.memory_per_machine())

    def total_memory(self) -> float:
        """Total memory footprint across the system (all replicas)."""
        return math.fsum(
            self.instance.tasks[j].size * len(ms) for j, ms in enumerate(self.machine_sets)
        )

    # -- estimated load views (used by tests and proofs' bookkeeping) -----------------
    def fixed_assignment(self) -> list[int]:
        """For a no-replication placement, the machine of each task.

        Raises if any task has more than one replica.
        """
        assignment = []
        for j, ms in enumerate(self.machine_sets):
            if len(ms) != 1:
                raise ValueError(
                    f"fixed_assignment() requires |M_j|=1 for all tasks; "
                    f"task {j} has {len(ms)} replicas"
                )
            assignment.append(next(iter(ms)))
        return assignment

    def estimated_load_per_machine(self) -> list[float]:
        """For a no-replication placement, estimated load of each machine."""
        loads = [0.0] * self.instance.m
        for j, machine in enumerate(self.fixed_assignment()):
            loads[machine] += self.instance.tasks[j].estimate
        return loads

    # -- derivation --------------------------------------------------------------------
    def restrict(self, tid: int, machines: Iterable[int]) -> "Placement":
        """A copy with task ``tid`` restricted to ``machines``."""
        new_set = frozenset(machines)
        sets = list(self.machine_sets)
        sets[tid] = new_set
        return Placement(self.instance, tuple(sets), meta=self.meta)


# -- canonical constructors -----------------------------------------------------------


def single_machine_placement(
    instance: Instance,
    assignment: Sequence[int],
    meta: Mapping[str, object] | None = None,
) -> Placement:
    """No-replication placement: task ``j`` lives only on ``assignment[j]``.

    The tasks of one machine share one set object, so checks that handle
    each distinct set once run per machine, not per task.
    """
    if len(assignment) != instance.n:
        raise ValueError(
            f"assignment must cover all {instance.n} tasks, got {len(assignment)}"
        )
    machines = tuple(int(i) for i in assignment)
    singletons = {i: frozenset((i,)) for i in set(machines)}
    sets = tuple(singletons[i] for i in machines)
    base_meta: dict[str, object] = {"assignment": machines}
    if meta:
        base_meta.update(meta)
    return Placement(instance, sets, meta=base_meta)


def everywhere_placement(
    instance: Instance, meta: Mapping[str, object] | None = None
) -> Placement:
    """Full-replication placement: every task on every machine (Strategy 2)."""
    all_machines = frozenset(range(instance.m))
    sets = tuple(all_machines for _ in range(instance.n))
    return Placement(instance, sets, meta=dict(meta or {}))


def group_placement(
    instance: Instance,
    group_of_task: Sequence[int],
    groups: Sequence[Sequence[int]],
    meta: Mapping[str, object] | None = None,
) -> Placement:
    """Group placement: task ``j`` is replicated on every machine of its group.

    Parameters
    ----------
    group_of_task:
        ``group_of_task[j]`` is the index (into ``groups``) of the group
        task ``j`` was assigned to in Phase 1.
    groups:
        A partition of ``range(instance.m)`` into disjoint machine groups.
    """
    if len(group_of_task) != instance.n:
        raise ValueError(
            f"group_of_task must cover all {instance.n} tasks, got {len(group_of_task)}"
        )
    group_sets = [frozenset(int(i) for i in g) for g in groups]
    seen: set[int] = set()
    for gi, g in enumerate(group_sets):
        if not g:
            raise ValueError(f"group {gi} is empty")
        overlap = seen & g
        if overlap:
            raise ValueError(f"groups must be disjoint; machines {sorted(overlap)} repeated")
        seen |= g
    if seen != set(range(instance.m)):
        missing = sorted(set(range(instance.m)) - seen)
        raise ValueError(f"groups must cover all machines; missing {missing}")
    sets = []
    for j, gi in enumerate(group_of_task):
        gi = int(gi)
        if not 0 <= gi < len(group_sets):
            raise ValueError(f"group_of_task[{j}]={gi} out of range 0..{len(group_sets) - 1}")
        sets.append(group_sets[gi])
    base_meta: dict[str, object] = {
        "group_of_task": tuple(int(g) for g in group_of_task),
        "groups": tuple(tuple(sorted(g)) for g in group_sets),
    }
    if meta:
        base_meta.update(meta)
    return Placement(instance, tuple(sets), meta=base_meta)
