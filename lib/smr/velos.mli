(** The ["velos"] consensus engine: Velos-style one-sided Paxos (cf.
    arXiv:2106.08676) on the {!Replicated_log} core.  Passive memory
    replicas; the leader commits by batched one-sided writes carrying a
    commit watermark; followers learn by polling a quorum of memories;
    failover swaps write permission and reconstructs state from replica
    memory; leader leases on virtual time make a leased linearizable read
    cost {e zero} memory operations (profiled under the
    ["velos.read.leased"] scope).

    Config: [anti_entropy_every > 0.] is the follower poll interval
    ([0.] means the default rate — velos followers always poll, it is
    their only way to learn); [lease_duration] and [lease_violation] are
    native here.  The implementation header has the watermark and lease
    safety arguments; DESIGN.md §14 compares the engines. *)

include Consensus_engine.S
