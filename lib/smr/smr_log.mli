(** The ["pmp"] consensus engine: a Mu-style replicated log on the
    Protected Memory Paxos permission discipline, built on
    {!Replicated_log}.  A steady-state append is ONE replicated write
    (two delays), because write success certifies the absence of
    rivals; followers learn commits from Commit messages, a restarted
    replica catches up by installing a snapshot from the leader, and a
    linearizable read costs one quorum write to the lease register.

    [anti_entropy_every > 0.] lets stalled followers request snapshot
    catch-ups (off by default); the lease knobs are ignored. *)

include Consensus_engine.S
