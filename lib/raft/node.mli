(** A single Raft participant.

    Implements the full consensus algorithm of Ongaro & Ousterhout: randomized
    election timeouts (uniform in 1.5–3 s, with 150 ms heartbeats), leader
    election with up-to-date log checks, log replication with consistency
    checks and conflict truncation, and commit advancement restricted to the
    current term (a new leader that inherits uncommitted entries appends a
    no-op of its term, so they commit without a client entry). Crash/restart preserves persistent state (term, vote, log)
    and discards volatile state, modelling a process with durable storage.

    The log is compacted: entries at or below the lowest match index over
    all members (and the commit index) are dropped, first at the leader,
    then at each follower when an AppendEntries carries that watermark. A
    node keeps the dropped prefix's length and last term, so indices, terms
    and {!log_length} keep their meaning; an entry some member still lacks,
    or that an append still in flight may make the leader resend, is never
    dropped, so a crashed or lagging follower catches up by plain
    AppendEntries, with no snapshot, and the messages sent are exactly
    those of a leader that keeps its whole log.

    Nodes are wired together by {!Group}, which provides the [send]
    transport over the simulated network. *)

type role = Follower | Candidate | Leader

type t

val create :
  engine:Simcore.Engine.t ->
  rng:Simcore.Rng.t ->
  id:int ->
  peers:int array ->
  t
(** [peers] includes the node itself. The node does nothing until
    {!set_transport} is called and either {!start} or {!force_leader} runs. *)

val set_transport : t -> (dst:int -> Types.message -> unit) -> unit

val set_group_commit : t -> bool -> unit
(** Group-commit replication (off by default): the leader keeps at most one
    AppendEntries in flight per peer, so entries arriving while a round is
    outstanding coalesce and ship as the next round's single batch — the
    whole batch is acked (and committed) on one quorum of replies. Batch
    size adapts to load by construction: an idle group replicates each
    entry immediately, a busy one accumulates for exactly one network round
    trip. Heartbeats double as the retransmission timer (they clear the
    in-flight marks and resend the pending suffix). With it off, behavior
    is bit-for-bit the pipelined per-entry protocol. *)

val start : t -> unit
(** Arms the election timer (normal cold start: an election will occur). *)

val force_leader : t -> unit
(** Installs the node as leader of term 1 without an election; its peers
    must have been {!start}ed or left idle. Used by experiments to skip
    startup elections, as a stable production deployment would have. *)

val receive : t -> Types.message -> unit

val replicate : t -> size:int -> tag:int -> on_committed:(unit -> unit) -> int
(** Appends a client entry at the leader and returns its log index; the
    callback fires when the entry's index is committed on this node.
    Raises [Invalid_argument] when called on a non-leader. *)

val crash : t -> unit
(** Stops processing messages and timers. Persistent state survives. *)

val restart : t -> unit

(* Introspection (tests, metrics). *)

val id : t -> int
val role : t -> role
val term : t -> int
val commit_index : t -> int
val log_length : t -> int
(** Index of the last log entry, compacted ones included. *)

val log_base : t -> int
(** Index of the last compacted entry (0 before any compaction). *)

val log_entries : t -> Types.entry list
(** The retained entries, [log_base + 1 .. log_length]. *)

val leader_hint : t -> int option
val is_stopped : t -> bool
