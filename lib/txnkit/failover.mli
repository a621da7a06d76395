(** Shared per-attempt machinery: failover and the attempt's end.

    Every protocol family runs the same moves under fault injection:
    re-resolve partition leaders at the start of an attempt (so retries
    after a leader crash land on the newly elected node), and arm a
    watchdog that aborts an attempt stalled on messages that will never
    arrive. These are gated on {!Cluster.failover_active}, so fault-free
    runs schedule nothing extra and stay byte-identical. The
    client-coordinated families also share {!finish}, the once-only end of
    an attempt that the watchdog races against the protocol's decision. *)

val attempt_timeout : Simcore.Sim_time.t
(** Longer than any healthy WAN commit, shorter than the driver would
    tolerate hanging, and above the Raft election timeout so a retry lands
    after a new leader exists. *)

val refresh_leaders :
  Cluster.t -> participants:int list -> set:(int -> int -> unit) -> unit
(** Under failover, call [set partition leader_node] for each participant
    with the current leader per {!Cluster.leader_node}; no-op otherwise. *)

val current_leader : Cluster.t -> partition:int -> static:int -> int
(** The partition's current leader under failover, [static] otherwise. *)

val arm_watchdog : Cluster.t -> finished:bool ref -> on_timeout:(unit -> unit) -> unit
(** Under failover, schedule [on_timeout] after {!attempt_timeout} unless
    [finished] has been set by then; no-op otherwise. *)

val finish :
  Cluster.t ->
  client:int ->
  txn:int ->
  finished:bool ref ->
  on_done:(committed:bool -> unit) ->
  committed:bool ->
  unit
(** The once-only end of a client-coordinated attempt (TAPIR, both
    Carousels, 2PL): unless [finished] is already set, sets it, marks the
    client's track with a [txn-commit] / [txn-abort] trace instant and calls
    [on_done]. Later calls — a watchdog firing after the decision, a late
    abort notice — do nothing. *)
