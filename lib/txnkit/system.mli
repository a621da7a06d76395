(** The interface every transaction system exposes to the workload driver.

    A system is a record of closures over a live cluster. [submit] runs one
    {e attempt} of a transaction; the driver handles retries and latency
    accounting. *)

type t = {
  name : string;
  submit : Txn.t -> on_done:(committed:bool -> unit) -> unit;
  deterministic : bool;
      (** deterministic (queue-oriented) families never abort an attempt to
          the client outside failover windows; the driver asserts this *)
  spec_aborts : (unit -> int) option;
      (** cumulative count of in-epoch speculative re-executions, the
          deterministic family's replacement for client-visible retries *)
  retained : unit -> (string * int) list;
      (** named counts of the family's long-lived per-attempt records
          (coordinator records, lock-table keys, ...): what a drained run
          must have let go of. Empty for families that report none;
          {!make} and {!make_deterministic} set it so. *)
}

val make : name:string -> submit:(Txn.t -> on_done:(committed:bool -> unit) -> unit) -> t
(** An ordinary (abort-and-retry) system: [deterministic = false]. *)

val make_deterministic :
  name:string ->
  spec_aborts:(unit -> int) ->
  submit:(Txn.t -> on_done:(committed:bool -> unit) -> unit) ->
  t
(** A deterministic system: attempts only fail back to the client during
    fault windows (leader loss), never from contention. *)
