(** Queue-oriented deterministic execution — the sixth protocol family,
    after Qadah & Sadoghi's QueCC ("A Queue-oriented Transaction Processing
    Paradigm") and its speculative highly-available successor.

    Architecture (docs/PROTOCOL.md §13):

    - a {b planner} (the leader of partition 0) collects submitted
      transactions into epochs, orders each batch deterministically —
      arrival order for [Fifo], high-priority-first for [Prio], so priority
      is a queue {e position}, not a timestamp — and decomposes it into
      per-key writer chains;
    - the plan is made durable through partition 0's Raft group (QueCC logs
      the {e input} batch; execution is deterministic replay), then
      per-partition slices go to the partition leaders ({b executors});
    - executors answer with pre-epoch {e base} values for the keys the
      batch reads; the planner executes the batch speculatively as bases
      arrive, re-executing any transaction whose speculative inputs are
      invalidated by an earlier writer's (re)computation — counted as a
      {e speculation abort}, never surfaced to the client;
    - a commit frontier advances in queue order over fully-computed
      transactions: each is decided, its final writes installed at the
      executors (applied in per-key queue order), acknowledged, and only
      then acknowledged to the client;
    - epochs {e pipeline}: the planner closes the next batch as soon as the
      previous plan round is free (bounded in-flight depth, so batches grow
      with load), and cross-epoch ordering is enforced per partition — each
      plan slice names the previous epoch that touched its partition, and
      an executor serves a slice's base reads and installs only after that
      predecessor is fully applied locally.

    Contention never aborts an attempt, so the driver sees exactly one
    attempt per transaction outside fault windows
    ({!Txnkit.System.make_deterministic}). *)

type variant = Fifo | Prio

val name : variant -> string
(** ["QueCC"] / ["QueCC-Prio"]. *)

(** Deterministic batch ordering: a permutation of the batch, not a
    schedule. Exposed for the planner-determinism tests. *)
module Plan : sig
  val order : variant -> Txnkit.Txn.t array -> int array
  (** [order v txns] maps queue position (sequence number) to index in the
      arrival-ordered batch. [Fifo] is the identity; [Prio] stably moves
      high-priority transactions to the front. *)
end

(** The planner's pure speculative-execution state over one epoch: per-key
    writer chains fixed at plan time, base values that arrive from the
    executors, and per-transaction computed inputs/outputs. Exposed for the
    QCheck equivalence tests ([Chains] under {e any} base delivery order
    must equal the serial reference). *)
module Chains : sig
  type t

  val create : txns:Txnkit.Txn.t array -> attempts:int array -> t
  (** [txns] in queue (sequence) order; [attempts.(seq)] is the attempt id
      the recorder and KV writer tags use for that transaction. *)

  val deliver_base : t -> key:int -> data:int -> writer:int -> unit
  (** Record a pre-epoch base value. First delivery wins. *)

  val pass : t -> int list
  (** One forward pass in sequence order: (re)compute every transaction
      whose inputs are available and changed; returns the changed
      sequence numbers. A single pass after a delivery reaches the fixpoint
      because dependencies only flow forward. *)

  val computed : t -> int -> (int * int) list option
  (** The transaction's current (key, value) write pairs; final once the
      commit frontier reaches it. *)

  val final_reads : t -> int -> (int * int) list
  (** [(key, writer)] observations of a transaction's reads — the last
      committed writer before it in the queue, else the base writer. Only
      meaningful once the frontier reaches the transaction. *)

  val spec_aborts : t -> int
  (** Number of speculative re-executions so far. *)

  val serial_writes : ?base:(int -> int) -> Txnkit.Txn.t array -> (int * int) list array
  (** Reference model: execute the batch serially in array order against
      [base] (default all-zero); per-transaction write pairs. Chains must
      converge to exactly this, whatever order bases arrive in. *)
end

val make : Txnkit.Cluster.t -> variant:variant -> Txnkit.System.t
(** Instantiate the family on a cluster (requires Raft groups). The
    planner closes a batch every 10 ms. *)
