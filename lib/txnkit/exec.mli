(** Per-transaction execution plumbing shared by all protocols: partition
    plans, read-result assembly, write-value computation, the commit
    install, and the partial-abort claim round trip. *)

type plan = {
  participants : int list;  (** partitions, sorted *)
  reads_of : int -> int array;  (** partition -> read keys there *)
  writes_of : int -> int array;
}

val plan_of : Cluster.t -> Txn.t -> plan

val read_values : Store.Kv.t -> int array -> (int * int * int) list
(** [(key, data, version)] for each key, from a replica's store. *)

val assemble_reads : Txn.t -> (int * int * int) list list -> int array
(** Merges per-partition [(key, data, version)] lists into values aligned
    with the transaction's read set. Missing keys read as 0. *)

val write_pairs : Txn.t -> int array -> (int * int) list
(** [(key, value)] pairs from the transaction's write set and computed
    write values. *)

val writes_from_replies : Txn.t -> (int * int * int) list list -> (int * int) list
(** [write_pairs] over [assemble_reads] of the per-partition read replies:
    the commit's [(key, value)] write set. *)

val install : Check.Recorder.t -> Store.Kv.t -> txn:int -> (int * int) list -> unit
(** Commit install at one replica: puts each [(key, value)] pair with [txn]
    as its writer and reports the install to the history recorder. *)

val pairs_on_partition : Cluster.t -> partition:int -> (int * int) list -> (int * int) list

(** {2 Partial-abort claims}

    With partial aborts on, a retry {e claims} the cached (key, version)
    pairs of its validated read prefix instead of asking for the data again.
    The server compares each claimed version against its live store: a match
    omits the value from the reply (the payload shrinks — that is the real
    saving), a mismatch serves the key fresh. Either way the server records
    the {e full} read slice to the checker, so histories are identical with
    the cache on or off. *)

type claims = (int * int * int) list
(** A partition's claims: [(key, data, version)] triples from the validated
    prefix. The request carries the (key, version) pairs; the client keeps
    the data to fill in the values the server omits. *)

val claims_of : Txn.t -> int array -> claims
(** The claims for a partition's read slice; [[]] when partial aborts are
    off or nothing is validated. *)

val claim_extra_bytes : claims -> int
(** Wire cost of piggybacking the claims on a read-and-prepare. *)

val serve : Store.Kv.t -> int array -> claims -> (int * int * int) list
(** Server side: the [(key, data, version)] triples that must be served
    fresh — unclaimed keys plus claims whose version no longer matches the
    store — in key order. The reply's payload is their count. *)

val absorb : Txn.t -> attempt:int -> claims -> (int * int * int) list -> (int * int * int) list
(** Client side, on a reply that honored [claims]: credits the claims the
    server validated (their keys are absent from the served triples) to
    [attempt]'s reuse counter, merges them back in (served values win on
    overlap), folds the result into the prefix cache and returns it. The
    driver reports the credit — values actually omitted from replies — as
    validated reuse, so over-claiming never inflates the accounting; a
    stale [attempt] is credited nothing. *)

val note_reads : Txn.t -> (int * int * int) list -> unit
(** Folds authoritatively served [(key, data, version)] entries into the
    prefix cache (no-op when partial aborts are off; negative versions —
    speculative forwards — are skipped). *)

val salvage_reads :
  Store.Kv.t -> Txn.t -> reads:int array -> fail_key:int -> (int * int * int) list
(** Abort-time salvage: the aborting server's current [(key, data, version)]
    triples for the partition's read keys that lie strictly before
    [fail_key] in the transaction's read order — exactly the slice a resumed
    retry could claim. This is what lets a victim aborted {e before} being
    served (Natto's priority aborts, Carousel's arrival conflicts) still
    restart with a populated prefix. The bound keeps the abort notice — the
    message gating the retry — small. Empty when partial aborts are off or
    the conflict is unknown ([fail_key < 0]) or at read index 0; a
    write-set-only [fail_key] salvages the whole local read slice. Entries
    are read from the aborting leader's store and revalidated like any
    other claim, so a racing later write is always repaired by a fresh
    serve. *)

val salvage_all : Store.Kv.t -> Txn.t -> reads:int array -> (int * int * int) list
(** Unbounded salvage: the full local read slice, regardless of the fail
    index. For paths where the extra bytes are off the retry's critical
    path (Natto's Release processing) or the abort reply is the vote
    itself (Carousel Fast's leader): a later attempt's claim limit can
    exceed this one's, and a cached entry stays claimable until its
    version moves. Empty when partial aborts are off. *)
