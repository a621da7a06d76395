(** Fixed-size Domain worker pool with deterministic ordered collection.

    [map_ordered ~jobs f items] applies [f] to every item, running up to
    [jobs] applications concurrently on separate domains (the calling
    domain participates as one worker), and returns the results {e in
    input order}. With [jobs <= 1] it degenerates to [List.map] on the
    calling domain — no domains are spawned, so a sequential run is
    exactly the pre-pool code path.

    Jobs must be self-contained: they may not print, nor touch state
    shared with other jobs. The experiment harness guarantees this by
    having each run build its own [Engine]/[Rng]/[Cluster] and return its
    observations as values, which the main domain merges in input order —
    that is what makes [--jobs N] output byte-for-byte identical to
    [--jobs 1].

    If a job raises, [map_ordered] waits for the remaining jobs and then
    re-raises the exception of the lowest-indexed failed item (with its
    backtrace), so error behaviour is deterministic too. *)

val map_ordered : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

val map_ordered_auto : ('a -> 'b) -> 'a list -> 'b list
(** [map_ordered] with [jobs = jobs_for ~cells:(List.length items)]. *)

val set_jobs : int option -> unit
(** Process-wide override from [--jobs N]; [None] restores auto selection.
    Call from the main domain before any runs. *)

val jobs_for : cells:int -> int
(** Resolved worker count for a batch of [cells] independent jobs: the
    [set_jobs] override if any, else [Domain.recommended_domain_count ()];
    always within [1 .. max 1 cells]. *)

(** {2 Speedup accounting} *)

val busy_seconds : unit -> float
(** Cumulative wall-clock time spent inside job functions since the process
    started, summed across domains. [busy / wall] is the achieved parallel
    speedup. *)
