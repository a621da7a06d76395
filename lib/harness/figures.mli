(** One runner per table/figure of the paper's evaluation (§5).

    Each runner prints a header naming the experiment and a CSV block with
    one row per (x-value, system): the same series the paper plots. Scale is
    controlled by {!scale}: [Quick] uses shortened runs and fewer
    repetitions (the simulator is deterministic, so percentiles stabilize
    fast); [Full] reproduces the paper's 60-second runs. *)

type scale = Quick | Full

val scale_of_env : unit -> scale
(** [Full] when [NATTO_BENCH_FULL] is set, else [Quick]. *)

val seeds : scale -> int list
(** Repetition seeds each figure runs at this scale. *)

val sweep :
  figure:string ->
  x_label:string ->
  setup_of:('a -> Experiment.setup) ->
  gen_of:('a -> Workload.Gen.t) ->
  xs:'a list ->
  systems:Experiment.system_spec list ->
  scale:scale ->
  show:('a -> string) ->
  unit
(** The generic (x × system) grid behind most figures: every cell is an
    independent batch of checked runs (one per seed of [scale]) farmed out
    to the {!Pool}, with rows printed — and points collected — on the
    calling domain in the sequential cell order. Output is byte-for-byte
    independent of the pool's job count. Exposed for the determinism
    tests. *)

val table1 : unit -> unit
(** Prints the Table 1 RTT matrix the simulation uses. *)

val fig7_ycsbt : scale -> unit
(** Fig. 7(a)/(b): YCSB+T, input rate sweep 50-350 txn/s, 11 systems,
    high-priority p95 vs rate and low-priority p95 vs goodput. *)

val fig7_retwis : scale -> unit
(** Fig. 7(c)/(d): Retwis, 100-1500 txn/s, 8 systems. *)

val fig7_smallbank : scale -> unit
(** Fig. 7(e)/(f): SmallBank, 500-2000 txn/s, 8 systems. *)

val fig8_ycsbt : scale -> unit
(** Fig. 8(a): YCSB+T @50 txn/s, Zipf 0.65-0.95, 11 systems. *)

val fig8_retwis : scale -> unit
(** Fig. 8(b): Retwis @100 txn/s, Zipf 0.65-0.95, 8 systems. *)

val fig9 : scale -> unit
(** Fig. 9: YCSB+T @350 txn/s, high-priority percentage 10-100%. *)

val fig10 : scale -> unit
(** Fig. 10: SmallBank with sendPayment=high, rate sweep, p95 latency
    increase ratio relative to the lowest rate. *)

val fig11 : scale -> unit
(** Fig. 11: YCSB+T @350 txn/s, network delay variance 0-40% (Pareto). *)

val fig12 : scale -> unit
(** Fig. 12: YCSB+T @100 txn/s, packet loss 0-3%. *)

val fig13 : scale -> unit
(** Fig. 13: Retwis @1000 txn/s on the hybrid AWS+Azure topology. *)

val fig14 : scale -> unit
(** Fig. 14: peak throughput vs number of partitions (2-12), uniform
    Retwis, 3-DC local cluster. *)

val ablation : scale -> unit
(** Design-knob ablations the paper mentions but does not sweep:
    completion-estimate refinement on/off, starvation promotion, timestamp
    pad sensitivity. *)

val failover : scale -> unit
(** Failure experiment (not in the paper): partition 0's leader crashes at
    one third of the run and restarts at two thirds. Reports the
    high-priority p95 before/during/after the outage per system, the
    after/before recovery ratio, and commits after the heal. *)

val attribution : scale -> unit
(** Commit-latency critical path (not a paper figure; the breakdown behind
    Fig. 7(c)'s story): one system per protocol family at YCSB+T Zipf 0.95
    @100 txn/s, each run under the metrics registry and the latency
    attribution engine. Prints, per system and priority class, the mean
    end-to-end latency and the percentage split across wan / cpu_queue /
    lock_wait / queue_wait / replication / backoff / exec / residual
    segments — 2PL
    dominated by lock_wait, Carousel by wan, Natto shifting low-priority
    time into backoff and lock_wait. *)

val simthroughput : scale -> unit
(** Simulator engine throughput (events per wall second) for Natto-RECSF,
    swept over cluster size (partitions, single job) and over the Domain
    pool's job count (fixed seed batch). Not part of {!all}: the wall-time
    fields are machine-dependent, so the figure only runs when asked for
    by name. The [events] column is deterministic — identical across job
    counts — and serves as a regression lock on the event stream. *)

val check_figure : scale -> unit
(** Strict-serializability checker sweep: one system per protocol family
    (2PL+2PC, TAPIR, Carousel Basic, Carousel Fast, Natto-RECSF, plus both
    QueCC variants) at YCSB+T
    Zipf 0.95, fault-free and under a leader-crash + DC-cut schedule.
    Prints one verdict row per combination and fails loudly (with rendered
    counterexamples) on any violation. The latency figures also run under
    the checker; this one reports the verdicts as data. *)

val queccsweep : scale -> unit
(** QueCC head-to-head (ISSUE 8): both queue-oriented variants vs Natto
    TS/CP/RECSF, YCSB+T @100 txn/s at Zipf 0.8 / 0.95 / 0.99 / 1.2. The
    deterministic rows commit with zero contention aborts; the collected
    points carry their [spec_aborts] (in-epoch re-executions) instead. *)

val tailblame : scale -> unit
(** Causal blame ranking (ISSUE 9): one system per protocol family — plus
    the three headline Natto variants — at YCSB+T Zipf 0.8 / 0.99 / 1.2,
    each run under the metrics registry and the {!Metrics.Blame} profiler.
    Prints, per (theta, system), the class×class blocked-µs matrix, the
    priority-inversion µs (high blocked by low), inversion per high commit,
    and hot-key concentration (share of blamed wait on the top-1/top-8
    keys); then a per-theta ranking with ratios against the no-priority
    2PL baseline and full blame reports (exemplar timelines included) for
    2PL and Natto-RECSF at Zipf 0.99. Deterministic at any job count. *)

val retrysweep : scale -> unit
(** Partial-abort sweep (ISSUE 10): one system per optimistic family —
    plus 2PL and the Natto TS/RECSF pair — at YCSB+T Zipf 0.8 → 1.2, each
    cell run checked with resume-from-prefix off and on (the [pa] CSV
    column). The first seed of every Zipf-0.99 cell is also metered,
    splitting every aborted attempt's span into reused vs discarded µs
    ({!Metrics.Attribution.wasted_work}); each family's discarded-µs
    reduction is printed as a [#] comment. Deterministic at any job
    count. *)

val all : scale -> unit
val run_by_name : string -> scale -> bool
(** Dispatch "fig7ab" ... "fig14" | "table1" | "check"; [false] if unknown. *)

val names : string list

(** {2 Machine-readable results}

    Every printed data point is also collected in memory; the bench harness
    serializes them to [BENCH_results.json]. *)

type point = {
  pt_figure : string;
  pt_x_label : string;
  pt_x : string;
  pt_system : string;  (** series name *)
  pt_fields : (string * float) list;  (** named numeric columns *)
}

val collected_points : unit -> point list
(** Points in emission order. *)

val reset_points : unit -> unit

(** {2 Message totals} *)

val count_messages : unit -> unit
(** Count the messages of every later figure run per kind and per DC link
    (counters-only tracing, so figure numbers are unchanged). Call from the
    main domain before any figure runs. *)

val message_totals : unit -> Trace.t option
(** The counters sink every figure run since {!count_messages} was folded
    into with {!Trace.absorb}; [None] if counting is off. *)
