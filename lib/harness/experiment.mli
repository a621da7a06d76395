(** Experiment runner: builds a fresh cluster per (system, seed) pair and
    drives a workload through it, so runs never share simulator state. *)

type system_spec =
  | Carousel_basic
  | Carousel_fast
  | Tapir
  | Twopl of Twopl.variant
  | Natto of Natto.Features.t
  | Quecc of Quecc.variant

val spec_name : system_spec -> string

val deterministic : system_spec -> bool
(** True for queue-oriented deterministic families (QueCC): zero
    client-visible retries outside fault windows, speculation aborts
    instead. *)

val all_natto_variants : system_spec list
(** TS, LECSF, PA, CP, RECSF — the paper's five evaluation points. *)

val eleven_systems : system_spec list
(** Every system in Fig. 7(a): the three 2PL variants, TAPIR, both
    Carousels, and the five Natto variants. *)

val eight_systems : system_spec list
(** The Fig. 7(c) set: the 2PL variants, TAPIR, the Carousels, Natto-TS and
    Natto-RECSF. *)

val one_per_family : system_spec list
(** One system per protocol family, as the failover, checker and
    attribution figures run them: 2PL+2PC, TAPIR, both Carousels,
    Natto-RECSF and both QueCCs. *)

val twopl_and_recsf : system_spec list
(** The Figs. 9 and 10 set: the three 2PL variants and Natto-RECSF. *)

type setup = {
  topo : Netsim.Topology.t;
  n_partitions : int;
  clients_per_dc : int;
  net_config : Netsim.Network.config;
  driver : Workload.Driver.config;
  batching : Rpc.Batcher.config option;
      (** install an [Rpc.Batcher] + Raft group commit on every cluster the
          experiment builds; [None] (the default) is byte-identical to the
          pre-batching harness *)
}

val default_setup : setup
(** §5.1 defaults: azure5, 5 partitions, 2 clients per DC. *)

type metrics = {
  m_registry : Metrics.Registry.t;  (** sampled windows, histograms, counters *)
  m_breakdowns : Metrics.Attribution.txn_breakdown list;
      (** one per committed transaction; segments sum exactly to each
          transaction's end-to-end latency *)
  m_blame : Metrics.Blame.t;
      (** causal blame profile over the same breakdowns: class×class
          inversion matrix, hot keys, top blockers, tail exemplars *)
}

type outcome = {
  o_spec : system_spec;
  o_seed : int;
  o_result : Workload.Driver.result;
  o_check : (Check.History.t * Check.Checker.report) option;
      (** present iff the run was checked; not yet asserted *)
  o_trace : Trace.t option;
      (** the run's trace sink: full-event with [~trace], counters-only with
          [~metrics] or [~counters] alone, absent otherwise *)
  o_metrics : metrics option;  (** present iff the run was metered *)
  o_messages : int;  (** [Netsim.Network.messages_sent] for the run *)
  o_batch : Rpc.Batcher.stats option;
      (** batcher occupancy/flush statistics, present iff the setup batched *)
  o_events : int;
      (** engine events processed over the run; deterministic per
          (spec, seed), so it doubles as a cheap determinism lock *)
}
(** Everything one run observed, as a value. *)

val run_outcome :
  ?check:bool ->
  ?faults:Faults.schedule ->
  ?trace:bool ->
  ?metrics:bool ->
  ?counters:bool ->
  setup ->
  system_spec ->
  gen:Workload.Gen.t ->
  seed:int ->
  outcome
(** One run: fresh cluster, one system, one workload pass. The optional
    arguments choose what is observed; each is pure observation, so
    [o_result] is byte-for-byte that of a bare run whatever is on.

    - [faults] is installed before the driver starts (see {!Faults.install}).
    - [check] (default [false]) records the transaction history and verifies
      strict serializability (plus increment conservation for
      {!Workload.Gen.increment_rmw} workloads) after the drain, into
      [o_check]. A violation is reported, not raised: see {!merge_outcome}.
    - [trace] (default [false]) records every message and transaction span
      into [o_trace], for {!Trace.write_chrome_trace}.
    - [metrics] (default [false]) adds an enabled registry (100 ms windows)
      and a full trace, and analyses the per-transaction latency attribution
      and blame after the drain, into [o_metrics]. Without [trace] only the
      trace's counters are kept in [o_trace]. The registry's sampler adds
      one engine event per window to [o_events].
    - [counters] (default [false]) counts messages per kind and per DC link
      in a counters-only [o_trace] (constant memory) when no full trace is
      on; totals over many runs are a fold of {!Trace.absorb}.

    The function builds per-run state only, never prints and never raises
    on a checker violation, so the {!Pool} can run it on any domain. *)

val merge_outcome : outcome -> Workload.Driver.result
(** Assert the check report, if any — raising {!Check.Checker.Violation}
    with a rendered counterexample on failure — and return the run's
    result. Merging outcomes in input order on the main domain is what
    keeps parallel harness output byte-for-byte identical to a sequential
    run. *)

type summary = {
  p95_high_ms : float;
  p95_high_ci : float;
  p95_low_ms : float;
  p95_low_ci : float;
  goodput_high_tps : float;
  goodput_low_tps : float;
  failed : int;
  unfinished : int;
  aborts : int;
  spec_aborts : int;  (** deterministic families' in-epoch re-executions *)
  partial_restarts : int;
      (** retries that claimed at least one validated-prefix key; 0 with
          partial aborts off *)
  keys_reused : int;  (** total read keys claimed across those retries *)
  keys_validated : int;
      (** claimed keys a server confirmed current and omitted from a reply *)
  commits : int;
}

val summarize : Workload.Driver.result list -> summary
(** Aggregate per-seed results: percentile statistics are averaged across
    repetitions with 95% confidence intervals (§5.1's error bars); counts
    are summed. *)
