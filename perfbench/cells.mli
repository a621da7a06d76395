(** The benchmark's workloads and the phase-split checked cell that runs
    them.

    A cell is one checked simulation, cut at the public calls a run is made
    of: generator construction, {!Txnkit.Cluster.build} and the family's
    [make] (set-up), {!Workload.Driver.run} (simulate), then
    {!Check.Recorder.history} and {!Check.Checker.check} (check). Each call
    runs inside a {!Spans} span, so its host time is measured from outside
    the simulator. The sequence is the one {!Harness.Experiment.run_outcome}
    performs, so a cell's events and driver result are those of the
    figures' runs for the same setup, spec and seed. *)

type workload = {
  name : string;
  spec : Harness.Experiment.system_spec;
  setup : Harness.Experiment.setup;
  make_gen : unit -> Workload.Gen.t;
  tail_p : float;
      (** the fixed percentile reported as [sim_tail_*]; chosen so at least
          ten in-window samples of each class lie beyond it *)
}

val workloads : workload list
(** [ycsbt-contended], [smallbank-10k], [retwis-batched]. *)

val find : string -> workload option

type cell = {
  setup_s : float;  (** generator + cluster build + family make *)
  simulate_s : float;  (** [Workload.Driver.run] *)
  check_s : float;  (** recorder history + checker *)
  cell_s : float;  (** the whole cell, spans included *)
  minor_words : float;  (** allocated while simulating *)
  major_gcs : int;  (** major collections over the cell *)
  cluster : Txnkit.Cluster.t;
  result : Workload.Driver.result;
  events : int;  (** engine events processed *)
  report : Check.Checker.report;
}

val setup :
  ?trace:Trace.t ->
  ?metrics:Metrics.Registry.t ->
  Spans.t ->
  workload ->
  seed:int ->
  Workload.Gen.t * Txnkit.Cluster.t * Txnkit.System.t
(** The set-up phase alone, in spans [workload.gen], [txnkit.cluster.build]
    and [<family>.make]; the recorder is enabled before the family is made,
    as the harness does. *)

val run : ?trace:Trace.t -> ?metrics:Metrics.Registry.t -> Spans.t -> workload -> seed:int -> cell
(** One checked cell inside a [cell] span, started after a full major
    collection so that its collector work does not depend on what ran
    before. [trace] and [metrics] are installed at cluster construction, as
    {!Harness.Experiment.run_metrics} does; both are pure observation. *)

val run_idle : Spans.t -> workload -> seed:int -> with_proxies:bool -> until:Simcore.Sim_time.t -> float
(** Host seconds to advance a freshly built cluster with no transactions to
    simulated time [until]: the standing cost of the background planes
    (measurement probes and cache polls, Raft heartbeats). *)

val commits : Workload.Driver.result -> int
(** Every commit, in the window or not. *)

val generated : Workload.Driver.result -> int
(** Transactions the driver created: commits + failed + unfinished. *)
