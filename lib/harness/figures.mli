(** The paper's evaluation (§5) as one table of named figures, run by
    {!run}.

    Scale is controlled by {!scale}: [Quick] uses shortened runs and fewer
    repetitions (the simulator is deterministic, so percentiles stabilize
    fast); [Full] reproduces the paper's 60-second runs. *)

type scale = Quick | Full

val scale_of_env : unit -> scale
(** [Full] when [NATTO_BENCH_FULL] is set, else [Quick]. *)

val seeds : scale -> int list
(** Repetition seeds each figure runs at this scale. *)

(** {2 Machine-readable results}

    Every printed data point is also collected; the bench harness
    serializes them to [BENCH_results.json]. *)

type point = {
  pt_figure : string;
  pt_x_label : string;
  pt_x : string;
  pt_system : string;  (** series name *)
  pt_fields : (string * float) list;  (** named numeric columns *)
}

type results = {
  points : point list;  (** in emission order *)
  messages : Trace.t option;
      (** every figure run's messages per kind and per DC link, folded with
          {!Trace.absorb}; present iff counting was asked for *)
}

(** {2 The figure table} *)

type ctx
(** What a running figure is handed: its name in the table, the scale, and
    the invocation's point and message collectors. *)

val names : string list
(** Every figure {!run} accepts, in table order: Table 1, Figs. 7-14, the
    extra experiments (batching, ablation, failover, attribution, checker,
    QueCC, tail-blame and retry sweeps), and last the simulator-throughput
    figure. Each runner prints a header naming the experiment and
    a CSV block with one row per (x-value, system): the same series the
    paper plots. *)

val all : string list
(** {!names} without the simulator-throughput figure, whose wall-clock
    fields are machine-dependent, so it only runs when asked for by name. *)

val run :
  ?count_messages:bool ->
  ?table:(string * (ctx -> unit)) list ->
  scale ->
  string list ->
  (results, string) result
(** Run the named figures in order, printing their CSV blocks on stdout,
    and return their points. [Error name] for the first name not in the
    table, before anything runs. [count_messages] (default [false]) counts
    every run's messages (counters-only tracing, so figure numbers are
    unchanged) into [messages]. [table] defaults to the paper's figures
    (see {!names}); tests pass their own. *)

val sweep :
  caption:string ->
  x_label:string ->
  setup_of:('a -> Experiment.setup) ->
  gen_of:('a -> Workload.Gen.t) ->
  xs:'a list ->
  systems:Experiment.system_spec list ->
  show:('a -> string) ->
  ctx ->
  unit
(** The generic (x × system) grid behind most figures: prints the header,
    then every cell is an independent batch of checked runs (one per seed
    of the scale) farmed out to the {!Pool}, with rows printed — and points
    collected — on the calling domain in the sequential cell order. Output
    is byte-for-byte independent of the pool's job count. *)
