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

(** {2 Rows}

    A figure row is declared once, as named cells. The runner prints each
    row as a CSV line and records its exact values for
    [BENCH_results.json]; a block's header line is its first printed row's
    column names. *)

type value =
  | Int of int
  | Float of int * float  (** printed with this many decimals *)
  | Str of string
  | Json_only of Trace.json  (** recorded for the JSON, never printed *)

type row = (string * value) list
(** Column name and value, in CSV order. Every recorded row starts with
    [("figure", Str name)]. *)

type results = {
  figures : (string * row list) list;  (** every figure run, its rows in emission order *)
  messages : Trace.t option;
      (** every figure run's messages per kind and per DC link, folded with
          {!Trace.absorb}; present iff counting was asked for *)
}

val json : results -> Trace.json
(** The [figures] object of [BENCH_results.json]: figure name -> its rows,
    each an object of its cells with exact values. *)

(** {2 The figure table} *)

type ctx
(** What a running figure is handed: its name in the table, the scale, and
    the invocation's row and message collectors. *)

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

val unknown : ?table:(string * (ctx -> unit)) list -> string list -> string option
(** The first name not in the table, if any. *)

val run :
  ?count_messages:bool ->
  ?table:(string * (ctx -> unit)) list ->
  scale ->
  string list ->
  (results, string) result
(** Run the named figures in order, printing their CSV blocks on stdout,
    and return their rows. [Error name] for the first name not in the
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
    of the scale) farmed out to the {!Pool}, with rows printed and recorded
    on the calling domain in the sequential cell order. Output
    is byte-for-byte independent of the pool's job count. *)
